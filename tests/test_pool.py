import ctypes
import os
import time

import pytest

import dcflex.pool as pool
from dcflex.pool import Workers, run_ordered

from conftest import no_child_processes


@pytest.fixture
def two_cpus(monkeypatch):
    monkeypatch.setattr(pool, "usable_cpus", lambda: 2)


def test_results_of_any_size_are_collected_in_order(two_cpus):
    # Results larger than a pipe's buffer arrive in several reads.
    sizes = [300_000, 3, 70_000, 0, 1, 200_000, 65_536, 9]
    out = []
    run_ordered(lambda k: bytes([k]) * sizes[k], len(sizes), out.append, None)
    assert out == [bytes([k]) * size for k, size in enumerate(sizes)]
    assert no_child_processes()


def test_a_worker_runs_its_own_pool_in_process(two_cpus):
    def task(k):
        inner = []
        run_ordered(lambda j: os.getpid(), 2, inner.append, None)
        return os.getpid(), inner

    out = []
    run_ordered(task, 3, out.append, None)
    assert len(out) == 3
    assert all(pid != os.getpid() and inner == [pid, pid] for pid, inner in out)
    assert no_child_processes()


def test_at_most_two_tasks_per_worker_run_ahead_of_collection(two_cpus, tmp_path):
    def task(k):
        (tmp_path / str(k)).touch()
        return k

    out, started = [], []

    def collect(k):
        if k == 0:
            time.sleep(0.2)  # the workers would run ahead now if they could
            started.append(len(list(tmp_path.iterdir())))
        out.append(k)

    run_ordered(task, 12, collect, None)
    assert out == list(range(12)) and 2 <= started[0] <= 4
    assert no_child_processes()


def test_a_worker_that_dies_fails_its_own_task_in_order(two_cpus):
    parent = os.getpid()

    def task(k):
        if k == 3 and os.getpid() != parent:
            os._exit(1)
        return k

    out = []
    with pytest.raises(LookupError, match="task 3"):
        run_ordered(task, 6, out.append, lambda k: LookupError(f"task {k}"))
    assert out == [0, 1, 2]
    assert no_child_processes()


def _openblas_thread_functions():
    """OpenBLAS's (get_num_threads, set_num_threads), found as the pool finds
    the latter."""
    with open("/proc/self/maps") as fh:
        paths = sorted({line.split(None, 5)[5].strip() for line in fh if "openblas" in line})
    for path in paths:
        lib = ctypes.CDLL(path)
        for name in ("openblas_set_num_threads", "scipy_openblas_set_num_threads64_",
                     "scipy_openblas_set_num_threads"):
            if hasattr(lib, name):
                setter = getattr(lib, name)
                setter.argtypes = [ctypes.c_int]
                return getattr(lib, name.replace("set", "get")), setter
    pytest.skip("numpy loaded no OpenBLAS here")


def test_the_first_pooled_call_holds_openblas_to_one_thread(two_cpus):
    import numpy  # noqa: F401  (loads OpenBLAS)

    get_threads, set_threads = _openblas_thread_functions()
    set_threads(2)
    pool._hold_openblas_to_one_thread.cache_clear()
    out = []
    run_ordered(lambda k: get_threads(), 2, out.append, None)
    assert out == [1, 1] and get_threads() == 1
    assert no_child_processes()


def test_runs_on_one_pool_are_served_by_the_same_workers(two_cpus):
    def task(arg):
        arg["pid"] = os.getpid()
        return arg

    with Workers(task, 2) as workers:
        first, second = [], []
        workers.run([{"k": k} for k in range(4)], first.append, None)
        # Made after the workers forked, so they can reach them only pickled.
        args = [{"k": k, "data": bytes(70_000)} for k in range(4)]
        workers.run(args, second.append, None)
        assert [r["k"] for r in first] == [r["k"] for r in second] == [0, 1, 2, 3]
        pids = {r["pid"] for r in first}
        assert len(pids) == 2 and os.getpid() not in pids
        assert {r["pid"] for r in second} == pids
        assert all("pid" not in arg for arg in args)  # each worker had a copy
        assert not no_child_processes()
    assert no_child_processes()


def test_a_caller_that_raises_between_runs_leaves_no_worker(two_cpus):
    out = []
    with pytest.raises(KeyError):
        with Workers(lambda k: k, 2) as workers:
            workers.run(range(3), out.append, None)
            raise KeyError("between runs")
    assert out == [0, 1, 2]
    assert no_child_processes()


def test_a_worker_that_dies_serves_no_later_run(two_cpus):
    parent = os.getpid()

    def task(k):
        if k == 1 and os.getpid() != parent:
            os._exit(1)
        return os.getpid()

    out = []
    with pytest.raises(LookupError, match="task 1"):
        with Workers(task, 2) as workers:
            # Task 0 is collected before task 1 fails, so no worker is busy then.
            with pytest.raises(LookupError, match="task 1"):
                workers.run(range(2), out.append, lambda k: LookupError(f"task {k}"))
            assert len(out) == 1
            survivors = []
            workers.run([0, 2, 3], survivors.append, None)
            assert len(set(survivors)) == 1 and parent not in survivors
            workers.run(range(4), out.append, lambda k: LookupError(f"task {k}"))
    assert no_child_processes()


def test_a_pool_whose_workers_all_died_fails_its_next_run(two_cpus):
    parent = os.getpid()

    def task(k):
        if os.getpid() != parent:
            os._exit(1)
        return k

    with Workers(task, 2) as workers:
        for _ in range(2):
            with pytest.raises(LookupError, match="task 0"):
                workers.run(range(3), None, lambda k: LookupError(f"task {k}"))
    assert no_child_processes()
