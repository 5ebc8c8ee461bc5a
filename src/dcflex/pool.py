"""Ordered work on forked workers, one per usable CPU.

``run_ordered`` is the one pool of dcflex: ``gen-instance`` formats the
blocks of ``signal.csv`` with it, ``compare`` solves its cells with it and
branch and bound solves each node's two children with it. Workers are bare
``os.fork`` children, so they inherit the task and everything it refers to;
only task indices and pickled results cross between processes, over pipes.
A worker runs every ``run_ordered`` call of its own in process, so pools
never nest.
"""

import functools
import os
import pickle
import select

_in_worker = False  # True in a forked worker


def usable_cpus() -> int:
    """How many CPUs this process may run on."""
    return len(os.sched_getaffinity(0))


@functools.cache
def _hold_openblas_to_one_thread() -> None:
    """Hold OpenBLAS, if this process has loaded it (numpy's wheels do), to
    one thread, here and in every worker forked from now on.

    Each worker has one CPU: two workers' BLAS threads spinning on two CPUs
    made a node LP of a 4 DC x 12 slot x 24 cluster model about 4x slower.
    It is set once, before forking, because a worker that set it itself
    would first restart OpenBLAS's threads (about 1 ms per worker)."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split(None, 5)[5].strip() for line in fh if "openblas" in line})
    except OSError:
        return
    import ctypes

    for path in paths:
        lib = ctypes.CDLL(path)
        for name in ("openblas_set_num_threads", "scipy_openblas_set_num_threads64_",
                     "scipy_openblas_set_num_threads"):
            if hasattr(lib, name):
                setter = getattr(lib, name)
                setter.argtypes, setter.restype = [ctypes.c_int], None
                setter(1)
                return


def _read(fd: int, size: int) -> bytes:
    """Exactly ``size`` bytes from pipe ``fd``, or b"" if it ends first.

    The pipe is read raw: a buffered reader could hold a second message
    that ``select`` no longer reports."""
    chunks = []
    while size:
        chunk = os.read(fd, size)
        if not chunk:
            return b""
        chunks.append(chunk)
        size -= len(chunk)
    return b"".join(chunks)


def _write(fd: int, data: bytes) -> None:
    view = memoryview(data)
    while view:
        view = view[os.write(fd, view):]


def _serve(task, tasks: int, results: int) -> None:
    """A worker's loop: for each task index read from ``tasks``, write the
    pickled (True, result) or (False, exception) to ``results``, each
    behind its 8-byte length, until ``tasks`` ends."""
    while head := _read(tasks, 8):
        try:
            reply = (True, task(int.from_bytes(head, "little")))
        except Exception as exc:
            reply = (False, exc)
        try:
            data = pickle.dumps(reply)
        except Exception as exc:  # a result or exception pickle cannot carry
            data = pickle.dumps((False, exc))
        _write(results, len(data).to_bytes(8, "little") + data)


def run_ordered(task, n: int, collect, died) -> None:
    """Call ``collect(task(k))`` for k = 0, ..., n - 1, in that order.

    With more than one usable CPU, more than one task and ``os.fork``,
    forked workers (one per usable CPU, at most one per task) run the
    tasks, each taking the next one when it is idle, with at most two per
    worker not yet collected; else, and always inside a worker, they run
    here. Either way ``collect`` sees the same results in the same order.
    The first pooled call holds OpenBLAS, where numpy loaded it, to one
    thread for the rest of the process, and so in every worker.

    A task fails when it raises, or when its worker dies (killed by a
    signal or the OOM killer) before it returns; its result is then that
    exception, or ``died(k)`` for task k. The first task in order that
    fails raises that here, once every task before it is collected. No
    worker outlives the call: idle workers exit when their task pipe
    closes, and busy ones are killed, before every one is reaped.
    """
    global _in_worker
    workers = min(usable_cpus(), n) if hasattr(os, "fork") and not _in_worker else 1
    if workers < 2:
        for k in range(n):
            collect(task(k))
        return
    _hold_openblas_to_one_thread()
    task_pipes, result_pipes, pids = [], [], []
    idle = []  # (pid, task pipe, result pipe) of each worker waiting for a task
    busy = {}  # result pipe -> (worker, k) of each worker running task k
    try:
        for _ in range(workers):
            task_r, task_w = os.pipe()
            result_r, result_w = os.pipe()
            task_pipes.append(task_w)
            result_pipes.append(result_r)
            pid = os.fork()
            if pid == 0:
                try:
                    _in_worker = True
                    for fd in task_pipes + result_pipes:
                        os.close(fd)
                    _serve(task, task_r, result_w)
                finally:
                    os._exit(0)
            os.close(task_r)
            os.close(result_w)
            pids.append(pid)
            idle.append((pid, task_w, result_r))
        held = {}  # k -> (ok, result or exception) of tasks done but not collected
        sent = done = 0
        while done < n:
            while idle and sent < min(n, done + 2 * workers):
                worker = idle.pop()
                try:
                    _write(worker[1], sent.to_bytes(8, "little"))
                    busy[worker[2]] = (worker, sent)
                except BrokenPipeError:  # it died waiting for a task
                    held[sent] = (False, died(sent))
                sent += 1
            if sent == n:  # every task is sent: each worker exits after its last
                while task_pipes:
                    os.close(task_pipes.pop())
            if done in held:
                ok, value = held.pop(done)
                if not ok:
                    raise value
                collect(value)
                done += 1
                continue
            for result_r in select.select(list(busy), [], [])[0]:
                worker, k = busy.pop(result_r)
                head = _read(result_r, 8)
                data = head and _read(result_r, int.from_bytes(head, "little"))
                if data:
                    held[k] = pickle.loads(data)
                    idle.append(worker)
                else:
                    held[k] = (False, died(k))
    finally:
        for fd in task_pipes + result_pipes:
            os.close(fd)
        if busy:
            from signal import SIGKILL  # only a call broken off has busy workers

            for (pid, _, _), _ in busy.values():
                os.kill(pid, SIGKILL)
        for pid in pids:
            os.waitpid(pid, 0)
