"""Ordered work on forked workers, one per usable CPU.

``Workers`` is the one pool of dcflex. Its workers are bare ``os.fork``
children, forked at its first pooled ``run``, that call its task on each
argument a ``run`` sends them until its ``with`` block ends. They inherit
the task and everything it refers to, so only pickled arguments and
results cross between processes, over pipes. Branch and bound opens one
``Workers`` per search and solves each expanded node's two children on
it. ``run_ordered``, one ``run`` over 0, ..., n - 1 on workers of its own,
formats the blocks of ``signal.csv`` for ``gen-instance`` and solves
``compare``'s cells. A worker runs every pool of its own in process, so
pools never nest.
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


def _receive(fd: int) -> bytes:
    """The next message's pickle from pipe ``fd``, or b"" if the pipe ends first."""
    head = _read(fd, 8)
    return head and _read(fd, int.from_bytes(head, "little"))


def _send(fd: int, data: bytes) -> None:
    """Write pickle ``data`` to pipe ``fd`` behind its 8-byte length."""
    view = memoryview(len(data).to_bytes(8, "little") + data)
    while view:
        view = view[os.write(fd, view):]


def _serve(task, tasks: int, results: int) -> None:
    """A worker's loop: for each argument read from ``tasks``, send the
    pickled (True, result) or (False, exception) to ``results``, until
    ``tasks`` ends."""
    while data := _receive(tasks):
        try:
            reply = (True, task(pickle.loads(data)))
        except Exception as exc:
            reply = (False, exc)
        try:
            data = pickle.dumps(reply)
        except Exception as exc:  # a result or exception pickle cannot carry
            data = pickle.dumps((False, exc))
        _send(results, data)


def _drop(workers: list, kill: bool) -> None:
    """Close the pipes of ``workers``, kill them if asked, and reap them."""
    for pid, task_w, result_r in workers:
        os.close(task_w)
        os.close(result_r)
        if kill:
            from signal import SIGKILL  # only a pool broken off kills

            os.kill(pid, SIGKILL)
    for pid, _, _ in workers:
        os.waitpid(pid, 0)


class Workers:
    """Workers that call ``task`` on the arguments of each ``run``, opened
    by ``with`` and living until its block ends.

    With more than one usable CPU, a ``width`` over one and ``os.fork``,
    the first ``run`` forks min(usable CPUs, ``width``) workers, once it
    has held OpenBLAS, where numpy loaded it, to one thread for the rest of
    the process, and so in every worker. They serve that ``run`` and every
    later one, and exit when the block ends; if it ends by an exception,
    they are killed. Either way each is reaped. Else, and always inside a
    worker, every ``run`` calls ``task`` here.
    """

    def __init__(self, task, width: int):
        self.task = task
        self.width = width
        self.count = None  # workers forked by the first run; 0 when runs call task here
        self.idle = []  # (pid, task pipe, result pipe) of each worker waiting for a task

    def __enter__(self) -> "Workers":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        idle, self.idle = self.idle, []
        _drop(idle, kill=exc_type is not None)

    def _fork(self) -> None:
        global _in_worker
        count = min(usable_cpus(), self.width) if hasattr(os, "fork") and not _in_worker else 1
        self.count = count if count > 1 else 0
        if not self.count:
            return
        _hold_openblas_to_one_thread()
        for _ in range(count):
            task_r, task_w = os.pipe()
            result_r, result_w = os.pipe()
            pid = os.fork()
            if pid == 0:
                try:
                    _in_worker = True
                    for fd in [task_w, result_r] + [fd for w in self.idle for fd in w[1:]]:
                        os.close(fd)
                    _serve(self.task, task_r, result_w)
                finally:
                    os._exit(0)
            os.close(task_r)
            os.close(result_w)
            self.idle.append((pid, task_w, result_r))

    def run(self, args, collect, died) -> None:
        """Call ``collect(task(arg))`` for each of ``args``, in their order.

        On workers, each idle one takes the next argument, with at most two
        per worker not yet collected; either way ``collect`` sees the same
        results in the same order. Task k (counted from 0) fails when it
        raises, or when its worker dies (killed by a signal or the OOM
        killer) before it returns; its result is then that exception, or
        ``died(k)``. The first task in order that fails raises that here,
        once every task before it is collected. A worker that died, or that
        is still busy when a run is broken off, is reaped and serves no
        later run.
        """
        if self.count is None:
            self._fork()
        if not self.count:
            for arg in args:
                collect(self.task(arg))
            return
        args, idle = list(args), self.idle
        busy = {}  # result pipe -> (worker, k) of each worker running task k
        held = {}  # k -> (ok, result or exception) of tasks done but not collected
        sent = done = 0
        try:
            while done < len(args):
                while sent < min(len(args), done + 2 * self.count) and (idle or not busy):
                    if not idle:  # every worker has died
                        held[sent] = (False, died(sent))
                    else:
                        data = pickle.dumps(args[sent])
                        worker = idle.pop()
                        busy[worker[2]] = (worker, sent)
                        try:
                            _send(worker[1], data)
                        except BrokenPipeError:  # it died waiting for a task
                            del busy[worker[2]]
                            _drop([worker], kill=False)
                            held[sent] = (False, died(sent))
                    sent += 1
                if done in held:
                    ok, value = held.pop(done)
                    if not ok:
                        raise value
                    collect(value)
                    done += 1
                    continue
                for result_r in select.select(list(busy), [], [])[0]:
                    worker, k = busy.pop(result_r)
                    data = _receive(result_r)
                    if data:
                        held[k] = pickle.loads(data)
                        idle.append(worker)
                    else:
                        _drop([worker], kill=False)
                        held[k] = (False, died(k))
        finally:
            _drop([worker for worker, _ in busy.values()], kill=True)


def run_ordered(task, n: int, collect, died) -> None:
    """Call ``collect(task(k))`` for k = 0, ..., n - 1, in that order: one
    ``Workers(task, n).run`` over them, so on min(usable CPUs, n) workers
    forked for this call alone, with the contract of ``Workers.run``."""
    with Workers(task, n) as workers:
        workers.run(range(n), collect, died)
