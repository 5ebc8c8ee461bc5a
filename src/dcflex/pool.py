"""Ordered work on forked workers, one per usable CPU.

``run_ordered`` is the one pool of dcflex: ``gen-instance`` formats the
blocks of ``signal.csv`` with it and ``compare`` solves its cells with it.
Workers are forked, so they inherit the task and everything it refers to;
only task indices and results cross between processes.
"""

import os
from collections import deque

_task = None  # a worker's task, set in the worker by _adopt


def usable_cpus() -> int:
    """How many CPUs this process may run on."""
    return len(os.sched_getaffinity(0))


def _adopt(task) -> None:
    global _task
    _task = task


def _run(k: int):
    return _task(k)


def run_ordered(task, n: int, collect, died) -> None:
    """Call ``collect(task(k))`` for k = 0, ..., n - 1, in that order.

    With more than one usable CPU, more than one task and ``os.fork``, a
    pool of forked workers (one per usable CPU, at most one per task) runs
    the tasks, with at most two per worker waiting to be collected; else
    they run here. Either way ``collect`` sees the same results in the same
    order.

    The first task in order that raises re-raises its exception here.
    Tasks the pool has not yet queued for a worker are then cancelled (the
    pool queues at most one beyond those running), and no worker outlives
    the call. A worker that dies (killed by a signal or the OOM killer)
    breaks the pool; ``died(k)`` is then raised in its place, k being the
    first task not collected.
    """
    workers = min(usable_cpus(), n) if hasattr(os, "fork") else 1
    if workers < 2:
        for k in range(n):
            collect(task(k))
        return
    # Imported here, because only the pooled path needs them: at module
    # level they would add about 10 ms to every command's start-up.
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    # A forked worker inherits its initializer's arguments: task is never pickled.
    pool = ProcessPoolExecutor(workers, multiprocessing.get_context("fork"), _adopt, (task,))
    done = 0
    try:
        pending = deque()
        for k in range(n):
            pending.append(pool.submit(_run, k))
            if len(pending) == 2 * workers:
                collect(pending.popleft().result())
                done += 1
        for future in pending:
            collect(future.result())
            done += 1
    except BrokenProcessPool:
        raise died(done) from None
    finally:
        pool.shutdown(cancel_futures=True)
