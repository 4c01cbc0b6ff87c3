"""Independent jobs spread over the usable cores by a pool of forked workers.

``run_all(tasks)`` calls every zero-argument task once and returns their
results in task order. With N = ``usable_cores()`` capped by the task
count, it forks N workers into a ``ProcessPoolExecutor`` and waits while
they run the tasks. A free worker takes the next task in index order, so a
slow task never holds back the ones queued behind it. The tasks are
closures and cannot be pickled, so they are left in a module global that
the workers inherit through the fork; only indices and results cross the
pipes. A task's exception is raised in the caller with the worker's
traceback as its cause, and results are read in task order, so the lowest
failing index is the one raised, as in a serial run. A worker that dies,
or an exception that cannot be unpickled, breaks the pool and raises
``BrokenProcessPool``, a ``RuntimeError``. The pool is shut down before
``run_all`` returns or raises, so no worker or pool thread outlives it.

The tasks run serially in the caller without ``os.fork``, with one usable
core, with fewer than two tasks, or while the caller runs other Python
threads: a forked child holds only the forking thread, so a lock another
thread held at the fork would stay locked in it. A profiler or tracer in
the caller sees the tasks' work only on that serial path, for instance
under ``taskset -c 0`` or with ``usable_cores`` bound to 1.
"""
from __future__ import annotations

import multiprocessing
import os
import threading
from concurrent.futures import ProcessPoolExecutor

_tasks = None  # the running call's tasks, inherited by its forked workers


def usable_cores() -> int:
    """Cores this process may be scheduled on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_all(tasks) -> list:
    """Each task's return value, in task order; see the module docstring."""
    global _tasks
    tasks = list(tasks)
    n_procs = min(usable_cores(), len(tasks))
    if n_procs < 2 or not hasattr(os, "fork") or threading.active_count() > 1:
        return [task() for task in tasks]
    pool = ProcessPoolExecutor(n_procs, mp_context=multiprocessing.get_context("fork"))
    _tasks = tasks  # the workers fork at the first submit, inside map
    try:
        return list(pool.map(_call, range(len(tasks))))
    finally:
        pool.shutdown(cancel_futures=True)
        _tasks = None


def _call(index: int):
    return _tasks[index]()
