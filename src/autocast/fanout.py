"""Independent jobs spread over the usable cores: one forked worker per extra core.

``run_all(tasks)`` calls every zero-argument task once and returns their
results in task order. Task i runs in process i mod N, where N is the
number of usable cores, capped by the number of tasks: process 0 is the
caller itself, and each other share runs in a child forked for it. The
caller computes its own share instead of waiting, so a profiler or timer
in the calling process keeps seeing work.

A worker inherits the tasks and everything they read through ``os.fork``,
so nothing is sent to it. It pickles its results, or the exception that
stopped it, to a pipe and leaves by ``os._exit``. A share stops at its first
failing task. Once every worker has been reaped, the caller raises the
exception of the lowest failing task index, which is the one a serial run
would have raised. A worker that dies without sending a result makes the
caller raise ``RuntimeError``.

The tasks run serially in the caller without ``os.fork``, with one usable
core, with fewer than two tasks, or while the caller runs other Python
threads: a forked child holds only the forking thread, so a lock another
thread held at the fork would stay locked in it.
"""
from __future__ import annotations

import os
import pickle
import signal
import sys
import threading
import traceback


class WorkerTraceback(Exception):
    """Cause attached to an exception re-raised from a worker: the worker's traceback."""

    def __str__(self) -> str:
        return self.args[0]


def usable_cores() -> int:
    """Cores this process may be scheduled on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_all(tasks) -> list:
    """Each task's return value, in task order; see the module docstring."""
    tasks = list(tasks)
    n_procs = min(usable_cores(), len(tasks))
    if n_procs < 2 or not hasattr(os, "fork") or threading.active_count() > 1:
        return [task() for task in tasks]
    shares = [range(k, len(tasks), n_procs) for k in range(n_procs)]
    _flush_std_streams()  # or a child would write the caller's buffered output again
    workers = []
    outcomes = []
    try:
        for share in shares[1:]:
            workers.append(_fork(tasks, share))
        outcomes.append(_run_share(tasks, shares[0]))
    except BaseException:
        for pid, _ in workers:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        outcomes += [_receive(pid, fd) for pid, fd in workers]
    results = [None] * len(tasks)
    for share, (values, _) in zip(shares, outcomes):
        for index, value in zip(share, values):
            results[index] = value
    failures = [failure for _, failure in outcomes if failure is not None]
    if failures:
        _, exc, text = min(failures, key=lambda failure: failure[0])
        if text is not None:
            raise exc from WorkerTraceback(text)
        raise exc
    return results


def _run_share(tasks, share, catch=Exception):
    """(values of the tasks run, None or (index, exception, traceback text) of the first failure).

    A worker catches BaseException, so that an interrupt or exit in a task
    is still sent to the caller and raised there.
    """
    values = []
    for index in share:
        try:
            values.append(tasks[index]())
        except catch as exc:
            text = traceback.format_exc() if catch is BaseException else None
            return values, (index, exc, text)
    return values, None


def _fork(tasks, share) -> tuple:
    """Start a worker for one share; returns (pid, read end of its result pipe)."""
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            values, failure = _run_share(tasks, share, catch=BaseException)
            try:
                payload = pickle.dumps((values, _sendable(failure)), pickle.HIGHEST_PROTOCOL)
            except Exception as exc:
                lost = RuntimeError(f"fan-out worker {os.getpid()} could not send its results: {exc!r}")
                payload = pickle.dumps(([], (-1, lost, traceback.format_exc())))
            with os.fdopen(write_fd, "wb") as pipe:
                pipe.write(payload)
            status = 0
        finally:
            _flush_std_streams()
            os._exit(status)
    os.close(write_fd)
    return pid, read_fd


def _sendable(failure):
    """The failure with its exception replaced by a RuntimeError if it does not survive pickling."""
    if failure is None:
        return None
    index, exc, text = failure
    try:
        pickle.loads(pickle.dumps(exc))
    except Exception:
        exc = RuntimeError(f"{type(exc).__name__}: {exc}")
    return index, exc, text


def _flush_std_streams() -> None:
    for stream in (sys.stdout, sys.stderr):
        try:
            stream.flush()
        except (AttributeError, ValueError, OSError):  # absent or closed
            pass


def _receive(pid: int, fd: int) -> tuple:
    """A worker's outcome, read to the end of its pipe; reaps the worker."""
    with os.fdopen(fd, "rb") as pipe:
        payload = pipe.read()
    _, status = os.waitpid(pid, 0)
    try:
        return pickle.loads(payload)
    except Exception:  # empty or cut short: the worker died before it could send
        code = os.waitstatus_to_exitcode(status)
        lost = RuntimeError(f"fan-out worker {pid} exited with status {code} without sending its results")
        return [], (-1, lost, None)
