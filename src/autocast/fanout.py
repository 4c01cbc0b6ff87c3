"""Independent jobs spread over the usable cores: one forked worker per extra core.

``run_all(tasks)`` calls every zero-argument task once and returns their
results in task order. It forks one worker for each usable core past the
first, and no more workers than there are tasks past the first. The calling
process works beside them, so a profiler or timer in it keeps seeing work.

The processes claim tasks from one queue. The caller takes task 0, and
every other index is written in order to an unlinked temporary file before
the fork. All processes share that file's offset, so each 4-byte read
takes the next unclaimed index, and a process stops claiming at the end of
the file. A slow task thus never holds back the tasks queued behind it, as
a fixed share would. A regular file, unlike a pipe, holds any number of
indices without blocking its writer.

A worker inherits the tasks and everything they read through ``os.fork``,
so nothing is sent to it. It pickles its ``(index, value)`` pairs, and the
exception that stopped it if one did, to a pipe and leaves by ``os._exit``.
Each process stops claiming at its first failing task. Indices are claimed
in order, and every claimed task either finishes or stops its process, so
every task below the lowest failing index has run. Once every worker has
been reaped, the caller raises that lowest failure, which is the one a
serial run would have raised. A worker that dies without sending its
results makes the caller raise ``RuntimeError``.

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
import tempfile
import threading
import traceback
from itertools import chain

CLAIM_BYTES = 4  # one unsigned little-endian task index per claim record


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
    _flush_std_streams()  # or a child would write the caller's buffered output again
    workers = []
    outcomes = []
    with tempfile.TemporaryFile() as queue:
        queue.write(b"".join(index.to_bytes(CLAIM_BYTES, "little") for index in range(1, len(tasks))))
        queue.seek(0)
        try:
            for _ in range(n_procs - 1):
                workers.append(_fork(tasks, queue.fileno()))
            outcomes.append(_run_claimed(tasks, chain([0], _claims(queue.fileno()))))
        except BaseException:
            for pid, _ in workers:
                os.kill(pid, signal.SIGKILL)
            raise
        finally:
            outcomes += [_receive(pid, fd) for pid, fd in workers]
    results = [None] * len(tasks)
    for pairs, _ in outcomes:
        for index, value in pairs:
            results[index] = value
    failures = [failure for _, failure in outcomes if failure is not None]
    if failures:
        _, exc, text = min(failures, key=lambda failure: failure[0])
        if text is not None:
            raise exc from WorkerTraceback(text)
        raise exc
    return results


def _claims(fd: int):
    """The task indices this process claims from the queue file, until it is drained."""
    while True:
        index = _claim(fd)
        if index is None:
            return
        yield index


def _claim(fd: int) -> int | None:
    """The next unclaimed index, or None once the queue is drained."""
    record = os.read(fd, CLAIM_BYTES)
    return int.from_bytes(record, "little") if record else None


def _run_claimed(tasks, indices, catch=Exception) -> tuple:
    """([(index, value)] of the tasks run, None or (index, exception, traceback text) of the first failure).

    A worker catches BaseException, so that an interrupt or exit in a task
    is still sent to the caller and raised there.
    """
    pairs = []
    for index in indices:
        try:
            pairs.append((index, tasks[index]()))
        except catch as exc:
            text = traceback.format_exc() if catch is BaseException else None
            return pairs, (index, exc, text)
    return pairs, None


def _fork(tasks, queue_fd: int) -> tuple:
    """Start a worker that claims tasks from the queue; returns (pid, read end of its result pipe)."""
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            pairs, failure = _run_claimed(tasks, _claims(queue_fd), catch=BaseException)
            try:
                payload = pickle.dumps((pairs, _sendable(failure)), pickle.HIGHEST_PROTOCOL)
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
