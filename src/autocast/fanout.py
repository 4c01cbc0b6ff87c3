"""Independent jobs spread over the usable cores by a pool of forked workers.

``run_all(tasks)`` calls every zero-argument task once and returns their
results in task order. With N = ``usable_cores()`` capped by the task
count, the caller forks N workers and writes every task index into one
claim pipe. Each worker reads the next index until the pipe runs dry, so
a free worker takes the next task in index order and a slow task never
holds back the ones queued behind it. The tasks are closures and cannot be
pickled, so the workers inherit them through the fork; only indices and
results cross the pipes. A worker pickles each result as it completes,
stops claiming at its first failure (a task's exception, or a result that
cannot be pickled), sends one payload on its own pipe and exits. The
caller runs no task: it waits, reads each worker's payload and reaps the
worker. A task's exception is raised in the caller with the worker's
traceback as its cause, and the lowest failing index is the one raised,
as in a serial run. A worker that dies, or an exception that cannot be
unpickled, raises ``BrokenPool``, a ``RuntimeError``. If any exception,
an interrupt included, reaches the caller while it waits, it kills and
reaps every live worker, so no worker outlives ``run_all``.

The tasks run serially in the caller without ``os.fork``, with one usable
core, with fewer than two tasks, or while the caller runs other Python
threads: a forked child holds only the forking thread, so a lock another
thread held at the fork would stay locked in it. A profiler or tracer in
the caller sees the tasks' work only on that serial path, for instance
under ``taskset -c 0`` or with ``usable_cores`` bound to 1.
"""
from __future__ import annotations

import os
import pickle
import select
import signal
import sys
import threading
import traceback

# bytes per index in the claim pipe; PIPE_BUF is a multiple of it, so each
# write of at most PIPE_BUF bytes holds whole indices and is atomic, and a
# worker's read of one index never straddles two writes
WIDTH = 4


class BrokenPool(RuntimeError):
    """A worker died, or a task's exception could not be unpickled in the caller."""


class RemoteTraceback(Exception):
    """The traceback text of a task that failed in a worker."""


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
    _flush_std_streams()  # else each worker would write the caller's buffered output again
    claims, claims_w = os.pipe()
    opened = [claims, claims_w]  # the caller's pipe ends, closed once unused
    workers = {}  # pid: the read end of its payload pipe
    exit_codes = {}  # pid: exit code, once reaped
    try:
        for _ in range(n_procs):
            payload, payload_w = os.pipe()
            opened += [payload, payload_w]
            pid = os.fork()
            if pid == 0:
                try:
                    os.close(claims_w)  # so the claims run dry once the caller closes its end
                    _work(tasks, claims, payload_w)
                finally:
                    os._exit(1)  # _work exits 0 itself once its payload is sent
            workers[pid] = payload
            _close(opened, payload_w)
        _close(opened, claims)  # so the caller's writes fail once every worker has stopped
        _send_claims(claims_w, len(tasks))
        _close(opened, claims_w)
        payloads = [_read_to_end(fd) for fd in workers.values()]
        for pid in workers:
            exit_codes[pid] = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    finally:
        for pid in workers.keys() - exit_codes.keys():
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        for fd in opened:
            os.close(fd)
    return _results(len(tasks), zip(payloads, exit_codes.values()))


def _work(tasks: list, claims: int, payload: int) -> None:
    """A worker: run each claimed task until the claims run dry or one fails, send the payload, exit.

    The payload pickles (done, failure): done lists (index, pickled result);
    failure is None or (index, pickled exception or None, traceback text).
    """
    done, failure = [], None
    while claim := os.read(claims, WIDTH):
        index = int.from_bytes(claim, "little")
        try:
            done.append((index, pickle.dumps(tasks[index](), pickle.HIGHEST_PROTOCOL)))
        except BaseException as exc:  # re-raised in the caller, as a serial run raises it
            failure = (index, _pickled(exc), traceback.format_exc())
            break
    _flush_std_streams()
    data = memoryview(pickle.dumps((done, failure), pickle.HIGHEST_PROTOCOL))
    while data:
        data = data[os.write(payload, data):]
    os._exit(0)


def _pickled(exc: BaseException) -> bytes | None:
    try:
        return pickle.dumps(exc, pickle.HIGHEST_PROTOCOL)
    except Exception:  # any attribute may refuse; the caller then raises BrokenPool
        return None


def _results(n_tasks: int, replies) -> list:
    """The results in task order from each worker's (payload, exit code), or the first failure raised."""
    results, failures, lost = {}, {}, None
    for payload, code in replies:
        if code != 0:
            lost = code
            continue
        done, failure = pickle.loads(payload)
        results.update(done)
        if failure is not None:
            failures[failure[0]] = failure[1:]
    first = min(failures, default=n_tasks)
    if lost is not None:
        # a dead worker's claims are the lowest ones no payload accounts for
        unaccounted = min(set(range(n_tasks)) - results.keys() - failures.keys(), default=n_tasks)
        if unaccounted <= first:
            raise BrokenPool(f"a worker exited with status {lost} before sending its payload")
    if first < n_tasks:
        exc, text = failures[first]
        cause = RemoteTraceback(text)
        try:
            exc = pickle.loads(exc)
        except Exception:  # None, or unpickling raised
            raise BrokenPool(f"task {first} raised an exception that cannot be unpickled") from cause
        raise exc from cause
    return [pickle.loads(results[index]) for index in range(n_tasks)]


def _send_claims(fd: int, n_tasks: int) -> None:
    """Write indices 0 .. n_tasks - 1 into the claim pipe, at most PIPE_BUF bytes at a time."""
    claims = b"".join(i.to_bytes(WIDTH, "little") for i in range(n_tasks))
    try:
        for start in range(0, len(claims), select.PIPE_BUF):
            os.write(fd, claims[start : start + select.PIPE_BUF])
    except BrokenPipeError:
        pass  # every worker has stopped early; the payloads say why


def _read_to_end(fd: int) -> bytes:
    chunks = []
    while chunk := os.read(fd, 1 << 16):
        chunks.append(chunk)
    return b"".join(chunks)


def _close(opened: list, fd: int) -> None:
    opened.remove(fd)
    os.close(fd)


def _flush_std_streams() -> None:
    for stream in (sys.stdout, sys.stderr):
        if stream is not None:
            stream.flush()
