import os
import signal
import threading

import numpy as np
import pytest

from autocast import fanout
from autocast.deeplearn import CnnForecaster
from autocast.pipeline import PipelineConfig, _train_shared
from autocast.synth import ArchetypeSpec, generate_corpus

PARENT = os.getpid()


@pytest.fixture(autouse=True)
def time_limit():
    """Fail a test whose caller waits on a worker for more than a minute."""

    def expire(signum, frame):
        raise TimeoutError("fan-out test ran over a minute")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, 60.0)
    yield
    signal.setitimer(signal.ITIMER_REAL, 0.0)
    signal.signal(signal.SIGALRM, previous)


@pytest.fixture()
def cores(monkeypatch):
    def set_cores(n):
        monkeypatch.setattr(fanout, "usable_cores", lambda: n)

    return set_cores


def in_worker() -> bool:
    return os.getpid() != PARENT


def assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class Unpicklable(Exception):
    def __init__(self, a, b):
        super().__init__(f"{a}/{b}")


@pytest.mark.parametrize("n_cores", [1, 2, 3])
def test_results_come_back_in_task_order(cores, n_cores):
    cores(n_cores)
    results = fanout.run_all([lambda i=i: (i, i * i, np.arange(i)) for i in range(7)])
    assert [r[:2] for r in results] == [(i, i * i) for i in range(7)]
    assert all(np.array_equal(r[2], np.arange(i)) for i, r in enumerate(results))
    assert_no_children()


def test_caller_runs_task_zero_and_workers_the_rest_round_robin(cores):
    cores(3)
    pids = fanout.run_all([os.getpid] * 6)
    assert pids[0] == pids[3] == PARENT
    assert PARENT not in pids[1::3] + pids[2::3]
    assert pids[1] == pids[4] != pids[2] == pids[5]


@pytest.mark.parametrize("n_cores, n_tasks", [(1, 4), (2, 1), (2, 0)])
def test_serial_without_a_second_core_or_task(cores, n_cores, n_tasks):
    cores(n_cores)
    assert fanout.run_all([os.getpid] * n_tasks) == [PARENT] * n_tasks


def test_serial_without_fork(cores, monkeypatch):
    cores(2)
    monkeypatch.delattr(os, "fork")
    assert fanout.run_all([os.getpid] * 3) == [PARENT] * 3


def test_serial_while_another_thread_runs(cores):
    cores(2)
    release = threading.Event()
    thread = threading.Thread(target=release.wait, args=(60.0,))
    thread.start()
    try:
        assert fanout.run_all([os.getpid] * 3) == [PARENT] * 3
    finally:
        release.set()
        thread.join(60.0)
    assert not thread.is_alive()


def test_worker_exception_reaches_the_caller(cores):
    cores(2)

    def task():
        if in_worker():
            raise RuntimeError("worker task failed")
        return 1

    with pytest.raises(RuntimeError, match="worker task failed") as caught:
        fanout.run_all([task, task])
    assert isinstance(caught.value.__cause__, fanout.WorkerTraceback)
    assert "in task" in str(caught.value.__cause__)
    assert_no_children()


def test_the_lowest_failing_task_wins_as_in_a_serial_run(cores):
    cores(2)

    def fail(i):
        raise ValueError(f"task {i}")

    tasks = [lambda: 0, lambda: fail(1), lambda: fail(2), lambda: fail(3)]
    for n in (1, 2):
        cores(n)
        with pytest.raises(ValueError, match="task 1"):
            fanout.run_all(tasks)
    assert_no_children()


def test_unpicklable_worker_exception_arrives_as_runtime_error(cores):
    cores(2)

    def task():
        if in_worker():
            raise Unpicklable(1, 2)

    with pytest.raises(RuntimeError, match="Unpicklable: 1/2"):
        fanout.run_all([task, task])


def test_unpicklable_worker_result_is_reported(cores):
    cores(2)
    with pytest.raises(RuntimeError, match="could not send its results"):
        fanout.run_all([lambda: 0, lambda: (lambda: None)])
    assert_no_children()


def test_worker_that_dies_mid_task_makes_the_caller_raise(cores):
    cores(2)

    def task():
        if in_worker():
            os._exit(1)
        return 0

    with pytest.raises(RuntimeError, match="exited with status 1 without sending its results"):
        fanout.run_all([task, task, task])
    assert_no_children()


def test_caller_failure_still_reaps_the_workers(cores):
    cores(3)

    def task():
        if not in_worker():
            raise KeyError("caller")
        return 0

    with pytest.raises(KeyError, match="caller"):
        fanout.run_all([task] * 3)
    assert_no_children()


def test_cnn_trained_in_a_worker_forecasts_as_one_trained_in_process(cores):
    specs = [ArchetypeSpec.from_kind(f"p{i}", "seasonality", length=48) for i in range(3)]
    corpus = generate_corpus(specs, seed=3)
    config = PipelineConfig(enabled_models=("naive", "boosted_tree", "cnn"), ensemble_members=())
    shared = {}
    for n in (1, 2):
        cores(n)
        shared[n] = _train_shared(corpus, config)
    assert shared[2].network is not None and shared[2].trees is not None
    for series in corpus:
        forecasts = [CnnForecaster(shared[n].network).fit(series).forecast(12) for n in (1, 2)]
        assert forecasts[0].values.tobytes() == forecasts[1].values.tobytes()
    # the loaded network's layers are views into the buffer it was loaded into
    shared[2].network.weights[:] = 0.0
    assert not any(np.any(p) for p in shared[2].network.params())
