import os
import signal
import threading

import numpy as np
import pytest

from autocast import fanout, pipeline
from autocast.deeplearn.training import CnnForecaster
from autocast.pipeline import PipelineConfig, _run_stage
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


@pytest.fixture()
def worker_claims():
    """Tasks [wait, task]; the caller runs wait, which returns once task has started elsewhere.

    The caller always runs task 0, so task 1 must be claimed by a worker.
    """
    read_fd, write_fd = os.pipe()

    def wait():
        os.read(read_fd, 1)
        return 0

    def tasks(task):
        def started():
            os.write(write_fd, b"s")
            return task()

        return [wait, started]

    yield tasks
    os.close(read_fd)
    os.close(write_fd)


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


def test_caller_runs_task_zero_and_every_task_runs_exactly_once(cores, tmp_path):
    cores(3)
    log = tmp_path / "ran"

    def task(i):
        fd = os.open(log, os.O_WRONLY | os.O_CREAT | os.O_APPEND)
        try:
            os.write(fd, f"{i}\n".encode())
        finally:
            os.close(fd)
        return i, os.getpid()

    results = fanout.run_all([lambda i=i: task(i) for i in range(60)])
    assert [i for i, _ in results] == list(range(60))
    assert results[0][1] == PARENT
    assert sorted(int(line) for line in log.read_text().split()) == list(range(60))
    assert_no_children()


@pytest.mark.parametrize("n_cores", [2, 3])
def test_a_queue_longer_than_a_pipe_holds_is_claimed_without_blocking(cores, n_cores):
    # 20 000 four-byte indices outgrow a 64 KiB pipe buffer
    cores(n_cores)
    assert fanout.run_all([lambda i=i: i for i in range(20_000)]) == list(range(20_000))
    assert_no_children()


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


def test_worker_exception_reaches_the_caller(cores, worker_claims):
    cores(2)

    def task():
        raise RuntimeError("worker task failed")

    with pytest.raises(RuntimeError, match="worker task failed") as caught:
        fanout.run_all(worker_claims(task))
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


def test_unpicklable_worker_exception_arrives_as_runtime_error(cores, worker_claims):
    cores(2)

    def task():
        raise Unpicklable(1, 2)

    with pytest.raises(RuntimeError, match="Unpicklable: 1/2"):
        fanout.run_all(worker_claims(task))
    assert_no_children()


def test_unpicklable_worker_result_is_reported(cores, worker_claims):
    cores(2)
    with pytest.raises(RuntimeError, match="could not send its results"):
        fanout.run_all(worker_claims(lambda: (lambda: None)))
    assert_no_children()


def test_worker_that_dies_mid_task_makes_the_caller_raise(cores, worker_claims):
    cores(2)
    with pytest.raises(RuntimeError, match="exited with status 1 without sending its results"):
        fanout.run_all(worker_claims(lambda: os._exit(1)) + [lambda: 0])
    assert_no_children()


def test_worker_that_dies_between_claims_makes_the_caller_raise(cores, worker_claims):
    cores(2)

    def task():
        # rebinds the claim only in the worker's copy of the module
        fanout._claim = lambda fd: os._exit(3)
        return 1

    claim = fanout._claim
    with pytest.raises(RuntimeError, match="exited with status 3 without sending its results"):
        fanout.run_all(worker_claims(task) + [lambda: 2] * 5)
    assert fanout._claim is claim
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


def test_cnn_trained_in_a_worker_forecasts_as_one_trained_in_process(cores, monkeypatch, worker_claims):
    specs = [ArchetypeSpec.from_kind(f"p{i}", "seasonality", length=48) for i in range(3)]
    corpus = generate_corpus(specs, seed=3)
    config = PipelineConfig(enabled_models=("naive", "boosted_tree", "cnn"), ensemble_members=())
    shared = {}
    cores(1)
    shared[1], _ = _run_stage(corpus, config, [])
    # the caller's tree training (task 0) waits until the CNN training has started in the worker
    wait, started = worker_claims(lambda: None)
    trees, cnn = pipeline.train_pooled_trees, pipeline.train_shared_cnn
    monkeypatch.setattr(pipeline, "train_pooled_trees", lambda c: (wait(), trees(c))[1])
    monkeypatch.setattr(pipeline, "train_shared_cnn", lambda c, cfg: (started(), cnn(c, cfg))[1])
    cores(2)
    shared[2], _ = _run_stage(corpus, config, [])
    assert shared[2].network is not None and shared[2].trees is not None
    for series in corpus:
        forecasts = [CnnForecaster(shared[n].network).fit(series).forecast(12) for n in (1, 2)]
        assert forecasts[0].values.tobytes() == forecasts[1].values.tobytes()
    # the loaded network computes from the buffer it was loaded into
    shared[2].network.weights[:] = 0.0
    for series in corpus:
        assert not np.any(CnnForecaster(shared[2].network).fit(series).forecast(12).values)
