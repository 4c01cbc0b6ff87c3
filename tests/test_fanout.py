import os
import pickle
import signal
import subprocess
import sys
import threading
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import numpy as np
import pytest

from autocast import fanout, pipeline
from autocast.deeplearn.training import CnnForecaster
from autocast.models.arima import ArimaForecaster
from autocast.models.base import ModelId
from autocast.models.boosting import BoostedTreeForecaster
from autocast.models.gam import GamForecaster
from autocast.models.naive import NaiveForecaster
from autocast.models.smoothing import HwesForecaster, SesForecaster
from autocast.pipeline import PipelineConfig, _run_stage, run_pipeline
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


def test_every_task_runs_exactly_once_in_a_worker(cores, tmp_path):
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
    assert PARENT not in {pid for _, pid in results}
    assert sorted(int(line) for line in log.read_text().split()) == list(range(60))
    assert_no_children()


def test_consecutive_calls_both_fan_out_and_leave_no_thread_behind(cores):
    # a pool thread left running would make the next call, and the next stage, serial
    cores(2)
    threads = threading.active_count()
    for _ in range(2):
        assert PARENT not in fanout.run_all([os.getpid] * 4)
        assert threading.active_count() == threads
    assert_no_children()


def test_output_buffered_before_a_fan_out_is_written_once(tmp_path):
    script = tmp_path / "buffered.py"
    script.write_text(
        "import sys\n"
        "from autocast import fanout\n"
        "fanout.usable_cores = lambda: 2\n"
        "print('before')\n"
        "fanout.run_all([lambda i=i: sys.stdout.write(f'task {i}\\n') for i in range(4)])\n"
    )
    # stdout is a pipe and PYTHONUNBUFFERED is unset, so 'before' is still buffered at the fork
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(fanout.__file__).parents[1])
    out = subprocess.run([sys.executable, str(script)], env=env, capture_output=True, text=True, check=True).stdout
    assert out.startswith("before\n")
    assert sorted(out.splitlines()) == ["before"] + [f"task {i}" for i in range(4)]


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


def test_worker_exception_keeps_the_worker_traceback_as_its_cause(cores):
    cores(2)

    def task():
        raise RuntimeError("worker task failed")

    with pytest.raises(RuntimeError, match="worker task failed") as caught:
        fanout.run_all([lambda: 0, task])
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


def test_unpicklable_worker_exception_breaks_the_pool(cores):
    cores(2)

    def task():
        raise Unpicklable(1, 2)

    with pytest.raises(BrokenProcessPool) as caught:
        fanout.run_all([lambda: 0, task])
    assert isinstance(caught.value, RuntimeError)
    assert_no_children()


def test_unpicklable_worker_result_raises_its_pickling_error(cores):
    cores(2)
    with pytest.raises((AttributeError, pickle.PicklingError), match="pickle"):
        fanout.run_all([lambda: 0, lambda: (lambda: None)])
    assert_no_children()


def test_worker_that_dies_mid_task_breaks_the_pool(cores):
    cores(2)
    with pytest.raises(BrokenProcessPool) as caught:
        fanout.run_all([lambda: 0, lambda: os._exit(1), lambda: 2])
    assert isinstance(caught.value, RuntimeError)
    assert_no_children()


def test_a_failing_task_leaves_no_child_and_no_extra_thread(cores):
    cores(3)
    threads = threading.active_count()

    def task(i):
        if i == 1:
            raise KeyError("task 1")
        return i

    with pytest.raises(KeyError, match="task 1"):
        fanout.run_all([lambda i=i: task(i) for i in range(3)])
    assert threading.active_count() == threads
    assert_no_children()


def test_cnn_trained_in_a_worker_forecasts_as_one_trained_in_process(cores, monkeypatch):
    specs = [ArchetypeSpec.from_kind(f"p{i}", "seasonality", length=48) for i in range(3)]
    corpus = generate_corpus(specs, seed=3)
    config = PipelineConfig(enabled_models=("naive", "boosted_tree", "cnn"))
    model_ids = [ModelId.NAIVE, ModelId.BOOSTED_TREE, ModelId.CNN]
    jobs = [(series, dict.fromkeys(model_ids), 12) for series in corpus]
    cores(1)
    serial = _run_stage(corpus, jobs, config)
    cnn = pipeline.train_shared_cnn

    def cnn_in_worker(corpus, input_window, seed):
        assert in_worker()
        return cnn(corpus, input_window, seed)

    monkeypatch.setattr(pipeline, "train_shared_cnn", cnn_in_worker)
    cores(2)
    fanned = _run_stage(corpus, jobs, config)
    for serial_runs, fanned_runs in zip(serial, fanned):
        assert [run.model_id for run in fanned_runs] == model_ids
        for a, b in zip(serial_runs, fanned_runs):
            assert a.result.values.tobytes() == b.result.values.tobytes()


def test_no_model_fits_or_forecasts_in_the_caller_at_two_cores(cores, monkeypatch):
    in_caller = []

    def in_workers_only(name, method):
        def wrapped(*args, **kwargs):
            if not in_worker():
                in_caller.append(name)
            return method(*args, **kwargs)

        return wrapped

    forecasters = (
        NaiveForecaster, SesForecaster, HwesForecaster, ArimaForecaster,
        GamForecaster, BoostedTreeForecaster, CnnForecaster,
    )
    for cls in forecasters:
        for method in ("fit", "forecast"):
            monkeypatch.setattr(cls, method, in_workers_only(f"{cls.__name__}.{method}", getattr(cls, method)))
    for name in ("train_pooled_trees", "train_shared_cnn"):
        monkeypatch.setattr(pipeline, name, in_workers_only(name, getattr(pipeline, name)))
    kinds = ("seasonality", "seasonality_trend")
    specs = [ArchetypeSpec.from_kind(f"p{i}", kind, length=48) for i, kind in enumerate(kinds)]
    cores(2)
    report, bundle = run_pipeline(generate_corpus(specs, seed=3), PipelineConfig())
    assert in_caller == []
    for validation, entry in zip(report.products, bundle.products):
        assert {s.model_id for s in validation.scores} == {m.value for m in ModelId}
        assert not any("refit failed" in flag for flag in entry.flags)
        assert len(entry.forecasts) == len(ModelId)


def test_a_jobs_task_runs_only_its_own_models(cores, monkeypatch):
    # one usable core keeps every task in this process
    calls = []
    run_models = pipeline._run_models

    def recording(series, models, horizon, trained=None):
        calls.append((list(models), trained is not None))
        return run_models(series, models, horizon, trained)

    monkeypatch.setattr(pipeline, "_run_models", recording)
    kinds = ("seasonality", "seasonality_trend")
    specs = [ArchetypeSpec.from_kind(f"p{i}", kind, length=48) for i, kind in enumerate(kinds)]
    cores(1)
    run_pipeline(generate_corpus(specs, seed=3), PipelineConfig())
    own = [model_ids for model_ids, trained in calls if not trained]
    shared = [model_ids for model_ids, trained in calls if trained]
    # two stages, each with one own-model task per product and one shared run per product and shared model
    assert len(own) == 4 and len(shared) == 8
    # the median ensemble is built from the runs listed before it, never in a task
    assert all(
        m not in pipeline.SHARED_MODELS and m is not ModelId.ENSEMBLE_MEDIAN for model_ids in own for m in model_ids
    )
    assert all(len(model_ids) == 1 and model_ids[0] in pipeline.SHARED_MODELS for model_ids in shared)


def outcomes(report, bundle):
    """Every validation and forecast field of a run, arrays as bytes."""
    validations = [
        (v.product_id, v.validity, v.holdout, v.scores, v.skipped, v.recommended, v.flags,
         [s.forward.values.tobytes() if s.forward else None for s in v.scores])
        for v in report.products
    ]
    forecasts = [
        (p.product_id, p.recommended, p.flags,
         [(f.model_id, f.start, f.values.tobytes()) for f in p.forecasts],
         p.decomposition is not None)
        for p in bundle.products
    ]
    return validations, forecasts


@pytest.mark.parametrize(
    "models, forecast_models",
    [
        (("cnn",), [["cnn"], ["naive"], ["cnn"]]),
        (("boosted_tree", "naive"), [["boosted_tree", "naive"]] * 3),
    ],
)
def test_shared_models_with_few_or_no_own_models_fan_out_alike(cores, models, forecast_models):
    # the 25-month product's prefix is too short for the CNN, so with cnn alone
    # it is refitted with naive, while the others' finalize jobs run no own model
    specs = [
        ArchetypeSpec.from_kind("p0", "seasonality", length=48),
        ArchetypeSpec.from_kind("p1", "seasonality_trend", length=25),
        ArchetypeSpec.from_kind("p2", "high_variance", length=40),
    ]
    corpus = generate_corpus(specs, seed=3)
    config = PipelineConfig(enabled_models=models, seed=3)
    runs = []
    for n in (1, 2):
        cores(n)
        runs.append(outcomes(*run_pipeline(corpus, config)))
    assert runs[0] == runs[1]
    assert [[model_id for model_id, _, _ in results] for _, _, _, results, _ in runs[0][1]] == forecast_models
