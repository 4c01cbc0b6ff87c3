"""Corpus orchestration: validation with recommendation, then retrain and forecast.

Products run through three stages. First each series is classified by
history length (full pipeline, shortened holdout, or excluded). Second,
every enabled model is fitted on a training prefix and scored on the
held-out final year; the lowest holdout RMSE wins the recommendation.
Third, every scored model is refitted on the full history, at the ARIMA
orders validation selected, and asked for the real forward horizon.

Both stages run their models through `_run_stage`, on jobs of one shape:
a product's series, its models and the horizon. The models map each id,
the median ensemble last, to its validation score in finalize and to
None in validation. Each run records the model's forecast or the reason
it was lost; only model-domain failures (`MODEL_FAILURES`) are recorded,
and any other exception is a bug and propagates. Validation runs on the
training prefix for the holdout plus the horizon: it scores the first
part and keeps the rest as the model's forward forecast. Finalize takes
only the report validation just made and runs the scored models on the
full history; a model whose refit failed takes its forward forecast, so
every scored model reaches the bundle and nothing is fitted on the
prefix again.

Each stage is one ``fanout.run_all`` queue over a pool of forked workers,
one per usable core. The queue holds one task per shared-weight model
(pooled trees, CNN) that some job lists, which trains the model on the
stage's corpus and then fits and forecasts it on each of those jobs, and
then one task per job that runs only the job's own models. So the shared
models run in the process that trained them, and product fits run beside
them. Once every task has returned, this process lists each job's runs
in its model order, each from its shared model's task or the job's own,
with its fallback and the median ensemble decided there, then scores and
recommends (validation) or assembles the bundle (finalize). Every task
computes what it would compute in one process, and results merge in
product-id order, so the exports are byte-identical however the tasks
were placed. With one usable core the whole queue runs serially here.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from functools import partial

import numpy as np

from .deeplearn.training import CnnForecaster, train_shared_cnn
from .errors import ConfigError
from .fanout import run_all
from .ingest import Validity
from .metrics import MetricSet, compute_metric_set
# perfbench/tracing.py binds fit_arima_pair here for its arima.search span.
# Nothing in this module calls it; the import leaves with that binding.
from .models.arima import ArimaForecaster, fit_arima_pair  # noqa: F401
from .models.base import MODEL_PRIORITY, ModelId, priority_rank
from .models.boosting import BoostedTreeForecaster, train_pooled_trees
from .models.ensemble import MEMBERS, ensemble_forecast
from .models.gam import GamForecaster
from .models.naive import NaiveForecaster
from .models.smoothing import HwesForecaster, SesForecaster
from .series import ForecastResult, Frequency, SalesSeries, split_holdout

MIN_HOLDOUT = 3


@dataclass(frozen=True)
class PipelineConfig:
    """Run settings: frequency, horizon (defaults per frequency), enabled_models and seed.

    The pipeline fixes the rest itself: a full-history product holds back
    one year, the median ensemble combines whichever of `MEMBERS` ran, and
    the GAM's design and lasso penalty are its own (`models/gam.py`).
    """

    frequency: Frequency = Frequency.MONTHLY
    horizon: int | None = None
    enabled_models: tuple = MODEL_PRIORITY
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "frequency", Frequency(self.frequency))
        if self.horizon is None:
            object.__setattr__(self, "horizon", self.frequency.default_horizon)
        enabled = tuple(ModelId(m) for m in self.enabled_models)
        object.__setattr__(self, "enabled_models", enabled)
        if self.horizon < 1:
            raise ConfigError(f"horizon: must be >= 1, got {self.horizon}")
        if self.seed < 0:
            raise ConfigError(f"seed: must be >= 0, got {self.seed}")
        if len(set(enabled)) != len(enabled):
            raise ConfigError("enabled_models: duplicate entries")


_CONFIG_KEYS = {f.name for f in fields(PipelineConfig)}


def parse_config(path) -> PipelineConfig:
    """Read a JSON config file; missing keys take defaults, unknown keys fail.

    Values are converted and checked by PipelineConfig itself; its
    ValueError or TypeError becomes a ConfigError naming the file.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed config {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config {path}: expected a JSON object")
    unknown = set(raw) - _CONFIG_KEYS
    if unknown:
        raise ConfigError(f"config {path}: unknown keys {sorted(unknown)}")
    for key in ("horizon", "seed"):
        if key in raw and raw[key] is not None:
            if not isinstance(raw[key], int) or isinstance(raw[key], bool):
                raise ConfigError(f"{key}: expected an integer, got {raw[key]!r}")
    # a string is iterable too: "naive" would read as the models n, a, i, v, e
    value = raw.get("enabled_models", [])
    if not isinstance(value, list):
        raise ConfigError(f"config {path}: enabled_models: expected a JSON array, got {value!r}")
    try:
        return PipelineConfig(**raw)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"config {path}: {exc}") from exc


@dataclass(frozen=True)
class ModelScore:
    """One model's holdout performance on one product."""

    model_id: str
    metrics: MetricSet
    fallback: bool = False
    # ARIMA/SARIMA only: order chosen by the validation-stage stepwise search.
    # The final refit fits that order on the full history, to convergence from
    # zero, without repeating the search.
    selected_order: object | None = None
    # the same run's forecast of the horizon past the holdout, the median
    # ensemble's included; finalize uses it when the full-history refit fails.
    # Not exported: finalize takes only the report run_validation hands it in
    # the same process.
    forward: ForecastResult | None = field(default=None, repr=False, compare=False)


@dataclass(frozen=True)
class ProductValidation:
    product_id: str
    validity: Validity
    holdout: int
    scores: tuple = ()
    skipped: tuple = ()  # (model_id, reason) pairs
    recommended: str | None = None
    flags: tuple = ()


@dataclass(frozen=True)
class ValidationReport:
    frequency: Frequency
    holdout: int
    seed: int
    products: tuple = ()

    def product(self, product_id: str) -> ProductValidation:
        for entry in self.products:
            if entry.product_id == product_id:
                return entry
        raise KeyError(f"no validation entry for product {product_id!r}")


@dataclass(frozen=True)
class Decomposition:
    """The observed series and its additive trend and seasonal paths over the training window."""

    product_id: str
    start: object
    observed: np.ndarray = field(repr=False)
    trend: np.ndarray = field(repr=False)
    seasonal: np.ndarray = field(repr=False)


@dataclass(frozen=True)
class ProductForecasts:
    product_id: str
    forecasts: tuple = ()
    recommended: str | None = None
    flags: tuple = ()
    decomposition: Decomposition | None = None

    def __post_init__(self):
        if self.forecasts:
            first = self.forecasts[0]
            for other in self.forecasts[1:]:
                if other.start != first.start or other.horizon != first.horizon:
                    raise ValueError(
                        f"{self.product_id}: forecasts disagree on start or horizon"
                    )
        if self.recommended is not None:
            if all(f.model_id != self.recommended for f in self.forecasts):
                raise ValueError(
                    f"{self.product_id}: recommended model {self.recommended!r} "
                    "has no forecast"
                )

    def forecast_for(self, model_id: str) -> ForecastResult | None:
        for result in self.forecasts:
            if result.model_id == model_id:
                return result
        return None


@dataclass(frozen=True)
class ForecastBundle:
    frequency: Frequency
    horizon: int
    products: tuple = ()

    def product(self, product_id: str) -> ProductForecasts:
        for entry in self.products:
            if entry.product_id == product_id:
                return entry
        raise KeyError(f"no forecasts for product {product_id!r}")


# model-domain failures: a model that raises one on some series is recorded
# as lost there; any other exception is a bug and propagates.
# numpy.linalg.LinAlgError is a ValueError.
MODEL_FAILURES = (ValueError, ArithmeticError)

# each forecasting model's builder, from its validation order (ARIMA), its
# shared model's training and the job's ARIMA cache (`fit_arima`)
FORECASTERS = {
    ModelId.NAIVE: lambda order, trained, cache: NaiveForecaster(),
    ModelId.SES: lambda order, trained, cache: SesForecaster(),
    ModelId.HWES: lambda order, trained, cache: HwesForecaster(),
    ModelId.ARIMA: lambda order, trained, cache: ArimaForecaster(False, order, cache),
    ModelId.SARIMA: lambda order, trained, cache: ArimaForecaster(True, order, cache),
    ModelId.GAM: lambda order, trained, cache: GamForecaster(),
    ModelId.BOOSTED_TREE: lambda order, trained, cache: BoostedTreeForecaster(trained),
    ModelId.CNN: lambda order, trained, cache: CnnForecaster(trained),
}

# the trainer of each model trained once per stage on every product's series; it
# looks its function up here when it runs, so a rebinding (tests, tracer) holds
SHARED_MODELS = {
    ModelId.BOOSTED_TREE: lambda corpus, config: train_pooled_trees(corpus),
    ModelId.CNN: lambda corpus, config: train_shared_cnn(corpus, config.frequency.default_input_window, config.seed),
}


def _run_stage(corpus: list, jobs: list, config: PipelineConfig) -> list:
    """Each job's runs, in its model order; a job is (series, models, horizon).

    models maps each id to its validation ModelScore or None, the median
    ensemble last. The queue holds one `_shared_runs` task per shared model
    that some job lists, and then one `_run_models` task per job for its own
    models, none of which reads another. On two or more usable cores the
    forked workers take entries in queue order, so the shared models train
    side by side, each then runs on its jobs in the process that trained
    it, and each worker then takes the next job as it comes free. Each run
    is then taken from its model's shared task or the job's own; one left
    without a result takes its score's forward forecast and keeps its
    error. The ensemble's run is the median of two or more `MEMBERS`
    results listed before it.
    """
    shared = [m for m in SHARED_MODELS if any(m in models for _, models, _ in jobs)]
    not_own = (*SHARED_MODELS, ModelId.ENSEMBLE_MEDIAN)
    results = run_all(
        [partial(_shared_runs, model_id, corpus, jobs, config) for model_id in shared]
        + [
            partial(_run_models, series, {m: s for m, s in models.items() if m not in not_own}, horizon)
            for series, models, horizon in jobs
        ]
    )
    shared_runs = {model_id: iter(runs) for model_id, runs in zip(shared, results)}
    stage_runs = []
    for (_, models, _), own in zip(jobs, map(iter, results[len(shared):])):
        runs = []
        for model_id, score in models.items():
            run = _ensemble_run(runs) if model_id is ModelId.ENSEMBLE_MEDIAN else next(shared_runs.get(model_id, own))
            if run.result is None and score is not None:
                run.result = score.forward
            runs.append(run)
        stage_runs.append(runs)
    return stage_runs


def _ensemble_run(runs: list) -> _ModelRun:
    """The median of the MEMBERS results among runs; fewer than two leave it an error."""
    members = [run.result for run in runs if run.result is not None and run.model_id in MEMBERS]
    if len(members) < 2:
        return _ModelRun(ModelId.ENSEMBLE_MEDIAN, error=f"only {len(members)} member forecasts available")
    return _ModelRun(ModelId.ENSEMBLE_MEDIAN, ensemble_forecast(members))


def _shared_runs(model_id: ModelId, corpus: list, jobs: list, config: PipelineConfig) -> list:
    """model_id trained on corpus, then its run on each job that lists it, in job order.

    A training that raises a model failure leaves each of those runs with
    its message.
    """
    listed = [(series, models[model_id], horizon) for series, models, horizon in jobs if model_id in models]
    try:
        trained = SHARED_MODELS[model_id](corpus, config)
    except MODEL_FAILURES as exc:
        return [_ModelRun(model_id, error=str(exc)) for _ in listed]
    return [_run_models(series, {model_id: score}, horizon, trained)[0] for series, score, horizon in listed]


@dataclass
class _ModelRun:
    """One model's fit and forecast on one series.

    error holds the message of whichever step failed; with an error, result
    is None or the job's fallback, validation's forecast. fallback,
    refit_order and parts (its `decompose()`) are the fitted forecaster's.
    A shared model's run comes from its `_shared_runs` task, the ensemble's
    from `_run_stage`, any other from its job's `_run_models` task.
    """

    model_id: ModelId
    result: ForecastResult | None = None
    error: str | None = None
    fallback: bool = False
    refit_order: object | None = None
    parts: dict | None = None


def _run_models(series: SalesSeries, models: dict, horizon: int, trained=None) -> list:
    """Fit each model on series and forecast horizon steps; one _ModelRun per model, in models order.

    models maps each id to its validation score or None; a scored ARIMA or
    SARIMA is fitted at its selected_order without searching. The two
    ARIMA variants share one cache (`fit_arima`), so an order both
    searches propose is fitted once. A model that raises a MODEL_FAILURES
    exception is recorded, never fatal. A job's task runs its own models
    only; a `_shared_runs` task runs one shared model, passing it trained.
    """
    arima_cache = {}
    runs = []
    for model_id, score in models.items():
        run = _ModelRun(model_id)
        try:
            order = score.selected_order if score is not None else None
            forecaster = FORECASTERS[model_id](order, trained, arima_cache).fit(series)
            run.result = forecaster.forecast(horizon)
            run.fallback, run.refit_order, run.parts = forecaster.fallback, forecaster.refit_order, forecaster.decompose()
        except MODEL_FAILURES as exc:
            run.error = str(exc)
        runs.append(run)
    return runs


def _classify(series: SalesSeries) -> tuple[Validity, int]:
    """(validity, holdout length) of a series, by its history length.

    With m periods a year, a series shorter than m is excluded (holdout 0),
    and one of 2m or more runs the full pipeline and holds out its final
    year. In between it has a short history: it holds out all but its first
    year, but at least MIN_HOLDOUT periods, so one shorter than
    m + MIN_HOLDOUT trains on less than a year (9-11 points for 12-14 months).
    """
    year = series.frequency.periods_per_year
    if len(series) < year:
        return Validity.EXCLUDED, 0
    if len(series) < 2 * year:
        return Validity.SHORT_HISTORY, max(MIN_HOLDOUT, len(series) - year)
    return Validity.FULL_PIPELINE, year


def _check_corpus(corpus) -> list:
    if not corpus:
        raise ValueError("corpus must not be empty")
    seen = set()
    for series in corpus:
        if series.product_id in seen:
            raise ValueError(f"duplicate product_id {series.product_id!r}")
        seen.add(series.product_id)
    return sorted(corpus, key=lambda s: s.product_id)


# scores whose range-normalized RMSE agrees with the leader's to within this
# band count as tied; float drift in an exactly-fitting recursion is ~1e-16
TIE_NRMSE = 1e-9


def recommend_model(scores) -> str:
    """Lowest holdout RMSE wins; ties go to the higher-priority model.

    A tie is an exact RMSE match or an nRMSE gap within TIE_NRMSE, so two
    models that both nail the holdout cannot be separated by accumulated
    rounding noise.
    """
    if not scores:
        raise ValueError("no scored models to recommend from")
    leader = min(scores, key=lambda s: (s.metrics.rmse, priority_rank(s.model_id)))

    def tied(score) -> bool:
        if score.metrics.rmse == leader.metrics.rmse:
            return True
        if score.metrics.nrmse is None or leader.metrics.nrmse is None:
            return False
        return abs(score.metrics.nrmse - leader.metrics.nrmse) <= TIE_NRMSE

    contenders = [s for s in scores if tied(s)]
    return min(contenders, key=lambda s: priority_rank(s.model_id)).model_id


def run_validation(corpus, config: PipelineConfig | None = None) -> ValidationReport:
    """Score every enabled model on each product's held-out final year."""
    config = config or PipelineConfig()
    ordered = _check_corpus(corpus)

    splits = {}
    entries = {}
    for series in ordered:
        validity, holdout = _classify(series)
        if validity is Validity.EXCLUDED:
            year = series.frequency.periods_per_year
            entries[series.product_id] = ProductValidation(
                product_id=series.product_id,
                validity=validity,
                holdout=holdout,
                flags=(f"excluded: {len(series)} periods < {year}",),
            )
            continue
        splits[series.product_id] = (validity, *split_holdout(series, holdout))

    # the median ensemble runs last, on the other models' runs
    enabled = [m for m in MODEL_PRIORITY if m in config.enabled_models]
    models = dict.fromkeys(sorted(enabled, key=lambda m: m is ModelId.ENSEMBLE_MEDIAN))
    stage_runs = _run_stage(
        [train for _, train, _ in splits.values()],
        [(train, models, len(test) + config.horizon) for _, train, test in splits.values()],
        config,
    )
    for (product_id, (validity, train, test)), runs in zip(splits.items(), stage_runs):
        entries[product_id] = _validate_product(train, test, validity, runs)

    return ValidationReport(
        frequency=config.frequency,
        holdout=config.frequency.periods_per_year,
        seed=config.seed,
        products=tuple(entries[s.product_id] for s in ordered),
    )


def _validate_product(train: SalesSeries, test: SalesSeries, validity: Validity, runs: list) -> ProductValidation:
    """Score the holdout part of each model's run on the training prefix, then recommend.

    Each score keeps the rest of its run as the model's forward forecast.
    """
    holdout = len(test)
    skipped = [(run.model_id.value, run.error) for run in runs if run.error is not None]
    scores = [
        ModelScore(
            run.model_id.value,
            compute_metric_set(test.values, run.result.values[:holdout]),
            fallback=run.fallback,
            selected_order=run.refit_order,
            forward=ForecastResult(train.product_id, run.model_id.value, test.end + 1, run.result.values[holdout:]),
        )
        for run in runs
        if run.result is not None
    ]
    flags = []
    if scores:
        recommended = recommend_model(scores)
    else:
        recommended = ModelId.NAIVE.value
        flags.append("no_model")
    return ProductValidation(
        product_id=train.product_id,
        validity=validity,
        holdout=holdout,
        scores=tuple(scores),
        skipped=tuple(skipped),
        recommended=recommended,
        flags=tuple(flags),
    )


def finalize_and_forecast(corpus, report: ValidationReport, config: PipelineConfig | None = None) -> ForecastBundle:
    """Refit the scored models on the full history and forecast config.horizon periods.

    report must be the one run_validation made from corpus under config, so
    that a model whose refit fails can use its validation forecast. Any other
    report, one read back from an export or made at another horizon, raises
    ValueError.
    """
    config = config or PipelineConfig()
    ordered = _check_corpus(corpus)
    if [p.product_id for p in report.products] != [s.product_id for s in ordered]:
        raise ValueError("report does not match corpus: product ids differ")
    for s, v in zip(ordered, report.products):
        for score in v.scores:
            forward = score.forward
            if forward is None or (forward.start, forward.horizon) != (s.end + 1, config.horizon):
                raise ValueError(
                    f"report does not match corpus and config: {s.product_id}/{score.model_id} "
                    f"has no validation forecast of {config.horizon} periods"
                )

    eligible = [(s, v) for s, v in zip(ordered, report.products) if v.validity is not Validity.EXCLUDED]
    # a no_model product has no scores; its fallback recommendation, naive, is fitted
    jobs = [
        (s, {ModelId(score.model_id): score for score in v.scores} or {ModelId.NAIVE: None}, config.horizon)
        for s, v in eligible
    ]
    stage_runs = _run_stage([s for s, _ in eligible], jobs, config)
    finalized = {s.product_id: _finalize_product(s, v, runs) for (s, v), runs in zip(eligible, stage_runs)}
    products = tuple(
        finalized[v.product_id] if v.product_id in finalized else ProductForecasts(v.product_id, flags=v.flags)
        for v in report.products
    )
    return ForecastBundle(frequency=config.frequency, horizon=config.horizon, products=products)


def _finalize_product(series: SalesSeries, validation: ProductValidation, runs: list) -> ProductForecasts:
    """One product's forecasts from its full-history runs; a failed refit's result is validation's forecast.

    Only a no_model product's naive has none, so when its refit fails the product has no forecasts.
    """
    flags = list(validation.flags)
    results = [run.result for run in runs if run.result is not None]
    decomposition = None
    for run in runs:
        if run.error is not None:
            reused = ", reusing validation fit" if run.result is not None else ""
            flags.append(f"{run.model_id.value}: refit failed{reused} ({run.error})")
        elif run.parts is not None:
            decomposition = Decomposition(series.product_id, series.start, series.values, **run.parts)
    if not results:
        flags.append("recommended_model_unavailable")
    return ProductForecasts(
        product_id=series.product_id,
        forecasts=tuple(results),
        recommended=validation.recommended if results else None,
        flags=tuple(flags),
        decomposition=decomposition,
    )


def run_pipeline(corpus, config: PipelineConfig | None = None):
    """Validation followed by finalize; returns (report, bundle)."""
    config = config or PipelineConfig()
    report = run_validation(corpus, config)
    bundle = finalize_and_forecast(corpus, report, config)
    return report, bundle
