"""Corpus orchestration: validation with recommendation, then retrain and forecast.

Products run through three stages. First each series is classified by
history length (full pipeline, shortened holdout, or excluded). Second,
every enabled model is fitted on a training prefix and scored on the
held-out final year; the lowest holdout RMSE wins the recommendation.
Third, every scored model is refitted on the full history, at the ARIMA
orders validation selected, and asked for the real forward horizon.

Both stages build, fit and forecast their models through one function,
`_run_models`, which records each model's forecast or the reason it was
lost. Only model-domain failures (`MODEL_FAILURES`) are recorded; any
other exception is a bug and propagates. Validation runs it on the
training prefix for the holdout plus the horizon: it scores the first
part and keeps the rest as the model's forward forecast. Finalize takes
only the report validation just made, runs it on the full history, and
gives a model whose refit failed its forward forecast, so every scored
model reaches the bundle and nothing is fitted on the prefix again. The
median ensemble is built from whatever forecasts each stage ends with.

Each of these runs is one `_run_stage` call, a single ``fanout.run_all``
queue over a pool of forked workers, one per usable core. A job is one
product's series, models, horizon and forced orders. The queue holds one
task per shared-weight model (pooled trees, CNN) that some job lists,
which trains the model on the stage's corpus and then fits and forecasts
it on each of those jobs, and then one task per job for its other models.
So the shared models run in the process that trained them, and product
fits run beside the shared trainings instead of after them. Once every
task has returned, this process puts the shared runs in their jobs' slots,
then scores, ensembles and recommends (validation) or assembles the
bundle (finalize). Every task computes what it would compute in one
process, and results merge in product-id order, so the exports are
byte-identical however the tasks were placed. With one usable core the
whole queue runs serially in this process.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from functools import partial

import numpy as np

from .deeplearn.network import CnnConfig
from .deeplearn.training import CnnForecaster, train_shared_cnn
from .errors import ConfigError
from .fanout import run_all
from .ingest import Validity, check_validity
from .metrics import MetricSet, compute_metric_set
from .models.arima import ArimaForecaster, fit_arima_pair
from .models.base import MODEL_PRIORITY, BaseForecaster, ModelId, priority_rank
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
    the GAM picks its lasso penalty from `default_lambda_grid`.
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
    # the same fit's forecast of the horizon past the holdout; finalize uses it
    # when the full-history refit fails. Not exported: finalize takes only the
    # report run_validation hands it in the same process.
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

# models whose weights are trained once per stage, on every product's series
SHARED_MODELS = (ModelId.BOOSTED_TREE, ModelId.CNN)


def _run_stage(corpus: list, jobs: list, config: PipelineConfig) -> list:
    """Each job's runs, from one queue; a job is `_run_models`' (series, model_ids, horizon, orders).

    The queue holds one `_shared_runs` task per shared model that some job
    lists, and then one `_run_models` task per job for its other models,
    none of which reads another. On two or more usable cores the forked
    workers take entries in queue order, so the shared models train side by
    side, each then runs on its jobs in the process that trained it, and
    each worker then takes the next job as it comes free. The shared runs
    fill their jobs' pending slots, so every job's runs come in the order
    one `_run_models` call on all of its models would give.
    """
    shared = [m for m in SHARED_MODELS if any(m in model_ids for _, model_ids, _, _ in jobs)]
    results = run_all(
        [partial(_shared_runs, model_id, corpus, jobs, config) for model_id in shared]
        + [partial(_run_models, *job) for job in jobs]
    )
    shared_runs = {model_id: iter(runs) for model_id, runs in zip(shared, results)}
    stage_runs = results[len(shared):]
    for runs in stage_runs:
        for i, run in enumerate(runs):
            if run.pending:
                runs[i] = next(shared_runs[run.model_id])
    return stage_runs


def _shared_runs(model_id: ModelId, corpus: list, jobs: list, config: PipelineConfig) -> list:
    """model_id trained on corpus, then its run on each job that lists it, in job order.

    A training that raises a model failure leaves each of those runs with
    its message.
    """
    listed = [job for job in jobs if model_id in job[1]]
    try:
        if model_id is ModelId.BOOSTED_TREE:
            trained = train_pooled_trees(corpus)
        else:
            trained = train_shared_cnn(corpus, _cnn_config(config))
    except MODEL_FAILURES as exc:
        return [_ModelRun(model_id, error=str(exc)) for _ in listed]
    return [
        _run_models(series, [model_id], horizon, orders, trained)[0]
        for series, _, horizon, orders in listed
    ]


def _cnn_config(config: PipelineConfig) -> CnnConfig:
    return CnnConfig(
        input_window=config.frequency.default_input_window,
        seed=config.seed,
    )


def _make_forecaster(model_id: ModelId, order=None, trained=None) -> BaseForecaster:
    if model_id is ModelId.NAIVE:
        return NaiveForecaster()
    if model_id is ModelId.SES:
        return SesForecaster()
    if model_id is ModelId.HWES:
        return HwesForecaster()
    if model_id is ModelId.ARIMA:
        return ArimaForecaster(seasonal=False, forced_order=order)
    if model_id is ModelId.SARIMA:
        return ArimaForecaster(seasonal=True, forced_order=order)
    if model_id is ModelId.GAM:
        return GamForecaster()
    if model_id is ModelId.BOOSTED_TREE:
        return BoostedTreeForecaster(trained)
    if model_id is ModelId.CNN:
        return CnnForecaster(trained)
    raise ValueError(f"no forecaster for {model_id}")


def _is_fallback(forecaster: BaseForecaster) -> bool:
    """Only an ARIMA fit falls back: to the random walk, when nothing fits or its path overflows."""
    return isinstance(forecaster, ArimaForecaster) and forecaster.fit_.fallback


@dataclass
class _ModelRun:
    """One model's fit and forecast on one series.

    forecaster is None when building or fitting failed; error holds the
    message of whichever step failed, and result is None whenever error is set.
    A run with neither forecaster nor error is pending: a shared model's
    slot, which `_run_stage` fills from `_shared_runs`. That is a test of
    fields, not of identity, so it survives the pickling that brings a
    worker's runs back.
    """

    model_id: ModelId
    result: ForecastResult | None = None
    error: str | None = None
    forecaster: BaseForecaster | None = None

    @property
    def pending(self) -> bool:
        return self.forecaster is None and self.error is None


def _run_models(series: SalesSeries, model_ids, horizon: int, orders: dict, trained=None) -> list:
    """Fit each model on series, then forecast horizon steps; one _ModelRun per model.

    orders maps ARIMA/SARIMA ids to an order to fit without searching. When
    both search on a series of at least three years, they share one set of
    cached candidate fits through fit_arima_pair and both take ARIMA's slot.
    Otherwise runs follow model_ids. A model that raises a MODEL_FAILURES
    exception is recorded, never fatal. trained is the shared model a
    `_shared_runs` task runs; without it the shared models' runs are left
    pending.
    """
    pair = (ModelId.ARIMA, ModelId.SARIMA)
    joint = (
        all(m in model_ids and m not in orders for m in pair)
        and len(series) >= 3 * series.frequency.periods_per_year
    )
    runs = []
    for model_id in model_ids:
        if joint and model_id in pair:
            if model_id is ModelId.ARIMA:
                runs.extend(_fit_pair(series))
            continue
        if trained is None and model_id in SHARED_MODELS:
            runs.append(_ModelRun(model_id))
            continue
        try:
            forecaster = _make_forecaster(model_id, orders.get(model_id), trained)
            forecaster.fit(series)
            runs.append(_ModelRun(model_id, forecaster=forecaster))
        except MODEL_FAILURES as exc:
            runs.append(_ModelRun(model_id, error=str(exc)))
    for run in runs:
        if run.forecaster is not None:
            try:
                run.result = run.forecaster.forecast(horizon)
            except MODEL_FAILURES as exc:
                run.error = str(exc)
    return runs


def _fit_pair(series: SalesSeries) -> list:
    """ARIMA's and SARIMA's runs, fitted but not yet forecast, from one joint search."""
    try:
        fits = fit_arima_pair(series)
    except MODEL_FAILURES as exc:
        return [_ModelRun(m, error=str(exc)) for m in (ModelId.ARIMA, ModelId.SARIMA)]
    runs = []
    for seasonal, fit in zip((False, True), fits):
        forecaster = ArimaForecaster(seasonal=seasonal)
        forecaster.train_ = series
        forecaster.fit_ = fit
        runs.append(_ModelRun(forecaster.model_id, forecaster=forecaster))
    return runs


def _holdout_length(series: SalesSeries, validity: Validity) -> int:
    year = series.frequency.periods_per_year
    if validity is Validity.FULL_PIPELINE:
        return year
    # shortened holdout keeps at least one year of training data
    return max(MIN_HOLDOUT, len(series) - year)


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
    validities = {}
    entries = {}
    for series in ordered:
        validity = check_validity(series)
        validities[series.product_id] = validity
        if validity is Validity.EXCLUDED:
            year = series.frequency.periods_per_year
            entries[series.product_id] = ProductValidation(
                product_id=series.product_id,
                validity=validity,
                holdout=0,
                flags=(f"excluded: {len(series)} periods < {year}",),
            )
            continue
        holdout = _holdout_length(series, validity)
        splits[series.product_id] = split_holdout(series, holdout)

    model_ids = [m for m in MODEL_PRIORITY if m in config.enabled_models and m is not ModelId.ENSEMBLE_MEDIAN]
    stage_runs = _run_stage(
        [train for train, _ in splits.values()],
        [(train, model_ids, len(test) + config.horizon, {}) for train, test in splits.values()],
        config,
    )
    for (product_id, (train, test)), runs in zip(splits.items(), stage_runs):
        entries[product_id] = _validate_product(train, test, validities[product_id], runs, config)

    return ValidationReport(
        frequency=config.frequency,
        holdout=config.frequency.periods_per_year,
        seed=config.seed,
        products=tuple(entries[s.product_id] for s in ordered),
    )


def _validate_product(train: SalesSeries, test: SalesSeries, validity: Validity, runs: list, config: PipelineConfig) -> ProductValidation:
    """Score the holdout part of each model's run on the training prefix, then recommend.

    Each score keeps the rest of its run as the model's forward forecast.
    """
    holdout = len(test)
    # fit failures are listed before forecast failures
    skipped = [
        (run.model_id.value, run.error)
        for run in sorted(runs, key=lambda run: run.forecaster is not None)
        if run.error is not None
    ]
    scores = [
        ModelScore(
            run.model_id.value,
            compute_metric_set(test.values, run.result.values[:holdout]),
            fallback=_is_fallback(run.forecaster),
            selected_order=run.forecaster.fit_.order if isinstance(run.forecaster, ArimaForecaster) else None,
            forward=ForecastResult(train.product_id, run.model_id.value, test.end + 1, run.result.values[holdout:]),
        )
        for run in runs
        if run.result is not None
    ]
    if ModelId.ENSEMBLE_MEDIAN in config.enabled_models:
        members = [run.result for run in runs if run.result is not None and run.model_id in MEMBERS]
        if len(members) < 2:
            skipped.append((ModelId.ENSEMBLE_MEDIAN.value, f"only {len(members)} member forecasts available"))
        else:
            # finalize rebuilds the ensemble from its members, so it keeps no forward forecast
            ensemble = ensemble_forecast(members)
            scores.append(ModelScore(ensemble.model_id, compute_metric_set(test.values, ensemble.values[:holdout])))
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


def _decomposition(forecaster: GamForecaster) -> Decomposition:
    """The GAM's trend and seasonal paths over the series it was fitted on."""
    parts = forecaster.decompose()
    train = forecaster.train_
    return Decomposition(
        product_id=train.product_id,
        start=train.start,
        observed=train.values,
        trend=parts["trend"],
        seasonal=parts["seasonal"],
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
            if score.model_id != ModelId.ENSEMBLE_MEDIAN.value and (
                forward is None or (forward.start, forward.horizon) != (s.end + 1, config.horizon)
            ):
                raise ValueError(
                    f"report does not match corpus and config: {s.product_id}/{score.model_id} "
                    f"has no validation forecast of {config.horizon} periods"
                )

    eligible = [(s, v) for s, v in zip(ordered, report.products) if v.validity is not Validity.EXCLUDED]
    stage_runs = _run_stage([s for s, _ in eligible], [_refit_job(s, v, config.horizon) for s, v in eligible], config)
    finalized = {s.product_id: _finalize_product(s, v, runs) for (s, v), runs in zip(eligible, stage_runs)}
    products = tuple(
        finalized[v.product_id] if v.product_id in finalized else ProductForecasts(v.product_id, flags=v.flags)
        for v in report.products
    )
    return ForecastBundle(frequency=config.frequency, horizon=config.horizon, products=products)


def _refit_job(series: SalesSeries, validation: ProductValidation, horizon: int) -> tuple:
    """series' `_run_models` job: the scored models, at the ARIMA/SARIMA orders validation selected.

    A no_model product has no scores; its fallback recommendation, naive, is fitted.
    """
    model_ids = [ModelId(s.model_id) for s in validation.scores if s.model_id != ModelId.ENSEMBLE_MEDIAN.value]
    orders = {
        ModelId(score.model_id): score.selected_order
        for score in validation.scores
        if score.selected_order is not None
    }
    return series, model_ids or [ModelId.NAIVE], horizon, orders


def _finalize_product(series: SalesSeries, validation: ProductValidation, runs: list) -> ProductForecasts:
    """One product's forecasts from its full-history runs, failed refits replaced by validation's forecasts.

    Only a no_model product's naive has none, so when its refit fails the product has no forecasts.
    """
    flags = list(validation.flags)
    forwards = {score.model_id: score.forward for score in validation.scores}
    results = []
    decomposition = None
    for run in runs:
        if run.result is not None:
            results.append(run.result)
            if run.model_id is ModelId.GAM:
                decomposition = _decomposition(run.forecaster)
        elif run.model_id.value in forwards:
            results.append(forwards[run.model_id.value])
            flags.append(f"{run.model_id.value}: refit failed, reusing validation fit ({run.error})")
        else:
            flags.append(f"{run.model_id.value}: refit failed ({run.error})")
    if ModelId.ENSEMBLE_MEDIAN.value in forwards:
        # validation scored it from two or more members, and each has a refit or its forward forecast here
        results.append(ensemble_forecast([r for r in results if r.model_id in MEMBERS]))
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
