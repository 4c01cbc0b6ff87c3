"""Corpus orchestration: validation with recommendation, then retrain and forecast.

Products run through three stages. First each series is classified by
history length (full pipeline, shortened holdout, or excluded). Second,
every enabled model is fitted on a training prefix and scored on the
held-out final year; the lowest holdout RMSE wins the recommendation.
Third, every scored model is refitted on the full history and asked for
the real forward horizon. Shared-weight models (pooled trees, the CNN)
are trained once per stage before the per-product fan-out.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .deeplearn import CnnConfig, CnnForecaster, train_shared_cnn
from .errors import ConfigError
from .ingest import Validity, check_validity
from .metrics import MetricSet, compute_metric_set
from .models import (
    MODEL_PRIORITY,
    ArimaForecaster,
    BaseForecaster,
    BoostedTreeForecaster,
    DEFAULT_MEMBERS,
    GamForecaster,
    HwesForecaster,
    ModelId,
    NaiveForecaster,
    SesForecaster,
    ensemble_forecast,
    fit_arima_pair,
    priority_rank,
    train_pooled_trees,
)
from .series import ForecastResult, Frequency, SalesSeries, split_holdout

MIN_HOLDOUT = 3


@dataclass(frozen=True)
class PipelineConfig:
    """Run settings; horizon and holdout default per frequency when omitted."""

    frequency: Frequency = Frequency.MONTHLY
    horizon: int | None = None
    holdout: int | None = None
    enabled_models: tuple = MODEL_PRIORITY
    ensemble_members: tuple = DEFAULT_MEMBERS
    seed: int = 0
    gam_lambda_grid: tuple | None = None
    input_path: str | None = None
    output_dir: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "frequency", Frequency(self.frequency))
        if self.horizon is None:
            object.__setattr__(self, "horizon", self.frequency.default_horizon)
        if self.holdout is None:
            object.__setattr__(self, "holdout", self.frequency.default_holdout)
        enabled = tuple(ModelId(m) for m in self.enabled_models)
        members = tuple(ModelId(m) for m in self.ensemble_members)
        object.__setattr__(self, "enabled_models", enabled)
        object.__setattr__(self, "ensemble_members", members)
        if self.horizon < 1:
            raise ConfigError(f"horizon: must be >= 1, got {self.horizon}")
        if self.holdout < MIN_HOLDOUT:
            raise ConfigError(f"holdout: must be >= {MIN_HOLDOUT}, got {self.holdout}")
        if len(set(enabled)) != len(enabled):
            raise ConfigError("enabled_models: duplicate entries")
        missing = [m.value for m in members if m not in enabled]
        if missing:
            raise ConfigError(f"ensemble_members: {missing} not in enabled_models")
        if self.gam_lambda_grid is not None:
            grid = tuple(float(g) for g in self.gam_lambda_grid)
            if not grid or any(g < 0 or not np.isfinite(g) for g in grid):
                raise ConfigError("gam_lambda_grid: entries must be finite and >= 0")
            object.__setattr__(self, "gam_lambda_grid", grid)

    def as_dict(self) -> dict:
        """JSON-ready echo of every setting, enums flattened to their values."""
        return {
            "frequency": self.frequency.value,
            "horizon": self.horizon,
            "holdout": self.holdout,
            "enabled_models": [m.value for m in self.enabled_models],
            "ensemble_members": [m.value for m in self.ensemble_members],
            "seed": self.seed,
            "gam_lambda_grid": list(self.gam_lambda_grid) if self.gam_lambda_grid else None,
            "input_path": self.input_path,
            "output_dir": self.output_dir,
        }


_CONFIG_KEYS = {
    "frequency",
    "horizon",
    "holdout",
    "enabled_models",
    "ensemble_members",
    "seed",
    "gam_lambda_grid",
    "input_path",
    "output_dir",
}


def parse_config(path) -> PipelineConfig:
    """Read a JSON config file; missing keys take defaults, unknown keys fail."""
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
    kwargs = dict(raw)
    try:
        if "frequency" in kwargs:
            kwargs["frequency"] = Frequency(kwargs["frequency"])
        if "enabled_models" in kwargs:
            kwargs["enabled_models"] = tuple(ModelId(m) for m in kwargs["enabled_models"])
        if "ensemble_members" in kwargs:
            kwargs["ensemble_members"] = tuple(ModelId(m) for m in kwargs["ensemble_members"])
        if "gam_lambda_grid" in kwargs and kwargs["gam_lambda_grid"] is not None:
            kwargs["gam_lambda_grid"] = tuple(kwargs["gam_lambda_grid"])
        for key in ("horizon", "holdout", "seed"):
            if key in kwargs and kwargs[key] is not None:
                if not isinstance(kwargs[key], int) or isinstance(kwargs[key], bool):
                    raise ConfigError(f"{key}: expected an integer, got {kwargs[key]!r}")
        for key in ("input_path", "output_dir"):
            if key in kwargs and kwargs[key] is not None and not isinstance(kwargs[key], str):
                raise ConfigError(f"{key}: expected a string, got {kwargs[key]!r}")
        return PipelineConfig(**kwargs)
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
    # its own Hannan–Rissanen or zero start, without repeating the search.
    selected_order: object | None = None


@dataclass(frozen=True)
class ProductValidation:
    product_id: str
    validity: Validity
    holdout: int
    scores: tuple = ()
    skipped: tuple = ()  # (model_id, reason) pairs
    recommended: str | None = None
    flags: tuple = ()

    def score_for(self, model_id: str) -> ModelScore | None:
        for score in self.scores:
            if score.model_id == model_id:
                return score
        return None


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

    @property
    def scored_products(self) -> tuple:
        return tuple(p for p in self.products if p.validity is not Validity.EXCLUDED)


@dataclass(frozen=True)
class Decomposition:
    """Additive trend/seasonal/residual paths over the training window."""

    product_id: str
    start: object
    observed: np.ndarray = field(repr=False)
    trend: np.ndarray = field(repr=False)
    seasonal: np.ndarray = field(repr=False)
    residual: np.ndarray = field(repr=False)


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


@dataclass
class _SharedModels:
    """Shared-weight artifacts trained once per stage, before the fan-out."""

    trees: object | None = None
    trees_error: str | None = None
    network: object | None = None
    network_error: str | None = None


def _train_shared(corpus: list, config: PipelineConfig) -> _SharedModels:
    shared = _SharedModels()
    if ModelId.BOOSTED_TREE in config.enabled_models:
        try:
            shared.trees = train_pooled_trees(corpus)
        except ValueError as exc:
            shared.trees_error = str(exc)
    if ModelId.CNN in config.enabled_models:
        try:
            shared.network, _ = train_shared_cnn(corpus, _cnn_config(config))
        except ValueError as exc:
            shared.network_error = str(exc)
    return shared


def _cnn_config(config: PipelineConfig) -> CnnConfig:
    return CnnConfig(
        input_window=config.frequency.default_input_window,
        seed=config.seed,
    )


def _model_order(config: PipelineConfig) -> tuple:
    """Deterministic fit order with the ensemble last, after its members."""
    order = [m for m in MODEL_PRIORITY if m in config.enabled_models and m is not ModelId.ENSEMBLE_MEDIAN]
    if ModelId.ENSEMBLE_MEDIAN in config.enabled_models:
        order.append(ModelId.ENSEMBLE_MEDIAN)
    return tuple(order)


def _make_forecaster(model_id: ModelId, shared: _SharedModels, config: PipelineConfig) -> BaseForecaster:
    if model_id is ModelId.NAIVE:
        return NaiveForecaster()
    if model_id is ModelId.SES:
        return SesForecaster()
    if model_id is ModelId.HWES:
        return HwesForecaster()
    if model_id is ModelId.ARIMA:
        return ArimaForecaster(seasonal=False)
    if model_id is ModelId.SARIMA:
        return ArimaForecaster(seasonal=True)
    if model_id is ModelId.GAM:
        return GamForecaster(lambda_grid=config.gam_lambda_grid)
    if model_id is ModelId.BOOSTED_TREE:
        if shared.trees is None:
            raise ValueError(shared.trees_error or "pooled tree model unavailable")
        return BoostedTreeForecaster(shared.trees)
    if model_id is ModelId.CNN:
        if shared.network is None:
            raise ValueError(shared.network_error or "shared network unavailable")
        return CnnForecaster(shared.network)
    raise ValueError(f"no forecaster for {model_id}")


def _is_fallback(forecaster: BaseForecaster) -> bool:
    state = getattr(forecaster, "state_", None) or getattr(forecaster, "fit_", None)
    return bool(getattr(state, "fallback", False))


def _fit_all(train: SalesSeries, shared: _SharedModels, config: PipelineConfig):
    """Fit every enabled model on one training series.

    Returns (fitted: list of (ModelId, forecaster), skipped: list of
    (model_id, reason)). ARIMA and SARIMA share one set of cached candidate
    fits when both are enabled. A model that raises is skipped, never fatal.
    """
    fitted = []
    skipped = []
    order = _model_order(config)
    pair_ids = {ModelId.ARIMA, ModelId.SARIMA}
    joint = pair_ids <= set(order) and len(train) >= 3 * train.frequency.periods_per_year
    for model_id in order:
        if model_id is ModelId.ENSEMBLE_MEDIAN:
            continue  # computed from member forecasts, not fitted
        if joint and model_id in pair_ids:
            if model_id is ModelId.SARIMA:
                continue  # handled together with ARIMA below
            try:
                plain_fit, seasonal_fit = fit_arima_pair(train)
                for seasonal, fit in ((False, plain_fit), (True, seasonal_fit)):
                    forecaster = ArimaForecaster(seasonal=seasonal)
                    forecaster.train_ = train
                    forecaster.fit_ = fit
                    fitted.append((forecaster.model_id, forecaster))
            except Exception as exc:
                skipped.append((ModelId.ARIMA.value, str(exc)))
                skipped.append((ModelId.SARIMA.value, str(exc)))
            continue
        try:
            forecaster = _make_forecaster(model_id, shared, config)
            forecaster.fit(train)
            fitted.append((model_id, forecaster))
        except Exception as exc:
            skipped.append((model_id.value, str(exc)))
    return fitted, skipped


def _forecast_all(fitted, skipped, horizon: int, config: PipelineConfig):
    """Run every fitted model forward, then the ensemble over its members."""
    results = []
    fallbacks = {}
    for model_id, forecaster in fitted:
        try:
            result = forecaster.forecast(horizon)
        except Exception as exc:
            skipped.append((model_id.value, str(exc)))
            continue
        results.append(result)
        fallbacks[model_id.value] = _is_fallback(forecaster)
    if ModelId.ENSEMBLE_MEDIAN in config.enabled_models:
        member_ids = {m.value for m in config.ensemble_members}
        members = [r for r in results if r.model_id in member_ids]
        if len(members) >= 2:
            results.append(ensemble_forecast(members))
            fallbacks[ModelId.ENSEMBLE_MEDIAN.value] = False
        else:
            skipped.append(
                (ModelId.ENSEMBLE_MEDIAN.value, f"only {len(members)} member forecasts available")
            )
    return results, fallbacks


def _holdout_length(series: SalesSeries, validity: Validity, config: PipelineConfig) -> int:
    if validity is Validity.FULL_PIPELINE:
        return config.holdout
    # shortened holdout keeps at least one year of training data
    return max(MIN_HOLDOUT, len(series) - series.frequency.periods_per_year)


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
        holdout = _holdout_length(series, validity, config)
        splits[series.product_id] = split_holdout(series, holdout)

    shared = _train_shared([train for train, _ in splits.values()], config)

    for series in ordered:
        if series.product_id not in splits:
            continue
        train, test = splits[series.product_id]
        fitted, skipped = _fit_all(train, shared, config)
        results, fallbacks = _forecast_all(fitted, skipped, len(test), config)
        orders = {
            model_id.value: forecaster.fit_.order
            for model_id, forecaster in fitted
            if isinstance(forecaster, ArimaForecaster)
        }
        scores = []
        for result in results:
            metrics = compute_metric_set(test.values, result.values)
            scores.append(
                ModelScore(
                    result.model_id,
                    metrics,
                    fallback=fallbacks[result.model_id],
                    selected_order=orders.get(result.model_id),
                )
            )
        flags = []
        if scores:
            recommended = recommend_model(scores)
        else:
            recommended = ModelId.NAIVE.value
            flags.append("no_model")
        entries[series.product_id] = ProductValidation(
            product_id=series.product_id,
            validity=validities[series.product_id],
            holdout=len(test),
            scores=tuple(scores),
            skipped=tuple(skipped),
            recommended=recommended,
            flags=tuple(flags),
        )

    return ValidationReport(
        frequency=config.frequency,
        holdout=config.holdout,
        seed=config.seed,
        products=tuple(entries[s.product_id] for s in ordered),
    )


def _decomposition_from(fitted, train: SalesSeries) -> Decomposition | None:
    for model_id, forecaster in fitted:
        if model_id is ModelId.GAM:
            parts = forecaster.decompose()
            return Decomposition(
                product_id=train.product_id,
                start=train.start,
                observed=train.values,
                trend=parts["trend"],
                seasonal=parts["seasonal"],
                residual=parts["residual"],
            )
    return None


def finalize_and_forecast(corpus, report: ValidationReport, config: PipelineConfig | None = None) -> ForecastBundle:
    """Refit scored models on full history and forecast the forward horizon.

    A model that fails to refit falls back to its validation-stage fit: that
    model is refitted on the training prefix and its forecast extended past
    the holdout, keeping the same forward window as everyone else.
    """
    config = config or PipelineConfig()
    ordered = _check_corpus(corpus)
    report_ids = [p.product_id for p in report.products]
    if report_ids != [s.product_id for s in ordered]:
        raise ValueError("report does not match corpus: product ids differ")

    eligible = [
        s for s in ordered if report.product(s.product_id).validity is not Validity.EXCLUDED
    ]
    shared = _train_shared(eligible, config)
    if shared.trees_error or shared.network_error:
        # full-history training failed where the prefixes worked: fall back
        # to the validation-stage corpus so those forecasts are not lost
        prefixes = [
            split_holdout(s, report.product(s.product_id).holdout)[0] for s in eligible
        ]
        retried = _train_shared(prefixes, config)
        if shared.trees is None:
            shared.trees, shared.trees_error = retried.trees, retried.trees_error
        if shared.network is None:
            shared.network, shared.network_error = retried.network, retried.network_error

    products = []
    for series in ordered:
        validation = report.product(series.product_id)
        if validation.validity is Validity.EXCLUDED:
            products.append(
                ProductForecasts(
                    product_id=series.product_id,
                    flags=validation.flags,
                )
            )
            continue
        scored_ids = [ModelId(score.model_id) for score in validation.scores]
        if validation.recommended is not None and ModelId(validation.recommended) not in scored_ids:
            # no_model products still get their fallback recommendation fitted
            scored_ids.append(ModelId(validation.recommended))
        flags = list(validation.flags)
        results = []
        fitted = []
        for model_id in scored_ids:
            if model_id is ModelId.ENSEMBLE_MEDIAN:
                continue
            score = validation.score_for(model_id.value)
            order = score.selected_order if score is not None else None
            result, forecaster, flag = _refit_one(
                model_id, series, validation.holdout, order, shared, config
            )
            if result is None:
                flags.append(flag)
                continue
            if flag:
                flags.append(flag)
            results.append(result)
            if forecaster is not None:
                fitted.append((model_id, forecaster))
        if ModelId.ENSEMBLE_MEDIAN.value in {s.model_id for s in validation.scores}:
            member_ids = {m.value for m in config.ensemble_members}
            members = [r for r in results if r.model_id in member_ids]
            if len(members) >= 2:
                results.append(ensemble_forecast(members))
            else:
                flags.append(
                    f"ensemble_median: only {len(members)} member forecasts available"
                )
        recommended = validation.recommended
        if recommended is not None and all(r.model_id != recommended for r in results):
            # recommendation unavailable after refit: fall back by priority
            present = sorted(
                (priority_rank(r.model_id), r.model_id) for r in results
            )
            recommended = present[0][1] if present else None
            flags.append("recommended_model_unavailable")
        products.append(
            ProductForecasts(
                product_id=series.product_id,
                forecasts=tuple(results),
                recommended=recommended,
                flags=tuple(flags),
                decomposition=_decomposition_from(fitted, series),
            )
        )

    return ForecastBundle(
        frequency=config.frequency,
        horizon=config.horizon,
        products=tuple(products),
    )


def _refit_one(model_id: ModelId, series: SalesSeries, holdout: int, order, shared: _SharedModels, config: PipelineConfig):
    """Returns (result, forecaster, flag); result None means the model is lost."""

    def build() -> BaseForecaster:
        forecaster = _make_forecaster(model_id, shared, config)
        if order is not None and isinstance(forecaster, ArimaForecaster):
            forecaster.forced_order = order
        return forecaster

    try:
        forecaster = build()
        forecaster.fit(series)
        return forecaster.forecast(config.horizon), forecaster, None
    except Exception as refit_exc:
        try:
            train, _ = split_holdout(series, holdout)
            forecaster = build()
            forecaster.fit(train)
            extended = forecaster.forecast(holdout + config.horizon)
            result = ForecastResult(
                product_id=series.product_id,
                model_id=model_id.value,
                start=series.end + 1,
                values=extended.values[holdout:],
            )
            return result, forecaster, f"{model_id.value}: refit failed, reusing validation fit ({refit_exc})"
        except Exception as exc:
            return None, None, f"{model_id.value}: refit failed ({exc})"


def run_pipeline(corpus, config: PipelineConfig | None = None):
    """Validation followed by finalize; returns (report, bundle)."""
    config = config or PipelineConfig()
    report = run_validation(corpus, config)
    bundle = finalize_and_forecast(corpus, report, config)
    return report, bundle
