"""Result serialization: forecast/validation CSVs, run summary, decomposition plots.

Everything written here is deterministic for a given bundle and config: no
timestamps, stable row order, fixed float precision (6 decimal places, the
documented round-trip tolerance), JSON with sorted keys. Both CSVs list
products by id and, within a product, models in the order validation ran
them (`MODEL_PRIORITY`), the median ensemble last; forecasts.csv then
lists periods in order.
"""
from __future__ import annotations

import csv
import json
import math
import re
from dataclasses import asdict
from pathlib import Path

from .errors import ExportError
from .ingest import Validity, open_for_write, read_csv_rows
from .metrics import MetricSet, format_metric
from .models.base import ModelId
from .pipeline import (
    ForecastBundle,
    ModelScore,
    PipelineConfig,
    ProductForecasts,
    ProductValidation,
    ValidationReport,
)
from .series import ForecastResult, Frequency, Period
from .svgplot import line_panels

FORECASTS_HEADER = ["product_id", "model_id", "period", "value"]
VALIDATION_HEADER = ["product_id", "model_id", "rmse", "nrmse", "mape", "recommended"]


def make_output_dir(output_dir) -> Path:
    """output_dir as a Path, created with its parents if missing."""
    out = Path(output_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ExportError(f"cannot create output directory {out}: {exc}") from exc
    return out


def write_forecasts_csv(bundle: ForecastBundle, path) -> Path:
    """One row per (product, model, period), in bundle order."""
    path = Path(path)
    with open_for_write(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(FORECASTS_HEADER)
        for product in bundle.products:
            for result in product.forecasts:
                for period, value in zip(result.periods(), result.values):
                    writer.writerow(
                        [product.product_id, result.model_id, period.label(), f"{value:.6f}"]
                    )
    return path


def write_validation_csv(report: ValidationReport, path) -> Path:
    """One row per (product, model) holdout score; excluded products have none."""
    path = Path(path)
    with open_for_write(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(VALIDATION_HEADER)
        for product in report.products:
            for score in product.scores:
                writer.writerow(
                    [
                        product.product_id,
                        score.model_id,
                        format_metric(score.metrics.rmse),
                        format_metric(score.metrics.nrmse),
                        format_metric(score.metrics.mape),
                        "true" if score.model_id == product.recommended else "false",
                    ]
                )
    return path


def summary_payload(report: ValidationReport, bundle: ForecastBundle | None, config: PipelineConfig) -> dict:
    """The run summary that `write_summary_json` writes and the CLI prints from."""
    validity_counts = {v.value: 0 for v in Validity}
    histogram = {}
    exclusions = []
    skip_counts = {}
    # a bundle's flags carry the product's validation flags and add its refit's
    bundle_flags = {p.product_id: p.flags for p in bundle.products} if bundle is not None else {}
    flags = {}
    for product in report.products:
        validity_counts[product.validity.value] += 1
        if product.validity is Validity.EXCLUDED:
            exclusions.append(
                {"product_id": product.product_id, "reason": "; ".join(product.flags)}
            )
            continue
        flags[product.product_id] = list(bundle_flags.get(product.product_id, product.flags))
        if product.recommended is not None:
            histogram[product.recommended] = histogram.get(product.recommended, 0) + 1
        for model_id, _ in product.skipped:
            skip_counts[model_id] = skip_counts.get(model_id, 0) + 1

    payload = {
        "products": {"total": len(report.products), **validity_counts},
        "exclusions": exclusions,
        "flags": flags,
        "recommendation_histogram": dict(sorted(histogram.items())),
        "model_skip_counts": dict(sorted(skip_counts.items())),
        "seed": report.seed,
        "config": asdict(config),
    }
    if bundle is not None:
        payload["horizon"] = bundle.horizon
        payload["forecast_models"] = {
            p.product_id: sorted(f.model_id for f in p.forecasts) for p in bundle.products
        }
    return payload


def write_summary_json(report: ValidationReport, bundle: ForecastBundle | None, config: PipelineConfig, path) -> Path:
    path = Path(path)
    payload = summary_payload(report, bundle, config)
    with open_for_write(path) as fh:
        fh.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


_UNSAFE = re.compile(r"[^A-Za-z0-9._-]")


def _safe_name(product_id: str) -> str:
    return _UNSAFE.sub("_", product_id)


def write_decomposition_svg(decomposition, path) -> Path:
    path = Path(path)
    end = decomposition.start + (len(decomposition.observed) - 1)
    svg = line_panels(
        f"{decomposition.product_id} decomposition",
        [
            ("observed", decomposition.observed),
            ("trend", decomposition.trend),
            ("seasonal", decomposition.seasonal),
        ],
        decomposition.start.label(),
        end.label(),
    )
    with open_for_write(path) as fh:
        fh.write(svg)
    return path


def export_bundle(bundle: ForecastBundle, report: ValidationReport, output_dir, config: PipelineConfig) -> dict:
    """Write all result files into output_dir; returns {name: Path}.

    Two products whose ids map to one decomposition file name raise
    ExportError before anything is written.
    """
    names = {}
    for product in bundle.products:
        if product.decomposition is None:
            continue
        name = f"decomposition_{_safe_name(product.product_id)}.svg"
        if name in names:
            raise ExportError(
                f"products {names[name].product_id!r} and {product.product_id!r} map to the same "
                f"file name {name}"
            )
        names[name] = product
    out = make_output_dir(output_dir)
    written = {
        "forecasts": write_forecasts_csv(bundle, out / "forecasts.csv"),
        "validation": write_validation_csv(report, out / "validation.csv"),
        "summary": write_summary_json(report, bundle, config, out / "summary.json"),
    }
    for name, product in names.items():
        written[name] = write_decomposition_svg(product.decomposition, out / name)
    return written


def _frequency_of_label(label: str) -> Frequency:
    return Frequency.WEEKLY if "-W" in label else Frequency.MONTHLY


def read_forecasts_csv(path) -> list[ForecastResult]:
    """Parse forecasts.csv back into ForecastResult values.

    Rows of one (product, model) block must be contiguous ascending periods
    of a known model, and its values finite and non-negative. The first
    row's period label sets the frequency of every row.
    """
    path = Path(path)
    groups = {}
    frequency = None
    for line_no, (product_id, model_id, label, value) in read_csv_rows(path, FORECASTS_HEADER, ExportError):
        key = (product_id, model_id)
        try:
            ModelId(model_id)
            frequency = frequency or _frequency_of_label(label)
            period = Period.parse(frequency, label)
            number = float(value)
        except ValueError as exc:
            raise ExportError(f"{path} line {line_no}: {exc}") from exc
        start, values = groups.setdefault(key, (period, []))
        if period.index != start.index + len(values):
            raise ExportError(
                f"{path} line {line_no}: period {label} breaks the contiguous run "
                f"for {product_id}/{model_id}"
            )
        values.append(number)
    results = []
    for (product_id, model_id), (start, values) in groups.items():
        try:
            results.append(ForecastResult(product_id, model_id, start, values))
        except ValueError as exc:
            raise ExportError(f"{path}: {model_id} {exc}") from exc
    return results


def read_validation_csv(path, product_ids):
    """Parse validation.csv into ({product: [ModelScore...]}, {product: recommended}).

    Metrics must be finite and non-negative; only nrmse and mape may be
    empty (undefined). A row for a product not in product_ids, the
    products forecasts.csv holds, is rejected.
    """
    path = Path(path)
    scores = {}
    recommended = {}
    for line_no, (product_id, model_id, rmse, nrmse, mape, rec) in read_csv_rows(
        path, VALIDATION_HEADER, ExportError
    ):
        if product_id not in product_ids:
            raise ExportError(f"{path} line {line_no}: product {product_id!r} has no forecasts")
        try:
            metrics = MetricSet(
                rmse=float(rmse),
                nrmse=float(nrmse) if nrmse else None,
                mape=float(mape) if mape else None,
            )
        except ValueError as exc:
            raise ExportError(f"{path} line {line_no}: {exc}") from exc
        values = (metrics.rmse, metrics.nrmse, metrics.mape)
        if not all(v is None or (math.isfinite(v) and v >= 0) for v in values):
            raise ExportError(
                f"{path} line {line_no}: metrics must be finite and >= 0, got {rmse!r}, {nrmse!r}, {mape!r}"
            )
        if rec not in ("true", "false"):
            raise ExportError(f"{path} line {line_no}: recommended must be true/false, got {rec!r}")
        scores.setdefault(product_id, []).append(ModelScore(model_id, metrics))
        if rec == "true":
            if product_id in recommended:
                raise ExportError(f"{path} line {line_no}: {product_id} has two recommended rows")
            recommended[product_id] = model_id
    return scores, recommended


def read_export_dir(directory) -> tuple[ValidationReport, ForecastBundle]:
    """Rebuild report and bundle structures from an export directory.

    Only the fields evaluation needs are recovered: per-product forecasts,
    holdout metrics, and the recommendation, which is naive for a product
    with forecasts and no validation rows (the pipeline's no_model
    fallback). Validity detail, flags, and the decompositions are not
    round-tripped. Any malformed value, forecasts that the other rows or the
    recommendation contradict, or validation rows for a product without
    forecasts raise ExportError naming the file.
    """
    directory = Path(directory)
    forecasts_path = directory / "forecasts.csv"
    results = read_forecasts_csv(forecasts_path)
    by_product = {}
    for result in results:
        by_product.setdefault(result.product_id, []).append(result)
    scores, recommended = read_validation_csv(directory / "validation.csv", by_product)

    frequency = results[0].start.frequency if results else Frequency.MONTHLY
    horizon = results[0].horizon if results else 1

    validations = []
    forecasts = []
    for product_id, product_results in by_product.items():
        recommendation = recommended.get(product_id) if product_id in scores else ModelId.NAIVE.value
        validations.append(
            ProductValidation(
                product_id=product_id,
                validity=Validity.FULL_PIPELINE,
                holdout=0,
                scores=tuple(scores.get(product_id, ())),
                recommended=recommendation,
            )
        )
        try:
            forecasts.append(
                ProductForecasts(
                    product_id=product_id,
                    forecasts=tuple(product_results),
                    recommended=recommendation,
                )
            )
        except ValueError as exc:
            raise ExportError(f"{forecasts_path}: {exc}") from exc
    report = ValidationReport(frequency=frequency, holdout=0, seed=0, products=tuple(validations))
    bundle = ForecastBundle(frequency=frequency, horizon=horizon, products=tuple(forecasts))
    return report, bundle
