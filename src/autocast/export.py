"""Result serialization: forecast/validation CSVs, run summary, decomposition plots.

Everything written here is deterministic for a given bundle and config: no
timestamps, stable row order, fixed float precision (6 decimal places, the
documented round-trip tolerance), JSON with sorted keys.
"""
from __future__ import annotations

import csv
import json
import re
from dataclasses import asdict
from pathlib import Path

from .errors import ExportError
from .ingest import Validity
from .metrics import MetricSet
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


def _fmt_metric(value) -> str:
    return "" if value is None else f"{value:.6f}"


def _open_write(path: Path):
    try:
        return path.open("w", newline="", encoding="utf-8")
    except OSError as exc:
        raise ExportError(f"cannot write {path}: {exc}") from exc


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
    with _open_write(path) as fh:
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
    with _open_write(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(VALIDATION_HEADER)
        for product in report.products:
            for score in product.scores:
                writer.writerow(
                    [
                        product.product_id,
                        score.model_id,
                        _fmt_metric(score.metrics.rmse),
                        _fmt_metric(score.metrics.nrmse),
                        _fmt_metric(score.metrics.mape),
                        "true" if score.model_id == product.recommended else "false",
                    ]
                )
    return path


def _summary_payload(report: ValidationReport, bundle: ForecastBundle | None, config: PipelineConfig | None) -> dict:
    validity_counts = {v.value: 0 for v in Validity}
    histogram = {}
    exclusions = []
    skip_counts = {}
    for product in report.products:
        validity_counts[product.validity.value] += 1
        if product.validity is Validity.EXCLUDED:
            exclusions.append(
                {"product_id": product.product_id, "reason": "; ".join(product.flags)}
            )
            continue
        if product.recommended is not None:
            histogram[product.recommended] = histogram.get(product.recommended, 0) + 1
        for model_id, _ in product.skipped:
            skip_counts[model_id] = skip_counts.get(model_id, 0) + 1

    if config is None:
        config = PipelineConfig(
            frequency=report.frequency,
            holdout=report.holdout,
            seed=report.seed,
            horizon=bundle.horizon if bundle is not None else None,
        )
    payload = {
        "products": {"total": len(report.products), **validity_counts},
        "exclusions": exclusions,
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


def write_summary_json(report: ValidationReport, bundle: ForecastBundle | None, config: PipelineConfig | None, path) -> Path:
    path = Path(path)
    payload = _summary_payload(report, bundle, config)
    with _open_write(path) as fh:
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
    with _open_write(path) as fh:
        fh.write(svg)
    return path


def export_bundle(bundle: ForecastBundle, report: ValidationReport, output_dir, config: PipelineConfig | None = None) -> dict:
    """Write all result files into output_dir; returns {name: Path}."""
    out = make_output_dir(output_dir)

    written = {
        "forecasts": write_forecasts_csv(bundle, out / "forecasts.csv"),
        "validation": write_validation_csv(report, out / "validation.csv"),
        "summary": write_summary_json(report, bundle, config, out / "summary.json"),
    }
    names = {}
    for product in bundle.products:
        if product.decomposition is None:
            continue
        name = f"decomposition_{_safe_name(product.product_id)}.svg"
        if name in names:
            raise ExportError(
                f"products {names[name]!r} and {product.product_id!r} map to the same "
                f"file name {name}"
            )
        names[name] = product.product_id
        written[name] = write_decomposition_svg(product.decomposition, out / name)
    return written


def _read_rows(path: Path, expected_header: list) -> list:
    if not path.exists():
        raise ExportError(f"file not found: {path}")
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ExportError(f"{path}: empty file, expected header {','.join(expected_header)}")
        if header != expected_header:
            raise ExportError(f"{path}: bad header {header!r}, expected {expected_header}")
        rows = []
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(expected_header):
                raise ExportError(
                    f"{path} line {line_no}: expected {len(expected_header)} fields, got {len(row)}"
                )
            rows.append((line_no, row))
    return rows


def _frequency_of_label(label: str) -> Frequency:
    return Frequency.WEEKLY if "-W" in label else Frequency.MONTHLY


def read_forecasts_csv(path) -> list[ForecastResult]:
    """Parse forecasts.csv back into ForecastResult values.

    Rows of one (product, model) block must be contiguous ascending periods.
    """
    path = Path(path)
    groups = {}
    order = []
    for line_no, (product_id, model_id, label, value) in _read_rows(path, FORECASTS_HEADER):
        key = (product_id, model_id)
        try:
            frequency = _frequency_of_label(label)
            period = Period.parse(frequency, label)
            number = float(value)
        except ValueError as exc:
            raise ExportError(f"{path} line {line_no}: {exc}") from exc
        if key not in groups:
            groups[key] = (period, [])
            order.append(key)
        start, values = groups[key]
        if period.index != start.index + len(values):
            raise ExportError(
                f"{path} line {line_no}: period {label} breaks the contiguous run "
                f"for {product_id}/{model_id}"
            )
        values.append(number)
    results = []
    for key in order:
        product_id, model_id = key
        start, values = groups[key]
        results.append(ForecastResult(product_id, model_id, start, values))
    return results


def read_validation_csv(path):
    """Parse validation.csv into ({product: [ModelScore...]}, {product: recommended})."""
    path = Path(path)
    scores = {}
    recommended = {}
    for line_no, (product_id, model_id, rmse, nrmse, mape, rec) in _read_rows(
        path, VALIDATION_HEADER
    ):
        try:
            metrics = MetricSet(
                rmse=float(rmse),
                nrmse=float(nrmse) if nrmse else None,
                mape=float(mape) if mape else None,
            )
        except ValueError as exc:
            raise ExportError(f"{path} line {line_no}: {exc}") from exc
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
    holdout metrics, and the recommendation. Validity detail, flags, and the
    decompositions are not round-tripped.
    """
    directory = Path(directory)
    results = read_forecasts_csv(directory / "forecasts.csv")
    scores, recommended = read_validation_csv(directory / "validation.csv")

    by_product = {}
    product_order = []
    for result in results:
        if result.product_id not in by_product:
            by_product[result.product_id] = []
            product_order.append(result.product_id)
        by_product[result.product_id].append(result)

    frequency = results[0].start.frequency if results else Frequency.MONTHLY
    horizon = results[0].horizon if results else 1

    validations = []
    forecasts = []
    for product_id in product_order:
        product_results = by_product[product_id]
        validations.append(
            ProductValidation(
                product_id=product_id,
                validity=Validity.FULL_PIPELINE,
                holdout=0,
                scores=tuple(scores.get(product_id, ())),
                recommended=recommended.get(product_id),
            )
        )
        forecasts.append(
            ProductForecasts(
                product_id=product_id,
                forecasts=tuple(product_results),
                recommended=recommended.get(product_id),
            )
        )
    report = ValidationReport(frequency=frequency, holdout=0, seed=0, products=tuple(validations))
    bundle = ForecastBundle(frequency=frequency, horizon=horizon, products=tuple(forecasts))
    return report, bundle
