"""Checks on one batch's outputs, and the counts and scores derived from them."""
from __future__ import annotations

import hashlib
import math
import statistics

import numpy as np

from autocast.ingest import Validity

# forecasts.csv holds 6 decimal places
ROUND_TRIP_TOL = 1e-6


def check_outputs(corpus, report, bundle, read_back, horizon: int) -> list:
    """Problems found in one batch's forecasts and in its export, as read back."""
    problems = []
    series_by_id = {s.product_id: s for s in corpus}
    validity = {p.product_id: p.validity for p in report.products}
    for product in bundle.products:
        pid = product.product_id
        if validity[pid] is Validity.EXCLUDED:
            if product.forecasts:
                problems.append(f"{pid}: excluded product has forecasts")
            continue
        if product.recommended is None or product.forecast_for(product.recommended) is None:
            problems.append(f"{pid}: no forecast for the recommended model {product.recommended!r}")
        start = series_by_id[pid].end + 1
        for result in product.forecasts:
            label = f"{pid}/{result.model_id}"
            if result.horizon != horizon:
                problems.append(f"{label}: horizon {result.horizon}, expected {horizon}")
            if result.start != start:
                problems.append(f"{label}: starts at {result.start.label()}, expected {start.label()}")
            if not np.all(np.isfinite(result.values)) or np.any(result.values < 0):
                problems.append(f"{label}: values not finite and non-negative")

    reread = {p.product_id: p for p in read_back.products}
    exported = [p for p in bundle.products if p.forecasts]
    if [p.product_id for p in exported] != list(reread):
        problems.append("export round trip: product list differs")
    for product in exported:
        other = reread.get(product.product_id)
        for result in product.forecasts:
            back = other.forecast_for(result.model_id) if other is not None else None
            if (
                back is None
                or back.start != result.start
                or back.horizon != result.horizon
                or np.max(np.abs(back.values - result.values)) > ROUND_TRIP_TOL
            ):
                problems.append(f"export round trip: {product.product_id}/{result.model_id} differs")
    return problems


def sha256_of(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def model_failure_share(report, bundle, n_models: int) -> float:
    """(product, model) pairs skipped, refused or lost at refit over pairs attempted.

    Every enabled model is attempted on every product that is not excluded.
    """
    attempted = failed = 0
    for validation, product in zip(report.products, bundle.products):
        if validation.validity is Validity.EXCLUDED:
            continue
        attempted += n_models
        lost = {s.model_id for s in validation.scores} - {f.model_id for f in product.forecasts}
        failed += len({model_id for model_id, _ in validation.skipped} | lost)
    return failed / attempted if attempted else 0.0


def fallback_share(report) -> float:
    """Scored fits that came back as a fallback over all scored fits."""
    scores = [s for p in report.products for s in p.scores]
    return sum(s.fallback for s in scores) / len(scores) if scores else 0.0


def accuracy(summary) -> dict:
    """Scores of the recommended models against naive on the held-back year."""
    ratios = [r.ratio for r in summary.recommended_ratios if r.ratio is not None]
    wilcoxon = summary.wilcoxon_recommended or {}
    return {
        "median_error_ratio": statistics.median(ratios) if ratios else math.nan,
        "beats_naive_share": sum(r < 1.0 for r in ratios) / len(ratios) if ratios else math.nan,
        "scored_products": len(ratios),
        "wilcoxon_p": wilcoxon.get("p"),
        "recommendation_histogram": summary.recommended_histogram,
    }
