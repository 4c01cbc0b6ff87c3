"""Corpus-level scoring against realized actuals: ratios, significance, summary.

The headline question is whether the recommended models beat the naive
month-of-year baseline out of sample. Per product that is the error ratio
(model nRMSE over naive nRMSE, below 1 means the model wins); across the
corpus it is a Wilcoxon signed-rank test on the paired nRMSE values.
"""
from __future__ import annotations

import csv
import json
import math
from dataclasses import asdict, dataclass

from .errors import DegenerateSampleError, EvaluationError
from .export import make_output_dir
from .ingest import open_for_write
from .metrics import compute_metric_set, format_metric
from .models.base import ModelId, priority_rank
from .pipeline import ForecastBundle, ValidationReport
from .svgplot import box_plot, quartiles

EXACT_LIMIT = 20  # enumeration is 2^n; beyond this the normal approximation
RATIO_CLIP = 3.5  # drawing-only clip for the ratio boxplot

_ALTERNATIVES = ("two-sided", "greater", "less")


def error_ratio(model_nrmse, naive_nrmse):
    """model/naive, or None when naive is 0 or either side is undefined."""
    if model_nrmse is None or naive_nrmse is None:
        return None
    model_nrmse = float(model_nrmse)
    naive_nrmse = float(naive_nrmse)
    if model_nrmse < 0 or naive_nrmse < 0:
        raise ValueError("nRMSE inputs must be >= 0")
    if naive_nrmse == 0.0:
        return None
    return model_nrmse / naive_nrmse


def _midranks(values) -> list:
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    i = 0
    while i < len(values):
        j = i
        while j + 1 < len(values) and values[order[j + 1]] == values[order[i]]:
            j += 1
        rank = (i + j) / 2.0 + 1.0
        for k in range(i, j + 1):
            ranks[order[k]] = rank
        i = j + 1
    return ranks


def _exact_counts(int_ranks, w2_obs: int) -> tuple[int, int, int]:
    """Distribution of the doubled rank-sum over all 2^n sign assignments.

    Dynamic programming over exact integers; returns (count of assignments
    with sum <= observed, count with sum >= observed, total = 2^n).
    """
    total_sum = sum(int_ranks)
    counts = [0] * (total_sum + 1)
    counts[0] = 1
    for r in int_ranks:
        for s in range(total_sum, r - 1, -1):
            counts[s] += counts[s - r]
    count_le = sum(counts[: w2_obs + 1])
    count_ge = sum(counts[w2_obs:])
    return count_le, count_ge, 2 ** len(int_ranks)


def _normal_tail(z: float) -> float:
    """P(Z >= z) for a standard normal."""
    return 0.5 * math.erfc(z / math.sqrt(2.0))


def wilcoxon_signed_rank(diffs, alternative: str = "two-sided", exact_limit: int = EXACT_LIMIT):
    """Signed-rank test on paired differences; returns (W, p).

    W is the sum of the ranks of the positive differences, with mid-ranks
    for tied magnitudes and zero differences dropped. The p-value is exact
    (all sign assignments) up to `exact_limit` nonzero differences, then a
    normal approximation with tie and continuity corrections.
    """
    if alternative not in _ALTERNATIVES:
        raise ValueError(f"alternative must be one of {_ALTERNATIVES}, got {alternative!r}")
    d = [float(x) for x in diffs]
    if any(not math.isfinite(x) for x in d):
        raise ValueError("differences must be finite")
    d = [x for x in d if x != 0.0]
    n = len(d)
    if n == 0:
        raise DegenerateSampleError("degenerate sample: all differences zero")
    ranks = _midranks([abs(x) for x in d])
    w_plus = sum(r for x, r in zip(d, ranks) if x > 0)

    if n <= exact_limit:
        # mid-ranks are exact halves, so doubling makes every sum an integer
        int_ranks = [int(round(2 * r)) for r in ranks]
        w2_obs = int(round(2 * w_plus))
        count_le, count_ge, denom = _exact_counts(int_ranks, w2_obs)
        if alternative == "greater":
            p = count_ge / denom
        elif alternative == "less":
            p = count_le / denom
        else:
            p = min(1.0, 2.0 * min(count_le / denom, count_ge / denom))
        return w_plus, p

    mu = sum(ranks) / 2.0
    sigma = math.sqrt(sum(r * r for r in ranks) / 4.0)
    if alternative == "greater":
        p = _normal_tail((w_plus - mu - 0.5) / sigma)
    elif alternative == "less":
        p = 1.0 - _normal_tail((w_plus - mu + 0.5) / sigma)
    else:
        delta = abs(w_plus - mu) - 0.5
        p = min(1.0, 2.0 * _normal_tail(max(delta, 0.0) / sigma))
    return w_plus, p


@dataclass(frozen=True)
class ErrorRatio:
    """One product's out-of-sample comparison against the naive baseline."""

    product_id: str
    model_id: str
    model_nrmse: float | None
    naive_nrmse: float | None
    ratio: float | None


@dataclass(frozen=True)
class EvaluationSummary:
    n_products: int
    scored: tuple
    missing_actuals: tuple
    undefined_ratio: tuple
    per_model_mean_nrmse: dict
    recommended_histogram: dict
    best_histogram: dict
    recommended_ratios: tuple
    best_ratios: tuple
    recommended_quartiles: tuple | None
    best_quartiles: tuple | None
    wilcoxon_recommended: dict | None
    wilcoxon_best: dict | None
    alternative: str


def _actual_window(actual, start, horizon: int):
    offset = start - actual.start
    if offset < 0 or offset + horizon > len(actual):
        return None
    return actual.values[offset : offset + horizon]


def _wilcoxon_entry(pairs, alternative: str) -> dict | None:
    diffs = [naive - model for model, naive in pairs]
    if not diffs:
        return None
    try:
        w, p = wilcoxon_signed_rank(diffs, alternative=alternative)
    except DegenerateSampleError:
        return {"n": len(diffs), "w": None, "p": None, "note": "degenerate sample"}
    return {"n": len(diffs), "w": w, "p": p}


def summarize(report: ValidationReport, bundle: ForecastBundle, actuals, alternative: str = "two-sided") -> EvaluationSummary:
    """Score every product's forecasts against realized actuals.

    Differences are oriented naive minus model, so positive values mean the
    model beat the baseline. Products whose actuals are missing or do not
    cover the horizon are flagged and skipped; products with undefined
    nRMSE (constant actuals) or no naive forecast are kept in the
    histograms but excluded from ratio statistics.
    """
    if alternative not in _ALTERNATIVES:
        raise ValueError(f"alternative must be one of {_ALTERNATIVES}, got {alternative!r}")
    actual_by_id = {}
    for series in actuals:
        if series.product_id in actual_by_id:
            raise EvaluationError(f"duplicate actuals for product {series.product_id!r}")
        actual_by_id[series.product_id] = series

    scored = []
    missing = []
    undefined = []
    recommended_hist = {}
    best_hist = {}
    model_nrmse_sums = {}
    recommended_ratios = []
    best_ratios = []
    recommended_pairs = []
    best_pairs = []

    for product in bundle.products:
        if not product.forecasts:
            continue
        pid = product.product_id
        actual = actual_by_id.get(pid)
        window = (
            _actual_window(actual, product.forecasts[0].start, product.forecasts[0].horizon)
            if actual is not None
            else None
        )
        if window is None:
            missing.append(pid)
            continue
        scored.append(pid)

        realized = {}
        for result in product.forecasts:
            metrics = compute_metric_set(window, result.values)
            realized[result.model_id] = metrics
            if metrics.nrmse is not None:
                total, count = model_nrmse_sums.get(result.model_id, (0.0, 0))
                model_nrmse_sums[result.model_id] = (total + metrics.nrmse, count + 1)

        best_id = min(realized, key=lambda m: (realized[m].rmse, priority_rank(m)))
        best_hist[best_id] = best_hist.get(best_id, 0) + 1

        recommended_id = report.product(pid).recommended
        if recommended_id is not None:
            recommended_hist[recommended_id] = recommended_hist.get(recommended_id, 0) + 1

        nrmse = {model_id: metrics.nrmse for model_id, metrics in realized.items()}
        naive_nrmse = nrmse.get(ModelId.NAIVE.value)
        product_defined = True
        for model_id, bucket_ratios, bucket_pairs in (
            (recommended_id, recommended_ratios, recommended_pairs),
            (best_id, best_ratios, best_pairs),
        ):
            model_nrmse = nrmse.get(model_id)
            ratio = error_ratio(model_nrmse, naive_nrmse)
            bucket_ratios.append(ErrorRatio(pid, model_id or "", model_nrmse, naive_nrmse, ratio))
            if ratio is None:
                product_defined = False
            else:
                bucket_pairs.append((model_nrmse, naive_nrmse))
        if not product_defined:
            undefined.append(pid)

    per_model_mean = {
        model_id: total / count
        for model_id, (total, count) in sorted(model_nrmse_sums.items())
    }

    return EvaluationSummary(
        n_products=len(bundle.products),
        scored=tuple(scored),
        missing_actuals=tuple(missing),
        undefined_ratio=tuple(undefined),
        per_model_mean_nrmse=per_model_mean,
        recommended_histogram=dict(sorted(recommended_hist.items())),
        best_histogram=dict(sorted(best_hist.items())),
        recommended_ratios=tuple(recommended_ratios),
        best_ratios=tuple(best_ratios),
        recommended_quartiles=quartiles([r.ratio for r in recommended_ratios if r.ratio is not None]),
        best_quartiles=quartiles([r.ratio for r in best_ratios if r.ratio is not None]),
        wilcoxon_recommended=_wilcoxon_entry(recommended_pairs, alternative),
        wilcoxon_best=_wilcoxon_entry(best_pairs, alternative),
        alternative=alternative,
    )


RATIOS_HEADER = [
    "product_id",
    "recommended_model",
    "recommended_nrmse",
    "best_model",
    "best_nrmse",
    "naive_nrmse",
    "recommended_ratio",
    "best_ratio",
]


def write_evaluation(summary: EvaluationSummary, output_dir) -> dict:
    """Write evaluation.json, ratios.csv, and (when possible) boxplot.svg."""
    out = make_output_dir(output_dir)
    written = {"evaluation": out / "evaluation.json", "ratios": out / "ratios.csv"}
    with open_for_write(written["evaluation"]) as fh:
        fh.write(json.dumps(asdict(summary), indent=2, sort_keys=True) + "\n")

    best_by_id = {r.product_id: r for r in summary.best_ratios}
    with open_for_write(written["ratios"]) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(RATIOS_HEADER)
        for rec in summary.recommended_ratios:
            best = best_by_id.get(rec.product_id)
            writer.writerow(
                [
                    rec.product_id,
                    rec.model_id,
                    format_metric(rec.model_nrmse),
                    best.model_id if best else "",
                    format_metric(best.model_nrmse if best else None),
                    format_metric(rec.naive_nrmse),
                    format_metric(rec.ratio),
                    format_metric(best.ratio if best else None),
                ]
            )

    groups = []
    rec_values = [r.ratio for r in summary.recommended_ratios if r.ratio is not None]
    best_values = [r.ratio for r in summary.best_ratios if r.ratio is not None]
    if rec_values:
        groups.append(("recommended", rec_values))
    if best_values:
        groups.append(("best", best_values))
    if groups:
        written["boxplot"] = out / "boxplot.svg"
        with open_for_write(written["boxplot"]) as fh:
            fh.write(box_plot("error ratio vs naive baseline", groups, clip=RATIO_CLIP))
    return written
