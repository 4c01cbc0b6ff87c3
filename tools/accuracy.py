#!/usr/bin/env python3
"""Accuracy report: every model's out-of-sample error against naive's, per workload.

For one workload of `perfbench/corpora.py` and a range of corpus seeds, each
product's final HORIZON periods are held back as actuals and the pipeline
(validation, then finalize) forecasts them from the rest; the config seed is
the corpus seed, as the benchmark sets it. A product's ratio is a forecast's
range-normalized RMSE over the naive forecast's, as `autocast evaluate`
scores it, so below 1 the forecast beat naive. The report prints the
median, mean and 90th percentile of the ratio for the recommended forecast
and for each model, then the recommendation histogram. A horizon longer
than a year is also scored on its first year and on the rest alone.

With --config-seeds N the corpora run again under config seeds corpus seed
+ 1000k for k = 1 .. N-1, and the recommended row of each k follows the
table (k = 0 is the table's own run), so a change can be told from the
seeded models' noise.

    python3 tools/accuracy.py --workload ragged_catalogue --seeds 1-8 --horizon 18 [--disable gam] [--config-seeds 3]

Deterministic and untimed; nothing is written to disk.
"""
from __future__ import annotations

import argparse
import sys
from collections import Counter
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import corpora  # noqa: E402
from autocast.evaluation import error_ratio  # noqa: E402
from autocast.metrics import compute_metric_set  # noqa: E402
from autocast.models.base import MODEL_PRIORITY, ModelId  # noqa: E402
from autocast.pipeline import PipelineConfig, finalize_and_forecast, run_validation  # noqa: E402

RECOMMENDED = "recommended"
HORIZONS = (12, 18)
# config seed k of a corpus seed is corpus seed + CONFIG_SEED_STEP * k
CONFIG_SEED_STEP = 1000


def run_corpus(workload, seed: int, horizon: int, enabled, config_offset: int = 0):
    """(full series, validation report, forecast bundle) with the last ``horizon`` periods held back.

    The pipeline runs under config seed ``seed + config_offset``.
    """
    _, full = corpora.generate(workload, seed)
    train = [series.prefix(len(series) - horizon) for series in full if len(series) > horizon]
    config = PipelineConfig(
        frequency=workload.frequency, horizon=horizon, enabled_models=enabled, seed=seed + config_offset
    )
    report = run_validation(train, config)
    return full, report, finalize_and_forecast(train, report, config)


def windows(horizon: int, year: int) -> list:
    """(label, slice) of the forecast periods scored: all of them, then each side of the first year."""
    spans = [(0, horizon)] + ([(0, year), (year, horizon)] if horizon > year else [])
    return [(f"{a + 1}-{b}", slice(a, b)) for a, b in spans]


def product_ratios(full, bundle, year: int) -> list:
    """One (recommended model, {window label: {row: ratio or None}}) per forecast product.

    The rows are the recommended forecast and every model that forecast the
    product. A ratio is None where it is undefined: constant actuals or no
    naive forecast.
    """
    actual_by_id = {series.product_id: series for series in full}
    scored = []
    for product in bundle.products:
        if not product.forecasts:
            continue
        actual = actual_by_id[product.product_id]
        first = product.forecasts[0]
        offset = first.start - actual.start
        window = actual.values[offset : offset + first.horizon]
        values = {result.model_id: result.values for result in product.forecasts}
        naive = values.get(ModelId.NAIVE.value)
        recommended = product.recommended
        ratios = {}
        for label, part in windows(first.horizon, year):
            by_row = {
                model_id: None if naive is None else error_ratio(
                    compute_metric_set(window[part], forecast[part]).nrmse,
                    compute_metric_set(window[part], naive[part]).nrmse,
                )
                for model_id, forecast in values.items()
            }
            by_row[RECOMMENDED] = by_row.get(recommended)
            ratios[label] = by_row
        scored.append((recommended, ratios))
    return scored


def summary_line(values) -> str:
    """n, median, mean and 90th percentile of the defined ratios."""
    defined = np.array([v for v in values if v is not None])
    if defined.size == 0:
        return f"{0:>4} {'':>6} {'':>6} {'':>6}"
    return (
        f"{defined.size:>4} {np.median(defined):>6.3f} {defined.mean():>6.3f} "
        f"{np.percentile(defined, 90):>6.3f}"
    )


def row_line(name: str, scored, labels, row: str) -> str:
    """One table row: ``row``'s summary in each window, under the heading ``name``."""
    cells = (summary_line(ratios[label].get(row) for _, ratios in scored) for label in labels)
    return f"{name:<16}" + "".join(f"   {cell}" for cell in cells)


def report_lines(scored, labels) -> list:
    """The table: one row per rule, one column block per window, then the histogram."""
    present = {row for _, ratios in scored for row in ratios[labels[0]]}
    rows = [RECOMMENDED] + [m.value for m in MODEL_PRIORITY if m.value in present]
    lines = [
        f"{'':<16}" + "".join(f"   {'periods ' + label:<25}" for label in labels),
        f"{'ratio':<16}" + f"   {'n':>4} {'median':>6} {'mean':>6} {'p90':>6}" * len(labels),
    ]
    lines += [row_line(row, scored, labels, row) for row in rows]
    histogram = Counter(recommended for recommended, _ in scored if recommended is not None)
    lines.append("recommendations: " + ", ".join(f"{m} {c}" for m, c in sorted(histogram.items())))
    return lines


def seed_range(text: str) -> range:
    first, _, last = text.partition("-")
    return range(int(first), int(last or first) + 1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(corpora.WORKLOADS))
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-8"), help="FIRST-LAST corpus seeds")
    parser.add_argument("--horizon", type=int, choices=HORIZONS, default=HORIZONS[0])
    parser.add_argument(
        "--disable", choices=[m.value for m in MODEL_PRIORITY if m is not ModelId.NAIVE],
        help="run the pipeline without this model",
    )
    parser.add_argument(
        "--config-seeds", type=int, default=1, metavar="N",
        help=f"also run config seeds corpus seed + {CONFIG_SEED_STEP}k for k < N and print each one's recommended row",
    )
    args = parser.parse_args(argv)
    if args.config_seeds < 1:
        parser.error("--config-seeds must be at least 1")
    workload = corpora.WORKLOADS[args.workload]
    enabled = tuple(m for m in MODEL_PRIORITY if m.value != args.disable)
    year = workload.frequency.periods_per_year
    labels = [label for label, _ in windows(args.horizon, year)]
    scored_by_k = []
    for k in range(args.config_seeds):
        scored = []
        for seed in args.seeds:
            full, _, bundle = run_corpus(workload, seed, args.horizon, enabled, CONFIG_SEED_STEP * k)
            scored.extend(product_ratios(full, bundle, year))
        scored_by_k.append(scored)
    print(
        f"{workload.name}, seeds {args.seeds.start}-{args.seeds.stop - 1}, horizon {args.horizon}, "
        f"{'all models' if args.disable is None else args.disable + ' disabled'}; "
        "ratio = nRMSE / naive's nRMSE"
    )
    print("\n".join(report_lines(scored_by_k[0], labels)))
    if args.config_seeds > 1:
        print(f"recommended at config seed = corpus seed + {CONFIG_SEED_STEP}k:")
        for k, scored in enumerate(scored_by_k):
            print(row_line(f"k = {k}", scored, labels, RECOMMENDED))
    return 0


if __name__ == "__main__":
    sys.exit(main())
