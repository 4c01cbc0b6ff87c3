"""Seeded synthetic sales corpora, one per benchmark workload.

Each product is generated one year longer than its training history. The
training part is written to the CSV the program reads; the held-back final
year is written separately and is only used to score the exported forecasts.
Every product of a corpus ends in the same period, as in a real catalogue.

Archetype mix and history lengths are fixed per workload; the seed decides
the sales values (phase, noise) of every product.
"""
from __future__ import annotations

import datetime
from dataclasses import dataclass
from pathlib import Path

from autocast.ingest import write_sales_csv
from autocast.series import Frequency, Period
from autocast.synth import ArchetypeSpec, derive_product_seed, generate_product

SEASONALITY = "seasonality"
TREND = "seasonality_trend"
HIGH_VARIANCE = "high_variance"

# ROADMAP's c6 mix, seasonality : seasonality_trend : high_variance = 2 : 2 : 1
C6_MIX = (SEASONALITY, TREND, SEASONALITY, TREND, HIGH_VARIANCE)


@dataclass(frozen=True)
class Workload:
    """One corpus shape: a product per entry of ``train_lengths``."""

    name: str
    frequency: Frequency
    kinds: tuple          # archetype per product, cycled
    train_lengths: tuple  # training periods per product

    @property
    def horizon(self) -> int:
        """Forecast one year ahead: exactly the held-back year."""
        return self.frequency.periods_per_year


def _spread(count: int, low: int, high: int) -> tuple:
    """``count`` integer lengths spread evenly over [low, high]."""
    return tuple(low + round((high - low) * i / (count - 1)) for i in range(count))


WORKLOADS = {
    w.name: w
    for w in (
        # every model runs, including the joint ARIMA/SARIMA grid: per-product fits dominate
        Workload("monthly_full", Frequency.MONTHLY, C6_MIX, (96,) * 10),
        # short, uneven histories: exclusions, shortened holdouts, refusals and the lasso
        Workload("ragged_catalogue", Frequency.MONTHLY, C6_MIX, _spread(20, 8, 40)),
    )
    # No weekly corpus: its batch time is set by the shared CNN's early-stopping
    # epoch count, which varied tenfold with the seed (12 vs 122 epochs), so its
    # timings could not be held within the largest allowed bound.
}


def generate(workload: Workload, seed: int):
    """Returns (training corpus, full corpus) for one seed."""
    year = workload.frequency.periods_per_year
    totals = [n + year for n in workload.train_lengths]
    first = Period.from_date(workload.frequency, datetime.date(2014, 1, 1))
    train, full = [], []
    for i, (total, n_train) in enumerate(zip(totals, workload.train_lengths)):
        kind = workload.kinds[i % len(workload.kinds)]
        product_id = f"{workload.name[0]}{i:03d}_{kind}"
        spec = ArchetypeSpec.from_kind(
            product_id, kind, length=total, seed=derive_product_seed(seed, product_id)
        )
        series = generate_product(spec, workload.frequency, first + (max(totals) - total))
        full.append(series)
        train.append(series.prefix(n_train))
    return train, full


def corpus_paths(out_dir) -> tuple:
    """(training CSV, actuals CSV) inside one corpus directory."""
    out = Path(out_dir)
    return out / "train.csv", out / "actuals.csv"


def write_corpus(workload: Workload, seed: int, out_dir) -> None:
    """Generate one corpus and write both CSVs into ``out_dir``."""
    train, full = generate(workload, seed)
    train_csv, actuals_csv = corpus_paths(out_dir)
    train_csv.parent.mkdir(parents=True, exist_ok=True)
    write_sales_csv(actuals_csv, full)
    write_sales_csv(train_csv, train)

