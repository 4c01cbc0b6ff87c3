"""Sales CSV files in and out: `product_id,date,quantity` rows to SalesSeries and back.

The module reads and writes CSV files and holds no policy: which series
the pipeline runs, and how much of each it holds out, is `pipeline`'s
rule. `Validity` only names the classes that rule assigns; it is defined
here, the lowest layer, so that export and the pipeline share it.

Reading sums quantities into their containing period, makes interior gaps
explicit zeros, and floors per-period sums that end up negative (returns
exceeding sales) at zero.

The package's one CSV row reader (`read_csv_rows`) and one output-file
opener (`open_for_write`) live here too, so that export and evaluation
share them without an import cycle.
"""
from __future__ import annotations

import csv
import datetime as dt
import math
from enum import Enum
from pathlib import Path

import numpy as np

from .errors import ExportError, IngestError
from .series import Frequency, Period, SalesSeries

CSV_HEADER = ["product_id", "date", "quantity"]


class Validity(Enum):
    """How much of the pipeline a series qualifies for, by history length."""

    FULL_PIPELINE = "full_pipeline"
    SHORT_HISTORY = "short_history"
    EXCLUDED = "excluded"


def read_csv_rows(path, header: list, error: type) -> list:
    """(line number, fields) of each non-blank row of a CSV file that starts with header.

    A missing or empty file, another header, or a row whose field count is
    not the header's raises `error`, naming the file and, for a row, its line.
    A leading byte order mark, which Excel writes into "CSV UTF-8" files, is
    dropped.
    """
    path = Path(path)
    if not path.exists():
        raise error(f"file not found: {path}")
    with path.open(newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            first = next(reader)
        except StopIteration:
            raise error(f"{path}: empty file, expected header {','.join(header)}")
        if [h.strip() for h in first] != header:
            raise error(f"{path}: bad header {first!r}, expected {','.join(header)}")
        rows = []
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise error(f"{path} line {line_no}: expected {len(header)} fields, got {len(row)}")
            rows.append((line_no, row))
    return rows


def load_sales_csv(path, frequency: Frequency) -> list[SalesSeries]:
    """Series summed from a `product_id,date,quantity` CSV file, sorted by product id.

    Rows may come in any order; a file with a header and no rows yields an
    empty list. A row with an empty product id, a date that is not ISO-8601
    or lies before the period epoch, or a quantity that is not a finite
    number raises IngestError naming `<path> line <n>`, and a period whose
    quantities sum past the float range raises one naming the product and
    period.
    """
    totals: dict[str, dict[int, float]] = {}
    for line_no, (product_id, date_text, quantity) in read_csv_rows(path, CSV_HEADER, IngestError):
        where = f"{path} line {line_no}"
        if not product_id:
            raise IngestError(f"{where}: empty product_id")
        try:
            day = dt.date.fromisoformat(date_text.strip())
        except ValueError as exc:
            raise IngestError(f"{where}: invalid ISO date {date_text!r}") from exc
        try:
            qty = float(quantity)
        except ValueError as exc:
            raise IngestError(f"{where}: invalid quantity {quantity!r}") from exc
        if not math.isfinite(qty):
            raise IngestError(f"{where}: non-finite quantity {quantity!r}")
        try:
            index = Period.from_date(frequency, day).index
        except ValueError as exc:
            raise IngestError(f"{where}: {exc}") from exc
        by_period = totals.setdefault(product_id, {})
        by_period[index] = by_period.get(index, 0.0) + qty

    result = []
    for product_id in sorted(totals):
        by_period = totals[product_id]
        first, last = min(by_period), max(by_period)
        values = np.zeros(last - first + 1)
        for index, total in by_period.items():
            if not math.isfinite(total):
                label = Period(frequency, index).label()
                raise IngestError(f"product {product_id!r}, period {label}: quantities sum beyond float range")
            values[index - first] = max(0.0, total)
        result.append(SalesSeries(product_id, frequency, Period(frequency, first), values))
    return result


def open_for_write(path):
    """path opened for UTF-8 text writing, newlines untranslated; OSError becomes ExportError."""
    try:
        return Path(path).open("w", newline="", encoding="utf-8")
    except OSError as exc:
        raise ExportError(f"cannot write {path}: {exc}") from exc


def write_sales_csv(path, corpus: list[SalesSeries]) -> None:
    """Write series back out in the ingestion CSV format (one row per period)."""
    with open_for_write(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        for series in corpus:
            for period, value in zip(series.periods(), series.values):
                writer.writerow(
                    [series.product_id, period.start_date.isoformat(), f"{value:.6f}"]
                )
