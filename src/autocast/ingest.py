"""Sales record ingestion: raw (product, date, quantity) rows to SalesSeries.

Quantities are summed into their containing period, interior gaps become
explicit zeros, and per-period sums that end up negative (returns exceeding
sales) are floored at zero.

The package's one CSV row reader (`read_csv_rows`) and one output-file
opener (`open_for_write`) live here, the lowest layer, so that export and
evaluation share them without an import cycle.
"""
from __future__ import annotations

import csv
import datetime as dt
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


def check_validity(series: SalesSeries) -> Validity:
    """Classify a series: excluded under one year, short under two."""
    year = series.frequency.periods_per_year
    if len(series) < year:
        return Validity.EXCLUDED
    if len(series) < 2 * year:
        return Validity.SHORT_HISTORY
    return Validity.FULL_PIPELINE


def _coerce_date(value, row_label: str) -> dt.date:
    if isinstance(value, dt.datetime):
        return value.date()
    if isinstance(value, dt.date):
        return value
    try:
        return dt.date.fromisoformat(str(value).strip())
    except ValueError as exc:
        raise IngestError(f"{row_label}: invalid ISO date {value!r}") from exc


def ingest_sales(records, frequency: Frequency) -> list[SalesSeries]:
    """Aggregate raw (product_id, date, quantity) records into series.

    Records may arrive in any order; the result is sorted by product id.
    Dates may be ISO-8601 strings or date objects. An empty input yields an
    empty list. Malformed rows raise IngestError naming the offending row,
    and a period whose quantities sum past the float range raises one naming
    the product and period.
    """
    totals: dict[str, dict[int, float]] = {}
    for i, record in enumerate(records):
        row_label = f"record {i + 1}"
        try:
            product_id, date_value, quantity = record
        except (TypeError, ValueError) as exc:
            raise IngestError(f"{row_label}: expected (product_id, date, quantity)") from exc
        product_id = str(product_id)
        if not product_id:
            raise IngestError(f"{row_label}: empty product_id")
        day = _coerce_date(date_value, row_label)
        try:
            qty = float(quantity)
        except (TypeError, ValueError) as exc:
            raise IngestError(f"{row_label}: invalid quantity {quantity!r}") from exc
        if not np.isfinite(qty):
            raise IngestError(f"{row_label}: non-finite quantity {quantity!r}")
        try:
            period = Period.from_date(frequency, day)
        except ValueError as exc:
            raise IngestError(f"{row_label}: {exc}") from exc
        totals.setdefault(product_id, {})[period.index] = (
            totals.get(product_id, {}).get(period.index, 0.0) + qty
        )

    result = []
    for product_id in sorted(totals):
        by_period = totals[product_id]
        first, last = min(by_period), max(by_period)
        values = np.zeros(last - first + 1)
        for index, total in by_period.items():
            if not np.isfinite(total):
                label = Period(frequency, index).label()
                raise IngestError(f"product {product_id!r}, period {label}: quantities sum beyond float range")
            values[index - first] = max(0.0, total)
        result.append(
            SalesSeries(product_id, frequency, Period(frequency, first), values)
        )
    return result


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


def read_sales_csv(path) -> list[tuple[str, dt.date, float]]:
    """Read raw records from a `product_id,date,quantity` CSV file."""
    records = []
    for line_no, (product_id, date_text, quantity) in read_csv_rows(path, CSV_HEADER, IngestError):
        row_label = f"{path} line {line_no}"
        day = _coerce_date(date_text, row_label)
        try:
            qty = float(quantity)
        except ValueError as exc:
            raise IngestError(f"{row_label}: invalid quantity {quantity!r}") from exc
        records.append((product_id, day, qty))
    return records


def load_sales_csv(path, frequency: Frequency) -> list[SalesSeries]:
    """Read and aggregate a sales CSV in one step."""
    return ingest_sales(read_sales_csv(path), frequency)


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
