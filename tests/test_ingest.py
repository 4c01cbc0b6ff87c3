import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import autocast
from autocast.errors import ExportError, IngestError
from autocast.ingest import CSV_HEADER, load_sales_csv, read_csv_rows, write_sales_csv
from autocast.series import Frequency
from autocast.synth import ArchetypeSpec, generate_corpus


def sales_text(rows) -> str:
    """A sales CSV's text: the header, then one line per (product_id, date, quantity) row."""
    return "".join(f"{','.join(map(str, row))}\n" for row in [CSV_HEADER, *rows])


def load_rows(rows, frequency=Frequency.MONTHLY):
    """load_sales_csv on a file holding rows, written into a temporary directory.

    Not tmp_path: Hypothesis rejects function-scoped fixtures under @given.
    """
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "sales.csv"
        path.write_text(sales_text(rows), encoding="utf-8")
        return load_sales_csv(path, frequency)


class TestLoadSalesCsv:
    def test_sum_within_period(self):
        (s,) = load_rows([("A", "2023-01-15", 5), ("A", "2023-01-20", 3)])
        assert s.product_id == "A"
        assert s.start.label() == "2023-01"
        assert list(s.values) == [8.0]

    def test_gap_fill(self):
        (s,) = load_rows([("A", "2023-01-01", 5), ("A", "2023-03-01", 2)])
        assert list(s.values) == [5.0, 0.0, 2.0]

    def test_negative_floored_after_summing(self):
        (s,) = load_rows([("A", "2023-01-01", 10), ("A", "2023-01-05", -4)])
        assert list(s.values) == [6.0]

    def test_net_negative_period_floored_at_zero(self):
        (s,) = load_rows([("A", "2023-01-01", 3), ("A", "2023-01-05", -9)])
        assert list(s.values) == [0.0]

    def test_multiple_products_sorted(self):
        out = load_rows([("B", "2023-01-01", 1), ("A", "2023-01-01", 2)])
        assert [s.product_id for s in out] == ["A", "B"]

    def test_header_only_file_yields_no_series(self):
        assert load_rows([]) == []

    @pytest.mark.parametrize(
        "row, message",
        [
            (",2023-02-01,2", "empty product_id"),
            ("A,not-a-date,2", "invalid ISO date 'not-a-date'"),
            ("A,2023-02-01,lots", "invalid quantity 'lots'"),
            ("A,2023-02-01,nan", "non-finite quantity 'nan'"),
            ("A,2023-02-01,-inf", "non-finite quantity '-inf'"),
            ("A,1999-12-31,2", "date 1999-12-31 lies before the monthly epoch"),
        ],
    )
    def test_bad_row_after_a_blank_line_names_file_and_line(self, tmp_path, row, message):
        path = tmp_path / "sales.csv"
        path.write_text(f"{sales_text([('A', '2023-01-01', 1)])}\n{row}\n")
        with pytest.raises(IngestError, match=f"^{re.escape(f'{path} line 4: {message}')}"):
            load_sales_csv(path, Frequency.MONTHLY)

    def test_empty_product_id_names_its_line(self, tmp_path):
        path = tmp_path / "sales.csv"
        path.write_text(sales_text([("A", "2023-01-01", 1), ("", "2023-02-01", 2)]))
        with pytest.raises(IngestError, match=re.escape(f"{path} line 3: empty product_id")):
            load_sales_csv(path, Frequency.MONTHLY)

    @pytest.mark.parametrize("sign", [1, -1])
    def test_overflowing_period_total_names_product_and_period(self, sign):
        rows = [("A", "2023-01-01", 1), ("a", "2023-02-03", sign * 1e308), ("a", "2023-02-20", sign * 1e308)]
        with pytest.raises(IngestError, match="product 'a', period 2023-02"):
            load_rows(rows)

    def test_weekly_periods(self):
        (s,) = load_rows([("A", "2023-01-09", 4), ("A", "2023-01-12", 1)], Frequency.WEEKLY)
        assert s.frequency is Frequency.WEEKLY
        assert list(s.values) == [5.0]

    @given(st.permutations(list(range(6))))
    def test_permutation_invariance(self, order):
        rows = [
            ("A", "2023-01-05", 4),
            ("A", "2023-02-01", 2),
            ("B", "2023-01-10", 7),
            ("A", "2023-04-01", 1),
            ("B", "2023-03-02", -3),
            ("B", "2023-03-20", 5),
        ]
        baseline = load_rows(rows)
        shuffled = load_rows([rows[i] for i in order])
        assert len(baseline) == len(shuffled)
        for a, b in zip(baseline, shuffled):
            assert a.product_id == b.product_id
            assert a.start == b.start
            assert np.array_equal(a.values, b.values)


class TestCsvRoundTrip:
    def test_write_then_read(self, tmp_path):
        series = load_rows([("A", "2023-01-05", 4.5), ("A", "2023-03-01", 2), ("B", "2023-02-11", 7)])
        path = tmp_path / "sales.csv"
        write_sales_csv(path, series)
        back = load_sales_csv(path, Frequency.MONTHLY)
        assert len(back) == len(series)
        for a, b in zip(series, back):
            assert a.product_id == b.product_id
            assert a.start == b.start
            assert np.allclose(a.values, b.values)

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("foo,bar,baz\nA,2023-01-01,1\n")
        with pytest.raises(IngestError, match="header"):
            load_sales_csv(path, Frequency.MONTHLY)

    def test_bad_row_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("product_id,date,quantity\nA,2023-01-01,1\nA,2023-02-30,2\n")
        with pytest.raises(IngestError, match="line 3"):
            load_sales_csv(path, Frequency.MONTHLY)

    def test_leading_byte_order_mark_is_dropped(self, tmp_path):
        # Excel's "CSV UTF-8" starts the file with U+FEFF
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        plain.write_text("product_id,date,quantity\nA,2023-01-05,4.5\nB,2023-02-11,7\n", encoding="utf-8")
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        for a, b in zip(load_sales_csv(marked, Frequency.MONTHLY), load_sales_csv(plain, Frequency.MONTHLY), strict=True):
            assert (a.product_id, a.start, a.values.tobytes()) == (b.product_id, b.start, b.values.tobytes())
        assert [s.product_id for s in load_sales_csv(marked, Frequency.MONTHLY)] == ["A", "B"]

    def test_shuffled_rows_ingest_to_the_same_corpus(self, tmp_path):
        corpus = generate_corpus(
            [ArchetypeSpec.from_kind(p, kind, length=n) for p, kind, n in
             [("a", "seasonality", 40), ("b", "high_variance", 30), ("c", "seasonality_trend", 13)]],
            seed=3,
        )
        path, shuffled = tmp_path / "sales.csv", tmp_path / "shuffled.csv"
        write_sales_csv(path, corpus)
        header, *rows = path.read_text().splitlines(keepends=True)
        np.random.default_rng(0).shuffle(rows)
        shuffled.write_text(header + "".join(rows))
        for a, b in zip(load_sales_csv(path, Frequency.MONTHLY), load_sales_csv(shuffled, Frequency.MONTHLY), strict=True):
            assert (a.product_id, a.start, a.values.tobytes()) == (b.product_id, b.start, b.values.tobytes())


class TestReadCsvRows:
    def test_rows_with_line_numbers_skipping_blank_lines(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text(" a,b\n1,2\n\n3,4\n")
        assert read_csv_rows(path, ["a", "b"], IngestError) == [(2, ["1", "2"]), (4, ["3", "4"])]

    @pytest.mark.parametrize("error", [IngestError, ExportError])
    @pytest.mark.parametrize(
        "text, match",
        [(None, "not found"), ("", "empty file"), ("a,c\n", "bad header"), ("a,b\n1,2\n1\n", "line 3")],
    )
    def test_raises_the_error_type_it_is_given(self, tmp_path, error, text, match):
        path = tmp_path / "t.csv"
        if text is not None:
            path.write_text(text)
        with pytest.raises(error, match=match):
            read_csv_rows(path, ["a", "b"], error)


def test_importing_ingest_loads_the_pipeline():
    # the benchmark's set-up child imports autocast.ingest and times the import,
    # and its host-speed sampler needs that set-up to stay as long as it is; ROADMAP
    # item 6 deletes this test together with the package root's eager import
    env = dict(os.environ, PYTHONPATH=str(Path(autocast.__file__).parents[1]))
    code = "import sys, autocast.ingest; print('autocast.pipeline' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True).stdout
    assert out == "True\n"
