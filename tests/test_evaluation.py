import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from autocast.errors import DegenerateSampleError, EvaluationError
from autocast.evaluation import (
    EXACT_LIMIT,
    error_ratio,
    summarize,
    wilcoxon_signed_rank,
    write_evaluation,
)
from autocast.ingest import Validity
from autocast.metrics import MetricSet
from autocast.pipeline import (
    ForecastBundle,
    ModelScore,
    ProductForecasts,
    ProductValidation,
    ValidationReport,
)
from autocast.series import ForecastResult, Frequency, Period

from helpers import monthly_series
from oracles import nrmse_bruteforce, wilcoxon_enumeration


class TestErrorRatio:
    def test_half(self):
        assert error_ratio(0.3, 0.6) == pytest.approx(0.5)

    def test_parity(self):
        assert error_ratio(0.6, 0.6) == 1.0

    def test_perfect_naive_is_undefined(self):
        assert error_ratio(0.3, 0.0) is None

    def test_none_propagates(self):
        assert error_ratio(None, 0.5) is None
        assert error_ratio(0.5, None) is None

    def test_negative_inputs_rejected(self):
        with pytest.raises(ValueError, match=">= 0"):
            error_ratio(-0.1, 0.5)

    @settings(max_examples=100, deadline=None)
    @given(
        st.floats(min_value=1e-6, max_value=1e6),
        st.floats(min_value=1e-6, max_value=1e6),
        st.floats(min_value=1e-6, max_value=1e6),
    )
    def test_scale_invariant(self, model, naive, c):
        assert error_ratio(model * c, naive * c) == pytest.approx(
            error_ratio(model, naive), rel=1e-9
        )


class TestWilcoxonExamples:
    def test_all_positive_three(self):
        w, p = wilcoxon_signed_rank([1.0, 2.0, 3.0])
        assert w == 6.0
        assert p == 0.25

    def test_all_negative_three(self):
        w, p = wilcoxon_signed_rank([-1.0, -2.0, -3.0])
        assert w == 0.0
        assert p == 0.25

    def test_tied_magnitudes_use_midranks(self):
        w, p = wilcoxon_signed_rank([1.0, -1.0])
        assert w == 1.5
        assert p == 1.0

    def test_greater_alternative_halves_symmetric_case(self):
        _, p = wilcoxon_signed_rank([1.0, 2.0, 3.0], alternative="greater")
        assert p == 0.125

    def test_less_alternative(self):
        _, p = wilcoxon_signed_rank([1.0, 2.0, 3.0], alternative="less")
        assert p == 1.0

    def test_zeros_dropped_before_ranking(self):
        w_with, p_with = wilcoxon_signed_rank([0.0, 1.0, 2.0, 3.0, 0.0])
        w_without, p_without = wilcoxon_signed_rank([1.0, 2.0, 3.0])
        assert (w_with, p_with) == (w_without, p_without)

    def test_all_zero_degenerate(self):
        with pytest.raises(DegenerateSampleError, match="degenerate sample"):
            wilcoxon_signed_rank([0.0, 0.0])

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            wilcoxon_signed_rank([1.0, np.nan])

    def test_unknown_alternative_rejected(self):
        with pytest.raises(ValueError, match="alternative"):
            wilcoxon_signed_rank([1.0], alternative="both")


class TestWilcoxonAgainstEnumeration:
    def test_exact_p_matches_enumeration_bitwise(self):
        rng = np.random.default_rng(7)
        for trial in range(60):
            n = int(rng.integers(1, 13))
            if trial % 3 == 0:
                diffs = rng.integers(-4, 5, size=n).astype(float)  # many ties and zeros
            else:
                diffs = rng.normal(size=n)
            if not np.any(diffs != 0):
                diffs[0] = 1.0
            w_got, p_got = wilcoxon_signed_rank(diffs)
            w_want, p_want = wilcoxon_enumeration(diffs)
            assert w_got == w_want
            assert p_got == p_want

    def test_statistic_complement_sums_to_rank_total(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n = int(rng.integers(2, 13))
            diffs = rng.normal(size=n)
            w_pos, _ = wilcoxon_signed_rank(diffs)
            w_neg, _ = wilcoxon_signed_rank(-diffs)
            assert w_pos + w_neg == pytest.approx(n * (n + 1) / 2)


class TestNormalApproximation:
    @pytest.mark.parametrize("n", range(13, 21))
    def test_within_two_percent_of_exact_on_tie_free_samples(self, n, monkeypatch):
        samples = [np.random.default_rng(1000 * n + seed).normal(size=n) for seed in (0, 1)]
        for diffs in samples:
            assert len(np.unique(np.abs(diffs))) == n  # tie-free draw
        exact = [wilcoxon_signed_rank(diffs)[1] for diffs in samples]
        monkeypatch.setattr("autocast.evaluation.EXACT_LIMIT", 0)
        approx = [wilcoxon_signed_rank(diffs)[1] for diffs in samples]
        assert np.max(np.abs(np.subtract(exact, approx))) <= 0.02

    def test_default_limit_is_twenty(self):
        assert EXACT_LIMIT == 20


FSTART = Period(Frequency.MONTHLY, 264)
HORIZON = 3


def forecast(pid, model_id, values):
    return ForecastResult(pid, model_id, FSTART, np.asarray(values, dtype=float))


def validation(pid, recommended):
    scores = tuple(
        ModelScore(m, MetricSet(rmse=1.0, nrmse=0.1, mape=None))
        for m in ({recommended, "naive"} if recommended else {"naive"})
    )
    return ProductValidation(
        product_id=pid,
        validity=Validity.FULL_PIPELINE,
        holdout=12,
        scores=scores,
        recommended=recommended,
    )


def build_fixture():
    """Three scored products, one missing actuals, one with constant actuals.

    win:  recommended hwes hits the actuals exactly; naive misses.
    lose: recommended gam misses badly; naive nearly exact (ex-post best).
    flat: constant actuals make every nRMSE undefined.
    gone: forecasts present but no actuals series.
    """
    products = {
        "win": {
            "naive": [10.0, 10.0, 10.0],
            "hwes": [11.0, 12.0, 10.0],
            "recommended": "hwes",
            "actuals": [11.0, 12.0, 10.0],
        },
        "lose": {
            "naive": [10.0, 12.0, 13.0],
            "gam": [20.0, 0.0, 0.0],
            "recommended": "gam",
            "actuals": [10.0, 12.0, 14.0],
        },
        "flat": {
            "naive": [5.0, 5.0, 5.0],
            "hwes": [6.0, 6.0, 6.0],
            "recommended": "hwes",
            "actuals": [5.0, 5.0, 5.0],
        },
        "gone": {
            "naive": [1.0, 1.0, 1.0],
            "recommended": "naive",
            "actuals": None,
        },
    }
    bundle_products = []
    validations = []
    actuals = []
    for pid, spec_row in products.items():
        model_ids = [m for m in spec_row if m not in ("recommended", "actuals")]
        bundle_products.append(
            ProductForecasts(
                product_id=pid,
                forecasts=tuple(forecast(pid, m, spec_row[m]) for m in model_ids),
                recommended=spec_row["recommended"],
            )
        )
        validations.append(validation(pid, spec_row["recommended"]))
        if spec_row["actuals"] is not None:
            actuals.append(monthly_series(spec_row["actuals"], product_id=pid, start_index=264))
    report = ValidationReport(
        frequency=Frequency.MONTHLY, holdout=12, seed=0, products=tuple(validations)
    )
    bundle = ForecastBundle(
        frequency=Frequency.MONTHLY, horizon=HORIZON, products=tuple(bundle_products)
    )
    return report, bundle, actuals, products


class TestSummarize:
    def setup_method(self):
        self.report, self.bundle, self.actuals, self.spec_rows = build_fixture()
        self.summary = summarize(self.report, self.bundle, self.actuals)

    def test_scored_missing_and_undefined_partitions(self):
        assert self.summary.n_products == 4
        assert self.summary.scored == ("win", "lose", "flat")
        assert self.summary.missing_actuals == ("gone",)
        assert self.summary.undefined_ratio == ("flat",)

    def test_recommendations_are_looked_up_without_scanning_the_report(self, monkeypatch):
        def scan(report, product_id):
            raise AssertionError("summarize scanned the report")

        monkeypatch.setattr(ValidationReport, "product", scan)
        assert summarize(self.report, self.bundle, self.actuals) == self.summary

    def test_scored_product_missing_from_the_report_raises(self):
        report = ValidationReport(
            frequency=Frequency.MONTHLY, holdout=12, seed=0, products=self.report.products[1:]
        )
        with pytest.raises(KeyError, match="no validation entry for product 'win'"):
            summarize(report, self.bundle, self.actuals)

    def test_recommended_histogram_counts_scored_products(self):
        assert self.summary.recommended_histogram == {"gam": 1, "hwes": 2}

    def test_best_histogram_is_ex_post(self):
        # win: hwes exact; lose: naive nearly exact; flat: tie at rmse 0 vs 1
        assert self.summary.best_histogram == {"hwes": 1, "naive": 2}

    def test_ratios_match_hand_computation(self):
        ratios = {r.product_id: r for r in self.summary.recommended_ratios}
        win_naive = nrmse_bruteforce([11, 12, 10], [10, 10, 10])
        assert ratios["win"].ratio == pytest.approx(0.0 / win_naive)
        lose_gam = nrmse_bruteforce([10, 12, 14], [20, 0, 0])
        lose_naive = nrmse_bruteforce([10, 12, 14], [10, 12, 13])
        assert ratios["lose"].ratio == pytest.approx(lose_gam / lose_naive)
        assert ratios["flat"].ratio is None

    def test_best_nrmse_never_exceeds_recommended(self):
        best = {r.product_id: r for r in self.summary.best_ratios}
        for rec in self.summary.recommended_ratios:
            if rec.model_nrmse is None:
                continue
            assert best[rec.product_id].model_nrmse <= rec.model_nrmse

    def test_wilcoxon_pairs_only_defined_products(self):
        entry = self.summary.wilcoxon_recommended
        assert entry["n"] == 2  # win and lose; flat is undefined
        assert entry["p"] > 0  # two points cannot be significant
        assert self.summary.alternative == "two-sided"

    def test_per_model_mean_nrmse(self):
        lose_naive = nrmse_bruteforce([10, 12, 14], [10, 12, 13])
        win_naive = nrmse_bruteforce([11, 12, 10], [10, 10, 10])
        expected_naive_mean = (win_naive + lose_naive) / 2  # flat contributes None
        assert self.summary.per_model_mean_nrmse["naive"] == pytest.approx(expected_naive_mean)

    def test_duplicate_actuals_rejected(self):
        with pytest.raises(EvaluationError, match="duplicate"):
            summarize(self.report, self.bundle, self.actuals + [self.actuals[0]])

    def test_short_actuals_count_as_missing(self):
        report, bundle, actuals, _ = build_fixture()
        short = [
            monthly_series(series.values[:2], product_id=series.product_id, start_index=264)
            if series.product_id == "win"
            else series
            for series in actuals
        ]
        summary = summarize(report, bundle, short)
        assert "win" in summary.missing_actuals
        assert "win" not in summary.scored

    def test_quartiles_are_ratio_percentiles(self):
        values = [r.ratio for r in self.summary.recommended_ratios if r.ratio is not None]
        q1, q2, q3 = np.percentile(values, [25, 50, 75])
        assert self.summary.recommended_quartiles == pytest.approx((q1, q2, q3))

    def test_ex_post_optimal_recommendations_match_best_histogram(self):
        # rebuild with the recommendation forced to the ex-post best everywhere
        report, bundle, actuals, _ = build_fixture()
        best_by_pid = {"win": "hwes", "lose": "naive", "flat": "naive"}
        new_validations = tuple(
            ProductValidation(
                product_id=v.product_id,
                validity=v.validity,
                holdout=v.holdout,
                scores=validation(v.product_id, best_by_pid.get(v.product_id, "naive")).scores,
                recommended=best_by_pid.get(v.product_id, v.recommended),
            )
            for v in report.products
        )
        new_products = tuple(
            ProductForecasts(
                product_id=p.product_id,
                forecasts=p.forecasts,
                recommended=best_by_pid.get(p.product_id, p.recommended),
            )
            for p in bundle.products
        )
        report = ValidationReport(
            frequency=report.frequency, holdout=12, seed=0, products=new_validations
        )
        bundle = ForecastBundle(
            frequency=bundle.frequency, horizon=bundle.horizon, products=new_products
        )
        summary = summarize(report, bundle, actuals)
        assert summary.recommended_histogram == summary.best_histogram

    def test_identical_model_and_naive_forecasts_degenerate(self):
        pid = "same"
        bundle = ForecastBundle(
            frequency=Frequency.MONTHLY,
            horizon=HORIZON,
            products=(
                ProductForecasts(
                    product_id=pid,
                    forecasts=(
                        forecast(pid, "naive", [7.0, 8.0, 9.0]),
                        forecast(pid, "hwes", [7.0, 8.0, 9.0]),
                    ),
                    recommended="hwes",
                ),
            ),
        )
        report = ValidationReport(
            frequency=Frequency.MONTHLY,
            holdout=12,
            seed=0,
            products=(validation(pid, "hwes"),),
        )
        actuals = [monthly_series([8.0, 8.0, 10.0], product_id=pid, start_index=264)]
        summary = summarize(report, bundle, actuals)
        entry = summary.wilcoxon_recommended
        assert entry["note"] == "degenerate sample"
        assert entry["p"] is None

    def test_bad_alternative_rejected(self):
        with pytest.raises(ValueError, match="alternative"):
            summarize(self.report, self.bundle, self.actuals, alternative="sideways")


class TestWriteEvaluation:
    def test_files_written_and_deterministic(self, tmp_path):
        report, bundle, actuals, _ = build_fixture()
        summary = summarize(report, bundle, actuals)
        first = write_evaluation(summary, tmp_path / "a")
        second = write_evaluation(summary, tmp_path / "b")
        assert set(first) == {"evaluation", "ratios", "boxplot"}
        for key in first:
            assert first[key].read_bytes() == second[key].read_bytes()
        payload = json.loads(first["evaluation"].read_text())
        assert payload["scored"] == ["win", "lose", "flat"]
        assert payload["wilcoxon_recommended"]["n"] == 2

    def test_ratios_csv_has_one_row_per_scored_product(self, tmp_path):
        report, bundle, actuals, _ = build_fixture()
        summary = summarize(report, bundle, actuals)
        written = write_evaluation(summary, tmp_path)
        lines = written["ratios"].read_text().splitlines()
        assert lines[0].startswith("product_id,recommended_model")
        assert len(lines) == 1 + 3

    def test_no_defined_ratios_skips_boxplot(self, tmp_path):
        report, bundle, actuals, _ = build_fixture()
        flat_only = [s for s in actuals if s.product_id == "flat"]
        keep = {"flat"}
        bundle = ForecastBundle(
            frequency=bundle.frequency,
            horizon=bundle.horizon,
            products=tuple(p for p in bundle.products if p.product_id in keep),
        )
        report = ValidationReport(
            frequency=report.frequency,
            holdout=12,
            seed=0,
            products=tuple(v for v in report.products if v.product_id in keep),
        )
        summary = summarize(report, bundle, flat_only)
        written = write_evaluation(summary, tmp_path)
        assert "boxplot" not in written
        assert written["ratios"].exists()
