"""The benchmark's own arithmetic, checked on hand-built inputs."""
import numpy as np
import pytest

from autocast.ingest import Validity
from autocast.metrics import MetricSet
from autocast.models.lasso import lambda_max, lasso_coordinate_descent
from autocast.pipeline import ForecastBundle, ModelScore, ProductForecasts, ProductValidation, ValidationReport
from autocast.series import ForecastResult, Frequency, Period

from hostspeed import REFERENCE_SPIN_S, HostSpeed
from outputs import fallback_share, model_failure_share
from tracing import KKT_TOL, kkt_violation, self_time, tail_percentile


class TestSelfTime:
    def test_no_children(self):
        assert self_time(2.0, 5.0, []) == 3.0

    def test_nested_children_count_once(self):
        # (2, 3) lies inside (1, 5): the parent loses 4, not 5
        assert self_time(0.0, 10.0, [(1.0, 5.0), (2.0, 3.0)]) == pytest.approx(6.0)

    def test_overlapping_children_count_their_union(self):
        # union of (1, 3), (2, 5) and (7, 8) covers 5 of 10
        assert self_time(0.0, 10.0, [(7.0, 8.0), (2.0, 5.0), (1.0, 3.0)]) == pytest.approx(5.0)

    def test_children_clipped_to_the_parent(self):
        assert self_time(0.0, 10.0, [(-2.0, 1.0), (9.0, 12.0)]) == pytest.approx(8.0)


class TestTailPercentile:
    @pytest.mark.parametrize(
        "n, expected",
        [(0, None), (19, None), (20, 50.0), (40, 75.0), (100, 90.0), (199, 90.0), (200, 95.0),
         (1000, 99.0), (9999, 99.0), (10000, 99.9)],
    )
    def test_highest_percentile_with_ten_samples_beyond(self, n, expected):
        assert tail_percentile(n) == expected


class TestKktViolation:
    # intercept column and one +-1 column; y = (3, 1)
    M = np.array([[1.0, 1.0], [1.0, -1.0]])
    y = np.array([3.0, 1.0])

    def test_hand_values(self):
        # gradient at 0 is (-2, -1): the intercept is off by 2, the slope by 1 - lam
        assert kkt_violation(self.M, self.y, np.zeros(2), 0.5) == pytest.approx(2.0)
        assert kkt_violation(self.M, self.y, np.array([2.0, 0.0]), 0.5) == pytest.approx(0.5)
        # exact optimum: residual (0.5, -0.5) leaves gradient -0.5 = -lam * sign(0.5)
        assert kkt_violation(self.M, self.y, np.array([2.0, 0.5]), 0.5) == 0.0

    def test_solved_lasso_passes_and_unsolved_fails(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(60, 5))
        M = np.column_stack([np.ones(60), (X - X.mean(axis=0)) / X.std(axis=0)])
        y = M @ np.array([4.0, 1.5, 0.0, -2.0, 0.0, 0.3]) + rng.normal(scale=0.5, size=60)
        lam = 0.1 * lambda_max(M, y)
        solved = lasso_coordinate_descent(M, y, lam)
        assert kkt_violation(M, y, solved, lam) <= KKT_TOL
        unsolved = lasso_coordinate_descent(M, y, lam, max_sweeps=1)
        assert kkt_violation(M, y, unsolved, lam) > KKT_TOL


def _score(model_id, fallback=False):
    return ModelScore(model_id, MetricSet(rmse=1.0, nrmse=0.1, mape=None), fallback=fallback)


def _forecast(product_id, model_id):
    return ForecastResult(product_id, model_id, Period(Frequency.MONTHLY, 600), np.ones(3))


class TestShares:
    # a: excluded; b: two models refused, ses fell back and was lost at refit; c: clean
    report = ValidationReport(
        Frequency.MONTHLY,
        12,
        0,
        (
            ProductValidation("a", Validity.EXCLUDED, 0),
            ProductValidation(
                "b",
                Validity.SHORT_HISTORY,
                3,
                scores=(_score("naive"), _score("ses", fallback=True)),
                skipped=(("sarima", "too short"), ("cnn", "too short")),
                recommended="naive",
            ),
            ProductValidation(
                "c", Validity.FULL_PIPELINE, 12, scores=(_score("naive"), _score("hwes")), recommended="hwes"
            ),
        ),
    )
    bundle = ForecastBundle(
        Frequency.MONTHLY,
        3,
        (
            ProductForecasts("a"),
            ProductForecasts("b", (_forecast("b", "naive"),), recommended="naive"),
            ProductForecasts("c", (_forecast("c", "naive"), _forecast("c", "hwes")), recommended="hwes"),
        ),
    )

    def test_model_failure_share_counts_skips_and_refit_losses(self):
        # 2 products attempted x 4 models; b lost sarima, cnn (skipped) and ses (refit)
        assert model_failure_share(self.report, self.bundle, n_models=4) == pytest.approx(3 / 8)

    def test_fallback_share_counts_scored_fits(self):
        assert fallback_share(self.report) == pytest.approx(1 / 4)

    def test_nothing_scored(self):
        empty = ValidationReport(Frequency.MONTHLY, 12, 0, (ProductValidation("a", Validity.EXCLUDED, 0),))
        assert model_failure_share(empty, ForecastBundle(Frequency.MONTHLY, 3, (ProductForecasts("a"),)), 4) == 0.0
        assert fallback_share(empty) == 0.0


class TestHostSpeed:
    def sampled(self, spins):
        """A sampler that saw spin times ``spins`` at t = 1, 2, ... with 0.01 s handler overhead each."""
        host = HostSpeed()
        for t, dt in enumerate(spins, start=1):
            host.samples.append((float(t), dt))
            host.spent.append((float(t), 0.01))
        return host

    def test_slowdown_is_the_mean_spin_over_the_reference(self):
        host = self.sampled([REFERENCE_SPIN_S, 3 * REFERENCE_SPIN_S])
        assert host.slowdown(0.0, 10.0) == pytest.approx(2.0)

    def test_only_samples_inside_the_interval_count(self):
        host = self.sampled([REFERENCE_SPIN_S, 4 * REFERENCE_SPIN_S, 9 * REFERENCE_SPIN_S])
        assert host.slowdown(1.5, 3.0) == pytest.approx(6.5)

    def test_reference_seconds_drop_handler_time_then_scale(self):
        # 10 s of wall time, 2 ticks of 0.01 s inside it, core 2x slower than the reference
        host = self.sampled([2 * REFERENCE_SPIN_S, 2 * REFERENCE_SPIN_S])
        assert host.reference_seconds(0.0, 10.0) == pytest.approx((10.0 - 0.02) / 2.0)

    def test_live_sampler_records_and_restores_the_handler(self):
        import signal
        import time

        before = signal.getsignal(signal.SIGALRM)
        with HostSpeed() as host:
            end = time.perf_counter() + 0.35
            while time.perf_counter() < end:
                pass
        assert len(host.samples) >= 2
        assert signal.getsignal(signal.SIGALRM) is before
        assert host.slowdown(0.0, time.perf_counter()) > 0
