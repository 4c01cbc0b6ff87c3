import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from autocast.metrics import compute_metric_set, format_metric

from oracles import mape_bruteforce, nrmse_bruteforce, rmse_bruteforce

# width=32 keeps hypothesis away from denormal-squared underflow and
# catastrophic absorption, which are float artifacts, not metric behavior
finite_floats = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False, width=32)


def rmse(actual, predicted):
    return compute_metric_set(actual, predicted).rmse


def nrmse(actual, predicted):
    return compute_metric_set(actual, predicted).nrmse


def mape(actual, predicted):
    return compute_metric_set(actual, predicted).mape


class TestRmse:
    def test_perfect_prediction(self):
        assert rmse([1, 2, 3], [1, 2, 3]) == 0.0

    def test_hand_worked_value(self):
        # errors 0, 1, 2 -> sqrt((0+1+4)/3)
        assert rmse([2, 4, 6], [2, 5, 8]) == pytest.approx(math.sqrt(5 / 3), abs=1e-12)

    def test_single_point(self):
        assert rmse([0], [3]) == 3.0

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            rmse([1, 2], [1])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            rmse([], [])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            rmse([1.0, bad], [1.0, 2.0])
        with pytest.raises(ValueError, match="non-finite"):
            rmse([1.0, 2.0], [bad, 2.0])

    @given(st.lists(finite_floats, min_size=1, max_size=50), st.data())
    def test_nonnegative_and_zero_iff_equal(self, actual, data):
        predicted = data.draw(st.lists(finite_floats, min_size=len(actual), max_size=len(actual)))
        value = rmse(actual, predicted)
        assert value >= 0.0
        if actual == predicted:
            assert value == 0.0
        if value == 0.0:
            assert actual == predicted


class TestNrmse:
    def test_hand_worked_value(self):
        assert nrmse([2, 4, 6], [2, 5, 8]) == pytest.approx(math.sqrt(5 / 3) / 4, abs=1e-12)

    def test_constant_actuals_undefined(self):
        assert nrmse([5, 5, 5], [1, 2, 3]) is None

    def test_perfect_prediction(self):
        assert nrmse([1, 2, 3], [1, 2, 3]) == 0.0

    def test_overflowing_ratio_undefined(self):
        # a denormal range puts the ratio past the largest float
        assert nrmse([0.0, 2.2e-309], [1.0, 1.0]) is None

    @given(
        st.lists(st.integers(min_value=-1000, max_value=1000).map(float), min_size=2, max_size=30),
        st.data(),
        st.floats(min_value=0.01, max_value=100, allow_nan=False),
        st.floats(min_value=-1e4, max_value=1e4, allow_nan=False),
    )
    def test_affine_invariance(self, actual, data, scale, shift):
        predicted = data.draw(
            st.lists(
                st.integers(min_value=-1000, max_value=1000).map(float),
                min_size=len(actual),
                max_size=len(actual),
            )
        )
        base = nrmse(actual, predicted)
        scaled = nrmse(
            [scale * a + shift for a in actual], [scale * p + shift for p in predicted]
        )
        if base is None:
            assert scaled is None
        else:
            assert scaled == pytest.approx(base, rel=1e-6, abs=1e-9)


class TestMape:
    def test_hand_worked_value(self):
        assert mape([100, 200], [110, 180]) == pytest.approx(0.10, abs=1e-12)

    def test_zero_actual_skipped(self):
        # the zero-actual period would divide by zero; only 100 -> 110 counts
        assert mape([0, 100], [5, 110]) == pytest.approx(0.10, abs=1e-12)

    def test_all_zero_actuals_undefined(self):
        assert mape([0, 0], [1, 2]) is None

    def test_overflowing_ratio_undefined(self):
        # a denormal actual puts its percentage error past the largest float
        assert mape([2.2e-309, 1.0], [1.0, 1.0]) is None

    def test_perfect_prediction(self):
        assert mape([1, 2], [1, 2]) == 0.0


class TestAgainstBruteforceOracle:
    """Dual-route check: the numpy implementations against plain-Python loops."""

    def test_random_pairs(self):
        rng = np.random.default_rng(20240817)
        for _ in range(300):
            n = int(rng.integers(1, 40))
            actual = rng.uniform(-100, 100, size=n)
            predicted = rng.uniform(-100, 100, size=n)
            expect = rmse_bruteforce(list(actual), list(predicted))
            got = rmse(actual, predicted)
            assert got == pytest.approx(expect, rel=1e-12, abs=1e-12)

            expect_n = nrmse_bruteforce(list(actual), list(predicted))
            got_n = nrmse(actual, predicted)
            if expect_n is None:
                assert got_n is None
            else:
                assert got_n == pytest.approx(expect_n, rel=1e-12, abs=1e-12)

            expect_m, _ = mape_bruteforce(list(actual), list(predicted))
            got_m = mape(actual, predicted)
            if expect_m is None:
                assert got_m is None
            else:
                assert got_m == pytest.approx(expect_m, rel=1e-12, abs=1e-12)


class TestMetricSet:
    def test_bundles_all_three(self):
        ms = compute_metric_set([2, 4, 6], [2, 5, 8])
        assert ms.rmse == pytest.approx(math.sqrt(5 / 3), abs=1e-12)
        assert ms.nrmse == pytest.approx(math.sqrt(5 / 3) / 4, abs=1e-12)
        assert ms.mape == pytest.approx((1 / 4 + 2 / 6) / 3, abs=1e-12)

    def test_constant_actuals(self):
        ms = compute_metric_set([5, 5], [6, 7])
        assert ms.nrmse is None
        assert ms.rmse > 0

    def test_format_metric(self):
        assert format_metric(1.23456789) == "1.234568"
        assert format_metric(0.0) == "0.000000"
        assert format_metric(None) == ""
