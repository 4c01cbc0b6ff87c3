import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from autocast.models.base import ModelId
from autocast.models.ensemble import MEMBERS, ensemble_forecast
from autocast.series import ForecastResult, Frequency, Period

from oracles import median_bruteforce

START = Period(Frequency.MONTHLY, 300)


def result(values, model_id="hwes", product_id="p1", start=START):
    return ForecastResult(product_id, model_id, start, np.asarray(values, dtype=float))


class TestMedianCombination:
    def test_even_count_averages_central_pair(self):
        members = [result([v] * 2, model_id=m) for v, m in zip([1, 2, 10, 100], ["hwes", "gam", "arima", "ses"])]
        combined = ensemble_forecast(members)
        assert list(combined.values) == [6.0, 6.0]

    def test_all_members_equal(self):
        members = [result([5.0, 7.0], model_id=m) for m in ("hwes", "gam", "arima")]
        assert list(ensemble_forecast(members).values) == [5.0, 7.0]

    def test_four_constant_members(self):
        members = [result([v] * 3, model_id=m) for v, m in zip([0, 4, 2, 100], ["hwes", "gam", "arima", "ses"])]
        assert list(ensemble_forecast(members).values) == [3.0, 3.0, 3.0]

    def test_odd_count_takes_middle(self):
        members = [result([v], model_id=m) for v, m in zip([3, 9, 1], ["hwes", "gam", "arima"])]
        assert list(ensemble_forecast(members).values) == [3.0]

    def test_identity_fields(self):
        members = [result([1.0], model_id="hwes"), result([2.0], model_id="gam")]
        combined = ensemble_forecast(members)
        assert combined.model_id == ModelId.ENSEMBLE_MEDIAN.value
        assert combined.product_id == "p1"
        assert combined.start == START


class TestValidation:
    def test_fewer_than_two_members_rejected(self):
        with pytest.raises(ValueError, match="2"):
            ensemble_forecast([result([1.0])])

    def test_mixed_products_rejected(self):
        with pytest.raises(ValueError, match="mixed products"):
            ensemble_forecast([result([1.0]), result([1.0], product_id="other")])

    def test_start_mismatch_rejected(self):
        with pytest.raises(ValueError, match="start or horizon"):
            ensemble_forecast([result([1.0]), result([1.0], start=START + 1)])

    def test_horizon_mismatch_rejected(self):
        with pytest.raises(ValueError, match="start or horizon"):
            ensemble_forecast([result([1.0]), result([1.0, 2.0])])


class TestMembers:
    def test_composition(self):
        assert MEMBERS == (
            ModelId.HWES,
            ModelId.GAM,
            ModelId.ARIMA,
            ModelId.BOOSTED_TREE,
        )


class TestMedianProperties:
    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(
            st.lists(st.floats(min_value=0, max_value=1e6, allow_nan=False, width=32), min_size=3, max_size=3),
            min_size=2,
            max_size=7,
        )
    )
    def test_within_member_envelope_and_matches_bruteforce(self, rows):
        members = [result(row, model_id=f"m{i}") for i, row in enumerate(rows)]
        combined = ensemble_forecast(members)
        stacked = np.array(rows)
        assert np.all(combined.values >= stacked.min(axis=0) - 1e-9)
        assert np.all(combined.values <= stacked.max(axis=0) + 1e-9)
        for col in range(3):
            assert combined.values[col] == pytest.approx(
                median_bruteforce([row[col] for row in rows]), rel=1e-12, abs=1e-12
            )
