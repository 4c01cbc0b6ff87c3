import json
from collections import Counter
from dataclasses import asdict

import numpy as np
import pytest

import autocast.models.arima as arima_module
from autocast import fanout, pipeline
from autocast.errors import ConfigError
from autocast.export import export_bundle, read_export_dir
from autocast.ingest import Validity
from autocast.metrics import MetricSet
from autocast.models.arima import ArimaForecaster, arima_forecast, fit_arima_pair
from autocast.models.base import MODEL_PRIORITY, BaseForecaster, ModelId
from autocast.models.boosting import BoostedTreeForecaster, train_pooled_trees
from autocast.models.ensemble import MEMBERS
from autocast.models.gam import GamForecaster, build_design_rows
from autocast.models.naive import NaiveForecaster
from autocast.models.smoothing import HwesForecaster
from autocast.pipeline import (
    ModelScore,
    PipelineConfig,
    finalize_and_forecast,
    parse_config,
    recommend_model,
    run_pipeline,
    run_validation,
)
from autocast.series import Frequency, Period, SalesSeries, split_holdout
from autocast.synth import ArchetypeSpec, generate_corpus

from helpers import monthly_series, seasonal_values, weekly_series

PATTERN = np.array([100, 150, 80, 120, 200, 90, 60, 110, 170, 130, 95, 140], dtype=float)
CHEAP = ("naive", "ses", "hwes", "gam")


def cheap_config(**overrides):
    return PipelineConfig(**{"enabled_models": CHEAP, **overrides})


class TestPipelineConfig:
    def test_monthly_defaults(self):
        config = PipelineConfig()
        assert config.frequency is Frequency.MONTHLY
        assert config.horizon == 18
        assert config.enabled_models == MODEL_PRIORITY
        assert config.seed == 0

    def test_weekly_defaults(self):
        config = PipelineConfig(frequency="weekly")
        assert config.horizon == 78

    def test_horizon_below_one_rejected(self):
        with pytest.raises(ConfigError, match="horizon"):
            PipelineConfig(horizon=0)

    def test_duplicate_models_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            PipelineConfig(enabled_models=("naive", "naive"))

    def test_asdict_round_trips_through_constructor(self):
        config = cheap_config(horizon=6, seed=3)
        rebuilt = PipelineConfig(**asdict(config))
        assert rebuilt == config


class TestParseConfig:
    def write(self, tmp_path, payload):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(payload) if isinstance(payload, dict) else payload)
        return path

    def test_empty_object_gives_defaults(self, tmp_path):
        config = parse_config(self.write(tmp_path, {}))
        assert config == PipelineConfig()

    def test_weekly_frequency_sets_weekly_horizon(self, tmp_path):
        config = parse_config(self.write(tmp_path, {"frequency": "weekly"}))
        assert config.horizon == 78

    def test_zero_horizon_names_the_key(self, tmp_path):
        with pytest.raises(ConfigError, match="horizon"):
            parse_config(self.write(tmp_path, {"horizon": 0}))

    def test_unknown_key_is_named(self, tmp_path):
        with pytest.raises(ConfigError, match="horizont"):
            parse_config(self.write(tmp_path, {"horizont": 12}))

    def test_malformed_json_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="malformed"):
            parse_config(self.write(tmp_path, "{not json"))

    def test_boolean_horizon_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="integer"):
            parse_config(self.write(tmp_path, {"horizon": True}))

    def test_string_seed_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="integer"):
            parse_config(self.write(tmp_path, {"seed": "7"}))

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            parse_config(tmp_path / "absent.json")

    def test_non_object_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="object"):
            parse_config(self.write(tmp_path, "[1, 2]"))

    def test_unknown_model_name_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            parse_config(self.write(tmp_path, {"enabled_models": ["prophet"]}))

    def test_unknown_frequency_names_the_file(self, tmp_path):
        path = self.write(tmp_path, {"frequency": "daily"})
        with pytest.raises(ConfigError, match="daily") as raised:
            parse_config(path)
        assert str(path) in str(raised.value)

    @pytest.mark.parametrize("key, value", [("enabled_models", "naive"), ("enabled_models", None)])
    def test_list_keys_require_a_json_array(self, tmp_path, key, value):
        path = self.write(tmp_path, {key: value})
        with pytest.raises(ConfigError, match=f"{key}: expected a JSON array") as raised:
            parse_config(path)
        assert str(path) in str(raised.value)


def score_of(validation, model_id):
    return next(s for s in validation.scores if s.model_id == model_id)


def score(model_id, rmse, nrmse=None):
    return ModelScore(model_id, MetricSet(rmse=rmse, nrmse=nrmse, mape=None))


class TestRecommendModel:
    def test_lowest_rmse_wins(self):
        picked = recommend_model([score("naive", 5.0), score("gam", 2.0), score("hwes", 3.0)])
        assert picked == "gam"

    def test_exact_tie_goes_to_higher_priority(self):
        picked = recommend_model([score("naive", 2.0), score("hwes", 2.0), score("ses", 9.0)])
        assert picked == "hwes"

    def test_rounding_noise_counts_as_tie(self):
        scores = [
            score("naive", 0.0, nrmse=0.0),
            score("hwes", 1e-14, nrmse=1e-16),
            score("gam", 30.0, nrmse=0.25),
        ]
        assert recommend_model(scores) == "hwes"

    def test_gap_above_band_is_not_a_tie(self):
        scores = [score("naive", 1.0, nrmse=0.01), score("hwes", 1.1, nrmse=0.011)]
        assert recommend_model(scores) == "naive"

    def test_empty_scores_rejected(self):
        with pytest.raises(ValueError, match="no scored models"):
            recommend_model([])


class TestClassify:
    """Validity and holdout length by history length: excluded under a year, short under two."""

    @pytest.mark.parametrize(
        "n, validity, holdout",
        [
            (11, Validity.EXCLUDED, 0),
            (12, Validity.SHORT_HISTORY, 3),
            (15, Validity.SHORT_HISTORY, 3),
            (23, Validity.SHORT_HISTORY, 11),
            (24, Validity.FULL_PIPELINE, 12),
        ],
    )
    def test_monthly_thresholds(self, n, validity, holdout):
        assert pipeline._classify(monthly_series(np.ones(n))) == (validity, holdout)

    @pytest.mark.parametrize(
        "n, validity, holdout",
        [(51, Validity.EXCLUDED, 0), (52, Validity.SHORT_HISTORY, 3), (104, Validity.FULL_PIPELINE, 52)],
    )
    def test_weekly_thresholds(self, n, validity, holdout):
        assert pipeline._classify(weekly_series(np.ones(n))) == (validity, holdout)


class TestRunValidation:
    def test_periodic_product_recommends_hwes_over_tied_naive(self):
        prod = monthly_series(np.tile(PATTERN, 4))
        report = run_validation([prod], cheap_config())
        entry = report.products[0]
        assert entry.recommended == "hwes"
        assert score_of(entry, "naive").metrics.rmse == 0.0
        assert score_of(entry, "hwes").metrics.nrmse <= 1e-9
        assert entry.validity is Validity.FULL_PIPELINE
        assert entry.holdout == 12

    def test_recommended_has_minimal_rmse_up_to_tie_band(self):
        prod = monthly_series(seasonal_values(60, noise=3.0, seed=5))
        report = run_validation([prod], cheap_config())
        entry = report.products[0]
        best = min(s.metrics.rmse for s in entry.scores)
        picked = score_of(entry, entry.recommended).metrics.rmse
        assert picked <= best + 1e-9 * max(1.0, picked)

    def test_eleven_points_excluded_with_reason(self):
        report = run_validation([monthly_series(np.full(11, 5.0))], cheap_config())
        entry = report.products[0]
        assert entry.validity is Validity.EXCLUDED
        assert entry.recommended is None
        assert entry.holdout == 0
        assert entry.scores == ()
        assert any("excluded" in flag and "11" in flag for flag in entry.flags)

    @pytest.mark.parametrize("n,expected_holdout", [(18, 6), (14, 3), (13, 3)])
    def test_short_history_holdout_lengths(self, n, expected_holdout):
        prod = monthly_series(seasonal_values(n, noise=0.5, seed=2))
        report = run_validation([prod], cheap_config())
        entry = report.products[0]
        assert entry.validity is Validity.SHORT_HISTORY
        assert entry.holdout == expected_holdout

    def test_arima_variants_share_their_fits_and_run_in_model_order(self, monkeypatch):
        # a 36-point training prefix is three years, so both variants search;
        # they share one cache, so no order is fitted twice at one tolerance,
        # and every model runs in MODEL_PRIORITY order; one usable core keeps
        # the counted calls in this process
        monkeypatch.setattr(fanout, "usable_cores", lambda: 1)
        fitted = Counter()
        original = arima_module._fit_candidate

        def counting_fit(series, order, ftol, start=None):
            fitted[order, ftol] += 1
            return original(series, order, ftol, start)

        monkeypatch.setattr(arima_module, "_fit_candidate", counting_fit)
        prod = monthly_series(seasonal_values(48, noise=2.0, seed=3))
        report = run_validation([prod], PipelineConfig())
        entry = report.products[0]
        assert fitted and max(fitted.values()) == 1
        assert entry.skipped == ()
        assert [s.model_id for s in entry.scores] == [
            "hwes", "ses", "gam", "sarima", "arima", "boosted_tree", "cnn", "naive", "ensemble_median",
        ]
        assert score_of(entry, "arima").selected_order is not None
        assert score_of(entry, "sarima").selected_order is not None

    def test_every_forecaster_is_fitted_through_the_base_contract(self, monkeypatch):
        # each run's forecaster holds the series BaseForecaster.fit recorded on
        # it, in validation and in finalize; only the median ensemble's run,
        # built from the others, has none. One usable core keeps the runs in
        # this process
        monkeypatch.setattr(fanout, "usable_cores", lambda: 1)
        fitted = []
        original_fit = BaseForecaster.fit

        def recording_fit(self, series):
            original_fit(self, series)
            fitted.append((self, series))
            return self

        stages = []
        original_stage = pipeline._run_stage

        def recording_stage(corpus, jobs, config):
            stage_runs = original_stage(corpus, jobs, config)
            stages.append((jobs, stage_runs))
            return stage_runs

        monkeypatch.setattr(BaseForecaster, "fit", recording_fit)
        monkeypatch.setattr(pipeline, "_run_stage", recording_stage)
        prod = monthly_series(seasonal_values(48, noise=2.0, seed=3))
        run_pipeline([prod], PipelineConfig())
        assert len(stages) == 2
        for jobs, stage_runs in stages:
            for (series, *_), runs in zip(jobs, stage_runs):
                assert len(runs) == len(MODEL_PRIORITY)
                for run in runs:
                    if run.model_id is ModelId.ENSEMBLE_MEDIAN:
                        assert run.forecaster is None and run.result is not None
                        continue
                    assert run.forecaster.train_ is series
                    assert any(f is run.forecaster and s is series for f, s in fitted), run.model_id

    def test_an_arima_variant_does_not_depend_on_the_other_running(self):
        # the variants share a cache only when both run; it changes no result
        prod = monthly_series(seasonal_values(48, noise=2.0, seed=3))
        runs = {}
        for variants in (("arima",), ("sarima",), ("arima", "sarima")):
            report, bundle = run_pipeline([prod], PipelineConfig(enabled_models=("naive", *variants)))
            for model_id in variants:
                runs.setdefault(model_id, []).append(
                    (score_of(report.products[0], model_id), bundle.products[0].forecast_for(model_id))
                )
        for (alone, alone_forecast), (beside, beside_forecast) in runs.values():
            assert alone.metrics == beside.metrics
            assert alone.selected_order == beside.selected_order
            assert alone.forward.values.tobytes() == beside.forward.values.tobytes()
            assert alone_forecast.values.tobytes() == beside_forecast.values.tobytes()

    def test_sarima_skipped_on_short_history_with_reason(self):
        prod = monthly_series(seasonal_values(13, noise=0.5, seed=2))
        config = PipelineConfig(enabled_models=("naive", "sarima"))
        report = run_validation([prod], config)
        entry = report.products[0]
        assert entry.recommended == "naive"
        skipped = dict(entry.skipped)
        assert "36" in skipped["sarima"]

    def test_hwes_skipped_below_two_seasons_and_the_ensemble_combines_the_rest(self):
        # CI's spec.json at seed 3: product d's 30 months hold out 12 and train on 18
        shape = (("a", "seasonality", 96), ("b", "seasonality_trend", 72), ("c", "high_variance", 60),
                 ("d", "seasonality", 30), ("e", "seasonality_trend", 11))
        corpus = generate_corpus([ArchetypeSpec.from_kind(pid, kind, length=n) for pid, kind, n in shape], seed=3)
        report, bundle = run_pipeline(corpus, PipelineConfig(seed=3))
        entry = report.product("d")
        assert dict(entry.skipped)["hwes"] == "Holt-Winters needs two seasons (24 points), got 18"
        members = [s.forward.values for s in entry.scores if ModelId(s.model_id) in MEMBERS]
        assert len(members) == 3
        np.testing.assert_array_equal(
            score_of(entry, "ensemble_median").forward.values, np.median(np.vstack(members), axis=0)
        )
        forecasts = bundle.product("d")
        assert forecasts.forecast_for("hwes") is None
        refits = [forecasts.forecast_for(m.value).values for m in MEMBERS if m is not ModelId.HWES]
        np.testing.assert_array_equal(
            forecasts.forecast_for("ensemble_median").values, np.median(np.vstack(refits), axis=0)
        )

    def test_ensemble_score_keeps_the_median_of_its_members_forward_forecasts(self):
        prod = monthly_series(seasonal_values(48, noise=3.0, seed=6))
        config = PipelineConfig(enabled_models=("naive", "hwes", "gam", "ensemble_median"))
        entry = run_validation([prod], config).products[0]
        hwes, gam = score_of(entry, "hwes").forward, score_of(entry, "gam").forward
        forward = score_of(entry, "ensemble_median").forward
        assert forward is not None
        assert (forward.model_id, forward.start, forward.horizon) == ("ensemble_median", hwes.start, 18)
        assert not np.array_equal(hwes.values, gam.values)
        np.testing.assert_array_equal(forward.values, np.median(np.vstack([hwes.values, gam.values]), axis=0))

    def test_all_models_failing_flags_no_model_and_recommends_naive(self):
        # 25 points: full pipeline, but the 13-point train prefix cannot feed
        # a 24-window shared network, so the only enabled model is lost
        prod = monthly_series(seasonal_values(25, noise=0.5, seed=1))
        config = PipelineConfig(enabled_models=("cnn",))
        report = run_validation([prod], config)
        entry = report.products[0]
        assert entry.scores == ()
        assert entry.flags == ("no_model",)
        assert entry.recommended == "naive"
        assert entry.skipped[0][0] == "cnn"

    def test_deterministic_across_runs(self):
        corpus = [
            monthly_series(seasonal_values(48, noise=2.0, seed=i), product_id=f"p{i}")
            for i in range(3)
        ]
        r1 = run_validation(corpus, cheap_config())
        r2 = run_validation(corpus, cheap_config())
        for a, b in zip(r1.products, r2.products):
            assert a.recommended == b.recommended
            for sa, sb in zip(a.scores, b.scores):
                assert sa.model_id == sb.model_id
                assert sa.metrics.rmse == sb.metrics.rmse

    def test_duplicate_product_ids_rejected(self):
        prod = monthly_series(seasonal_values(30))
        with pytest.raises(ValueError, match="duplicate"):
            run_validation([prod, prod], cheap_config())

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            run_validation([], cheap_config())


class TestFinalizeAndForecast:
    def test_monthly_forecasts_have_eighteen_values(self):
        prod = monthly_series(np.tile(PATTERN, 4))
        report, bundle = run_pipeline([prod], cheap_config())
        entry = bundle.products[0]
        assert {f.model_id for f in entry.forecasts} == set(CHEAP)
        for forecast in entry.forecasts:
            assert forecast.horizon == 18
            assert forecast.start == prod.end + 1
            assert np.all(forecast.values >= 0)
        assert entry.recommended == "hwes"

    def test_custom_horizon_respected(self):
        prod = monthly_series(np.tile(PATTERN, 4))
        report, bundle = run_pipeline([prod], cheap_config(horizon=6))
        assert bundle.horizon == 6
        assert all(f.horizon == 6 for f in bundle.products[0].forecasts)

    def test_excluded_product_carries_no_forecasts(self):
        corpus = [
            monthly_series(np.tile(PATTERN, 4), product_id="good"),
            monthly_series(np.full(11, 5.0), product_id="tiny"),
        ]
        report, bundle = run_pipeline(corpus, cheap_config())
        entry = bundle.product("tiny")
        assert entry.forecasts == ()
        assert entry.recommended is None
        assert any("excluded" in flag for flag in entry.flags)
        assert bundle.product("good").forecasts != ()

    def test_ensemble_forecast_is_median_of_members(self):
        prod = monthly_series(np.tile(PATTERN, 4))
        config = PipelineConfig(enabled_models=("naive", "ses", "hwes", "gam", "ensemble_median"))
        report, bundle = run_pipeline([prod], config)
        entry = bundle.products[0]
        members = np.vstack(
            [entry.forecast_for("hwes").values, entry.forecast_for("gam").values]
        )
        np.testing.assert_allclose(
            entry.forecast_for("ensemble_median").values, np.median(members, axis=0)
        )
        assert any(s.model_id == "ensemble_median" for s in report.products[0].scores)

    def test_ensemble_of_a_config_without_arima_is_the_median_of_hwes_and_gam(self, tmp_path):
        # arima and boosted_tree are members but not enabled, so they have no forecasts to combine
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"enabled_models": ["naive", "hwes", "gam", "ensemble_median"]}))
        prod = monthly_series(seasonal_values(48, noise=3.0, seed=6))
        report, bundle = run_pipeline([prod], parse_config(path))
        validation = report.products[0]
        assert validation.skipped == ()
        assert [s.model_id for s in validation.scores] == ["hwes", "gam", "naive", "ensemble_median"]
        entry = bundle.products[0]
        members = np.vstack([entry.forecast_for("hwes").values, entry.forecast_for("gam").values])
        assert not np.array_equal(members[0], members[1])
        np.testing.assert_array_equal(entry.forecast_for("ensemble_median").values, np.median(members, axis=0))

    def test_ensemble_with_one_member_is_skipped_in_validation_and_absent_after_finalize(self):
        prod = monthly_series(seasonal_values(48, noise=3.0, seed=6))
        config = PipelineConfig(enabled_models=("naive", "hwes", "ensemble_median"))
        report, bundle = run_pipeline([prod], config)
        validation = report.products[0]
        assert ("ensemble_median", "only 1 member forecasts available") in validation.skipped
        assert [s.model_id for s in validation.scores] == ["hwes", "naive"]
        entry = bundle.products[0]
        assert entry.forecast_for("ensemble_median") is None
        assert [f.model_id for f in entry.forecasts] == ["hwes", "naive"]
        assert not any("ensemble" in flag for flag in entry.flags)

    def test_gam_decomposition_attached(self):
        prod = monthly_series(np.tile(PATTERN, 4))
        config = cheap_config()
        report, bundle = run_pipeline([prod], config)
        decomposition = bundle.products[0].decomposition
        assert decomposition is not None
        np.testing.assert_array_equal(decomposition.observed, prod.values)
        # the full-history GAM fit's own fitted values
        n = len(prod.values)
        fitted = build_design_rows(np.arange(n), n, prod.frequency) @ GamForecaster().fit(prod).beta_
        np.testing.assert_allclose(decomposition.trend + decomposition.seasonal, fitted, atol=1e-8)

    def test_no_model_product_still_gets_naive_forecast(self):
        prod = monthly_series(seasonal_values(25, noise=0.5, seed=1))
        config = PipelineConfig(enabled_models=("cnn",))
        report, bundle = run_pipeline([prod], config)
        entry = bundle.products[0]
        assert entry.recommended == "naive"
        assert entry.forecast_for("naive") is not None

    def test_refit_failure_reuses_validation_fit(self, monkeypatch):
        prod = monthly_series(np.tile(PATTERN, 4))
        config = cheap_config()
        report = run_validation([prod], config)
        original_fit = HwesForecaster.fit
        full_length = len(prod)

        def flaky_fit(self, series):
            if len(series) == full_length:
                raise ValueError("boom")
            return original_fit(self, series)

        monkeypatch.setattr(HwesForecaster, "fit", flaky_fit)
        bundle = finalize_and_forecast([prod], report, config)
        entry = bundle.products[0]
        assert any("hwes: refit failed, reusing validation fit" in f for f in entry.flags)
        reused = entry.forecast_for("hwes")
        assert reused is not None
        assert reused.horizon == 18
        assert reused.start == prod.end + 1
        assert entry.recommended == "hwes"

    def test_ensemble_uses_reused_member_forecast(self, monkeypatch):
        prod = monthly_series(np.tile(PATTERN, 4))
        config = PipelineConfig(enabled_models=("naive", "hwes", "gam", "ensemble_median"))
        report = run_validation([prod], config)
        original_fit = HwesForecaster.fit
        full_length = len(prod)

        def flaky_fit(self, series):
            if len(series) == full_length:
                raise ValueError("boom")
            return original_fit(self, series)

        monkeypatch.setattr(HwesForecaster, "fit", flaky_fit)
        entry = finalize_and_forecast([prod], report, config).products[0]
        assert "hwes: refit failed, reusing validation fit (boom)" in entry.flags
        assert [f.model_id for f in entry.forecasts] == ["hwes", "gam", "naive", "ensemble_median"]
        members = np.vstack([entry.forecast_for("hwes").values, entry.forecast_for("gam").values])
        np.testing.assert_array_equal(
            entry.forecast_for("ensemble_median").values, np.median(members, axis=0)
        )

    def test_reused_gam_forecast_has_no_decomposition(self, monkeypatch):
        # the decomposition always describes a full-history GAM fit
        prod = monthly_series(np.tile(PATTERN, 4))
        config = cheap_config()
        report = run_validation([prod], config)
        original_fit = GamForecaster.fit
        full_length = len(prod)

        def flaky_fit(self, series):
            if len(series) == full_length:
                raise ValueError("boom")
            return original_fit(self, series)

        monkeypatch.setattr(GamForecaster, "fit", flaky_fit)
        entry = finalize_and_forecast([prod], report, config).products[0]
        assert "gam: refit failed, reusing validation fit (boom)" in entry.flags
        forward = score_of(report.products[0], "gam").forward
        assert entry.forecast_for("gam").values.tobytes() == forward.values.tobytes()
        assert entry.decomposition is None

    def test_failed_arima_refits_reuse_the_validation_search_winners(self, monkeypatch):
        # validation searches both variants on the prefix; the forced
        # full-history refits fail, and each model reuses its own search
        # winner's forecast past the holdout, not a refit of its order
        prod = monthly_series(seasonal_values(60, noise=3.0, seed=4))
        config = PipelineConfig(enabled_models=("naive", "arima", "sarima"))
        report = run_validation([prod], config)
        holdout = report.products[0].holdout
        original_fit = ArimaForecaster.fit

        def flaky_fit(self, series):
            if len(series) == len(prod):
                raise ValueError("boom")
            return original_fit(self, series)

        monkeypatch.setattr(ArimaForecaster, "fit", flaky_fit)
        entry = finalize_and_forecast([prod], report, config).products[0]
        prefix = split_holdout(prod, holdout)[0]
        for model_id, fit in zip(("arima", "sarima"), fit_arima_pair(prefix)):
            expected = np.maximum(arima_forecast(fit, prefix.values, holdout + config.horizon)[0], 0.0)[holdout:]
            assert entry.forecast_for(model_id).values.tobytes() == expected.tobytes()
            assert f"{model_id}: refit failed, reusing validation fit (boom)" in entry.flags

    @pytest.mark.parametrize("horizon", [4, 18])
    def test_report_made_at_another_horizon_is_refused(self, horizon):
        # its validation forecasts are shorter or longer than the finalize horizon
        prod = monthly_series(np.tile(PATTERN, 4))
        report = run_validation([prod], cheap_config(horizon=6))
        with pytest.raises(ValueError, match=f"no validation forecast of {horizon} periods"):
            finalize_and_forecast([prod], report, cheap_config(horizon=horizon))

    def test_report_read_back_from_an_export_is_refused(self, tmp_path):
        # an export keeps no validation forecasts, so a failed refit would have nothing to reuse
        prod = monthly_series(np.tile(PATTERN, 4))
        config = PipelineConfig(enabled_models=("naive", "hwes"))
        report, bundle = run_pipeline([prod], config)
        export_bundle(bundle, report, tmp_path, config)
        restored, _ = read_export_dir(tmp_path)
        with pytest.raises(ValueError, match="no validation forecast of 18 periods"):
            finalize_and_forecast([prod], restored, config)

    def test_failed_naive_refit_of_a_no_model_product_leaves_it_without_forecasts(self, monkeypatch):
        # naive is refitted only as the fallback recommendation, with no validation fit behind it
        prod = monthly_series(seasonal_values(30, noise=0.5, seed=1))
        config = PipelineConfig(enabled_models=("cnn",))
        report = run_validation([prod], config)
        assert report.products[0].scores == ()

        def broken_fit(self, series):
            raise ValueError("boom")

        monkeypatch.setattr(NaiveForecaster, "fit", broken_fit)
        entry = finalize_and_forecast([prod], report, config).products[0]
        assert entry.forecasts == ()
        assert entry.recommended is None
        assert entry.flags[-2:] == ("naive: refit failed (boom)", "recommended_model_unavailable")

    def test_report_corpus_mismatch_rejected(self):
        prod = monthly_series(np.tile(PATTERN, 4))
        other = monthly_series(np.tile(PATTERN, 4), product_id="other")
        report = run_validation([prod], cheap_config())
        with pytest.raises(ValueError, match="product ids differ"):
            finalize_and_forecast([other], report, cheap_config())

    def test_deterministic_bundle(self):
        corpus = [
            monthly_series(seasonal_values(48, noise=2.0, seed=i), product_id=f"p{i}")
            for i in range(2)
        ]
        _, b1 = run_pipeline(corpus, cheap_config())
        _, b2 = run_pipeline(corpus, cheap_config())
        for pa, pb in zip(b1.products, b2.products):
            for fa, fb in zip(pa.forecasts, pb.forecasts):
                np.testing.assert_array_equal(fa.values, fb.values)


def ragged_corpus():
    """Lengths 8-40: one product excluded, shortened holdouts, prefixes the trees and CNN refuse."""
    kinds = ("seasonality", "seasonality_trend", "seasonality", "seasonality_trend", "high_variance")
    lengths = (8, 13, 17, 21, 25, 29, 33, 36, 40)
    specs = [
        ArchetypeSpec.from_kind(f"r{i}", kinds[i % len(kinds)], length=n) for i, n in enumerate(lengths)
    ]
    return generate_corpus(specs, seed=11)


class TestFanOut:
    @staticmethod
    def exports_at_every_core_count(monkeypatch, tmp_path, corpus, config):
        """(report, bundle) of a 3-process run, after checking that 1, 2 and 3 processes export the same bytes."""
        exported = {}
        for n in (1, 2, 3):
            monkeypatch.setattr(fanout, "usable_cores", lambda: n)
            report, bundle = run_pipeline(corpus, config)
            written = export_bundle(bundle, report, tmp_path / f"cores{n}", config)
            exported[n] = {path.name: path.read_bytes() for path in written.values()}
        assert exported[1] == exported[2] == exported[3]
        assert {"forecasts.csv", "validation.csv", "summary.json"} <= set(exported[1])
        assert any(name.endswith(".svg") for name in exported[1])
        return report, bundle

    def test_serial_and_fanned_out_exports_are_byte_identical(self, monkeypatch, tmp_path):
        kinds = ("seasonality", "seasonality_trend", "high_variance", "seasonality")
        specs = [ArchetypeSpec.from_kind(f"p{i}", kind, length=48 + 6 * i) for i, kind in enumerate(kinds)]
        corpus = generate_corpus(specs, seed=5) + [monthly_series(np.full(11, 5.0), product_id="tiny")]
        config = PipelineConfig(seed=5)
        self.exports_at_every_core_count(monkeypatch, tmp_path, corpus, config)

    def test_ragged_corpus_exports_are_byte_identical(self, monkeypatch, tmp_path):
        config = PipelineConfig(seed=11)
        report, _ = self.exports_at_every_core_count(monkeypatch, tmp_path, ragged_corpus(), config)
        assert report.product("r0").validity is Validity.EXCLUDED
        assert report.product("r1").holdout == 3
        skipped = dict(report.product("r1").skipped)
        assert "12 points" in skipped["boosted_tree"] and "24 points" in skipped["cnn"]
        assert any(s.model_id == "cnn" for s in report.product("r8").scores)

    def test_failed_full_history_training_reuses_validation_forecasts_alike(self, monkeypatch, tmp_path):
        corpus = ragged_corpus()
        full_length = {s.product_id: len(s) for s in corpus}
        trees, cnn = pipeline.train_pooled_trees, pipeline.train_shared_cnn

        def on_prefixes_only(train):
            def guarded(histories, *args):
                if all(len(s) == full_length[s.product_id] for s in histories):
                    raise ValueError("full-history training overflowed")
                return train(histories, *args)

            return guarded

        monkeypatch.setattr(pipeline, "train_pooled_trees", on_prefixes_only(trees))
        monkeypatch.setattr(pipeline, "train_shared_cnn", on_prefixes_only(cnn))
        config = PipelineConfig(seed=11)
        report, bundle = self.exports_at_every_core_count(monkeypatch, tmp_path, corpus, config)
        # the shared models' forecasts are the ones validation made from each prefix
        entry = bundle.product("r8")
        for model_id in ("boosted_tree", "cnn"):
            forward = score_of(report.product("r8"), model_id).forward
            assert entry.forecast_for(model_id).values.tobytes() == forward.values.tobytes()
            flag = f"{model_id}: refit failed, reusing validation fit (full-history training overflowed)"
            assert flag in entry.flags

    def test_failed_full_history_training_is_not_repeated(self, monkeypatch):
        # one usable core keeps every training call in this process
        monkeypatch.setattr(fanout, "usable_cores", lambda: 1)
        corpus = ragged_corpus()
        config = PipelineConfig(enabled_models=("naive", "boosted_tree"), seed=11)
        report = run_validation(corpus, config)
        full_length = {s.product_id: len(s) for s in corpus}
        calls = []

        def full_history_refused(histories):
            calls.append(len(histories))
            if all(len(s) == full_length[s.product_id] for s in histories):
                raise ValueError("full history refused")
            return train_pooled_trees(histories)

        monkeypatch.setattr(pipeline, "train_pooled_trees", full_history_refused)
        bundle = finalize_and_forecast(corpus, report, config)
        assert len(calls) == 1
        entry = bundle.product("r8")
        assert "boosted_tree: refit failed, reusing validation fit (full history refused)" in entry.flags

    def test_failed_shared_refit_forecasts_from_the_validation_fit(self, monkeypatch):
        corpus = ragged_corpus()
        config = PipelineConfig(enabled_models=("naive", "boosted_tree"), seed=11)
        report = run_validation(corpus, config)
        full_length = {s.product_id: len(s) for s in corpus}
        original_fit = BoostedTreeForecaster.fit

        def prefix_only_fit(self, series):
            if len(series) == full_length[series.product_id]:
                raise ValueError("full history refused")
            return original_fit(self, series)

        monkeypatch.setattr(BoostedTreeForecaster, "fit", prefix_only_fit)
        bundle = finalize_and_forecast(corpus, report, config)
        eligible = [s for s in corpus if report.product(s.product_id).validity is not Validity.EXCLUDED]
        prefixes = [split_holdout(s, report.product(s.product_id).holdout)[0] for s in eligible]
        validation_trees = train_pooled_trees(prefixes)
        prefix = prefixes[-1]
        holdout = report.product(prefix.product_id).holdout
        expected = BoostedTreeForecaster(validation_trees).fit(prefix).forecast(holdout + config.horizon)
        entry = bundle.product(prefix.product_id)
        assert entry.forecast_for("boosted_tree").values.tobytes() == expected.values[holdout:].tobytes()
        assert "boosted_tree: refit failed, reusing validation fit (full history refused)" in entry.flags

    def test_finalize_trains_only_the_shared_models_it_runs(self, monkeypatch):
        monkeypatch.setattr(fanout, "usable_cores", lambda: 1)
        prod = monthly_series(seasonal_values(25, noise=0.5, seed=1))
        config = PipelineConfig(enabled_models=("cnn",))
        report = run_validation([prod], config)
        assert report.products[0].recommended == "naive"
        calls = []
        cnn = pipeline.train_shared_cnn

        def counted(*args):
            calls.append(args)
            return cnn(*args)

        monkeypatch.setattr(pipeline, "train_shared_cnn", counted)
        finalize_and_forecast([prod], report, config)
        assert calls == []


class TestContentOrder:
    """Both pooled models stack their rows by product content, so ids do not steer them."""

    @staticmethod
    def outcomes(corpus, rename=lambda product_id: product_id, shift=0):
        """Per product: validation scores, skips, recommendations, flags and forecast bytes, ids mapped by rename."""
        report, bundle = run_pipeline(corpus, PipelineConfig(seed=3))
        outcomes = {}
        for validation in report.products:
            entry = bundle.product(validation.product_id)
            forecasts = {f.model_id: (f.start.index - shift, f.values.tobytes()) for f in entry.forecasts}
            outcomes[rename(validation.product_id)] = (
                validation.scores, validation.skipped, validation.recommended, validation.flags,
                entry.recommended, entry.flags, forecasts,
            )
        return outcomes

    @pytest.fixture(scope="class")
    def corpus(self):
        specs = [("a", "seasonality", 96), ("b", "seasonality_trend", 72), ("c", "high_variance", 60),
                 ("d", "seasonality", 30), ("e", "seasonality_trend", 11)]
        return generate_corpus([ArchetypeSpec.from_kind(p, kind, length=n) for p, kind, n in specs], seed=3)

    @pytest.fixture(scope="class")
    def original(self, corpus):
        return self.outcomes(corpus)

    def test_reversing_the_id_order_moves_nothing(self, corpus, original):
        swap = {"a": "e", "b": "d", "c": "c", "d": "b", "e": "a"}
        renamed = [SalesSeries(swap[s.product_id], s.frequency, s.start, s.values) for s in corpus]
        assert self.outcomes(renamed, rename=swap.get) == original

    @pytest.mark.parametrize("shift", [1, 12])
    def test_shifting_every_start_moves_nothing(self, corpus, original, shift):
        shifted = [
            SalesSeries(s.product_id, s.frequency, Period(s.frequency, s.start.index + shift), s.values)
            for s in corpus
        ]
        assert self.outcomes(shifted, shift=shift) == original


class TestValidationReportAccessors:
    def test_product_lookup_and_missing_key(self):
        prod = monthly_series(np.tile(PATTERN, 4), product_id="abc")
        report = run_validation([prod], cheap_config())
        assert report.product("abc").product_id == "abc"
        with pytest.raises(KeyError, match="no validation entry for product 'missing'"):
            report.product("missing")

    def test_bundle_lookup_missing_key(self):
        prod = monthly_series(np.tile(PATTERN, 4), product_id="abc")
        _, bundle = run_pipeline([prod], cheap_config())
        with pytest.raises(KeyError, match="no forecasts for product 'missing'"):
            bundle.product("missing")
