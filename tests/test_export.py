import hashlib
import json

import numpy as np
import pytest

from autocast.errors import ExportError
from autocast.evaluation import summarize
from autocast.export import (
    export_bundle,
    read_export_dir,
    read_forecasts_csv,
    read_validation_csv,
    write_decomposition_svg,
    write_forecasts_csv,
    write_summary_json,
    write_validation_csv,
)
from autocast.ingest import Validity
from autocast.pipeline import (
    Decomposition,
    ForecastBundle,
    PipelineConfig,
    ProductForecasts,
    ProductValidation,
    ValidationReport,
    run_pipeline,
)
from autocast.series import ForecastResult, Frequency, Period

from helpers import monthly_series, seasonal_values

CONFIG = PipelineConfig(enabled_models=("naive", "ses", "hwes", "gam"))


def build_corpus():
    return [
        monthly_series(seasonal_values(48, noise=2.0, seed=1), product_id="alpha"),
        monthly_series(seasonal_values(60, noise=3.0, seed=2), product_id="beta"),
        monthly_series(np.full(11, 5.0), product_id="tiny"),
    ]


@pytest.fixture(scope="module")
def pipeline_run():
    corpus = build_corpus()
    report, bundle = run_pipeline(corpus, CONFIG)
    return corpus, report, bundle


@pytest.fixture(scope="module")
def export_dir(pipeline_run, tmp_path_factory):
    _, report, bundle = pipeline_run
    out = tmp_path_factory.mktemp("export")
    written = export_bundle(bundle, report, out, CONFIG)
    return out, written


class TestExportBundle:
    def test_expected_files_written(self, export_dir):
        out, written = export_dir
        for name in ("forecasts.csv", "validation.csv", "summary.json"):
            assert (out / name).exists()
        assert (out / "decomposition_alpha.svg").exists()
        assert (out / "decomposition_beta.svg").exists()
        # excluded product fitted no models, so it has no decomposition
        assert not (out / "decomposition_tiny.svg").exists()
        assert set(written) == {
            "forecasts",
            "validation",
            "summary",
            "decomposition_alpha.svg",
            "decomposition_beta.svg",
        }

    def test_forecast_round_trip_within_six_decimals(self, pipeline_run, export_dir):
        _, _, bundle = pipeline_run
        out, _ = export_dir
        restored = {(r.product_id, r.model_id): r for r in read_forecasts_csv(out / "forecasts.csv")}
        for product in bundle.products:
            for result in product.forecasts:
                back = restored[(product.product_id, result.model_id)]
                assert back.start == result.start
                np.testing.assert_allclose(back.values, result.values, atol=1e-6)
        assert len(restored) == sum(len(p.forecasts) for p in bundle.products)

    def test_validation_round_trip_within_six_decimals(self, pipeline_run, export_dir):
        _, report, _ = pipeline_run
        out, _ = export_dir
        scores, recommended = read_validation_csv(out / "validation.csv", {p.product_id for p in report.products})
        for product in (p for p in report.products if p.validity is not Validity.EXCLUDED):
            assert recommended[product.product_id] == product.recommended
            back = {s.model_id: s for s in scores[product.product_id]}
            for score in product.scores:
                assert back[score.model_id].metrics.rmse == pytest.approx(
                    score.metrics.rmse, abs=1e-6
                )
        assert "tiny" not in scores

    def test_summary_histogram_sums_to_non_excluded(self, pipeline_run, export_dir):
        _, report, _ = pipeline_run
        out, _ = export_dir
        summary = json.loads((out / "summary.json").read_text())
        assert summary["products"]["total"] == 3
        assert summary["products"]["excluded"] == 1
        histogram = summary["recommendation_histogram"]
        assert sum(histogram.values()) == 2
        assert [e["product_id"] for e in summary["exclusions"]] == ["tiny"]
        assert summary["flags"] == {"alpha": [], "beta": []}
        assert summary["config"]["enabled_models"] == [m.value for m in CONFIG.enabled_models]
        assert summary["seed"] == 0

    def test_export_is_byte_deterministic(self, pipeline_run, tmp_path):
        corpus, report, bundle = pipeline_run
        first = tmp_path / "run1"
        second = tmp_path / "run2"
        export_bundle(bundle, report, first, CONFIG)
        # a fresh pipeline run must serialize to identical bytes
        report2, bundle2 = run_pipeline(corpus, CONFIG)
        export_bundle(bundle2, report2, second, CONFIG)
        for name in ("forecasts.csv", "validation.csv", "summary.json", "decomposition_alpha.svg"):
            d1 = hashlib.sha256((first / name).read_bytes()).hexdigest()
            d2 = hashlib.sha256((second / name).read_bytes()).hexdigest()
            assert d1 == d2, name

    def test_empty_structures_give_header_only_files(self, tmp_path):
        report = ValidationReport(frequency=Frequency.MONTHLY, holdout=12, seed=0)
        bundle = ForecastBundle(frequency=Frequency.MONTHLY, horizon=18)
        written = export_bundle(bundle, report, tmp_path / "empty", CONFIG)
        forecasts_lines = written["forecasts"].read_text().splitlines()
        validation_lines = written["validation"].read_text().splitlines()
        assert forecasts_lines == ["product_id,model_id,period,value"]
        assert validation_lines == ["product_id,model_id,rmse,nrmse,mape,recommended"]
        assert read_forecasts_csv(written["forecasts"]) == []
        summary = json.loads(written["summary"].read_text())
        assert summary["products"]["total"] == 0
        assert summary["recommendation_histogram"] == {}

    def test_colliding_sanitized_names_rejected(self, tmp_path):
        def product(pid):
            decomposition = Decomposition(
                product_id=pid,
                start=Period(Frequency.MONTHLY, 240),
                observed=np.ones(12),
                trend=np.ones(12),
                seasonal=np.zeros(12),
            )
            result = ForecastResult(pid, "naive", Period(Frequency.MONTHLY, 252), np.ones(3))
            return ProductForecasts(
                product_id=pid,
                forecasts=(result,),
                recommended="naive",
                decomposition=decomposition,
            )

        bundle = ForecastBundle(
            frequency=Frequency.MONTHLY,
            horizon=3,
            products=(product("a b"), product("a_b")),
        )
        report = ValidationReport(frequency=Frequency.MONTHLY, holdout=12, seed=0)
        with pytest.raises(ExportError, match="same"):
            export_bundle(bundle, report, tmp_path / "clash", CONFIG)

    def test_decomposition_svg_structure(self, tmp_path):
        decomposition = Decomposition(
            product_id="widget & co",
            start=Period(Frequency.MONTHLY, 240),
            observed=np.arange(12.0),
            trend=np.arange(12.0),
            seasonal=np.zeros(12),
        )
        path = write_decomposition_svg(decomposition, tmp_path / "d.svg")
        text = path.read_text()
        assert text.startswith("<svg")
        for label in ("observed", "trend", "seasonal"):
            assert label in text
        assert "widget &amp; co" in text
        assert "2020-01" in text and "2020-12" in text


class TestReadExportDir:
    def test_reconstruction_matches_source(self, pipeline_run, export_dir):
        _, report, bundle = pipeline_run
        out, _ = export_dir
        restored_report, restored_bundle = read_export_dir(out)
        assert restored_bundle.horizon == bundle.horizon
        assert restored_bundle.frequency is bundle.frequency
        for product in bundle.products:
            if not product.forecasts:
                continue
            back = restored_bundle.product(product.product_id)
            assert back.recommended == product.recommended
            assert {f.model_id for f in back.forecasts} == {
                f.model_id for f in product.forecasts
            }
        restored_ids = {p.product_id for p in restored_bundle.products}
        assert "tiny" not in restored_ids

    def test_no_model_product_keeps_its_naive_recommendation(self, tmp_path):
        # the 13-point training prefix cannot feed the CNN's 24-point window, so no
        # model scores and validation.csv has no row for the product; the pipeline
        # recommended and forecast naive, and evaluation must count that
        actual = monthly_series(seasonal_values(43, noise=0.5, seed=1), product_id="d")
        config = PipelineConfig(enabled_models=("cnn",))
        report, bundle = run_pipeline([actual.prefix(25)], config)
        assert report.product("d").flags == ("no_model",)
        export_bundle(bundle, report, tmp_path, config)
        assert (tmp_path / "validation.csv").read_text().count("\n") == 1

        restored_report, restored_bundle = read_export_dir(tmp_path)
        assert restored_report.product("d").recommended == "naive"
        assert restored_bundle.product("d").recommended == "naive"
        summary = summarize(restored_report, restored_bundle, [actual])
        assert summary.recommended_histogram == {"naive": 1}
        assert summary.undefined_ratio == ()


class TestMalformedInputs:
    def test_missing_file(self, tmp_path):
        with pytest.raises(ExportError, match="not found"):
            read_forecasts_csv(tmp_path / "absent.csv")

    def test_empty_file(self, tmp_path):
        path = tmp_path / "forecasts.csv"
        path.write_text("")
        with pytest.raises(ExportError, match="empty file"):
            read_forecasts_csv(path)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "forecasts.csv"
        path.write_text("a,b,c,d\n")
        with pytest.raises(ExportError, match="bad header"):
            read_forecasts_csv(path)

    def test_wrong_field_count_names_line(self, tmp_path):
        path = tmp_path / "forecasts.csv"
        path.write_text("product_id,model_id,period,value\np1,naive,2020-01\n")
        with pytest.raises(ExportError, match="line 2"):
            read_forecasts_csv(path)

    def test_non_contiguous_periods_rejected(self, tmp_path):
        path = tmp_path / "forecasts.csv"
        path.write_text(
            "product_id,model_id,period,value\n"
            "p1,naive,2020-01,1.000000\n"
            "p1,naive,2020-03,1.000000\n"
        )
        with pytest.raises(ExportError, match="contiguous"):
            read_forecasts_csv(path)

    def test_unparseable_value_rejected(self, tmp_path):
        path = tmp_path / "forecasts.csv"
        path.write_text("product_id,model_id,period,value\np1,naive,2020-01,abc\n")
        with pytest.raises(ExportError, match="line 2"):
            read_forecasts_csv(path)

    def test_double_recommendation_rejected(self, tmp_path):
        path = tmp_path / "validation.csv"
        path.write_text(
            "product_id,model_id,rmse,nrmse,mape,recommended\n"
            "p1,naive,1.000000,,,true\n"
            "p1,hwes,2.000000,,,true\n"
        )
        with pytest.raises(ExportError, match="two recommended"):
            read_validation_csv(path, {"p1"})

    def test_bad_recommended_flag_rejected(self, tmp_path):
        path = tmp_path / "validation.csv"
        path.write_text(
            "product_id,model_id,rmse,nrmse,mape,recommended\np1,naive,1.000000,,,yes\n"
        )
        with pytest.raises(ExportError, match="true/false"):
            read_validation_csv(path, {"p1"})

    @pytest.mark.parametrize("cells", ["nan,,", "inf,,", "-1.000000,,", "1.0,nan,", "1.0,,inf", "1.0,-0.5,"])
    def test_non_finite_or_negative_metric_rejected(self, tmp_path, cells):
        path = tmp_path / "validation.csv"
        path.write_text(f"product_id,model_id,rmse,nrmse,mape,recommended\np1,naive,{cells},true\n")
        with pytest.raises(ExportError, match="validation.csv line 2: metrics must be finite and >= 0"):
            read_validation_csv(path, {"p1"})

    def test_validation_rows_for_a_product_without_forecasts_rejected(self, tmp_path):
        directory = self.write_export(tmp_path / "fc", "p1,naive,2020-01,1.000000\n")
        with open(directory / "validation.csv", "a") as fh:
            fh.write("p2,naive,1.000000,,,true\n")
        with pytest.raises(ExportError, match="validation.csv line 3: product 'p2' has no forecasts"):
            read_export_dir(directory)

    @staticmethod
    def write_export(directory, forecast_rows, recommended="naive"):
        directory.mkdir()
        (directory / "forecasts.csv").write_text("product_id,model_id,period,value\n" + forecast_rows)
        (directory / "validation.csv").write_text(
            "product_id,model_id,rmse,nrmse,mape,recommended\n"
            f"p1,{recommended},1.000000,,,true\n"
        )
        return directory

    @pytest.mark.parametrize("value", ["nan", "-1.000000"])
    def test_non_finite_or_negative_value_rejected(self, tmp_path, value):
        path = tmp_path / "forecasts.csv"
        path.write_text(f"product_id,model_id,period,value\np1,naive,2020-01,{value}\n")
        with pytest.raises(ExportError, match="forecasts.csv: naive forecast for 'p1'"):
            read_forecasts_csv(path)

    def test_unknown_model_rejected(self, tmp_path):
        path = tmp_path / "forecasts.csv"
        path.write_text("product_id,model_id,period,value\np1,oracle,2020-01,1.000000\n")
        with pytest.raises(ExportError, match="line 2: 'oracle'"):
            read_forecasts_csv(path)

    def test_mixed_frequencies_rejected(self, tmp_path):
        path = tmp_path / "forecasts.csv"
        path.write_text("product_id,model_id,period,value\np1,naive,2020-01,1.0\np2,naive,2020-W01,1.0\n")
        with pytest.raises(ExportError, match="line 3: invalid monthly period label '2020-W01'"):
            read_forecasts_csv(path)

    def test_short_model_block_rejected(self, tmp_path):
        directory = self.write_export(
            tmp_path / "fc",
            "p1,naive,2020-01,1.000000\np1,naive,2020-02,1.000000\np1,hwes,2020-01,1.000000\n",
        )
        with pytest.raises(ExportError, match="forecasts.csv: p1: forecasts disagree"):
            read_export_dir(directory)

    def test_recommended_model_without_rows_rejected(self, tmp_path):
        directory = self.write_export(tmp_path / "fc", "p1,naive,2020-01,1.000000\n", recommended="hwes")
        with pytest.raises(ExportError, match="forecasts.csv: p1: recommended model 'hwes' has no forecast"):
            read_export_dir(directory)


class TestWriterFormatting:
    def test_values_written_with_six_decimals(self, tmp_path):
        result = ForecastResult("p1", "naive", Period(Frequency.MONTHLY, 240), [1.23456789])
        bundle = ForecastBundle(
            frequency=Frequency.MONTHLY,
            horizon=1,
            products=(ProductForecasts(product_id="p1", forecasts=(result,), recommended="naive"),),
        )
        path = write_forecasts_csv(bundle, tmp_path / "f.csv")
        assert "p1,naive,2020-01,1.234568" in path.read_text()

    def test_missing_metrics_serialize_as_empty(self, tmp_path):
        from autocast.metrics import MetricSet
        from autocast.pipeline import ModelScore, ProductValidation
        from autocast.ingest import Validity

        product = ProductValidation(
            product_id="p1",
            validity=Validity.FULL_PIPELINE,
            holdout=3,
            scores=(ModelScore("naive", MetricSet(rmse=1.0, nrmse=None, mape=None)),),
            recommended="naive",
        )
        report = ValidationReport(
            frequency=Frequency.MONTHLY, holdout=3, seed=0, products=(product,)
        )
        path = write_validation_csv(report, tmp_path / "v.csv")
        assert "p1,naive,1.000000,,,true" in path.read_text()

    def test_summary_flags_without_bundle_come_from_the_report(self, tmp_path):
        products = (
            ProductValidation("p1", Validity.SHORT_HISTORY, 3, recommended="naive", flags=("no_model",)),
            ProductValidation("p2", Validity.EXCLUDED, 0, flags=("excluded: 8 periods < 12",)),
        )
        report = ValidationReport(frequency=Frequency.MONTHLY, holdout=12, seed=0, products=products)
        summary = json.loads(write_summary_json(report, None, CONFIG, tmp_path / "s.json").read_text())
        assert summary["flags"] == {"p1": ["no_model"]}
        assert summary["exclusions"] == [{"product_id": "p2", "reason": "excluded: 8 periods < 12"}]

    def test_summary_without_bundle(self, tmp_path):
        report = ValidationReport(frequency=Frequency.MONTHLY, holdout=12, seed=4)
        path = write_summary_json(report, None, CONFIG, tmp_path / "s.json")
        summary = json.loads(path.read_text())
        assert summary["seed"] == 4
        assert "horizon" not in summary
