import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import autocast.pipeline as pipeline
from autocast import fanout
from autocast.cli import main
from autocast.ingest import write_sales_csv
from autocast.models.smoothing import HwesForecaster
from autocast.series import Frequency
from autocast.synth import ArchetypeSpec, generate_corpus

CHEAP_CONFIG = {
    "enabled_models": ["naive", "ses", "hwes", "gam"],
    "horizon": 6,
}

SPEC_ROWS = [
    {"product_id": "s1", "kind": "seasonality", "length": 48},
    {"product_id": "s2", "kind": "seasonality_trend", "length": 48},
]


@pytest.fixture()
def workspace(tmp_path):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(SPEC_ROWS))
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(CHEAP_CONFIG))
    return tmp_path, spec_path, config_path


def run(argv):
    return main(argv)


class TestSynthCommand:
    def test_writes_corpus_and_reports_count(self, workspace, capsys):
        tmp_path, spec_path, _ = workspace
        out = tmp_path / "sales.csv"
        assert run(["synth", "--spec", str(spec_path), "--out", str(out), "--seed", "5"]) == 0
        assert "wrote 2 products" in capsys.readouterr().out
        lines = out.read_text().splitlines()
        assert lines[0] == "product_id,date,quantity"
        assert len(lines) == 1 + 2 * 48

    def test_same_seed_is_byte_identical(self, workspace):
        tmp_path, spec_path, _ = workspace
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run(["synth", "--spec", str(spec_path), "--out", str(a), "--seed", "5"])
        run(["synth", "--spec", str(spec_path), "--out", str(b), "--seed", "5"])
        assert a.read_bytes() == b.read_bytes()

    def test_different_seed_changes_output(self, workspace):
        tmp_path, spec_path, _ = workspace
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run(["synth", "--spec", str(spec_path), "--out", str(a), "--seed", "5"])
        run(["synth", "--spec", str(spec_path), "--out", str(b), "--seed", "6"])
        assert a.read_bytes() != b.read_bytes()

    def test_missing_spec_file_exits_one(self, workspace, capsys):
        tmp_path, _, _ = workspace
        code = run(["synth", "--spec", str(tmp_path / "absent.json"), "--out", str(tmp_path / "x.csv")])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_unwritable_output_exits_one(self, workspace, capsys):
        tmp_path, spec_path, _ = workspace
        (tmp_path / "afile").write_text("")
        code = run(["synth", "--spec", str(spec_path), "--out", str(tmp_path / "afile" / "x.csv")])
        assert code == 1
        assert "error: cannot write" in capsys.readouterr().err


@pytest.fixture()
def sales_csv(workspace):
    tmp_path, spec_path, config_path = workspace
    out = tmp_path / "sales.csv"
    assert run(["synth", "--spec", str(spec_path), "--out", str(out), "--seed", "5"]) == 0
    return tmp_path, out, config_path


class TestValidateCommand:
    def test_happy_path(self, sales_csv, capsys):
        tmp_path, sales, config = sales_csv
        out = tmp_path / "validate_out"
        code = run(
            ["validate", "--input", str(sales), "--config", str(config), "--out", str(out)]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "validated 2 products" in output
        assert (out / "validation.csv").exists()
        assert (out / "summary.json").exists()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["products"]["total"] == 2
        assert sum(summary["recommendation_histogram"].values()) == 2
        assert summary["flags"] == {"s1": [], "s2": []}

    def test_seed_override_lands_in_summary(self, sales_csv):
        tmp_path, sales, config = sales_csv
        out = tmp_path / "seed_out"
        code = run(
            [
                "validate",
                "--input", str(sales),
                "--config", str(config),
                "--out", str(out),
                "--seed", "42",
            ]
        )
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["seed"] == 42
        assert summary["config"]["seed"] == 42

    @pytest.mark.parametrize("where", ["config", "flag"])
    def test_negative_seed_exits_one(self, sales_csv, capsys, where):
        tmp_path, sales, config = sales_csv
        argv = ["validate", "--input", str(sales), "--out", str(tmp_path / "o")]
        if where == "config":
            config = tmp_path / "negative_seed.json"
            config.write_text(json.dumps({"seed": -1}))
            argv += ["--config", str(config)]
        else:
            argv += ["--config", str(config), "--seed", "-1"]
        assert run(argv) == 1
        assert "error: seed: must be >= 0, got -1" in capsys.readouterr().err

    def test_missing_input_exits_one(self, sales_csv, capsys):
        tmp_path, _, config = sales_csv
        code = run(
            [
                "validate",
                "--input", str(tmp_path / "absent.csv"),
                "--config", str(config),
                "--out", str(tmp_path / "o"),
            ]
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_uncreatable_output_directory_exits_one(self, sales_csv, capsys):
        tmp_path, sales, config = sales_csv
        (tmp_path / "afile").write_text("")
        out = tmp_path / "afile" / "sub"
        code = run(["validate", "--input", str(sales), "--config", str(config), "--out", str(out)])
        assert code == 1
        assert "error: cannot create output directory" in capsys.readouterr().err


class TestForecastCommand:
    def test_happy_path_and_byte_determinism(self, sales_csv, capsys):
        # the rerun writes into another directory, so no export may depend on the output path
        tmp_path, sales, config = sales_csv
        names = ("forecasts.csv", "validation.csv", "summary.json")
        digests = []
        for out in (tmp_path / "fc", tmp_path / "again"):
            assert run(["forecast", "--input", str(sales), "--config", str(config), "--out", str(out)]) == 0
            digests.append({name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in names})
        assert "wrote" in capsys.readouterr().out
        for name in names:
            assert digests[0][name] == digests[1][name], name

    def test_refit_failure_flag_lands_in_summary(self, sales_csv, monkeypatch):
        tmp_path, sales, config = sales_csv
        original_fit = HwesForecaster.fit

        def flaky_fit(self, series):
            if len(series) == 48:
                raise ValueError("boom")
            return original_fit(self, series)

        monkeypatch.setattr(fanout, "usable_cores", lambda: 1)
        monkeypatch.setattr(HwesForecaster, "fit", flaky_fit)
        out = tmp_path / "fc"
        assert run(["forecast", "--input", str(sales), "--config", str(config), "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["flags"] == {
            pid: ["hwes: refit failed, reusing validation fit (boom)"] for pid in ("s1", "s2")
        }

    def test_unknown_config_key_exits_one(self, sales_csv, capsys):
        tmp_path, sales, _ = sales_csv
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"horizont": 6}))
        code = run(["forecast", "--input", str(sales), "--config", str(bad), "--out", str(tmp_path / "o")])
        assert code == 1
        assert "horizont" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key, value",
        [
            # the paths come only from --input and --out
            ("input_path", "sales.csv"),
            ("output_dir", "out"),
            # the pipeline fixes these itself
            ("holdout", 12),
            ("ensemble_members", ["hwes", "gam"]),
            ("gam_lambda_grid", [1.0]),
        ],
    )
    def test_config_naming_a_removed_key_exits_one(self, sales_csv, capsys, key, value):
        tmp_path, sales, _ = sales_csv
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({key: value}))
        code = run(["forecast", "--input", str(sales), "--config", str(bad), "--out", str(tmp_path / "o")])
        assert code == 1
        assert key in capsys.readouterr().err

    def test_zero_horizon_config_exits_one(self, sales_csv, capsys):
        tmp_path, sales, _ = sales_csv
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"horizon": 0}))
        code = run(["forecast", "--input", str(sales), "--config", str(bad), "--out", str(tmp_path / "o")])
        assert code == 1
        assert "horizon" in capsys.readouterr().err

    def test_overflowing_period_total_exits_one(self, tmp_path, capsys):
        sales = tmp_path / "overflow.csv"
        sales.write_text("product_id,date,quantity\na,2023-01-01,1e308\na,2023-01-15,1e308\nb,2023-01-01,1\n")
        code = run(["forecast", "--input", str(sales), "--out", str(tmp_path / "o")])
        assert code == 1
        assert "error: product 'a', period 2023-01" in capsys.readouterr().err

    def test_internal_error_exits_two(self, sales_csv, capsys, monkeypatch):
        tmp_path, sales, config = sales_csv

        def boom(corpus, cfg):
            raise RuntimeError("unexpected")

        monkeypatch.setattr(pipeline, "run_validation", boom)
        code = run(["forecast", "--input", str(sales), "--config", str(config), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "internal error" in capsys.readouterr().err

    def test_internal_error_in_a_fan_out_worker_exits_two(self, sales_csv, capsys, monkeypatch):
        tmp_path, sales, _ = sales_csv
        config = tmp_path / "shared.json"
        shared_models = {"enabled_models": ["naive", "boosted_tree", "cnn"], "horizon": 6}
        config.write_text(json.dumps(shared_models))
        parent = os.getpid()
        cnn = pipeline.train_shared_cnn

        def cnn_in_parent_only(corpus, input_window, seed):
            if os.getpid() != parent:
                raise RuntimeError("unexpected in worker")
            return cnn(corpus, input_window, seed)

        monkeypatch.setattr(fanout, "usable_cores", lambda: 2)
        monkeypatch.setattr(pipeline, "train_shared_cnn", cnn_in_parent_only)
        code = run(["forecast", "--input", str(sales), "--config", str(config), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "internal error: RuntimeError: unexpected in worker" in capsys.readouterr().err


    @pytest.mark.parametrize("n_cores", [1, 2])
    def test_programming_error_in_a_model_fit_exits_two(self, sales_csv, capsys, monkeypatch, n_cores):
        tmp_path, sales, config = sales_csv

        def broken_fit(self, series):
            raise TypeError("fit() got an unexpected argument")

        monkeypatch.setattr(fanout, "usable_cores", lambda: n_cores)
        monkeypatch.setattr(HwesForecaster, "fit", broken_fit)
        code = run(["forecast", "--input", str(sales), "--config", str(config), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "internal error: TypeError: fit() got an unexpected argument" in capsys.readouterr().err


class TestEvaluateCommand:
    def test_round_trip_against_actuals(self, workspace, capsys):
        tmp_path, _, config_path = workspace
        # full histories, then forecast from a 48-month prefix so the tail
        # acts as the realized actuals for the 6-month horizon
        specs = [
            ArchetypeSpec.from_kind("s1", "seasonality", length=54),
            ArchetypeSpec.from_kind("s2", "seasonality_trend", length=54),
        ]
        full = generate_corpus(specs, seed=5, frequency=Frequency.MONTHLY)
        input_csv = tmp_path / "input.csv"
        actuals_csv = tmp_path / "actuals.csv"
        write_sales_csv(input_csv, [s.prefix(48) for s in full])
        write_sales_csv(actuals_csv, full)

        forecast_dir = tmp_path / "fc"
        assert run(
            ["forecast", "--input", str(input_csv), "--config", str(config_path), "--out", str(forecast_dir)]
        ) == 0
        eval_dir = tmp_path / "ev"
        code = run(
            [
                "evaluate",
                "--forecasts", str(forecast_dir),
                "--actuals", str(actuals_csv),
                "--out", str(eval_dir),
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "scored 2 products, 0 missing actuals" in output
        payload = json.loads((eval_dir / "evaluation.json").read_text())
        assert sorted(payload["scored"]) == ["s1", "s2"]
        assert (eval_dir / "ratios.csv").exists()
        assert payload["alternative"] == "two-sided"

    def test_alternative_flag_forwarded(self, workspace):
        tmp_path, _, config_path = workspace
        specs = [ArchetypeSpec.from_kind("s1", "seasonality", length=54)]
        full = generate_corpus(specs, seed=5, frequency=Frequency.MONTHLY)
        write_sales_csv(tmp_path / "input.csv", [s.prefix(48) for s in full])
        write_sales_csv(tmp_path / "actuals.csv", full)
        assert run(
            [
                "forecast",
                "--input", str(tmp_path / "input.csv"),
                "--config", str(config_path),
                "--out", str(tmp_path / "fc"),
            ]
        ) == 0
        assert run(
            [
                "evaluate",
                "--forecasts", str(tmp_path / "fc"),
                "--actuals", str(tmp_path / "actuals.csv"),
                "--out", str(tmp_path / "ev"),
                "--alternative", "greater",
            ]
        ) == 0
        payload = json.loads((tmp_path / "ev" / "evaluation.json").read_text())
        assert payload["alternative"] == "greater"

    def test_negative_forecast_value_exits_one(self, workspace, capsys):
        tmp_path, _, _ = workspace
        fc = tmp_path / "fc"
        fc.mkdir()
        (fc / "forecasts.csv").write_text("product_id,model_id,period,value\ns1,naive,2020-01,-1\n")
        (fc / "validation.csv").write_text("product_id,model_id,rmse,nrmse,mape,recommended\n")
        (tmp_path / "actuals.csv").write_text("product_id,date,quantity\ns1,2020-01-01,1\n")
        code = run(
            [
                "evaluate",
                "--forecasts", str(fc),
                "--actuals", str(tmp_path / "actuals.csv"),
                "--out", str(tmp_path / "ev"),
            ]
        )
        assert code == 1
        assert "forecasts.csv: naive forecast for 's1' contains negative values" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "row, message",
        [
            ("s1,naive,nan,,,true", "validation.csv line 2: metrics must be finite and >= 0"),
            ("s2,naive,1.0,,,true", "validation.csv line 2: product 's2' has no forecasts"),
        ],
    )
    def test_bad_validation_row_exits_one(self, workspace, capsys, row, message):
        tmp_path, _, _ = workspace
        fc = tmp_path / "fc"
        fc.mkdir()
        (fc / "forecasts.csv").write_text("product_id,model_id,period,value\ns1,naive,2020-01,1\n")
        (fc / "validation.csv").write_text(f"product_id,model_id,rmse,nrmse,mape,recommended\n{row}\n")
        (tmp_path / "actuals.csv").write_text("product_id,date,quantity\ns1,2020-01-01,1\n")
        code = run(
            [
                "evaluate",
                "--forecasts", str(fc),
                "--actuals", str(tmp_path / "actuals.csv"),
                "--out", str(tmp_path / "ev"),
            ]
        )
        assert code == 1
        assert message in capsys.readouterr().err

    def test_missing_forecast_dir_exits_one(self, workspace, capsys):
        tmp_path, _, _ = workspace
        (tmp_path / "actuals.csv").write_text("product_id,date,quantity\n")
        code = run(
            [
                "evaluate",
                "--forecasts", str(tmp_path / "absent"),
                "--actuals", str(tmp_path / "actuals.csv"),
                "--out", str(tmp_path / "ev"),
            ]
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestArgumentErrors:
    def test_unknown_subcommand_exits_one(self, capsys):
        assert run(["conjure"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_missing_required_argument_exits_one(self, capsys):
        assert run(["validate", "--out", "somewhere"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_no_arguments_exits_one(self, capsys):
        assert run([]) == 1
        assert "error:" in capsys.readouterr().err


class TestStartUp:
    def test_import_leaves_heavy_scipy_modules_unloaded(self):
        # a cold CLI run pays for every module the import loads; scipy.signal alone
        # cost over a second and ~75 MB when the ARIMA filter came from it
        probe = (
            "import sys, autocast, autocast.cli; "
            "print(sorted(m for m in ('scipy.signal', 'scipy.stats', 'scipy.interpolate') if m in sys.modules))"
        )
        src = Path(__file__).resolve().parents[1] / "src"
        env = {**os.environ, "PYTHONPATH": str(src)}
        result = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
        assert result.stdout.strip() == "[]"
