"""`tools/accuracy.py` scores forecasts the way `autocast evaluate` does."""
import importlib.util
from pathlib import Path

import pytest

from autocast.evaluation import summarize
from autocast.series import Frequency

_PATH = Path(__file__).resolve().parents[1] / "tools" / "accuracy.py"
_SPEC = importlib.util.spec_from_file_location("accuracy_report", _PATH)
accuracy = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(accuracy)

FAST_MODELS = ("naive", "ses", "hwes", "gam", "ensemble_median")


@pytest.fixture(scope="module")
def tiny():
    # a full history, a short one and one too short to forecast once 18 periods go
    return accuracy.corpora.Workload("tiny", Frequency.MONTHLY, accuracy.corpora.C6_MIX, (36, 18, 9))


def test_windows_split_at_the_year():
    assert accuracy.windows(12, 12) == [("1-12", slice(0, 12))]
    assert accuracy.windows(18, 12) == [("1-18", slice(0, 18)), ("1-12", slice(0, 12)), ("13-18", slice(12, 18))]


def test_recommended_ratios_match_evaluate(tiny):
    full, report, bundle = accuracy.run_corpus(tiny, seed=2, horizon=18, enabled=FAST_MODELS)
    scored = accuracy.product_ratios(full, bundle, year=12)
    evaluated = summarize(report, bundle, full).recommended_ratios
    assert len(scored) == len(evaluated) == 2
    for (recommended, ratios), entry in zip(scored, evaluated):
        assert recommended == entry.model_id
        assert ratios["1-18"]["recommended"] == entry.ratio
        assert ratios["1-18"]["naive"] == 1.0
        assert set(ratios) == {"1-18", "1-12", "13-18"}


def test_report_has_a_row_per_model_and_the_histogram(tiny, monkeypatch, capsys):
    monkeypatch.setitem(accuracy.corpora.WORKLOADS, "tiny", tiny)
    monkeypatch.setattr(accuracy, "MODEL_PRIORITY", tuple(m for m in accuracy.MODEL_PRIORITY if m.value in FAST_MODELS))
    assert accuracy.main(["--workload", "tiny", "--seeds", "1-2", "--horizon", "12", "--disable", "gam"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("tiny, seeds 1-2, horizon 12, gam disabled")
    rows = [line.split()[0] for line in lines[3:-1]]
    # hwes is the only ensemble member left, and the ensemble needs two
    assert rows == ["recommended", "hwes", "ses", "naive"]
    assert lines[-1].startswith("recommendations: ")


def test_config_seeds_print_the_recommended_row_of_each(tiny, monkeypatch, capsys):
    monkeypatch.setitem(accuracy.corpora.WORKLOADS, "tiny", tiny)
    monkeypatch.setattr(accuracy, "MODEL_PRIORITY", tuple(m for m in accuracy.MODEL_PRIORITY if m.value in FAST_MODELS))
    seeds = []
    run_corpus = accuracy.run_corpus

    def recorded(workload, seed, horizon, enabled, config_offset=0):
        full, report, bundle = run_corpus(workload, seed, horizon, enabled, config_offset)
        seeds.append((seed, report.seed))
        return full, report, bundle

    monkeypatch.setattr(accuracy, "run_corpus", recorded)
    assert accuracy.main(["--workload", "tiny", "--seeds", "1-2", "--horizon", "12", "--config-seeds", "3"]) == 0
    assert seeds == [(1, 1), (2, 2), (1, 1001), (2, 1002), (1, 2001), (2, 2002)]
    lines = capsys.readouterr().out.splitlines()
    assert lines[-4] == "recommended at config seed = corpus seed + 1000k:"
    # k = 0 is the table's own run
    table_row = next(line for line in lines if line.startswith("recommended "))
    assert [line[:16].rstrip() for line in lines[-3:]] == ["k = 0", "k = 1", "k = 2"]
    assert lines[-3][16:] == table_row[16:]


def test_config_seeds_below_one_rejected():
    with pytest.raises(SystemExit):
        accuracy.main(["--workload", "ragged_catalogue", "--config-seeds", "0"])


def test_config_seeds_print_each_rows_spread_over_the_seeds(monkeypatch, capsys):
    # the 48-month history leaves validation 36 months, enough for every model
    spread = accuracy.corpora.Workload("spread", Frequency.MONTHLY, accuracy.corpora.C6_MIX, (48, 40))
    monkeypatch.setitem(accuracy.corpora.WORKLOADS, "spread", spread)
    assert accuracy.main(["--workload", "spread", "--seeds", "1", "--horizon", "12", "--config-seeds", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    start = lines.index("max/min of each row's ratio over the 2 config seeds, median over products:")
    end = lines.index("recommended at config seed = corpus seed + 1000k:")
    medians = {line.split()[0]: line.split()[2] for line in lines[start + 2 : end]}
    unseeded = ("naive", "ses", "hwes", "arima", "sarima", "gam", "boosted_tree", "ensemble_median")
    assert {model: medians[model] for model in unseeded} == dict.fromkeys(unseeded, "1.000")
    assert float(medians["cnn"]) >= 1
