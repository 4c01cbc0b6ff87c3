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
