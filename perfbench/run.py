"""Benchmark of the `autocast forecast` path on seeded synthetic sales corpora.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One closed-loop client in one process, no worker pool: it submits a batch
(the workload's training CSV) through load_sales_csv -> run_validation ->
finalize_and_forecast -> export_bundle, waits for it, checks the outputs and
scores the export against the held-back year, and submits another batch only
while it is expected to finish within --seconds. With --trace 1, untraced and
traced batches alternate and the per-layer metrics come from the traced ones. The last line of stdout is the
result JSON; run records, traces and outputs go under .perfbench_out/.

The host's speed drifts too much for raw wall time to be compared across
runs, so forecast_s, validate_s and setup_s are wall seconds corrected by
the speed hostspeed.py samples on the same core during the timed interval
(see there); the raw wall times and slowdowns are kept in every run record.
BLAS and OpenMP pools default to one thread: the program's arrays are small,
and on a 2-core host a second pool thread measures the scheduler.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
if not (ROOT / "src" / "autocast").is_dir():
    sys.exit(f"no autocast sources under {ROOT / 'src'}: run from a checkout of the repository")
sys.path[:0] = [str(ROOT / "src"), str(HERE)]
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _name in BLAS_THREAD_VARS:  # before numpy loads; set-up children inherit it
    os.environ.setdefault(_name, "1")

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import corpora  # noqa: E402
import hostspeed  # noqa: E402
import outputs  # noqa: E402
import tracing  # noqa: E402
from autocast.evaluation import summarize  # noqa: E402
from autocast.export import export_bundle, read_export_dir  # noqa: E402
from autocast.ingest import load_sales_csv  # noqa: E402
from autocast.pipeline import PipelineConfig, finalize_and_forecast, run_validation  # noqa: E402

OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 3


@dataclass
class Batch:
    forecast_s: float  # at the reference host speed, as validate_s
    validate_s: float
    forecast_wall_s: float
    slowdown: float
    traced: bool
    problems: list
    fingerprint: dict


def set_up(workload: str, seed: int, corpus_dir: Path) -> list:
    """Write the corpus SETUP_REPEATS times, each in a fresh interpreter.

    Each sample runs from process start to the CSVs being on disk: start
    Python, import autocast (numpy, scipy), generate and write the corpus.
    Returns (wall seconds, slowdown, seconds at the reference speed) each.
    """
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    command = [sys.executable, str(HERE / "setup_corpus.py"), workload, str(seed), str(corpus_dir)]
    samples = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        child = subprocess.run(command, env=env, check=True, timeout=120, capture_output=True, text=True)
        wall = time.perf_counter() - t0
        host = json.loads(child.stdout.splitlines()[-1])
        samples.append((wall, host["slowdown"], (wall - host["handler_s"]) / host["slowdown"]))
    return samples


def run_batch(workload, config, corpus_dir: Path, export_dir: Path, actuals, tracer=None) -> Batch:
    """One batch through the forecast path, timed, then checked and scored."""
    span = tracer.span if tracer is not None else (lambda name: nullcontext())
    train_csv, _ = corpora.corpus_paths(corpus_dir)
    shutil.rmtree(export_dir, ignore_errors=True)
    with hostspeed.HostSpeed() as host:
        t0 = time.perf_counter()
        with span("batch"):
            with span("ingest.load"):
                corpus = load_sales_csv(train_csv, workload.frequency)
            with span("pipeline.validate"):
                report = run_validation(corpus, config)
            t_validate = time.perf_counter()
            with span("pipeline.finalize"):
                bundle = finalize_and_forecast(corpus, report, config)
            with span("export.write") as export_span:
                written = export_bundle(bundle, report, export_dir, config)
        t_end = time.perf_counter()

    exported_bytes = sum(path.stat().st_size for path in written.values())
    if export_span is not None:
        export_span.attrs["bytes"] = exported_bytes
    read_report, read_bundle = read_export_dir(export_dir)
    with span("evaluation.summarize"):
        summary = summarize(read_report, read_bundle, actuals)
    fingerprint = {
        "sha256": outputs.sha256_of(export_dir / "forecasts.csv"),
        **outputs.accuracy(summary),
        "model_failure_share": outputs.model_failure_share(report, bundle, len(config.enabled_models)),
        "fallback_share": outputs.fallback_share(report),
        "export_bytes": exported_bytes,
    }
    return Batch(
        forecast_s=host.reference_seconds(t0, t_end),
        validate_s=host.reference_seconds(t0, t_validate),
        forecast_wall_s=t_end - t0,
        slowdown=host.slowdown(t0, t_end),
        traced=tracer is not None,
        problems=outputs.check_outputs(corpus, report, bundle, read_bundle, workload.horizon),
        fingerprint=fingerprint,
    )


def source_digest() -> str:
    """sha256 over the program's sources, so runs of different code are not compared."""
    digest = hashlib.sha256()
    src = ROOT / "src"
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def check_determinism(batches, key: str) -> None:
    """Every batch of one workload, seed and source version hashes alike, across runs."""
    record_path = OUT / "forecast_hashes.json"
    known = json.loads(record_path.read_text()) if record_path.exists() else {}
    expected = known.setdefault(key, batches[0].fingerprint["sha256"])
    for batch in batches:
        digest = batch.fingerprint["sha256"]
        if digest != expected:
            batch.problems.append(f"forecasts.csv sha256 {digest[:12]} != {expected[:12]} at this seed")
    tmp = record_path.with_suffix(".tmp")
    tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
    os.replace(tmp, record_path)


def environment() -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
            capture_output=True,
            text=True,
            timeout=30,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = ""
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {name: os.environ.get(name, "unset") for name in BLAS_THREAD_VARS},
        "git_commit": commit or "unknown",
    }


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end_metrics(batches, setup_samples, fingerprint) -> dict:
    return {
        "forecast_s": _metric(statistics.median(b.forecast_s for b in batches), "s"),
        "validate_s": _metric(statistics.median(b.validate_s for b in batches), "s"),
        "setup_s": _metric(statistics.median(s[2] for s in setup_samples), "s"),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "median_error_ratio": _metric(fingerprint["median_error_ratio"], "ratio"),
    }


def _timing(metrics: dict, name: str, values, unit: str, scale: float = 1.0) -> None:
    """Median, tail percentile and sample count of one span's durations."""
    values = [v * scale for v in values]
    pct = tracing.tail_percentile(len(values))
    if values:
        median = statistics.median(values)
        tail = float(np.percentile(values, pct)) if pct is not None else max(values)
    else:
        median = tail = 0.0  # span missing: reported through trace.missing_spans
    metrics[name] = _metric(median, unit)
    metrics[f"{name}.tail"] = _metric(tail, unit)
    metrics[f"{name}.tail_pct"] = _metric(pct if pct is not None else 100.0, "pct")
    metrics[f"{name}.n"] = _metric(len(values), "count")


def layer_metrics(tracer, traced, plain, fingerprint) -> dict:
    spans = tracer.spans
    n_batches = len(traced)
    by_name = {}
    children = {}
    subtree_css = [s.attrs.get("arima.css_eval", 0) for s in spans]
    for index in range(len(spans) - 1, -1, -1):
        s = spans[index]
        by_name.setdefault(s.name, []).append(s)
        children.setdefault(s.parent, []).append(s)
        if s.parent >= 0:
            subtree_css[s.parent] += subtree_css[index]

    def ok(name):
        return [s for s in by_name.get(name, ()) if s.error is None]

    def durations(*names):
        return [s.duration for name in names for s in ok(name)]

    def self_times(name):
        return [
            tracing.self_time(s.start, s.end, [(c.start, c.end) for c in children.get(i, ())])
            for i, s in enumerate(spans)
            if s.name == name and s.error is None
        ]

    epochs = []
    for i, s in enumerate(spans):
        if s.name == "deeplearn.train":
            ends = [c.end for c in children.get(i, ()) if c.name == "deeplearn.epoch_end"]
            epochs += list(np.diff([s.start, *sorted(ends)]))
    searches = [subtree_css[i] for i, s in enumerate(spans) if s.name == "arima.search" and s.error is None]
    fits = ok("optim.nelder_mead")
    budgeted = [s for s in fits if s.attrs.get("maxfev") is not None]
    solves = ok("lasso.solve")
    trees = ok("boosting.fit")

    metrics = {}
    _timing(metrics, "pipeline.validate_self_s", self_times("pipeline.validate"), "s")
    _timing(metrics, "pipeline.finalize_self_s", self_times("pipeline.finalize"), "s")
    _timing(metrics, "ingest.load_s", durations("ingest.load"), "s")
    _timing(metrics, "arima.search_ms", durations("arima.search"), "ms", 1e3)
    _timing(metrics, "arima.refit_ms", durations("arima.refit"), "ms", 1e3)
    _timing(metrics, "arima.forecast_ms", durations("arima.forecast"), "ms", 1e3)
    _timing(metrics, "arima.css_eval_us", tracer.leaf_seconds.get("arima.css_eval", ()), "us", 1e6)
    _timing(metrics, "optim.fit_ms", [s.duration for s in fits], "ms", 1e3)
    _timing(metrics, "gam.fit_ms", durations("gam.fit"), "ms", 1e3)
    _timing(metrics, "lasso.select_ms", durations("lasso.select"), "ms", 1e3)
    _timing(metrics, "lasso.solve_ms", [s.duration for s in solves], "ms", 1e3)
    _timing(metrics, "smoothing.fit_ms", durations("ses.fit", "hwes.fit"), "ms", 1e3)
    _timing(metrics, "boosting.train_s", durations("boosting.train"), "s")
    _timing(metrics, "boosting.round_ms", [s.duration / s.attrs["rounds"] for s in trees], "ms", 1e3)
    _timing(metrics, "boosting.forecast_ms", durations("boosted_tree.forecast"), "ms", 1e3)
    _timing(metrics, "deeplearn.train_s", durations("deeplearn.train"), "s")
    _timing(metrics, "deeplearn.epoch_ms", epochs, "ms", 1e3)
    _timing(metrics, "deeplearn.forecast_ms", durations("cnn.forecast"), "ms", 1e3)
    _timing(metrics, "export.write_s", durations("export.write"), "s")
    _timing(metrics, "evaluation.summarize_s", durations("evaluation.summarize"), "s")
    _timing(metrics, "synth.generate_s", durations("synth.generate"), "s")

    def share(part, whole):
        return part / whole if whole else 0.0

    # counts are deterministic, so every traced batch contributes the same
    metrics.update(
        {
            "arima.css_evals": _metric(statistics.median(searches) if searches else 0, "count"),
            "optim.nm_fits": _metric(share(len(fits), n_batches), "count"),
            "optim.nfev": _metric(share(sum(s.attrs["nfev"] for s in fits), n_batches), "count"),
            "optim.budget_exhausted_share": _metric(
                share(sum(s.attrs["nfev"] >= s.attrs["maxfev"] for s in budgeted), len(budgeted)), "share"
            ),
            "lasso.solves": _metric(share(len(solves), n_batches), "count"),
            "lasso.kkt_max_rel": _metric(
                max((s.attrs["kkt"] / s.attrs["lam"] for s in solves if s.attrs["lam"] > 0), default=0.0),
                "ratio",
            ),
            "lasso.unconverged_share": _metric(
                share(sum(s.attrs["kkt"] > tracing.KKT_TOL for s in solves), len(solves)), "share"
            ),
            "boosting.train_rows": _metric(share(sum(s.attrs["rows"] for s in trees), n_batches), "count"),
            "deeplearn.batches": _metric(share(len(ok("deeplearn.batch")), n_batches), "count"),
            "export.bytes": _metric(fingerprint["export_bytes"], "bytes"),
            "pipeline.model_failure_share": _metric(fingerprint["model_failure_share"], "share"),
            "pipeline.fallback_share": _metric(fingerprint["fallback_share"], "share"),
            "evaluation.beats_naive_share": _metric(fingerprint["beats_naive_share"], "share"),
            "trace.overhead_share": _metric(
                statistics.median(b.forecast_s for b in traced) / statistics.median(b.forecast_s for b in plain)
                - 1.0,
                "share",
            ),
            "trace.missing_spans": _metric(len(tracer.missing), "count"),
            "host.slowdown": _metric(statistics.median(b.slowdown for b in plain), "x"),
            "host.forecast_wall_s": _metric(statistics.median(b.forecast_wall_s for b in plain), "s"),
        }
    )
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(corpora.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workload = corpora.WORKLOADS[args.workload]
    key = f"{workload.name}-s{args.seed}"
    run_dir = OUT / key
    corpus_dir = run_dir / "corpus"
    export_dir = run_dir / "export"
    run_dir.mkdir(parents=True, exist_ok=True)

    setup_samples = set_up(workload.name, args.seed, corpus_dir)
    _, actuals_csv = corpora.corpus_paths(corpus_dir)
    actuals = load_sales_csv(actuals_csv, workload.frequency)
    config = PipelineConfig(frequency=workload.frequency, horizon=workload.horizon, seed=args.seed)
    tracer = tracing.Tracer() if args.trace else None

    # closed loop: submit the next batch only while it is expected to finish
    # within --seconds; a traced run needs one untraced and one traced batch
    batches = []
    start = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(batches) % 2 == 1
        if traced:
            tracer.run_id = f"{key}-b{len(batches)}"
            with tracing.instrumented(tracer):
                batches.append(run_batch(workload, config, corpus_dir, export_dir, actuals, tracer))
        else:
            batches.append(run_batch(workload, config, corpus_dir, export_dir, actuals))
        if len(batches) < (2 if args.trace else 1):
            continue
        expected_end = time.perf_counter() - start + statistics.median(b.forecast_wall_s for b in batches)
        if expected_end > args.seconds:
            break
    sources = source_digest()
    check_determinism(batches, f"{key}-{sources[:16]}")

    fingerprint = batches[0].fingerprint
    if args.trace:
        tracer.run_id = key
        for _ in range(SETUP_REPEATS):
            with tracer.span("synth.generate"):
                corpora.generate(workload, args.seed)
        metrics = layer_metrics(
            tracer, [b for b in batches if b.traced], [b for b in batches if not b.traced], fingerprint
        )
        tracer.write_jsonl(run_dir / "trace.jsonl")
    else:
        metrics = end_to_end_metrics(batches, setup_samples, fingerprint)

    failed = sum(1 for b in batches if b.problems)
    result = {
        "correct": failed == 0,
        "attempted": len(batches),
        "failed": failed,
        "metrics": metrics,
    }
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "environment": {**environment(), "source_sha256": sources},
        "setup_samples": [dict(zip(("wall_s", "slowdown", "reference_s"), s)) for s in setup_samples],
        "fingerprint": fingerprint,
        "missing_spans": sorted(tracer.missing) if tracer is not None else [],
        "batches": [
            {
                "forecast_s": b.forecast_s,
                "validate_s": b.validate_s,
                "forecast_wall_s": b.forecast_wall_s,
                "slowdown": b.slowdown,
                "traced": b.traced,
                "problems": b.problems,
            }
            for b in batches
        ],
        "result": result,
    }
    (run_dir / f"result-trace{args.trace}.json").write_text(json.dumps(record, indent=1, sort_keys=True))

    for b in batches:
        for problem in b.problems:
            print(f"check failed: {problem}")
    if record["missing_spans"]:
        print(f"missing spans: {', '.join(record['missing_spans'])}")
    print(
        f"fingerprint: sha256={fingerprint['sha256'][:16]} "
        f"recommended={json.dumps(fingerprint['recommendation_histogram'], sort_keys=True)} "
        f"wilcoxon_p={fingerprint['wilcoxon_p']} median_error_ratio={fingerprint['median_error_ratio']:.6f}"
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
