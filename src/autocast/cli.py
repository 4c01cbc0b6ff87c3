"""Command line entry points: validate, forecast, evaluate, synth.

Exit codes: 0 success, 1 bad input (files, formats, arguments), 2 internal
error. Argument errors are treated as input errors, so the parser raises
instead of calling sys.exit(2) the way stock argparse does.
"""
from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from .errors import AutocastError, ConfigError, IngestError
from .evaluation import summarize, write_evaluation
from .export import export_bundle, make_output_dir, read_export_dir, write_summary_json, write_validation_csv
from .ingest import load_sales_csv, write_sales_csv
from .pipeline import PipelineConfig, parse_config, run_pipeline, run_validation
from .series import Frequency
from .synth import generate_corpus, load_spec_file


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def _load_config(args) -> PipelineConfig:
    config = parse_config(args.config) if args.config else PipelineConfig()
    if args.seed is not None:
        return replace(config, seed=args.seed)
    return config


def _load_corpus(path, frequency: Frequency):
    corpus = load_sales_csv(path, frequency)
    if not corpus:
        raise IngestError(f"{path}: no sales records")
    return corpus


def _print_report_summary(report):
    counts = {}
    for product in report.products:
        counts[product.validity.value] = counts.get(product.validity.value, 0) + 1
    total = len(report.products)
    parts = ", ".join(f"{count} {name}" for name, count in sorted(counts.items()))
    print(f"validated {total} products ({parts})")
    histogram = {}
    for product in report.products:
        if product.recommended is not None:
            histogram[product.recommended] = histogram.get(product.recommended, 0) + 1
    for model_id, count in sorted(histogram.items(), key=lambda kv: (-kv[1], kv[0])):
        print(f"  recommended {model_id}: {count}")


def cmd_validate(args) -> int:
    config = _load_config(args)
    corpus = _load_corpus(args.input, config.frequency)
    report = run_validation(corpus, config)
    out = make_output_dir(args.out)
    write_validation_csv(report, out / "validation.csv")
    write_summary_json(report, None, config, out / "summary.json")
    _print_report_summary(report)
    print(f"wrote {out / 'validation.csv'} and {out / 'summary.json'}")
    return 0


def cmd_forecast(args) -> int:
    config = _load_config(args)
    corpus = _load_corpus(args.input, config.frequency)
    report, bundle = run_pipeline(corpus, config)
    written = export_bundle(bundle, report, args.out, config)
    _print_report_summary(report)
    print(f"wrote {len(written)} files to {args.out}")
    return 0


def cmd_evaluate(args) -> int:
    report, bundle = read_export_dir(args.forecasts)
    actuals = _load_corpus(args.actuals, bundle.frequency)
    summary = summarize(report, bundle, actuals, alternative=args.alternative)
    written = write_evaluation(summary, args.out)
    print(f"scored {len(summary.scored)} products, {len(summary.missing_actuals)} missing actuals")
    if summary.recommended_quartiles is not None:
        print(f"recommended ratio quartiles: "
              f"{summary.recommended_quartiles[0]:.4f} / "
              f"{summary.recommended_quartiles[1]:.4f} / "
              f"{summary.recommended_quartiles[2]:.4f}")
    if summary.wilcoxon_recommended and summary.wilcoxon_recommended.get("p") is not None:
        print(f"wilcoxon recommended vs naive: p = {summary.wilcoxon_recommended['p']:.6f}")
    print(f"wrote {len(written)} files to {args.out}")
    return 0


def cmd_synth(args) -> int:
    specs = load_spec_file(args.spec)
    frequency = Frequency(args.frequency)
    corpus = generate_corpus(specs, seed=args.seed, frequency=frequency)
    write_sales_csv(args.out, corpus)
    print(f"wrote {len(corpus)} products to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="autocast", description="Automated sales forecasting engine")
    sub = parser.add_subparsers(dest="command", required=True)

    pipeline_args = argparse.ArgumentParser(add_help=False)
    pipeline_args.add_argument("--input", required=True, help="sales CSV (product_id,date,quantity)")
    pipeline_args.add_argument("--config", help="JSON pipeline config")
    pipeline_args.add_argument("--out", required=True, help="output directory")
    pipeline_args.add_argument("--seed", type=int, help="override the config seed")

    validate = sub.add_parser("validate", parents=[pipeline_args], help="score all models on each product's holdout")
    validate.set_defaults(func=cmd_validate)

    forecast = sub.add_parser("forecast", parents=[pipeline_args], help="validate, retrain on full history, export forecasts")
    forecast.set_defaults(func=cmd_forecast)

    evaluate = sub.add_parser("evaluate", help="compare exported forecasts against realized actuals")
    evaluate.add_argument("--forecasts", required=True, help="directory written by `forecast`")
    evaluate.add_argument("--actuals", required=True, help="actuals CSV covering the horizon")
    evaluate.add_argument("--out", required=True, help="output directory")
    evaluate.add_argument(
        "--alternative",
        choices=["two-sided", "greater", "less"],
        default="two-sided",
        help="Wilcoxon alternative hypothesis",
    )
    evaluate.set_defaults(func=cmd_evaluate)

    synth = sub.add_parser("synth", help="generate a synthetic sales corpus")
    synth.add_argument("--spec", required=True, help="JSON list of product archetype specs")
    synth.add_argument("--out", required=True, help="sales CSV to write")
    synth.add_argument("--seed", type=int, default=0, help="corpus seed")
    synth.add_argument(
        "--frequency", choices=["monthly", "weekly"], default="monthly", help="period granularity"
    )
    synth.set_defaults(func=cmd_synth)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except AutocastError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
