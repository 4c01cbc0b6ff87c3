"""Spans around the program's layer boundaries, kept in memory for one run.

The traced run rebinds the public names through which each layer is reached
(module functions and forecaster methods) to thin recording wrappers, and
puts the originals back afterwards; the program's own files are untouched.
A name that no longer exists is reported as missing instead of failing the
run. The hottest kernel, ``css_of``, is recorded as a duration sample and a
call count on the innermost open span rather than as a span of its own.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import time
from array import array
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

# the repo's own lasso optimality test holds KKT conditions to this absolute tolerance
KKT_TOL = 1e-6
TAIL_PERCENTILES = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
MIN_BEYOND_TAIL = 10


@dataclass
class Span:
    name: str
    start: float
    end: float = math.nan
    parent: int = -1  # index into Tracer.spans, -1 for a root
    run_id: str = ""
    attrs: dict = field(default_factory=dict)
    error: str | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Spans and leaf-kernel samples of one benchmark run."""

    def __init__(self):
        self.spans: list[Span] = []
        self.leaf_seconds: dict[str, array] = {}
        self.missing: set[str] = set()
        self.run_id = ""
        self._open: list[int] = []

    def open(self, name: str) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append(Span(name, time.perf_counter(), parent=parent, run_id=self.run_id))
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def close(self, index: int, error: str | None = None) -> Span:
        span = self.spans[index]
        span.end = time.perf_counter()
        span.error = error
        if self._open.pop() != index:
            raise RuntimeError(f"span {span.name!r} closed out of order")
        return span

    @contextmanager
    def span(self, name: str):
        index = self.open(name)
        try:
            yield self.spans[index]
        except BaseException as exc:
            self.close(index, type(exc).__name__)
            raise
        self.close(index)

    def leaf(self, name: str, seconds: float) -> None:
        self.leaf_seconds.setdefault(name, array("d")).append(seconds)
        if self._open:
            counts = self.spans[self._open[-1]].attrs
            counts[name] = counts.get(name, 0) + 1

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for index, s in enumerate(self.spans):
                record = {
                    "id": index,
                    "name": s.name,
                    "start": s.start,
                    "end": s.end,
                    "parent": s.parent,
                    "run_id": s.run_id,
                }
                if s.attrs:
                    record["attrs"] = s.attrs
                if s.error:
                    record["error"] = s.error
                fh.write(json.dumps(record) + "\n")


# ---- arithmetic over recorded spans ----------------------------------------

def self_time(start: float, end: float, children) -> float:
    """Span duration minus the part of [start, end] covered by child intervals.

    Children may overlap each other or stick out of the parent; each instant
    of the parent is subtracted at most once.
    """
    covered = 0.0
    reach = start
    for c_start, c_end in sorted(children):
        c_start, c_end = max(c_start, reach), min(c_end, end)
        if c_end > c_start:
            covered += c_end - c_start
            reach = c_end
    return (end - start) - covered


def tail_percentile(n: int) -> float | None:
    """Highest reported percentile that leaves at least 10 samples beyond it."""
    best = None
    for p in TAIL_PERCENTILES:
        if n - math.ceil(n * p / 100.0) >= MIN_BEYOND_TAIL:
            best = p
    return best


def kkt_violation(design, target, beta, lam: float) -> float:
    """Largest violation of the lasso optimality conditions at ``beta``.

    Objective (1/2n)||y - M b||^2 + lam * sum_{j>0} |b_j|, column 0 the
    unpenalized intercept: its gradient must vanish, an active coefficient's
    gradient must equal -lam * sign(b_j), an inactive one's stay within lam.
    """
    M = np.asarray(design, dtype=float)
    b = np.asarray(beta, dtype=float)
    y = np.asarray(target, dtype=float)
    grad = -(M.T @ (y - M @ b)) / len(y)
    viol = np.where(b != 0.0, np.abs(grad + lam * np.sign(b)), np.maximum(np.abs(grad) - lam, 0.0))
    viol[0] = abs(grad[0])
    return float(viol.max())


# ---- rebinding ---------------------------------------------------------------

def _note_nelder_mead(span, arguments, result):
    span.attrs["nfev"] = int(result[2])
    maxfev = arguments["maxfev"]
    span.attrs["maxfev"] = None if maxfev is None else int(maxfev)


def _note_lasso(span, arguments, result):
    lam = float(arguments["lam"])
    span.attrs["lam"] = lam
    span.attrs["kkt"] = kkt_violation(arguments["design"], arguments["target"], result, lam)


def _note_trees(span, arguments, result):
    span.attrs["rows"] = len(arguments["X"])
    span.attrs["rounds"] = int(arguments["n_rounds"])


def _arima_fit_name(args, kwargs):
    return "arima.refit" if args[0].forced_order is not None else "arima.search"


def _model_span(method):
    return lambda args, kwargs: f"{args[0].model_id.value}.{method}"


# (owner "module" or "module:Class", attribute, span name or name(args, kwargs), note)
TARGETS = (
    ("autocast.pipeline", "fit_arima_pair", "arima.search", None),
    ("autocast.pipeline", "train_pooled_trees", "boosting.train", None),
    ("autocast.pipeline", "train_shared_cnn", "deeplearn.train", None),
    ("autocast.models.boosting", "fit_boosted_trees", "boosting.fit", _note_trees),
    ("autocast.models.arima", "nelder_mead", "optim.nelder_mead", _note_nelder_mead),
    ("autocast.models.smoothing", "nelder_mead", "optim.nelder_mead", _note_nelder_mead),
    ("autocast.models.gam", "select_lambda", "lasso.select", None),
    ("autocast.models.gam", "lasso_coordinate_descent", "lasso.solve", _note_lasso),
    ("autocast.models.lasso", "lasso_coordinate_descent", "lasso.solve", _note_lasso),
    ("autocast.deeplearn.training", "loss_and_grads", "deeplearn.batch", None),
    ("autocast.deeplearn.training:EarlyStopping", "update", "deeplearn.epoch_end", None),
    ("autocast.models.arima:ArimaForecaster", "fit", _arima_fit_name, None),
    ("autocast.models.arima:ArimaForecaster", "forecast", "arima.forecast", None),
    *(
        (owner, method, _model_span(method), None)
        for owner in (
            "autocast.models.naive:NaiveForecaster",
            "autocast.models.smoothing:SesForecaster",
            "autocast.models.smoothing:HwesForecaster",
            "autocast.models.gam:GamForecaster",
            "autocast.models.boosting:BoostedTreeForecaster",
            "autocast.deeplearn.training:CnnForecaster",
        )
        for method in ("fit", "forecast")
    ),
)
LEAF_TARGETS = (("autocast.models.arima", "css_of", "arima.css_eval"),)


def _span_wrapper(tracer: Tracer, fn, name, note):
    signature = inspect.signature(fn) if note is not None else None

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = tracer.open(name if isinstance(name, str) else name(args, kwargs))
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            tracer.close(index, type(exc).__name__)
            raise
        span = tracer.close(index)
        if note is not None:
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            note(span, bound.arguments, result)
        return result

    return wrapper


def _leaf_wrapper(tracer: Tracer, fn, name):
    clock = time.perf_counter

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        t0 = clock()
        result = fn(*args, **kwargs)
        tracer.leaf(name, clock() - t0)
        return result

    return wrapper


def _owner(path: str):
    module_name, _, class_name = path.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    return getattr(owner, class_name, None) if class_name else owner


@contextmanager
def instrumented(tracer: Tracer):
    """Rebind every target to a recording wrapper; restore all on exit."""
    restore = []
    wraps = [(o, a, functools.partial(_span_wrapper, tracer, name=n, note=note)) for o, a, n, note in TARGETS]
    wraps += [(o, a, functools.partial(_leaf_wrapper, tracer, name=n)) for o, a, n in LEAF_TARGETS]
    try:
        for owner_path, attr, wrap in wraps:
            owner = _owner(owner_path)
            if owner is None or not hasattr(owner, attr):
                tracer.missing.add(f"{owner_path}.{attr}")
                continue
            restore.append((owner, attr, owner.__dict__.get(attr)))
            setattr(owner, attr, wrap(getattr(owner, attr)))
        yield tracer
    finally:
        for owner, attr, original in reversed(restore):
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
