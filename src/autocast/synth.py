"""Deterministic synthetic sales corpora covering four product archetypes:
plain seasonality, seasonality with trend, high variance, and short history.

Series are generated from a self-contained 64-bit PRNG (documented below)
rather than a library generator, so the same spec and seed reproduce the
same corpus on any platform or language.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from enum import Enum
from pathlib import Path

import numpy as np

from .errors import SynthSpecError
from .series import Frequency, Period, SalesSeries

_MASK64 = (1 << 64) - 1
_SPLITMIX_GAMMA = 0x9E3779B97F4A7C15
_XORSHIFT_MULT = 0x2545F4914F6CDD1D
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3

TARGET_MEAN = 1000.0


def _splitmix64(state: int) -> int:
    """One splitmix64 output for the given state (used for seed derivation).

    z = (state + 0x9E3779B97F4A7C15) mod 2^64
    z = (z XOR (z >> 30)) * 0xBF58476D1CE4E5B9 mod 2^64
    z = (z XOR (z >> 27)) * 0x94D049BB133111EB mod 2^64
    return z XOR (z >> 31)
    """
    z = (state + _SPLITMIX_GAMMA) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _fnv1a64(text: str) -> int:
    """FNV-1a hash of a UTF-8 string, used for product-id seed derivation."""
    h = _FNV_OFFSET
    for byte in text.encode("utf-8"):
        h = ((h ^ byte) * _FNV_PRIME) & _MASK64
    return h


class Xorshift64Star:
    """xorshift64* generator.

    State recurrence (64-bit wrapping arithmetic):
        x ^= x >> 12;  x ^= x << 25;  x ^= x >> 27
    Output: (x * 0x2545F4914F6CDD1D) mod 2^64.
    Uniform doubles take the top 53 output bits; normals use Box-Muller.
    A zero seed (invalid state) is remapped through splitmix64.
    """

    def __init__(self, seed: int):
        state = int(seed) & _MASK64
        if state == 0:
            state = _splitmix64(0)
        self._state = state
        self._spare_normal: float | None = None

    def next_u64(self) -> int:
        x = self._state
        x ^= x >> 12
        x = (x ^ (x << 25)) & _MASK64
        x ^= x >> 27
        self._state = x
        return (x * _XORSHIFT_MULT) & _MASK64

    def uniform(self) -> float:
        """Uniform double in [0, 1)."""
        return (self.next_u64() >> 11) * 2.0**-53

    def normal(self) -> float:
        """Standard normal via Box-Muller."""
        if self._spare_normal is not None:
            value, self._spare_normal = self._spare_normal, None
            return value
        u1 = self.uniform()
        while u1 <= 0.0:
            u1 = self.uniform()
        u2 = self.uniform()
        radius = math.sqrt(-2.0 * math.log(u1))
        self._spare_normal = radius * math.sin(2.0 * math.pi * u2)
        return radius * math.cos(2.0 * math.pi * u2)


class Archetype(str, Enum):
    SEASONALITY = "seasonality"
    SEASONALITY_TREND = "seasonality_trend"
    HIGH_VARIANCE = "high_variance"
    SHORT_HISTORY = "short_history"


_ARCHETYPE_DEFAULTS = {
    Archetype.SEASONALITY: dict(length=72, base_level=1000.0, amplitude=300.0, trend=0.0, noise=0.05),
    Archetype.SEASONALITY_TREND: dict(length=72, base_level=1000.0, amplitude=300.0, trend=0.5, noise=0.05),
    Archetype.HIGH_VARIANCE: dict(length=72, base_level=1000.0, amplitude=150.0, trend=0.0, noise=0.6),
    Archetype.SHORT_HISTORY: dict(length=18, base_level=1000.0, amplitude=300.0, trend=0.0, noise=0.05),
}

# each spec key and what a spec file must hold there: the accepted JSON types,
# and their name for the message. A bool is an int to Python, so it is refused apart.
_SPEC_TYPES = {
    "product_id": (str, "a string"),
    "kind": (str, "a string"),
    "length": (int, "an integer"),
    "seed": ((int, type(None)), "an integer or null"),
    **{key: ((int, float), "a finite number") for key in ("base_level", "amplitude", "trend", "noise")},
}


@dataclass(frozen=True)
class ArchetypeSpec:
    """Parameters of one synthetic product.

    noise is the standard deviation of the Gaussian term as a fraction of
    the base level. seed overrides the corpus-derived per-product seed.
    """

    product_id: str
    kind: Archetype
    length: int
    base_level: float
    amplitude: float
    trend: float
    noise: float
    seed: int | None = None

    def __post_init__(self):
        if not self.product_id:
            raise SynthSpecError("product_id must be non-empty")
        if self.length < 6:
            raise SynthSpecError(f"{self.product_id}: length must be >= 6, got {self.length}")
        if self.amplitude < 0 or self.noise < 0:
            raise SynthSpecError(f"{self.product_id}: amplitude and noise must be >= 0")
        if self.base_level <= 0:
            raise SynthSpecError(f"{self.product_id}: base_level must be > 0")
        if self.kind is Archetype.HIGH_VARIANCE and self.noise < 0.5:
            raise SynthSpecError(
                f"{self.product_id}: high_variance requires noise >= 0.5, got {self.noise}"
            )

    @classmethod
    def from_kind(cls, product_id: str, kind: Archetype | str, **overrides) -> "ArchetypeSpec":
        """Build a spec from archetype defaults plus explicit overrides."""
        kind = Archetype(kind)
        params = dict(_ARCHETYPE_DEFAULTS[kind])
        unknown = set(overrides) - (_SPEC_TYPES.keys() - {"product_id", "kind"})
        if unknown:
            raise SynthSpecError(f"{product_id}: unknown spec keys {sorted(unknown)}")
        params.update(overrides)
        return cls(product_id=product_id, kind=kind, **params)


def _short_history_limit(frequency: Frequency) -> int:
    return 2 * frequency.periods_per_year


def generate_product(
    spec: ArchetypeSpec,
    frequency: Frequency = Frequency.MONTHLY,
    start: Period | None = None,
) -> SalesSeries:
    """Generate one product's series and rescale it to mean ``TARGET_MEAN``.

    The raw signal is ``max(0, level*(1 + trend*t/length)
    + amplitude*cos(2*pi*(t - phase)/year) + noise*level*g_t)`` with a
    random phase and g_t standard normal, all drawn from the spec's seed.
    """
    if spec.seed is None:
        raise SynthSpecError(f"{spec.product_id}: seed required (set it or use generate_corpus)")
    if spec.kind is Archetype.SHORT_HISTORY and spec.length >= _short_history_limit(frequency):
        raise SynthSpecError(
            f"{spec.product_id}: short_history length must be < {_short_history_limit(frequency)}"
        )
    if start is None:
        start = Period.parse(frequency, "2014-01" if frequency is Frequency.MONTHLY else "2014-W01")
    year = frequency.periods_per_year
    rng = Xorshift64Star(spec.seed)
    phase = rng.uniform() * year
    t = np.arange(spec.length)
    signal = spec.base_level * (1.0 + spec.trend * t / spec.length)
    signal = signal + spec.amplitude * np.cos(2.0 * np.pi * (t - phase) / year)
    if spec.noise > 0:
        signal = signal + spec.noise * spec.base_level * np.array(
            [rng.normal() for _ in range(spec.length)]
        )
    values = np.maximum(signal, 0.0)
    mean = float(values.mean())
    if mean <= 0.0:
        raise SynthSpecError(f"{spec.product_id}: generated series is all zero, cannot rescale")
    values = values * (TARGET_MEAN / mean)
    return SalesSeries(spec.product_id, frequency, start, values)


def derive_product_seed(corpus_seed: int, product_id: str) -> int:
    """Per-product seed: splitmix64 over the corpus seed mixed with the id hash.

    Keyed by product id rather than list position, so dropping one spec from
    a corpus leaves every other product's series unchanged.
    """
    return _splitmix64((int(corpus_seed) & _MASK64) ^ _fnv1a64(product_id))


def generate_corpus(
    specs: list[ArchetypeSpec],
    seed: int,
    frequency: Frequency = Frequency.MONTHLY,
) -> list[SalesSeries]:
    """Generate all products of a corpus, reproducibly per (seed, product id)."""
    seen = set()
    for spec in specs:
        if spec.product_id in seen:
            raise SynthSpecError(f"duplicate product_id {spec.product_id!r}")
        seen.add(spec.product_id)
    corpus = []
    for spec in specs:
        if spec.seed is None:
            spec = replace(spec, seed=derive_product_seed(seed, spec.product_id))
        corpus.append(generate_product(spec, frequency))
    return corpus


def load_spec_file(path) -> list[ArchetypeSpec]:
    """Load a JSON array of archetype specs."""
    path = Path(path)
    if not path.exists():
        raise SynthSpecError(f"spec file not found: {path}")
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise SynthSpecError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(raw, list):
        raise SynthSpecError(f"{path}: expected a JSON array of specs")
    specs = []
    for i, entry in enumerate(raw):
        if not isinstance(entry, dict):
            raise SynthSpecError(f"{path}: spec {i} is not an object")
        unknown = set(entry) - _SPEC_TYPES.keys()
        if unknown:
            raise SynthSpecError(f"{path}: spec {i} has unknown keys {sorted(unknown)}")
        for key, value in entry.items():
            types, expected = _SPEC_TYPES[key]
            finite = not isinstance(value, float) or math.isfinite(value)
            if not isinstance(value, types) or isinstance(value, bool) or not finite:
                raise SynthSpecError(f"{path}: spec {i}: {key}: expected {expected}, got {value!r}")
        try:
            product_id = entry["product_id"]
            kind = entry["kind"]
        except KeyError as exc:
            raise SynthSpecError(f"{path}: spec {i} missing key {exc}") from exc
        try:
            kind = Archetype(kind)
        except ValueError:
            raise SynthSpecError(f"{path}: spec {i} has unknown kind {kind!r}")
        overrides = {k: v for k, v in entry.items() if k not in ("product_id", "kind")}
        specs.append(ArchetypeSpec.from_kind(product_id, kind, **overrides))
    return specs
