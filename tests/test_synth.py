import json

import numpy as np
import pytest

from autocast.errors import SynthSpecError
from autocast.series import Frequency
from autocast.synth import (
    Archetype,
    ArchetypeSpec,
    Xorshift64Star,
    generate_corpus,
    generate_product,
    load_spec_file,
)


def spec(kind=Archetype.SEASONALITY, seed=1234, **overrides):
    overrides.setdefault("product_id", "S1")
    return ArchetypeSpec.from_kind(overrides.pop("product_id"), kind, seed=seed, **overrides)


class TestXorshift64Star:
    def test_known_sequence_from_seed_1(self):
        # First two outputs from state 1, worked by hand from the recurrence
        # x^=x>>12; x^=x<<25; x^=x>>27; out = x * 0x2545F4914F6CDD1D mod 2^64.
        # Step 1: state 1 -> 0x2000001, output 0x2000001 * M.
        rng = Xorshift64Star(1)
        assert rng.next_u64() == 0x47E4CE4B896CDD1D
        assert rng.next_u64() == 0xABCFA6A8E079651D

    def test_uniform_range(self):
        rng = Xorshift64Star(99)
        draws = [rng.uniform() for _ in range(2000)]
        assert all(0.0 <= u < 1.0 for u in draws)
        assert 0.4 < sum(draws) / len(draws) < 0.6

    def test_normal_moments(self):
        rng = Xorshift64Star(7)
        draws = np.array([rng.normal() for _ in range(20000)])
        assert abs(draws.mean()) < 0.03
        assert abs(draws.std() - 1.0) < 0.03

    def test_zero_seed_is_usable(self):
        rng = Xorshift64Star(0)
        assert rng.next_u64() != 0


class TestGenerateProduct:
    def test_mean_rescaled_to_1000(self):
        s = generate_product(spec(noise=0.05))
        assert s.values.mean() == pytest.approx(1000.0, rel=1e-9)

    def test_noiseless_is_exactly_periodic(self):
        s = generate_product(spec(noise=0.0, trend=0.0, amplitude=200.0, length=48))
        year = Frequency.MONTHLY.periods_per_year
        assert np.allclose(s.values[:-year], s.values[year:], rtol=0, atol=1e-9)
        assert s.values.mean() == pytest.approx(1000.0, rel=1e-9)

    def test_determinism(self):
        a = generate_product(spec(seed=42))
        b = generate_product(spec(seed=42))
        assert np.array_equal(a.values, b.values)

    def test_different_seeds_differ(self):
        a = generate_product(spec(seed=1))
        b = generate_product(spec(seed=2))
        assert not np.array_equal(a.values, b.values)

    def test_trend_lifts_last_year_over_first(self):
        s = generate_product(spec(Archetype.SEASONALITY_TREND, trend=0.5, noise=0.0, length=48))
        year = Frequency.MONTHLY.periods_per_year
        assert s.values[-year:].mean() > s.values[:year].mean()

    def test_no_negative_or_non_finite(self):
        s = generate_product(spec(Archetype.HIGH_VARIANCE, noise=2.0, seed=5))
        assert np.all(np.isfinite(s.values))
        assert np.all(s.values >= 0.0)

    def test_high_variance_floor_enforced(self):
        with pytest.raises(SynthSpecError):
            spec(Archetype.HIGH_VARIANCE, noise=0.1)

    def test_short_history_must_be_short(self):
        s = ArchetypeSpec.from_kind("S", Archetype.SHORT_HISTORY, length=30, seed=1)
        with pytest.raises(SynthSpecError):
            generate_product(s, Frequency.MONTHLY)

    def test_length_floor(self):
        with pytest.raises(SynthSpecError):
            spec(length=5)


class TestGenerateCorpus:
    def _specs(self, n=10):
        kinds = [
            Archetype.SEASONALITY,
            Archetype.SEASONALITY_TREND,
            Archetype.HIGH_VARIANCE,
            Archetype.SHORT_HISTORY,
        ]
        return [
            ArchetypeSpec.from_kind(f"P{i:03d}", kinds[i % len(kinds)]) for i in range(n)
        ]

    def test_counts_and_reproducibility(self):
        specs = self._specs(50)
        a = generate_corpus(specs, seed=7)
        b = generate_corpus(specs, seed=7)
        assert len(a) == 50
        for x, y in zip(a, b):
            assert np.array_equal(x.values, y.values)

    def test_removing_one_leaves_others_unchanged(self):
        specs = self._specs(10)
        full = {s.product_id: s for s in generate_corpus(specs, seed=3)}
        reduced = generate_corpus(specs[:4] + specs[5:], seed=3)
        for s in reduced:
            assert np.array_equal(s.values, full[s.product_id].values)

    def test_duplicate_id_rejected(self):
        specs = self._specs(3)
        with pytest.raises(SynthSpecError, match="duplicate"):
            generate_corpus(specs + [specs[0]], seed=1)

    def test_different_corpus_seeds_differ(self):
        specs = self._specs(4)
        a = generate_corpus(specs, seed=1)
        b = generate_corpus(specs, seed=2)
        assert any(not np.array_equal(x.values, y.values) for x, y in zip(a, b))


class TestSpecFile:
    def test_load_round_trip(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(
            json.dumps(
                [
                    {"product_id": "A", "kind": "seasonality"},
                    {"product_id": "B", "kind": "short_history", "length": 14},
                ]
            )
        )
        specs = load_spec_file(path)
        assert [s.product_id for s in specs] == ["A", "B"]
        assert specs[1].length == 14

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps([{"product_id": "A", "kind": "seasonality", "wat": 1}]))
        with pytest.raises(SynthSpecError, match="unknown keys"):
            load_spec_file(path)

    @pytest.mark.parametrize(
        "key, value",
        [
            ("length", "48"),
            ("length", 48.5),
            ("length", True),
            ("product_id", 5),
            ("kind", 5),
            ("base_level", "x"),
            ("noise", float("nan")),
            ("amplitude", float("inf")),
            ("seed", 1.5),
        ],
    )
    def test_value_of_the_wrong_json_type_rejected(self, tmp_path, key, value):
        path = tmp_path / "spec.json"
        specs = [{"product_id": "A", "kind": "seasonality"}, {"product_id": "B", "kind": "seasonality", key: value}]
        path.write_text(json.dumps(specs))
        with pytest.raises(SynthSpecError, match=f"spec 1: {key}: expected"):
            load_spec_file(path)

    def test_unknown_kind_rejected(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps([{"product_id": "A", "kind": "mystery"}]))
        with pytest.raises(SynthSpecError, match="kind"):
            load_spec_file(path)
