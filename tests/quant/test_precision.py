"""Precision sets and sampling."""

import numpy as np
import pytest

from repro.quant import PrecisionSet


class TestParse:
    def test_paper_sets(self):
        assert PrecisionSet.parse("4-16").bits == tuple(range(4, 17))
        assert PrecisionSet.parse("6-16").bits == tuple(range(6, 17))
        assert PrecisionSet.parse("8-16").bits == tuple(range(8, 17))

    def test_explicit_list(self):
        ps = PrecisionSet([16, 4, 8, 4])
        assert ps.bits == (4, 8, 16)  # sorted, deduplicated

    def test_pass_through(self):
        ps = PrecisionSet.parse("6-16")
        assert PrecisionSet.parse(ps) is ps

    def test_bad_spec(self):
        with pytest.raises(ValueError):
            PrecisionSet.parse("banana")

    def test_inverted_range(self):
        with pytest.raises(ValueError):
            PrecisionSet.parse("16-6")

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            PrecisionSet([])

    def test_bounds_validated(self):
        with pytest.raises(ValueError):
            PrecisionSet([0, 4])
        with pytest.raises(ValueError):
            PrecisionSet([33])

    def test_repr_round_trips_contiguous(self):
        assert repr(PrecisionSet.parse("6-16")) == "PrecisionSet('6-16')"


class TestSampling:
    def test_sample_in_set(self, rng):
        ps = PrecisionSet.parse("6-16")
        for _ in range(50):
            assert ps.sample(rng) in ps

    def test_sample_pair_shape(self, rng):
        ps = PrecisionSet.parse("4-16")
        q1, q2 = ps.sample_pair(rng)
        assert q1 in ps and q2 in ps

    def test_sampling_covers_set(self, rng):
        ps = PrecisionSet.parse("6-16")
        seen = {ps.sample(rng) for _ in range(500)}
        assert seen == set(ps.bits)

    def test_deterministic_given_seed(self):
        ps = PrecisionSet.parse("4-16")
        a = [ps.sample(np.random.default_rng(5)) for _ in range(5)]
        b = [ps.sample(np.random.default_rng(5)) for _ in range(5)]
        assert a == b


class TestProperties:
    def test_diversity(self):
        assert PrecisionSet.parse("4-16").diversity() == 13
        assert PrecisionSet.parse("8-16").diversity() == 9

    def test_min_max(self):
        ps = PrecisionSet.parse("6-16")
        assert ps.min_bits == 6
        assert ps.max_bits == 16

    def test_equality_and_hash(self):
        assert PrecisionSet([4, 5]) == PrecisionSet.parse("4-5")
        assert hash(PrecisionSet([4, 5])) == hash(PrecisionSet.parse("4-5"))

    def test_len_and_contains(self):
        ps = PrecisionSet.parse("4-6")
        assert len(ps) == 3
        assert 5 in ps
        assert 7 not in ps
