"""The packed Bernoulli draw: exact constants, word cost and independence.

``bernoulli_planes`` draws operand bits straight into packed planes.
Its seeded stream is pinned lane by lane in
``tests/simulation/test_bitsliced.py``; these tests check the law: a
constant plane is constant, ``p = 0.5`` costs one word per 64 lanes,
every plane and every pair of planes or lanes has the Bernoulli
frequencies it should, and a zoo-mc answer drawn from it agrees with
the exact DP.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro import engine
from repro.core.adder_zoo import named_zoo
from repro.core.bitplanes import bernoulli_planes
from repro.engine import AnalysisRequest

_SAMPLE_COUNTS = (1, 7, 63, 64, 65, 5000)


def _bits(planes, samples):
    """The Boolean ``(n, samples)`` lanes of *planes*, padding dropped."""
    return np.unpackbits(planes, axis=1, count=samples,
                         bitorder="little").astype(bool)


def _padding(planes, samples):
    """The padding lanes of the last byte of each plane."""
    return np.unpackbits(planes, axis=1, bitorder="little")[:, samples:]


class TestConstantsAndCost:
    @pytest.mark.parametrize("samples", _SAMPLE_COUNTS)
    def test_zero_and_one_planes_are_constant_and_draw_nothing(
            self, samples):
        rng = np.random.default_rng(4)
        planes = bernoulli_planes(rng, [0.0, 1.0, 1.0, 0.0], samples)
        assert planes.shape == (4, (samples + 7) // 8)
        assert planes.dtype == np.uint8
        bits = _bits(planes, samples)
        assert not bits[[0, 3]].any()
        assert bits[[1, 2]].all()
        assert not _padding(planes, samples).any()
        assert rng.bit_generator.state == \
            np.random.default_rng(4).bit_generator.state

    @pytest.mark.parametrize("samples", _SAMPLE_COUNTS)
    def test_half_costs_one_word_per_64_lanes(self, samples):
        rng = np.random.default_rng(5)
        planes = bernoulli_planes(rng, [0.5, 0.5, 0.5], samples)
        words = -(-samples // 64)
        replay = np.random.default_rng(5)
        drawn = replay.bit_generator.random_raw(3 * words)
        assert rng.bit_generator.state == replay.bit_generator.state
        # Round 1 decides every lane: 1 iff its random bit is 0.
        lanes = np.unpackbits(
            (~drawn).astype("<u8").view(np.uint8).reshape(3, words * 8),
            axis=1, bitorder="little")[:, :samples]
        assert _bits(planes, samples).tolist() == lanes.astype(bool).tolist()
        assert not _padding(planes, samples).any()

    @pytest.mark.parametrize("samples", _SAMPLE_COUNTS)
    def test_padding_lanes_are_zero(self, samples):
        planes = bernoulli_planes(np.random.default_rng(6),
                                  [0.3, 0.999, 1 / 3, 0.75], samples)
        assert not _padding(planes, samples).any()

    def test_a_subnormal_probability_terminates(self):
        planes = bernoulli_planes(np.random.default_rng(7),
                                  [5e-324, 0.5], 5000)
        assert not _bits(planes, 5000)[0].any()

    @pytest.mark.parametrize("bad", [-0.1, 1.5, float("nan")])
    def test_rejects_a_probability_outside_the_unit_interval(self, bad):
        with pytest.raises(ValueError):
            bernoulli_planes(np.random.default_rng(0), [0.5, bad], 10)


_PROBS = [0.3, 0.5, 0.999, 1 / 3, 0.02, 0.75, 0.123456789, 0.9]


def _within(observed, expected, count, sigmas=5.0):
    """*observed* is a frequency of a ``Bernoulli(expected)`` over
    *count* independent trials, to within *sigmas* standard errors."""
    sigma = math.sqrt(expected * (1.0 - expected) / count)
    return abs(observed - expected) <= sigmas * sigma


class TestFrequencies:
    """Each plane, each pair of planes and each pair of lanes has the
    product law; a random word reused across planes or lanes breaks the
    joint checks."""

    SAMPLES = 100_000

    @pytest.fixture(params=[0, 1, 2], ids=lambda seed: f"seed{seed}")
    def bits(self, request):
        rng = np.random.default_rng(request.param)
        return _bits(bernoulli_planes(rng, _PROBS, self.SAMPLES),
                     self.SAMPLES)

    def test_each_plane(self, bits):
        for row, p in zip(bits, _PROBS):
            assert _within(row.mean(), p, self.SAMPLES)

    def test_each_pair_of_planes(self, bits):
        for i in range(len(_PROBS)):
            for j in range(i + 1, len(_PROBS)):
                assert _within((bits[i] & bits[j]).mean(),
                               _PROBS[i] * _PROBS[j], self.SAMPLES)

    @pytest.mark.parametrize("offset", [1, 64], ids=["lane", "word"])
    def test_each_pair_of_lanes(self, bits, offset):
        # Disjoint pairs (k, k + offset): neighbours in one word, or the
        # same lane of neighbouring words.
        lanes = bits[:, :self.SAMPLES // (2 * offset) * 2 * offset]
        pairs = lanes.reshape(len(_PROBS), -1, 2, offset)
        both = pairs[:, :, 0, :] & pairs[:, :, 1, :]
        count = both[0].size
        for row, p in zip(both, _PROBS):
            assert _within(row.mean(), p * p, count)


class TestZooMcAgreesWithTheDp:
    """``zoo-mc`` at 200k samples lies within six standard errors (read
    off its own 95% interval) of ``zoo-dp`` on every windowed width-8
    zoo member, at non-dyadic operand probabilities."""

    @pytest.mark.parametrize("kind", ["med", "mred"])
    def test_named_zoo_8(self, kind):
        rng = np.random.default_rng(8)
        for seed, adder in enumerate(named_zoo(8)):
            request = AnalysisRequest.zoo(
                adder.config_string,
                p_a=[float(p) for p in rng.uniform(0.05, 0.95, 8)],
                p_b=[float(p) for p in rng.uniform(0.05, 0.95, 8)],
                kind=kind)
            if request.block is None:
                continue    # chain-shaped: served by distribution-*
            exact = getattr(engine.run(request, engine="zoo-dp"), kind)
            sampled = engine.run(request, engine="zoo-mc",
                                 samples=200_000, seed=seed)
            lo, hi = sampled.interval
            got = getattr(sampled, kind)
            assert abs(got - exact) <= (hi - lo) / 2 * 6.0 / 1.96 + 1e-12, \
                adder.config_string
