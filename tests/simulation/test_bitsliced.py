"""The bit-sliced functional kernels and the samplers that feed them.

``ripple_add_planes`` and ``windowed_add_planes`` must equal the scalar
models lane by lane, at lane counts that exercise ``packbits`` padding.
Frozen copies of the integer models they replaced, fed by a lane-by-lane
reference of the packed Bernoulli draw that every sampler makes, pin
every seeded ``distribution-mc``, ``montecarlo`` and ``zoo-mc`` answer
bit for bit.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.adder_zoo import (
    WindowedAdderSpec,
    named_zoo,
    windowed_add,
    windowed_add_array,
    windowed_add_planes,
)
from repro.core.bitplanes import planes_to_values, values_to_planes
from repro.core.exceptions import ChainLengthError
from repro.core.recursive import resolve_chain
from repro.engine import AnalysisRequest, run
from repro.engine.distribution import _sampled_result
from repro.simulation import (
    ripple_add,
    ripple_add_array,
    simulate_error_probability,
    simulate_samples,
)
from repro.simulation.functional import ripple_add_planes

_CELLS = ["accurate"] + [f"LPAA {i}" for i in range(1, 8)]
_COUNTS = (1, 7, 9, 64, 4099)


def _windowed_specs(widths=range(1, 13)):
    specs = []
    for n in widths:
        for adder in named_zoo(n):
            built = adder.build()
            if isinstance(built, WindowedAdderSpec):
                specs.append(built)
    return specs


_SPECS = _windowed_specs()


def _operand_bits(rng, n, count, p):
    """A bit-major ``(n, count)`` draw; *p* of ``None`` is random."""
    if p is None:
        return rng.random((n, count)) < rng.random((n, 1))
    return np.full((n, count), bool(p))


def _lanes(bits):
    """Each lane's integer, bit 0 first (exact Python ints)."""
    return [sum(int(bits[i, k]) << i for i in range(bits.shape[0]))
            for k in range(bits.shape[1])]


_probability = st.sampled_from([None, 0.0, 1.0])


class TestRipplePlanes:
    @settings(max_examples=40, deadline=None)
    @given(cells=st.one_of(
               st.tuples(st.sampled_from(_CELLS),
                         st.integers(1, 16)).map(lambda t: [t[0]] * t[1]),
               st.lists(st.sampled_from(_CELLS), min_size=1, max_size=16)),
           count=st.sampled_from(_COUNTS), seed=st.integers(0, 2 ** 32 - 1),
           p_a=_probability, p_b=_probability, p_cin=_probability)
    def test_equals_scalar_ripple_add(self, cells, count, seed, p_a, p_b,
                                      p_cin):
        rng = np.random.default_rng(seed)
        n = len(cells)
        a_bits = _operand_bits(rng, n, count, p_a)
        b_bits = _operand_bits(rng, n, count, p_b)
        c_bits = _operand_bits(rng, 1, count, p_cin)
        planes = ripple_add_planes(
            cells, np.packbits(a_bits, axis=1, bitorder="little"),
            np.packbits(b_bits, axis=1, bitorder="little"),
            np.packbits(c_bits, axis=1, bitorder="little")[0])
        got = planes_to_values(planes, count).tolist()
        chain = resolve_chain(cells, None)
        for k, (a, b, c) in enumerate(zip(_lanes(a_bits), _lanes(b_bits),
                                          _lanes(c_bits))):
            assert got[k] == ripple_add(chain, a, b, c)

    def test_zero_carry_in_is_the_default(self, rng):
        a = rng.integers(0, 1 << 9, 77)
        b = rng.integers(0, 1 << 9, 77)
        planes = ripple_add_planes("LPAA 5", values_to_planes(a, 9),
                                   values_to_planes(b, 9), width=9)
        assert planes_to_values(planes, 77).tolist() == \
            ripple_add_array("LPAA 5", a, b, 0, 9).tolist()


class TestWindowedPlanes:
    @settings(max_examples=60, deadline=None)
    @given(spec=st.sampled_from(_SPECS), count=st.sampled_from(_COUNTS),
           seed=st.integers(0, 2 ** 32 - 1), p_a=_probability,
           p_b=_probability)
    def test_equals_scalar_windowed_add(self, spec, count, seed, p_a, p_b):
        rng = np.random.default_rng(seed)
        a_bits = _operand_bits(rng, spec.width, count, p_a)
        b_bits = _operand_bits(rng, spec.width, count, p_b)
        planes = windowed_add_planes(
            spec, np.packbits(a_bits, axis=1, bitorder="little"),
            np.packbits(b_bits, axis=1, bitorder="little"))
        got = planes_to_values(planes, count).tolist()
        for k, (a, b) in enumerate(zip(_lanes(a_bits), _lanes(b_bits))):
            assert got[k] == windowed_add(spec, a, b)

    def test_every_named_spec_at_width_12_and_below(self, rng):
        for spec in _SPECS:
            a = rng.integers(0, 1 << spec.width, 9)
            b = rng.integers(0, 1 << spec.width, 9)
            got = windowed_add_array(spec, a, b).tolist()
            assert got == [windowed_add(spec, int(x), int(y))
                           for x, y in zip(a, b)]


class TestPlaneConversions:
    @pytest.mark.parametrize("n", [1, 7, 8, 9, 17, 62, 63, 64])
    @pytest.mark.parametrize("count", _COUNTS)
    def test_values_round_trip(self, rng, n, count):
        values = rng.integers(0, 1 << min(n, 62), count, dtype=np.int64)
        if n >= 63:     # the sign bit is plane 63
            values |= rng.integers(0, 2, count, dtype=np.int64) << (n - 1)
        planes = values_to_planes(values, n)
        assert planes.shape == (n, (count + 7) // 8)
        assert planes_to_values(planes, count).tolist() == values.tolist()

    def test_planes_hold_one_bit_per_lane(self):
        planes = values_to_planes(np.array([5, 0, 3], dtype=np.int64), 3)
        bits = np.unpackbits(planes, axis=1, count=3, bitorder="little")
        assert bits.tolist() == [[1, 0, 1], [0, 0, 1], [1, 0, 0]]


# -- frozen copies of the replaced integer models, and the draw ------------


def _frozen_ripple_add_array(cells, a, b, cin):
    """The per-cell lookup-table loop over int64 words."""
    cells = resolve_chain(cells, None)
    n = len(cells)
    carry = np.broadcast_to(np.asarray(cin, dtype=np.int64), a.shape).copy()
    result = np.zeros_like(a)
    for i, table in enumerate(cells):
        lut = np.asarray(table.rows, dtype=np.uint8)
        idx = (((a >> i) & 1) << 2) | (((b >> i) & 1) << 1) | carry
        result |= lut[idx, 0].astype(np.int64) << i
        carry = lut[idx, 1].astype(np.int64)
    return result | (carry << n)


def _frozen_windowed_add_array(spec, a, b):
    n = spec.width
    result = np.zeros(np.broadcast(a, b).shape, dtype=np.int64)
    for i, low in enumerate(spec.lows):
        window_mask = (1 << (i - low + 1)) - 1
        window_sum = ((a >> low) & window_mask) + ((b >> low) & window_mask)
        result |= ((window_sum >> (i - low)) & 1) << i
    carry_mask = (1 << (n - spec.carry_low)) - 1
    carry_sum = ((a >> spec.carry_low) & carry_mask) \
        + ((b >> spec.carry_low) & carry_mask)
    return result | (((carry_sum >> (n - spec.carry_low)) & 1) << n)


def _reference_operands(probs, samples, rng):
    """The samplers' draw, lane by lane: a bit-major ``(len(probs),
    samples)`` Boolean array from the schedule of
    ``bernoulli_planes``, decided per lane as ``U < p`` one binary digit
    of ``U`` a round."""
    n, words = len(probs), -(-samples // 64)
    digits, last = [], []
    for p in probs:
        num, den = float(p).as_integer_ratio()
        e = den.bit_length() - 1
        digits.append([(num >> (e - k)) & 1 for k in range(1, e + 1)])
        last.append(e if 0.0 < p < 1.0 else 0)
    last = np.array(last)
    value = np.zeros((n, words * 64), dtype=bool)
    value[[p == 1.0 for p in probs], :samples] = True
    undecided = np.zeros((n, words * 64), dtype=bool)
    undecided[last > 0, :samples] = True
    # Per-word views of the same lanes: lane 64 w + j is [:, w, j].
    word_value = value.reshape(n, words, 64)
    word_undecided = undecided.reshape(n, words, 64)
    shifts = np.arange(64, dtype=np.uint64)
    k = 0
    while undecided.any() or (k < 8 and (last > k).any()):
        k += 1
        # (plane, word) pairs drawn this round, plane-major.
        live = (last >= k)[:, None] & (word_undecided.any(axis=2) | (k <= 8))
        plane, word = np.nonzero(live)
        drawn = rng.integers(0, 2 ** 64 - 1, plane.size, dtype=np.uint64,
                             endpoint=True)
        u = ((drawn[:, None] >> shifts) & np.uint64(1)).astype(bool)
        digit = np.array([bool(digits[i][k - 1]) for i in plane],
                         dtype=bool)[:, None]
        decided = word_undecided[plane, word] & (u != digit)
        word_value[plane, word] |= decided & digit
        word_undecided[plane, word] &= ~decided
        undecided[last == k] = False
    return value[:, :samples]


def _lane_values(bits):
    """The int64 word of each lane of a bit-major Boolean array."""
    weights = np.left_shift(np.int64(1),
                            np.arange(bits.shape[0], dtype=np.int64))
    return weights @ bits


def _reference_batches(cells, pa, pb, pc, samples, seed, batch_size):
    """Yield ``(approx, exact)`` per batch as the chain samplers do: one
    draw over ``pa + pb + [pc]`` per batch."""
    rng = np.random.default_rng(seed)
    n = len(pa)
    remaining = samples
    while remaining > 0:
        chunk = min(remaining, batch_size)
        bits = _reference_operands([*pa, *pb, pc], chunk, rng)
        a = _lane_values(bits[:n])
        b = _lane_values(bits[n:2 * n])
        cin = bits[2 * n].astype(np.int64)
        yield _frozen_ripple_add_array(cells, a, b, cin), a + b + cin
        remaining -= chunk


def _profile(rng, n):
    edges = np.array([0.0, 1.0, 0.5])
    p = rng.uniform(0.02, 0.98, n)
    pick = rng.random(n) < 0.2
    p[pick] = rng.choice(edges, size=int(pick.sum()))
    return [float(x) for x in p]


def _zoo_requests(rng):
    requests = []
    for n in (8, 12, 16):
        for adder in named_zoo(n):
            for kind in ("mred", "error_distribution"):
                requests.append(AnalysisRequest.zoo(
                    adder.config_string, p_a=_profile(rng, n),
                    p_b=_profile(rng, n), kind=kind))
    return requests


def _hybrid_cells(rng, n):
    lsb, msb = rng.choice(_CELLS[1:], size=2)
    cut = int(rng.integers(1, n))
    return [str(lsb)] * cut + [str(msb)] * (n - cut)


class TestSeededSamplersAreFrozen:
    SAMPLES = 5000

    def test_zoo_mc_and_chain_shaped_zoo(self, rng):
        for seed, request in enumerate(_zoo_requests(rng)):
            if request.block is None:   # chain-shaped: distribution-mc
                approx, exact = (np.concatenate(part) for part in zip(
                    *_reference_batches(request.cells, request.p_a,
                                        request.p_b, request.p_cin,
                                        self.SAMPLES, seed, 1 << 20)))
                expected = _sampled_result(request, "distribution-mc",
                                           approx, exact)
                engine = "distribution-mc"
            else:
                bits = _reference_operands(
                    request.p_a + request.p_b, self.SAMPLES,
                    np.random.default_rng(seed))
                a = _lane_values(bits[:request.width])
                b = _lane_values(bits[request.width:])
                expected = _sampled_result(
                    request, "zoo-mc",
                    _frozen_windowed_add_array(request.block, a, b), a + b)
                engine = "zoo-mc"
            got = run(request=request, engine=engine,
                      samples=self.SAMPLES, seed=seed)
            assert got == expected

    @pytest.mark.parametrize("batch_size", [1000, 1 << 20])
    def test_distribution_mc_and_simulate_samples(self, rng, batch_size):
        for n in (4, 9, 16):
            for i in range(1, 8):
                cells = _hybrid_cells(rng, n)
                pa, pb = _profile(rng, n), _profile(rng, n)
                pc = float(rng.choice([0.0, 1.0, 0.3]))
                approx, exact = (np.concatenate(part) for part in zip(
                    *_reference_batches(cells, pa, pb, pc, 3001, i,
                                        batch_size)))
                got = simulate_samples(cells, None, pa, pb, pc,
                                       samples=3001, seed=i,
                                       batch_size=batch_size)
                assert got[0].tolist() == approx.tolist()
                assert got[1].tolist() == exact.tolist()
                if batch_size != 1 << 20:
                    continue    # distribution-mc runs one batch
                request = AnalysisRequest.distribution(
                    cells, None, pa, pb, pc, kind="mred")
                assert run(request=request, engine="distribution-mc",
                           samples=3001, seed=i) == _sampled_result(
                    request, "distribution-mc", approx, exact)

    @pytest.mark.parametrize("batch_size", [777, 1 << 20])
    def test_montecarlo_error_counts(self, rng, batch_size):
        for n in (1, 8, 16, 40, 63):
            cells = _hybrid_cells(rng, n) if n > 1 else ["LPAA 6"]
            pa, pb = _profile(rng, n), _profile(rng, n)
            errors = sum(
                int((approx != exact).sum()) for approx, exact in
                _reference_batches(cells, pa, pb, 0.4, self.SAMPLES, n,
                                   batch_size))
            got = simulate_error_probability(
                cells, None, pa, pb, 0.4, samples=self.SAMPLES, seed=n,
                batch_size=batch_size)
            assert got.errors == errors
            assert got.p_error == errors / self.SAMPLES


class TestWideSamples:
    def test_sums_past_int64_words_raise(self):
        # At width 63 the int64 sums wrapped (an MRED of ~2e17); at 64
        # an operand's bit 63 read as a negative word.
        for width in (63, 64):
            with pytest.raises(ChainLengthError):
                simulate_samples("LPAA 1", width, samples=10, seed=0)
        approx, exact = simulate_samples("LPAA 1", 62, samples=10, seed=0)
        assert (exact >= 0).all() and (approx >= 0).all()

    def test_error_counts_compare_every_plane(self):
        # Planes, not words: LPAA 6 drops the carry of 1 + 1 + 0 with a
        # correct sum bit, so only plane 64 (2^64, past any int64 word)
        # tells 0 from the exact 2^64.
        result = simulate_error_probability(
            ["accurate"] * 63 + ["LPAA 6"], None, [0.0] * 63 + [1.0],
            [0.0] * 63 + [1.0], 0.0, samples=50, seed=0)
        assert result.errors == 50
