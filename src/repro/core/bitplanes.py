"""Packed bit planes: the lane layout of the bit-sliced functional kernels.

A batch of ``S`` n-bit words is held as an ``(n, ceil(S / 8))`` uint8
array whose row ``i`` packs bit ``i`` of every word, lane ``k`` at bit
``k % 8`` of byte ``k // 8`` (``np.packbits(..., bitorder="little")``,
zero-padded to a whole byte).  One bitwise NumPy operation on a row then
evaluates one gate for eight words per byte, so a ripple or windowed
adder costs a few dozen whole-row operations per bit instead of int64
shift-and-mask passes over every word
(:func:`repro.simulation.functional.ripple_add_planes`,
:func:`repro.core.adder_zoo.windowed_add_planes`).  The kernels are
lane-wise, so they do not depend on the lane order; only these
conversions do.

Words and planes are two views of one bit matrix.  Both conversions are
one 8x8 bit-matrix transpose per byte of words (three delta swaps on
uint64) between two byte shuffles, each a long strided copy per plane
and per byte of the words:

* :func:`planes_to_values` -- planes to int64 words (bits past 63 are
  dropped, as int64 shifts drop them);
* :func:`values_to_planes` -- int64 words to planes.

Random operands are drawn straight into planes by
:func:`bernoulli_planes`: an exact bit-serial comparison of uniform
random words against each bit's probability, 64 lanes per word, with no
float draw per lane.  It is the library's one per-bit operand draw:
every sampler (chain and block Monte-Carlo, multi-operand, ANT, MAC)
makes its operands with it.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

#: Rounds :func:`bernoulli_planes` draws for every word of a live plane
#: before it draws only for words that still hold an undecided lane.
DENSE_ROUNDS = 8

#: A uint64 with every lane set.
_ONES = np.uint64(0xFFFFFFFFFFFFFFFF)


def _transpose8(x: np.ndarray) -> np.ndarray:
    """Transpose the 8x8 bit matrix in each uint64 (bit ``8r + c`` is
    entry ``(r, c)``) in place; Hacker's Delight's ``transpose8``."""
    t = np.empty_like(x)
    for shift, mask in ((7, 0x00AA00AA00AA00AA), (14, 0x0000CCCC0000CCCC),
                        (28, 0x00000000F0F0F0F0)):
        s = np.uint64(shift)
        np.right_shift(x, s, out=t)     # t = (x ^ (x >> s)) & mask
        t ^= x
        t &= np.uint64(mask)
        x ^= t                          # x ^= t ^ (t << s)
        t <<= s
        x ^= t
    return x


def planes_to_values(planes: np.ndarray, count: int) -> np.ndarray:
    """The first *count* int64 words held by *planes*.

    Plane 63 lands in the sign bit and higher planes are dropped, the
    wrap-around of ``sum(bit_i << i)`` in int64.
    """
    rows, nbytes = planes.shape
    rows = min(rows, 64)
    groups = (rows + 7) // 8
    # (group, byte, plane-in-group): one uint64 per 8 lanes x 8 planes.
    # Row by row and group by group, each copy is one long strided run
    # (a 2-D transposing copy iterates far slower).
    block = np.zeros((groups, nbytes, 8), dtype=np.uint8)
    for i in range(rows):
        block[i // 8, :, i % 8] = planes[i]
    lanes = _transpose8(block.view("<u8")).view(np.uint8).reshape(
        groups, nbytes * 8)
    words = np.zeros((count, 8), dtype=np.uint8)
    for group in range(groups):
        words[:, group] = lanes[group, :count]
    return words.view("<i8").reshape(count).astype(np.int64, copy=False)


def values_to_planes(values: np.ndarray, n: int) -> np.ndarray:
    """The *n* low-bit planes of a flat array of int64 words."""
    count = values.size
    nbytes = (count + 7) // 8
    rows = min(n, 64)
    groups = (rows + 7) // 8
    data = np.ascontiguousarray(values, dtype="<i8").view(
        np.uint8).reshape(count, 8)
    # (group, byte, lane-in-byte): the inverse of planes_to_values.
    block = np.zeros((groups, nbytes * 8), dtype=np.uint8)
    for group in range(groups):
        block[group, :count] = data[:, group]
    planes = _transpose8(block.view("<u8")).view(np.uint8).reshape(
        groups, nbytes, 8)
    out = np.zeros((n, nbytes), dtype=np.uint8)
    for i in range(rows):
        out[i] = planes[i // 8, :, i % 8]
    return out


def _random_words(rng: np.random.Generator, shape) -> np.ndarray:
    """Uniform uint64 words: one 64-bit generator output each."""
    return rng.integers(0, _ONES, shape, dtype=np.uint64, endpoint=True)


def bernoulli_planes(
    rng: np.random.Generator, probs: Sequence[float], samples: int
) -> np.ndarray:
    """Planes of independent ``Bernoulli(probs[i])`` bits, drawn exactly.

    Bit ``i`` of each of *samples* words is 1 with probability
    ``probs[i]``, independently across bits and lanes.  Returns the
    ``(len(probs), ceil(samples / 8))`` uint8 planes; padding lanes are
    0.  Each lane compares a uniform ``U = 0.u1 u2 u3 ...``
    against ``p = num / 2^e`` (``float.as_integer_ratio``) one binary
    digit a round, 64 lanes per uint64 word: in round ``k`` a lane whose
    ``u_k`` differs from ``p``'s k-th digit is decided, to 1 iff
    ``u_k = 0`` (so ``U < p``).  A lane still undecided after round
    ``e`` (``p``'s last set digit) is ``U > p`` or ``U = p``: 0.  So
    ``P(bit = 1) = p`` exactly, with no rounding of ``p`` at all.

    The schedule defines the stream.  A plane with ``p`` 0 or 1 is
    constant and draws nothing.  Every other plane is *live* for rounds
    ``1 .. e``.  Rounds ``1 .. DENSE_ROUNDS`` each draw one
    ``(live planes, ceil(samples / 64))`` block of words in row-major
    order (plane, then word; bit ``j`` of word ``w`` is lane
    ``64 w + j``).  Each later round draws one word per (plane, word)
    pair that still holds an undecided lane, in the same order, until
    no lane is undecided.  So ``p = 0.5`` costs one word per 64 lanes
    and a ``p`` with eight or more binary digits about 8.5 (at 200k
    lanes), where a float draw costs 64 doubles.
    """
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    n = len(probs)
    nwords = (samples + 63) // 64
    valid = np.full(nwords, _ONES)
    if samples % 64:
        valid[-1] = np.uint64((1 << (samples % 64)) - 1)
    out = np.zeros((n, nwords), dtype=np.uint64)
    rows, nums, exps = [], [], []
    for i, p in enumerate(probs):
        p = float(p)
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"probability {p!r} is outside [0, 1]")
        if p == 1.0:
            out[i] = valid
        elif p > 0.0:
            num, den = p.as_integer_ratio()
            rows.append(i)
            nums.append(num)
            exps.append(den.bit_length() - 1)
    if rows:
        out[rows] = _compare(rng, np.array(nums, dtype=np.uint64),
                             np.array(exps, dtype=np.int64), valid)
    nbytes = (samples + 7) // 8
    return np.ascontiguousarray(
        out.astype("<u8", copy=False).view(np.uint8)[:, :nbytes])


def _compare(
    rng: np.random.Generator, nums: np.ndarray, exps: np.ndarray,
    valid: np.ndarray
) -> np.ndarray:
    """:func:`bernoulli_planes`' rounds for ``p = nums / 2^exps`` (each
    in (0, 1)): ``(planes, words)`` uint64 lanes."""
    rounds = int(exps.max())
    # digits[k - 1, r]: all ones where p_r's k-th binary digit is 1.
    shift = exps[None, :] - np.arange(1, rounds + 1)[:, None]
    digit = (nums[None, :] >> np.clip(shift, 0, 63).astype(np.uint64)) \
        & np.uint64(1)
    digits = np.where((shift >= 0) & (shift < 64) & (digit == 1),
                      _ONES, np.uint64(0))
    undecided = np.repeat(valid[None, :], nums.size, axis=0)
    ones = np.zeros_like(undecided)
    for k in range(1, min(DENSE_ROUNDS, rounds) + 1):
        live = exps >= k
        if live.all():
            draw = _random_words(rng, undecided.shape)
        else:   # finished planes have no undecided lane left to draw for
            draw = np.zeros_like(undecided)
            draw[live] = _random_words(rng, (int(live.sum()),
                                             undecided.shape[1]))
        digit = digits[k - 1, :, None]
        draw ^= digit                   # u_k != p_k: decided ...
        draw &= undecided
        undecided ^= draw
        draw &= digit                   # ... to 1 where p_k = 1
        ones |= draw
        undecided[exps == k] = 0
    if rounds <= DENSE_ROUNDS:
        return ones
    # Sparse rounds over the (plane, word) entries still undecided.
    index = np.flatnonzero(undecided)
    lanes = undecided.reshape(-1)[index]
    plane = index // undecided.shape[1]
    last = exps[plane]
    flat_ones = ones.reshape(-1)
    k = DENSE_ROUNDS
    while index.size:
        k += 1
        draw = _random_words(rng, index.size)
        digit = digits[k - 1][plane]
        draw ^= digit
        draw &= lanes
        lanes ^= draw
        draw &= digit
        flat_ones[index] |= draw
        # flatnonzero + take: far cheaper than boolean-mask compaction.
        keep = np.flatnonzero((lanes != 0) & (last > k))
        index, lanes, plane, last = (
            index[keep], lanes[keep], plane[keep], last[keep])
    return ones
