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
uint64), with no per-bit pass over the words:

* :func:`bits_to_planes` -- a bit-major ``(n, S)`` Boolean draw;
* :func:`planes_to_values` -- planes to int64 words (bits past 63 are
  dropped, as int64 shifts drop them);
* :func:`values_to_planes` -- int64 words to planes.
"""

from __future__ import annotations

import numpy as np


def _transpose8(x: np.ndarray) -> np.ndarray:
    """Transpose the 8x8 bit matrix in each uint64 (bit ``8r + c`` is
    entry ``(r, c)``); Hacker's Delight's ``transpose8``."""
    for shift, mask in ((7, 0x00AA00AA00AA00AA), (14, 0x0000CCCC0000CCCC),
                        (28, 0x00000000F0F0F0F0)):
        s = np.uint64(shift)
        t = (x ^ (x >> s)) & np.uint64(mask)
        x = x ^ t ^ (t << s)
    return x


def bits_to_planes(bits: np.ndarray) -> np.ndarray:
    """Planes of a bit-major ``(n, S)`` Boolean array."""
    return np.packbits(np.ascontiguousarray(bits, dtype=bool), axis=1,
                       bitorder="little")


def planes_to_values(planes: np.ndarray, count: int) -> np.ndarray:
    """The first *count* int64 words held by *planes*.

    Plane 63 lands in the sign bit and higher planes are dropped, the
    wrap-around of ``sum(bit_i << i)`` in int64.
    """
    rows, nbytes = planes.shape
    groups = (min(rows, 64) + 7) // 8
    block = np.zeros((groups * 8, nbytes), dtype=np.uint8)
    block[:min(rows, 64)] = planes[:64]
    # (group, byte, plane-in-group): one uint64 per 8 lanes x 8 planes.
    block = np.ascontiguousarray(
        block.reshape(groups, 8, nbytes).transpose(0, 2, 1))
    lanes = _transpose8(block.view("<u8")).view(np.uint8)
    words = np.zeros((count, 8), dtype=np.uint8)
    words[:, :groups] = lanes.reshape(groups, nbytes * 8)[:, :count].T
    return words.view("<i8").reshape(count).astype(np.int64, copy=False)


def values_to_planes(values: np.ndarray, n: int) -> np.ndarray:
    """The *n* low-bit planes of a flat array of int64 words."""
    count = values.size
    nbytes = (count + 7) // 8
    groups = (min(n, 64) + 7) // 8
    words = np.zeros((nbytes * 8, groups), dtype=np.uint8)
    words[:count] = np.ascontiguousarray(values, dtype="<i8").view(
        np.uint8).reshape(count, 8)[:, :groups]
    # (group, byte, lane-in-byte): the inverse of planes_to_values.
    block = np.ascontiguousarray(
        words.reshape(nbytes, 8, groups).transpose(2, 0, 1))
    planes = _transpose8(block.view("<u8")).view(np.uint8)
    planes = planes.reshape(groups, nbytes, 8).transpose(0, 2, 1)
    out = np.zeros((n, nbytes), dtype=np.uint8)
    out[:min(n, groups * 8)] = planes.reshape(groups * 8, nbytes)[:n]
    return out
