"""The adder-family zoo: published approximate adders as *configs*.

The paper analyses ripple chains of approximate full-adder cells; the
designs people actually benchmark against -- ACA-1/ACA-2, ETA-II, GDA,
GeAr, the lower-part-OR adder and truncated parallel-prefix (AxPPA
style) variants -- approximate the *carry network* instead of the cell.
This module makes every one of them a **config string**
(``"loa:16:8"``, ``"aca1:16:4"``, ``"axppa-ks:16:2"``) rather than a
code change:

* :class:`WindowedAdderSpec` -- one declarative description covering
  every block/segmented/truncated-prefix adder: result bit *i* is bit
  ``i - lows[i]`` of the exact sum of the operand window
  ``[lows[i], i]`` with carry-in 0, and the carry-out comes from the
  window ``[carry_low, N-1]``.  GeAr's overlapping sub-adders, the
  ACA/ETA/GDA block schemes and truncated prefix graphs are all
  instances.
* Exact analyses over the spec: because the windows active at step *i*
  are nested suffixes, their carries are *monotone* (a longer window's
  carry dominates a shorter one's), so the joint carry state collapses
  to a single **cut index** in the sorted window list -- polynomial,
  not exponential.  :func:`windowed_table` compiles a spec to that cut
  automaton in :mod:`repro.core.magnitude`'s table form, and each
  analysis is one of that module's folds over it:
  :func:`windowed_error_probability` (ER), :func:`windowed_error_pmf`
  (error law, guarded), :func:`windowed_error_moments`,
  :func:`windowed_worst_case_error` (any width); the MED and MRED
  folds (:func:`~repro.core.magnitude.fold_med`,
  :func:`~repro.core.magnitude.fold_mred`) read the table as it is.
* Bit-true functional models: the scalar :func:`windowed_add`, the
  bit-sliced kernel :func:`windowed_add_planes` over packed bit planes
  (:mod:`repro.core.bitplanes`; ``zoo-mc`` feeds it straight from its
  draws) and its int64 wrapper :func:`windowed_add_array`; the
  weighted enumeration oracle the DPs are cross-validated against,
  :func:`repro.simulation.exhaustive.windowed_exhaustive_quality`,
  runs every operand pair through the wrapper.
* Parallel-prefix graphs (:func:`prefix_levels`) for Brent-Kung,
  Kogge-Stone, Sklansky and Ladner-Fischer, truncated at a chosen level
  count to produce AxPPA-style approximate prefix adders
  (:func:`truncated_prefix_spec`); at full depth every topology reduces
  to the exact adder.
* The catalog itself: :func:`parse_adder` / :class:`ZooAdder` (config
  string grammar with a canonical render), :data:`ZOO_FAMILIES`
  metadata (grammar, source paper, representation), :func:`named_zoo`
  reference instances per width, and :func:`zoo_cost` -- an abstract
  unit-gate delay/area model for Pareto exploration.

Chain-shaped members (LOA and friends) build plain cell tuples and ride
the existing engines, caches and batch executor untouched; windowed
members are served by the error-magnitude ladder the chains use, under
its ``zoo-*`` engine names (:mod:`repro.engine.distribution`).  Every
zoo adder adds with carry-in 0 (the
reference is ``a + b``), matching the published designs.

Layering: this module sits in ``core`` and never imports the engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from .adders import LOA_GEN, LOA_OR
from .bitplanes import planes_to_values, values_to_planes
from .exceptions import AnalysisError
from .magnitude import (
    DEFAULT_MAX_ENTRIES,
    CarryTable,
    ErrorMoments,
    WorstCaseError,
    fold_extremes,
    fold_moments,
    fold_sparse,
    fold_nonzero,
    operand_values,
)
from .truth_table import ACCURATE, FullAdderTruthTable
from .types import Probability, validate_probability_vector


# --------------------------------------------------------------------------
# The declarative spec
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class WindowedAdderSpec:
    """A block/segmented approximate adder as per-bit operand windows.

    ``lows[i]`` is the lowest operand bit feeding result bit *i*: the
    bit equals ``((a[lows[i]..i] + b[lows[i]..i]) >> (i - lows[i])) & 1``
    with carry-in 0.  ``carry_low`` is the lowest operand bit feeding
    the carry-out (bit N of the result).  ``lows[i] == 0`` everywhere
    and ``carry_low == 0`` is the exact adder.

    Frozen and hashable, so specs key requests, caches and batches.

    >>> spec = WindowedAdderSpec("demo", (0, 0, 1, 2), 2)
    >>> spec.width, spec.is_exact, spec.max_window
    (4, False, 3)
    """

    name: str
    lows: Tuple[int, ...]
    carry_low: int

    def __post_init__(self) -> None:
        n = len(self.lows)
        if n < 1:
            raise AnalysisError("a windowed adder needs at least one bit")
        for i, low in enumerate(self.lows):
            if not 0 <= low <= i:
                raise AnalysisError(
                    f"lows[{i}] = {low} outside [0, {i}] for {self.name!r}"
                )
        if not 0 <= self.carry_low <= n - 1:
            raise AnalysisError(
                f"carry_low = {self.carry_low} outside [0, {n - 1}] "
                f"for {self.name!r}"
            )

    @property
    def width(self) -> int:
        return len(self.lows)

    @property
    def is_exact(self) -> bool:
        """Every window reaches bit 0: the adder is the exact adder."""
        return self.carry_low == 0 and all(low == 0 for low in self.lows)

    @property
    def max_window(self) -> int:
        """Longest operand window feeding any output bit."""
        spans = [i - low + 1 for i, low in enumerate(self.lows)]
        spans.append(self.width - self.carry_low + 1)
        return max(spans)

    def describe(self) -> str:
        return (f"windowed adder {self.name!r}: N={self.width}, "
                f"max window {self.max_window}"
                f"{', exact' if self.is_exact else ''}")


def from_gear(config: object, name: Optional[str] = None) -> WindowedAdderSpec:
    """The windowed spec of a :class:`~repro.gear.config.GeArConfig`.

    Result bit *t* belongs to sub-adder ``max(0, (t - P) // R)`` whose
    window starts at ``R * j``; the carry-out comes from the last
    sub-adder's window.  Bit-identical to
    :func:`repro.gear.functional.gear_add` (property-tested).
    """
    n, r, p = config.n, config.r, config.p  # type: ignore[attr-defined]
    lows = tuple(
        max(0, ((t - p) // r)) * r if t >= r + p else 0 for t in range(n)
    )
    k = config.num_subadders  # type: ignore[attr-defined]
    return WindowedAdderSpec(
        name=name or f"gear:{n}:{r}:{p}",
        lows=lows,
        carry_low=(k - 1) * r,
    )


# --------------------------------------------------------------------------
# Functional (bit-true) models
# --------------------------------------------------------------------------

def windowed_add(spec: WindowedAdderSpec, a: int, b: int) -> int:
    """Add two N-bit operands through a windowed adder (carry-in 0).

    Returns the (N+1)-bit result.  Matches ``a + b`` whenever no window
    misses an incoming carry.

    >>> spec = from_gear(__import__("repro.gear.config",
    ...                             fromlist=["GeArConfig"]).GeArConfig(4, 2, 0))
    >>> windowed_add(spec, 0b0101, 0b0001)
    6
    """
    n = spec.width
    if a < 0 or b < 0 or a >= 1 << n or b >= 1 << n:
        raise AnalysisError(
            f"operands must be in [0, 2^{n}), got {a}, {b}"
        )
    result = 0
    for i, low in enumerate(spec.lows):
        window_mask = (1 << (i - low + 1)) - 1
        window_sum = ((a >> low) & window_mask) + ((b >> low) & window_mask)
        result |= ((window_sum >> (i - low)) & 1) << i
    carry_mask = (1 << (n - spec.carry_low)) - 1
    carry_sum = ((a >> spec.carry_low) & carry_mask) \
        + ((b >> spec.carry_low) & carry_mask)
    carry = (carry_sum >> (n - spec.carry_low)) & 1
    return result | (carry << n)


def windowed_add_planes(
    spec: WindowedAdderSpec, a: np.ndarray, b: np.ndarray
) -> np.ndarray:
    """The bit-sliced windowed kernel over packed bit planes.

    *a* and *b* are ``(N, bytes)`` uint8 planes
    (:mod:`repro.core.bitplanes`); returns the ``(N + 1, bytes)`` result
    planes.  Result bit *i* is ``a_i ^ b_i`` XOR the carry into bit *i*
    of the window ``[lows[i], i]``; each window's carry ripples as
    ``g | (p & c)`` from its low bit (carry-in 0) until the last bit
    that reads it.  Every lane equals :func:`windowed_add` on its
    operands; padding lanes are undefined.
    """
    n = spec.width
    if a.shape != b.shape or a.shape[0] != n:
        raise AnalysisError(
            f"need {n} operand planes each, got {a.shape} and {b.shape}"
        )
    generate, propagate = a & b, a ^ b
    last_read = {low: j for j, low in enumerate(spec.lows)}  # last j wins
    last_read[spec.carry_low] = n
    carries: Dict[int, Optional[np.ndarray]] = {}   # None: carry 0
    out = np.empty((n + 1,) + a.shape[1:], dtype=a.dtype)
    for i in range(n):
        if i in last_read:     # a window [i, ...] starts with carry 0
            carries[i] = None
        carry = carries[spec.lows[i]]
        out[i] = propagate[i] if carry is None else propagate[i] ^ carry
        for low in list(carries):
            if last_read[low] == i:
                del carries[low]
            else:
                c = carries[low]
                carries[low] = (generate[i] if c is None
                                else generate[i] | (propagate[i] & c))
    carry = carries[spec.carry_low]
    out[n] = np.zeros_like(a[0]) if carry is None else carry
    return out


def windowed_add_array(
    spec: WindowedAdderSpec, a: np.ndarray, b: np.ndarray
) -> np.ndarray:
    """Vectorised :func:`windowed_add` over NumPy int64 arrays
    (broadcasting allowed): a thin wrapper that sends the operands
    through :func:`windowed_add_planes`."""
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    n = spec.width
    if (a < 0).any() or (b < 0).any() or (a >= 1 << n).any() \
            or (b >= 1 << n).any():
        raise AnalysisError(f"operands must be in [0, 2^{n})")
    a, b = np.broadcast_arrays(a, b)
    planes = windowed_add_planes(spec, values_to_planes(a.ravel(), n),
                                 values_to_planes(b.ravel(), n))
    return planes_to_values(planes, a.size).reshape(a.shape)


# --------------------------------------------------------------------------
# The monotone-carry-cut DP
# --------------------------------------------------------------------------
#
# At step i the windows still in play are [l, i-1] for the distinct low
# values l that some later (or the current) output bit reads, plus low 0
# (the exact carry) and carry_low.  They are nested suffixes of the
# digit string t_j = a_j + b_j, so their carries are monotone
# non-increasing in l: a longer window can only see *more* carry.  The
# joint carry vector is therefore always of the form (1, ..., 1, 0,
# ..., 0) over the ascending-low list, fully described by the *cut*
# (how many leading windows carry 1).  Digit transitions act uniformly:
# t=0 clears every carry (cut -> 0), t=2 sets every carry (cut -> m),
# t=1 propagates (cut unchanged); a window activating at step l joins
# at the tail with carry 0, keeping the cut untouched.

def windowed_table(
    spec: WindowedAdderSpec,
    p_a: Union[Probability, Sequence[Probability]] = 0.5,
    p_b: Union[Probability, Sequence[Probability]] = 0.5,
) -> CarryTable:
    """Compile *spec* to its cut automaton (the state is the cut).

    A row's ``d`` is the output bit's difference and ``v`` the exact
    sum bit; the final term is the carry-out's.  A digit is listed when
    some operand pair makes it possible; its weight is summed term by
    term, so dyadic inputs stay exact.
    """
    n = spec.width
    pa = validate_probability_vector(p_a, n, "p_a")
    pb = validate_probability_vector(p_b, n, "p_b")
    last_read = {low: j for j, low in enumerate(spec.lows)}  # last j wins
    last_read[0] = n           # the exact carry is read at every step
    last_read[spec.carry_low] = n
    active: List[int] = []     # lows of the active windows, ascending
    states = 1
    stages = []
    for i in range(n):
        if i in last_read:     # a window [i, ...] activates this step
            active.append(i)
        size, read_idx = len(active), active.index(spec.lows[i])
        states = max(states, size + 1)
        retired = [pos for pos, low in enumerate(active)
                   if last_read[low] == i]
        # Retiring a window below a cut shifts the cut down.
        reindexed = [cut - sum(pos < cut for pos in retired)
                     for cut in range(size + 1)]
        digits: Dict[int, float] = {}
        for a, wa in operand_values(float(pa[i])):
            for b, wb in operand_values(float(pb[i])):
                digits[a + b] = digits.get(a + b, 0.0) + wa * wb
        rows = []
        for cut in range(size + 1):
            c_exact, c_approx = int(cut > 0), int(cut > read_idx)
            for t, w in digits.items():
                s_exact = (t + c_exact) & 1
                new_cut = 0 if t == 0 else (size if t == 2 else cut)
                rows.append((cut, reindexed[new_cut],
                             ((t + c_approx) & 1) - s_exact, s_exact, w))
        stages.append(tuple(rows))
        for pos in reversed(retired):
            del active[pos]
    carry_idx = active.index(spec.carry_low)
    return CarryTable(
        label=f"{spec.name!r} (width {n})", states=states,
        start=((0, 1.0, 0),), stages=tuple(stages),
        final=tuple((int(cut > carry_idx) - int(cut > 0), int(cut > 0))
                    for cut in range(len(active) + 1)),
    )


def windowed_error_probability(
    spec: WindowedAdderSpec,
    p_a: Union[Probability, Sequence[Probability]] = 0.5,
    p_b: Union[Probability, Sequence[Probability]] = 0.5,
) -> float:
    """Exact word-level ``P(error)`` of a windowed adder, O(N * cuts).

    Output bit i errs exactly when the exact carry and the window's
    carry disagree (windowed adders only ever drop carries, so the
    disagreement is one-sided), and likewise for the carry-out: the
    error mass is that of the paths with a nonzero increment
    (:func:`~repro.core.magnitude.fold_nonzero`).
    """
    return min(1.0, fold_nonzero(windowed_table(spec, p_a, p_b)))


def windowed_error_pmf(
    spec: WindowedAdderSpec,
    p_a: Union[Probability, Sequence[Probability]] = 0.5,
    p_b: Union[Probability, Sequence[Probability]] = 0.5,
    max_entries: int = DEFAULT_MAX_ENTRIES,
) -> Dict[int, float]:
    """Exact PMF of ``D = approx - exact`` for a windowed adder.

    Mirrors :func:`repro.core.magnitude.error_pmf`: guarded by
    *max_entries* (raising
    :class:`~repro.core.exceptions.SupportLimitError` with the stage).
    """
    return fold_sparse(windowed_table(spec, p_a, p_b),
                       max_entries=max_entries).as_dict()


def windowed_error_moments(
    spec: WindowedAdderSpec,
    p_a: Union[Probability, Sequence[Probability]] = 0.5,
    p_b: Union[Probability, Sequence[Probability]] = 0.5,
) -> ErrorMoments:
    """Exact ``E[D]`` / ``E[D^2]`` in O(N * cuts) time and O(cuts)
    memory, mirroring :func:`repro.core.magnitude.error_moments`."""
    return fold_moments(windowed_table(spec, p_a, p_b))


def windowed_worst_case_error(
    spec: WindowedAdderSpec,
    p_a: Union[Probability, Sequence[Probability]] = 0.5,
    p_b: Union[Probability, Sequence[Probability]] = 0.5,
) -> WorstCaseError:
    """Exact ``max |D|`` at any width: the reachable ``[min, max]``
    delta interval per cut, in exact integer arithmetic."""
    return fold_extremes(windowed_table(spec, p_a, p_b))


# --------------------------------------------------------------------------
# Parallel-prefix graphs (AxPPA-style truncation)
# --------------------------------------------------------------------------

#: Prefix topology keys -> display names.
PREFIX_TOPOLOGIES: Dict[str, str] = {
    "bk": "Brent-Kung",
    "ks": "Kogge-Stone",
    "sk": "Sklansky",
    "lf": "Ladner-Fischer",
}


def prefix_levels(topology: str, n: int) -> List[List[Tuple[int, int]]]:
    """The prefix graph as levels of ``(position, back)`` combines.

    Each combine merges ``span[back]`` (ending exactly at the current
    span's start minus one -- validated) into ``span[position]``.
    Running *all* levels leaves every position's span at ``[0, j]``:
    the graph computes every prefix carry and the adder is exact.

    >>> [len(level) for level in prefix_levels("bk", 8)]
    [4, 2, 1, 1, 3]
    >>> [len(level) for level in prefix_levels("ks", 8)]
    [7, 6, 4]
    """
    if n < 1:
        raise AnalysisError(f"prefix network width must be >= 1, got {n}")
    if topology not in PREFIX_TOPOLOGIES:
        raise AnalysisError(
            f"unknown prefix topology {topology!r}; known: "
            f"{', '.join(sorted(PREFIX_TOPOLOGIES))}"
        )
    depth = max(1, (n - 1).bit_length())
    lo = list(range(n))
    levels: List[List[Tuple[int, int]]] = []

    def emit(pairs: List[Tuple[int, int]]) -> None:
        # Combines within a level are simultaneous: every one reads the
        # spans as they stood *before* the level.
        before = list(lo)
        level = []
        for j, back in pairs:
            if before[j] == 0:
                continue  # span already complete: the combine is a no-op
            if back != before[j] - 1:
                raise AnalysisError(
                    f"{topology} level builder produced a non-adjacent "
                    f"combine ({j} <- {back}, span starts at {before[j]})"
                )
            lo[j] = before[back]
            level.append((j, back))
        if level:
            levels.append(level)

    if topology == "ks":
        for k in range(1, depth + 1):
            emit([(j, j - (1 << (k - 1)))
                  for j in range(1 << (k - 1), n)])
    elif topology == "sk":
        for k in range(1, depth + 1):
            emit([(j, ((j >> (k - 1)) << (k - 1)) - 1)
                  for j in range(n) if (j >> (k - 1)) & 1])
    elif topology == "bk":
        for k in range(1, depth + 1):
            emit([(j, j - (1 << (k - 1)))
                  for j in range((1 << k) - 1, n, 1 << k)])
        for k in range(depth - 1, 0, -1):
            emit([(j, j - (1 << (k - 1)))
                  for j in range((1 << k) + (1 << (k - 1)) - 1, n, 1 << k)])
    else:  # lf: Sklansky on the odd positions, then one even fix-up level
        for k in range(1, depth + 1):
            emit([(j, ((j >> (k - 1)) << (k - 1)) - 1)
                  for j in range(1, n, 2) if (j >> (k - 1)) & 1])
        emit([(j, j - 1) for j in range(2, n, 2)])
    return levels


def prefix_depth(topology: str, n: int) -> int:
    """Level count of the full prefix graph (the maximum truncation)."""
    return len(prefix_levels(topology, n))


def truncated_prefix_spec(
    topology: str, n: int, levels_used: int, name: Optional[str] = None
) -> WindowedAdderSpec:
    """AxPPA-style approximate prefix adder: run only the first
    *levels_used* levels of the graph.

    Each position's accumulated span ``[lo_j, j]`` becomes the carry
    window: result bit ``i`` reads the group carry of
    ``[lo_{i-1}, i-1]``.  ``levels_used = 0`` degrades every carry to
    the previous bit's generate; the full depth reproduces the exact
    adder (property-tested for every topology).
    """
    levels = prefix_levels(topology, n)
    if not 0 <= levels_used <= len(levels):
        raise AnalysisError(
            f"{topology} at width {n} has {len(levels)} levels; "
            f"got truncation {levels_used}"
        )
    lo = list(range(n))
    for level in levels[:levels_used]:
        before = list(lo)
        for j, back in level:
            lo[j] = before[back]
    lows = (0,) + tuple(lo[i - 1] for i in range(1, n))
    return WindowedAdderSpec(
        name=name or f"axppa-{topology}:{n}:{levels_used}",
        lows=lows,
        carry_low=lo[n - 1],
    )


# --------------------------------------------------------------------------
# The config-string grammar and catalog
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class ZooFamily:
    """Catalog metadata for one adder family."""

    key: str
    title: str
    grammar: str
    source: str
    representation: str   # "chain" | "windowed"
    summary: str


ZOO_FAMILIES: Dict[str, ZooFamily] = {
    family.key: family for family in (
        ZooFamily(
            "rca", "Ripple-carry adder", "rca:<N>",
            "baseline (exact)", "chain",
            "The exact reference every zoo member is compared against.",
        ),
        ZooFamily(
            "loa", "Lower-part-OR adder (LOA)", "loa:<N>:<L>",
            "Mahdiani et al., TCAS-I 2010", "chain",
            "Low L bits OR'd; an AND of the top lower bits speculates "
            "the carry into the accurate upper part.",
        ),
        ZooFamily(
            "loawa", "LOA without carry speculation", "loawa:<N>:<L>",
            "chiselverify LOAWA variant", "chain",
            "Low L bits OR'd with carry-in 0 to the upper part.",
        ),
        ZooFamily(
            "aca1", "Almost-correct adder ACA-1", "aca1:<N>:<Q>",
            "Verma et al., DATE 2008 (= GeAr(N, 1, Q-1))", "windowed",
            "Every result bit from a sliding Q-bit carry window.",
        ),
        ZooFamily(
            "aca2", "Almost-correct adder ACA-2", "aca2:<N>:<Q>",
            "Kahng & Kang, DAC 2012 (= GeAr(N, Q/2, Q/2))", "windowed",
            "Q-bit sub-adders advancing Q/2 bits per step (Q even).",
        ),
        ZooFamily(
            "eta", "Error-tolerant adder ETA-II", "eta:<N>:<X>",
            "Zhu et al., TVLSI 2010 (= GeAr(N, X, X))", "windowed",
            "X-bit result blocks, each predicted by the X bits below.",
        ),
        ZooFamily(
            "gda", "Gracefully-degrading adder", "gda:<N>:<B>:<K>",
            "Ye et al., DAC 2013", "windowed",
            "B equal partitions; each reads K extra prediction bits "
            "below its block.",
        ),
        ZooFamily(
            "gear", "Generic accuracy-reconfigurable adder",
            "gear:<N>:<R>:<P>",
            "Shafique et al., DAC 2015 (paper ref [17])", "windowed",
            "k overlapping (R+P)-bit sub-adders, R result bits each.",
        ),
        ZooFamily(
            "axppa-bk", "Truncated Brent-Kung prefix adder",
            "axppa-bk:<N>:<LVL>",
            "AxPPA (arXiv:2210.10408) / Brent & Kung 1982", "windowed",
            "Brent-Kung carry tree cut after LVL levels.",
        ),
        ZooFamily(
            "axppa-ks", "Truncated Kogge-Stone prefix adder",
            "axppa-ks:<N>:<LVL>",
            "AxPPA (arXiv:2210.10408) / Kogge & Stone 1973", "windowed",
            "Kogge-Stone carry tree cut after LVL levels.",
        ),
        ZooFamily(
            "axppa-sk", "Truncated Sklansky prefix adder",
            "axppa-sk:<N>:<LVL>",
            "AxPPA (arXiv:2210.10408) / Sklansky 1960", "windowed",
            "Sklansky carry tree cut after LVL levels.",
        ),
        ZooFamily(
            "axppa-lf", "Truncated Ladner-Fischer prefix adder",
            "axppa-lf:<N>:<LVL>",
            "AxPPA (arXiv:2210.10408) / Ladner & Fischer 1980",
            "windowed",
            "Ladner-Fischer carry tree cut after LVL levels.",
        ),
    )
}

#: Accepted family spellings -> canonical keys (after lowercasing and
#: stripping spaces/underscores/hyphens).
_FAMILY_ALIASES: Dict[str, str] = {
    "rca": "rca", "accurate": "rca", "exact": "rca",
    "loa": "loa", "loawa": "loawa",
    "aca1": "aca1", "acai": "aca1",
    "aca2": "aca2", "acaii": "aca2",
    "eta": "eta", "etaii": "eta", "eta2": "eta",
    "gda": "gda", "gear": "gear",
    "axppabk": "axppa-bk", "axppaks": "axppa-ks",
    "axppask": "axppa-sk", "axppalf": "axppa-lf",
}

#: Parameter count per family (beyond the width).
_FAMILY_PARAMS: Dict[str, int] = {
    "rca": 0, "loa": 1, "loawa": 1, "aca1": 1, "aca2": 1, "eta": 1,
    "gda": 2, "gear": 2, "axppa-bk": 1, "axppa-ks": 1, "axppa-sk": 1,
    "axppa-lf": 1,
}


@dataclass(frozen=True)
class ZooAdder:
    """One parsed zoo config: a family key, the width, and parameters.

    ``build()`` produces the analysable object -- a tuple of truth-table
    cells for chain families (served by every existing chain engine) or
    a :class:`WindowedAdderSpec` for block/prefix families (served by
    the ``zoo-*`` engines).  Construction validates the parameters.

    >>> parse_adder("ACA_1:8:4").config_string
    'aca1:8:4'
    """

    family: str
    n: int
    params: Tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.family not in ZOO_FAMILIES:
            raise AnalysisError(
                f"unknown adder family {self.family!r}; known: "
                f"{', '.join(sorted(ZOO_FAMILIES))}"
            )
        expected = _FAMILY_PARAMS[self.family]
        if len(self.params) != expected:
            raise AnalysisError(
                f"{ZOO_FAMILIES[self.family].grammar} takes {expected} "
                f"parameter(s) after the width; got {len(self.params)}"
            )
        if self.n < 1:
            raise AnalysisError(f"width must be >= 1, got {self.n}")
        self.build()  # validate eagerly: a ZooAdder is always buildable

    @property
    def config_string(self) -> str:
        """Canonical render; ``parse_adder`` round-trips it exactly."""
        return ":".join([self.family, str(self.n),
                         *[str(p) for p in self.params]])

    @property
    def representation(self) -> str:
        return ZOO_FAMILIES[self.family].representation

    def describe(self) -> str:
        meta = ZOO_FAMILIES[self.family]
        return f"{meta.title} {self.config_string} (N={self.n})"

    def build(self) -> Union[Tuple[FullAdderTruthTable, ...],
                             WindowedAdderSpec]:
        """The cell chain or windowed spec this config denotes."""
        from ..gear.config import GeArConfig

        n, params = self.n, self.params
        if self.family == "rca":
            return (ACCURATE,) * n
        if self.family in ("loa", "loawa"):
            l = params[0]
            if not 1 <= l < n:
                raise AnalysisError(
                    f"{self.family}: lower part L must satisfy "
                    f"1 <= L < N, got L={l}, N={n}"
                )
            if self.family == "loa":
                return (LOA_OR,) * (l - 1) + (LOA_GEN,) \
                    + (ACCURATE,) * (n - l)
            return (LOA_OR,) * l + (ACCURATE,) * (n - l)
        if self.family == "aca1":
            q = params[0]
            if not 1 <= q <= n:
                raise AnalysisError(
                    f"aca1: window Q must satisfy 1 <= Q <= N, got {q}"
                )
            return from_gear(GeArConfig(n, 1, q - 1),
                             name=self.config_string)
        if self.family == "aca2":
            q = params[0]
            if q < 2 or q % 2:
                raise AnalysisError(
                    f"aca2: the partition size Q must be an even number "
                    f">= 2, got {q}"
                )
            return from_gear(GeArConfig(n, q // 2, q // 2),
                             name=self.config_string)
        if self.family == "eta":
            x = params[0]
            if x < 1 or n % x or 2 * x > n:
                raise AnalysisError(
                    f"eta: block X must divide N with 2X <= N, got "
                    f"X={x}, N={n}"
                )
            return from_gear(GeArConfig(n, x, x), name=self.config_string)
        if self.family == "gear":
            return from_gear(GeArConfig(n, params[0], params[1]),
                             name=self.config_string)
        if self.family == "gda":
            parts, pred = params
            if parts < 1 or n % parts:
                raise AnalysisError(
                    f"gda: partitions B must divide N, got B={parts}, "
                    f"N={n}"
                )
            if pred < 0:
                raise AnalysisError(f"gda: prediction bits K must be "
                                    f">= 0, got {pred}")
            m = n // parts
            lows = tuple(max(0, (t // m) * m - pred) for t in range(n))
            return WindowedAdderSpec(
                name=self.config_string, lows=lows,
                carry_low=max(0, (parts - 1) * m - pred),
            )
        topology = self.family.split("-")[1]
        if params[0] < 1:
            raise AnalysisError(
                f"{self.family}: the level count LVL must be >= 1, "
                f"got {params[0]} (the config grammar has no "
                "zero-level adder; use the functional "
                "truncated_prefix_spec for that degenerate case)"
            )
        return truncated_prefix_spec(topology, n, params[0],
                                     name=self.config_string)


def parse_adder(spec: Union[str, ZooAdder]) -> ZooAdder:
    """Parse a zoo config string (``"loa:16:8"``) into a
    :class:`ZooAdder`.

    Family spellings are case/punctuation-insensitive (``"ACA-1"``,
    ``"aca_1"``, ``"etaii"`` all resolve); the rendered
    ``config_string`` is canonical, and ``parse -> render -> parse`` is
    the identity (property-tested).

    >>> parse_adder("loa:16:8").describe()
    'Lower-part-OR adder (LOA) loa:16:8 (N=16)'
    """
    if isinstance(spec, ZooAdder):
        return spec
    tokens = [t.strip() for t in str(spec).strip().split(":")]
    if len(tokens) < 2:
        raise AnalysisError(
            f"bad adder config {spec!r}: expected "
            "family:<N>[:<param>...], e.g. 'loa:16:8'"
        )
    canonical = "".join(tokens[0].lower().split()) \
        .replace("_", "").replace("-", "")
    family = _FAMILY_ALIASES.get(canonical)
    if family is None:
        raise AnalysisError(
            f"unknown adder family {tokens[0]!r}; known: "
            f"{', '.join(sorted(ZOO_FAMILIES))}"
        )
    try:
        numbers = [int(t) for t in tokens[1:]]
    except ValueError:
        raise AnalysisError(
            f"bad adder config {spec!r}: parameters must be integers"
        ) from None
    return ZooAdder(family, numbers[0], tuple(numbers[1:]))


def named_zoo(n: int) -> List[ZooAdder]:
    """Reference instances of every family at width *n*, for sweeps,
    catalogs and cross-validation matrices.

    Parameter choices that are invalid at *n* are skipped, so the list
    is always buildable.

    >>> [a.config_string for a in named_zoo(8)][:4]
    ['rca:8', 'loa:8:2', 'loawa:8:2', 'loa:8:4']
    """
    candidates: List[str] = [f"rca:{n}"]
    for l in sorted({max(1, n // 4), n // 2, 3 * n // 4}):
        candidates += [f"loa:{n}:{l}", f"loawa:{n}:{l}"]
    for q in sorted({2, max(2, n // 4), max(2, n // 2)}):
        candidates += [f"aca1:{n}:{q}", f"aca2:{n}:{q}"]
    for x in sorted({1, 2, n // 4, n // 2}):
        candidates.append(f"eta:{n}:{x}")
    for parts in (2, 4):
        if parts <= n:
            for pred in sorted({1, max(1, n // parts // 2)}):
                candidates.append(f"gda:{n}:{parts}:{pred}")
    candidates.append(f"gear:{n}:2:2")
    for topology in PREFIX_TOPOLOGIES:
        try:
            depth = prefix_depth(topology, n)
        except AnalysisError:
            continue
        for lvl in sorted({1, depth // 2, depth - 1, depth}):
            candidates.append(f"axppa-{topology}:{n}:{lvl}")
    out: List[ZooAdder] = []
    seen = set()
    for candidate in candidates:
        try:
            adder = parse_adder(candidate)
        except Exception:
            continue
        if adder.config_string not in seen:
            seen.add(adder.config_string)
            out.append(adder)
    return out


# --------------------------------------------------------------------------
# Abstract cost model
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class ZooCost:
    """Unit-gate delay and area of one zoo config.

    An *abstract* model for Pareto exploration, not a technology
    estimate: a ripple stage costs 2 delay units and 5 area units
    (accurate cell), OR cells 1/1, the LOA generate cell 1/2; windowed
    adders cost 2 units per bit of their longest window (the critical
    sub-adder ripple) and 5 area units per sub-adder bit; prefix adders
    cost ``2 + levels`` delay and ``2N + 2 * combines`` area.
    """

    delay_units: float
    area_units: float


def zoo_cost(adder: Union[str, ZooAdder]) -> ZooCost:
    """The unit-gate :class:`ZooCost` of one config string.

    >>> zoo_cost("rca:8").delay_units
    17.0
    >>> zoo_cost("loa:8:4").delay_units < zoo_cost("rca:8").delay_units
    True
    """
    adder = parse_adder(adder)
    built = adder.build()
    if adder.family.startswith("axppa-"):
        topology = adder.family.split("-")[1]
        levels = prefix_levels(topology, adder.n)[:adder.params[0]]
        combines = sum(len(level) for level in levels)
        return ZooCost(
            delay_units=float(2 + len(levels)),
            area_units=float(2 * adder.n + 2 * combines),
        )
    if isinstance(built, WindowedAdderSpec):
        spans: Dict[int, int] = {}
        for i, low in enumerate(built.lows):
            spans[low] = max(spans.get(low, 0), i - low + 1)
        spans[built.carry_low] = max(
            spans.get(built.carry_low, 0), built.width - built.carry_low
        )
        return ZooCost(
            delay_units=float(2 * built.max_window),
            area_units=float(5 * sum(spans.values())),
        )
    per_cell = {"LOA-OR": (1.0, 1.0), "LOA-GEN": (1.0, 2.0)}
    delay = 1.0
    area = 0.0
    for cell in built:
        d, a = per_cell.get(cell.name, (2.0, 5.0))
        area += a
        if d >= 2.0:
            delay += d
    # The OR part contributes one parallel gate delay, not a ripple.
    return ZooCost(delay_units=max(delay, 2.0), area_units=area)
