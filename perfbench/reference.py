"""Answer checks: every answer against a reference computed outside the
timed window.

References, strongest first:

* ``engine`` -- a *different* registered exact engine (``recursive``
  for chain P(error) served by ``vectorized``/``transfer``, and the
  reverse);
* ``oracle`` -- an enumeration: the registered ``distribution-exhaustive``
  / ``zoo-exhaustive`` oracles where their width allows, or
  :func:`dense_error_pmf`, this file's own carry-pair enumeration of
  ripple chains (dense NumPy arrays, no shared code with
  ``repro.core.magnitude``);
* ``sampled`` -- for windowed-block zoo adders wider than the oracle, a
  seeded ``zoo-mc`` run through the bit-true functional model; the exact
  answer must lie within six standard errors.

Exact answers must match ``engine``/``oracle`` references to 1e-9
relative.  Probabilities also accept an absolute floor of 1e-13: a
64-stage float recursion carries a few ulp of 1.0 in P(success), which
``1 - P(success)`` turns into an absolute error on P(error).  Non-exact
answers are checked against an exact reference where one is affordable
(truncated DPs within their declared drift bound, Monte-Carlo within six
standard errors); otherwise they only count in ``exact_answer_ratio``.
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Tuple

import numpy as np

REL_TOL = 1e-9
PROB_ABS_TOL = 1e-13
#: Widest chain the dense oracle enumerates (arrays of 2^(w+2) floats).
DENSE_MAX_WIDTH = 16
#: Widest request sent to the registered exhaustive oracles.
ORACLE_MAX_WIDTH = 8
SAMPLED_SAMPLES = 50_000
SAMPLED_Z = 6.0

#: Headline metrics compared per request kind.
HEADLINE = {
    "chain": ("p_error",),
    "med": ("med", "mse"),
    "wce": ("wce",),
    "mred": ("mred",),
    "error_distribution": ("p_error", "med", "wce"),
}


def close(a: float, b: float, metric: str) -> bool:
    diff = abs(a - b)
    if diff <= REL_TOL * max(abs(a), abs(b)):
        return True
    return metric == "p_error" and diff <= PROB_ABS_TOL


def dense_error_pmf(cells, p_a, p_b, p_cin) -> Tuple[np.ndarray, int]:
    """Exact law of ``D = approx - exact`` for a ripple chain of cells.

    Enumerates every operand bit pair stage by stage over the
    (exact carry, approximate carry) state, keeping the partial error
    as an index into a dense array.  Returns ``(pmf, offset)``: the
    probability of ``D = d`` is ``pmf[d + offset]``.
    """
    n = len(cells)
    offset = 1 << (n + 1)
    size = 2 * offset + 1
    mass = np.zeros((2, 2, size))
    mass[0, 0, offset] = 1.0 - p_cin
    mass[1, 1, offset] = p_cin
    for i, table in enumerate(cells):
        # Before stage i the partial error lies in (-2^i, 2^i).
        lo, hi = offset - (1 << i), offset + (1 << i) + 1
        rows = table.rows
        nxt = np.zeros_like(mass)
        for a in (0, 1):
            wa = p_a[i] if a else 1.0 - p_a[i]
            for b in (0, 1):
                weight = wa * (p_b[i] if b else 1.0 - p_b[i])
                if weight == 0.0:
                    continue
                for ce in (0, 1):
                    s_exact = a ^ b ^ ce
                    c_exact = (a & b) | (a & ce) | (b & ce)
                    for ca in (0, 1):
                        s_approx, c_approx = rows[(a << 2) | (b << 1) | ca]
                        shift = (s_approx - s_exact) << i
                        nxt[c_exact, c_approx, lo + shift:hi + shift] += (
                            weight * mass[ce, ca, lo:hi])
        mass = nxt
    pmf = np.zeros(size)
    lo, hi = offset - (1 << n), offset + (1 << n) + 1
    for ce in (0, 1):
        for ca in (0, 1):
            shift = (ca - ce) << n
            pmf[lo + shift:hi + shift] += mass[ce, ca, lo:hi]
    return pmf, offset


def dense_metrics(cells, p_a, p_b, p_cin) -> Dict[str, object]:
    pmf, offset = dense_error_pmf(cells, p_a, p_b, p_cin)
    deltas = np.arange(pmf.size) - offset
    support = np.nonzero(pmf)[0]
    return {
        "p_error": float(1.0 - pmf[offset]),
        "med": float(np.abs(deltas) @ pmf),
        "mse": float((deltas.astype(np.float64) ** 2) @ pmf),
        "wce": float(np.abs(deltas[support]).max()) if support.size else 0.0,
        "distribution": (pmf, offset),
    }


def pmf_array(pairs, width: int) -> Tuple[np.ndarray, int]:
    """``((delta, probability), ...)`` as a dense ``(pmf, offset)``."""
    offset = 1 << (width + 1)
    pmf = np.zeros(2 * offset + 1)
    for delta, prob in pairs:
        pmf[int(delta) + offset] += float(prob)
    return pmf, offset


class Checker:
    """Checks answers and tallies the outcome of every check.

    ``verdict`` returns one of ``ok`` (matched its reference), ``wrong``,
    or ``unchecked`` (no affordable reference; only non-exact answers
    and exact answers with no enumeration in reach end here).
    """

    def __init__(self) -> None:
        self._refs: Dict[object, Tuple[str, Optional[Dict[str, object]]]] = {}
        self.counts: Dict[str, int] = {}
        self.mismatches = []

    def reference(self, request, served_by: str
                  ) -> Tuple[str, Optional[Dict[str, object]]]:
        # The reference engine must differ from the one that answered.
        key = (request, served_by == "recursive")
        found = self._refs.get(key)
        if found is None:
            found = self._refs[key] = _reference(request, served_by)
        return found

    def tally(self, outcome: str, how: str) -> None:
        key = f"{outcome}.{how}"
        self.counts[key] = self.counts.get(key, 0) + 1

    def verdict(self, request, answer: Dict[str, object]) -> str:
        how, ref = self.reference(request, str(answer["engine"]))
        if ref is None:
            outcome = "unchecked"
        elif how == "sampled":
            outcome = "ok" if _within_sample(request, answer, ref) \
                else "wrong"
        elif answer["exact"]:
            outcome = "ok" if all(
                close(float(answer[m]), float(ref[m]), m)
                for m in HEADLINE[request.kind]) else "wrong"
            if outcome == "ok" and request.kind == "error_distribution":
                outcome = ("ok" if _same_pmf(request, answer, ref)
                           else "wrong")
        else:
            outcome = "ok" if _within_declared(request, answer, ref) \
                else "wrong"
        self.tally(outcome, how)
        if outcome == "wrong" and len(self.mismatches) < 5:
            self.mismatches.append({
                "kind": request.kind, "width": request.width,
                "cells": list(request.cell_names)[:2],
                "answer": {m: answer.get(m) for m in HEADLINE[request.kind]},
                "reference": {m: ref.get(m) for m in HEADLINE[request.kind]},
                "how": how,
            })
        return outcome


def _same_pmf(request, answer, ref) -> bool:
    got, _ = pmf_array(answer["distribution"], request.width)
    want, _ = ref["distribution"]
    return bool(np.all(np.abs(got - want) <= REL_TOL * want + PROB_ABS_TOL))


def _within_declared(request, answer, ref) -> bool:
    """Non-exact answer against an exact reference."""
    if str(answer["engine"]).endswith("-mc"):
        metric = HEADLINE[request.kind][0]
        got, want = float(answer[metric]), float(ref[metric])
        if request.kind == "wce":
            # The largest sampled error can only fall short of the worst.
            return got <= want
        # Six standard errors, from the engine's own 95% interval.
        lo, hi = answer["interval"]
        return abs(got - want) <= (hi - lo) / 2 * SAMPLED_Z / 1.96 \
            + PROB_ABS_TOL
    # Truncated-support DP: P(error) stays exact, magnitudes drift by at
    # most width * 2^(1 - QUANT_BITS) relative (engine.distribution).
    from repro.engine import QUANT_BITS

    bound = request.width * 2.0 ** (1 - QUANT_BITS)
    for metric in HEADLINE[request.kind]:
        want = float(ref[metric])
        got = float(answer[metric])
        if metric == "p_error":
            if not close(got, want, metric):
                return False
        elif abs(got - want) > bound * abs(want) + PROB_ABS_TOL:
            return False
    return True


def _within_sample(request, answer, ref) -> bool:
    """Exact block-adder answer against a ``zoo-mc`` sample."""
    n = ref["samples"]
    if request.kind in ("chain", "error_distribution"):
        p = float(answer["p_error"])
        sigma = math.sqrt(max(p * (1 - p), 1.0 / n) / n)
        return abs(ref["p_error"] - p) <= SAMPLED_Z * sigma
    if request.kind == "med":
        med, mse = float(answer["med"]), float(answer["mse"])
        sigma = math.sqrt(max(mse - med * med, 0.0) / n)
        return abs(ref["med"] - med) <= SAMPLED_Z * sigma + 1e-12
    if request.kind == "wce":
        # The largest sampled error can only fall short of the worst case.
        return ref["wce"] <= float(answer["wce"])
    return False


def _result_fields(result) -> Dict[str, object]:
    return {name: getattr(result, name) for name in
            ("p_error", "med", "mse", "wce", "mred")}


def _reference(request, served_by: str
               ) -> Tuple[str, Optional[Dict[str, object]]]:
    from repro import engine

    width = request.width
    if request.block is not None:
        if width <= ORACLE_MAX_WIDTH:
            result = engine.run(request=request, engine="zoo-exhaustive")
            ref = _result_fields(result)
            if result.distribution is not None:
                ref["distribution"] = pmf_array(result.distribution, width)
            return "oracle", ref
        if request.kind == "mred":
            return "none", None
        result = engine.run(request=request, engine="zoo-mc",
                            samples=SAMPLED_SAMPLES, seed=width)
        ref = _result_fields(result)
        ref["samples"] = SAMPLED_SAMPLES
        return "sampled", ref
    if request.kind == "chain":
        other = "transfer" if served_by == "recursive" else "recursive"
        result = engine.run(request=request, engine=other)
        return "engine", _result_fields(result)
    if request.kind == "mred":
        if width > ORACLE_MAX_WIDTH:
            return "none", None
        result = engine.run(request=request,
                            engine="distribution-exhaustive")
        return "oracle", _result_fields(result)
    if width > DENSE_MAX_WIDTH:
        return "none", None
    return "oracle", dense_metrics(request.cells, request.p_a, request.p_b,
                                   request.p_cin)


def answer_fields(result) -> Dict[str, object]:
    """The checked fields of an in-process ``AnalysisResult``."""
    fields = _result_fields(result)
    fields["exact"] = result.exact
    fields["engine"] = result.engine
    fields["interval"] = result.interval
    fields["distribution"] = result.distribution
    return fields
