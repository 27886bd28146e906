"""Seeded inputs of the three benchmark workloads.

Every generator takes the run's ``random.Random`` and returns plain data
(request objects for the in-process workloads, JSON documents for
``serve-mixed``).  The seed moves probabilities, cut points, profiles,
hot-set repeats and prefix bases; the *cost structure* of a workload
(how many items of each kind, width and cell, and in which order) is
fixed, so runs with different seeds measure the same amount of work and
their spread is measurement noise, not a different mix.
"""

from __future__ import annotations

import random
from typing import Dict, List, Sequence, Tuple

LPAA = tuple(f"LPAA {i}" for i in range(1, 8))
SWEEP_CELLS = LPAA + ("accurate",)
SWEEP_WIDTHS = (8, 16, 32, 64)
#: Operand probabilities of the sweep (p_a = p_b = p), the grid of the
#: paper's Fig. 5 sweeps at 1/16 steps, both end points included.
SWEEP_GRID = tuple(k / 16 for k in range(17))
#: Requests per ``run_batch`` call in ``sweep-uniform``.
SWEEP_BATCH = 4096

#: Requests per ``run_batch`` call in ``explore-mixed``.
EXPLORE_BATCH = 8
EXPLORE_HYBRID_WIDTHS = (16, 32, 48, 64)
EXPLORE_DIST_KINDS = ("med", "wce", "error_distribution")
EXPLORE_DIST_WIDTHS = (8, 12, 16)
EXPLORE_MRED_WIDTHS = (4, 6, 8)
EXPLORE_ZOO_WIDTH = 16
EXPLORE_ZOO_KINDS = ("chain", "med", "wce", "mred")
#: The router declares MRED exact up to width 12 (MRED_EXACT_MAX_WIDTH),
#: but distribution-dp raises SupportLimitError there on these cells,
#: after seconds of work.  Every explore-mixed run asks them once, alone
#: (one failing request raises out of ``run_batch`` and would take its
#: batch-mates with it), so the defect stays visible in ``failed``; the
#: answer check accepts a failure only when it matches this list.
KNOWN_FAILURES = tuple(("mred", cell, 12) for cell in
                       ("LPAA 3", "LPAA 4", "LPAA 5"))

#: Operand profiles: per-bit probability of a 1, as a function of the
#: bit position's relative significance x in [0, 1].
PROFILES = {
    "uniform": lambda x: 0.5,
    "small-values": lambda x: 0.5 - 0.45 * x,
    "ramp": lambda x: 0.1 + 0.8 * x,
    "dense": lambda x: 0.8,
}


def profile_vector(rng: random.Random, width: int) -> List[float]:
    """A per-bit probability vector: a random profile plus jitter.

    Values stay inside [0.02, 0.98], so every operand combination keeps
    nonzero mass and the error supports have the same shape on every
    seed.
    """
    shape = PROFILES[rng.choice(sorted(PROFILES))]
    out = []
    for i in range(width):
        x = i / max(1, width - 1)
        p = shape(x) + rng.uniform(-0.05, 0.05)
        out.append(round(min(0.98, max(0.02, p)), 6))
    return out


def sweep_pool() -> List[Tuple[str, int, float]]:
    """Every distinct ``sweep-uniform`` question: (cell, width, p)."""
    return [(cell, width, p) for cell in SWEEP_CELLS
            for width in SWEEP_WIDTHS for p in SWEEP_GRID]


def explore_items(rng: random.Random, zoo_configs: Sequence[str]
                  ) -> List[Dict[str, object]]:
    """One exploration pass: a list of question specs.

    Each spec is a dict with ``part`` (hybrid / magnitude / mred / zoo),
    ``kind`` and the operands; :func:`explore_request` turns it into an
    ``AnalysisRequest``.  The order interleaves every (part, kind,
    width) stratum evenly across the pass, so consecutive
    :data:`EXPLORE_BATCH`-sized calls carry the same mix of costs; the
    order does not depend on the seed, so neither does how expensive
    each call is (the seed moves probabilities and cut points only).
    """
    items: List[Dict[str, object]] = []
    for width in EXPLORE_HYBRID_WIDTHS:
        for lsb in LPAA:
            for msb in ("accurate",) + LPAA:
                if msb == lsb:
                    continue
                cut = rng.randint(width // 8, width - width // 8)
                items.append({
                    "part": "hybrid", "kind": "chain",
                    "cells": [lsb] * cut + [msb] * (width - cut),
                    "p_a": profile_vector(rng, width),
                    "p_b": profile_vector(rng, width),
                    "p_cin": round(rng.uniform(0.1, 0.9), 6),
                })
    for kind in EXPLORE_DIST_KINDS:
        for width in EXPLORE_DIST_WIDTHS:
            for cell in LPAA:
                items.append(_magnitude_item("magnitude", kind, cell, width,
                                             rng))
    for width in EXPLORE_MRED_WIDTHS:
        for cell in LPAA:
            items.append(_magnitude_item("mred", "mred", cell, width, rng))
    for config in zoo_configs:
        for kind in EXPLORE_ZOO_KINDS:
            items.append({
                "part": "zoo", "kind": kind, "adder": config,
                "p_a": profile_vector(rng, EXPLORE_ZOO_WIDTH),
                "p_b": profile_vector(rng, EXPLORE_ZOO_WIDTH),
            })
    return _interleave(items)


def _interleave(items: List[Dict[str, object]]
                ) -> List[Dict[str, object]]:
    strata: Dict[tuple, List[Dict[str, object]]] = {}
    for item in items:
        width = len(item.get("cells", ())) or EXPLORE_ZOO_WIDTH
        strata.setdefault((item["part"], item["kind"], width),
                          []).append(item)
    placed = []
    for key in sorted(strata):
        members = strata[key]
        placed += [((j + 0.5) / len(members), key, item)
                   for j, item in enumerate(members)]
    placed.sort(key=lambda entry: entry[:2])
    return [item for _, _, item in placed]


def frontier_items(rng: random.Random) -> List[Dict[str, object]]:
    """The known-failure corner of the exploration, one spec each."""
    return [_magnitude_item("frontier", kind, cell, width, rng)
            for kind, cell, width in KNOWN_FAILURES]


def _magnitude_item(part: str, kind: str, cell: str, width: int,
                    rng: random.Random) -> Dict[str, object]:
    return {
        "part": part, "kind": kind, "cells": [cell] * width,
        "p_a": profile_vector(rng, width),
        "p_b": profile_vector(rng, width),
        "p_cin": round(rng.uniform(0.1, 0.9), 6),
    }


def explore_batches(count: int) -> List[List[int]]:
    """Item indices ``0..count-1`` grouped into ``run_batch`` calls."""
    return [list(range(start, min(count, start + EXPLORE_BATCH)))
            for start in range(0, count, EXPLORE_BATCH)]


def explore_request(item: Dict[str, object]):
    """The ``AnalysisRequest`` for one exploration spec."""
    from repro.engine import AnalysisRequest

    if "adder" in item:
        return AnalysisRequest.zoo(item["adder"], p_a=item["p_a"],
                                   p_b=item["p_b"], kind=item["kind"])
    if item["kind"] == "chain":
        return AnalysisRequest.chain(item["cells"], None, item["p_a"],
                                     item["p_b"], item["p_cin"])
    return AnalysisRequest.distribution(item["cells"], None, item["p_a"],
                                        item["p_b"], item["p_cin"],
                                        kind=item["kind"])


# -- serve-mixed ---------------------------------------------------------------

#: Phase 1 arrival rate (requests/s), about a quarter of the server's
#: saturated throughput on this mix (~65/s on a 2-vCPU host), so a
#: slower host stretches service times without building a queue; and
#: the phase 2 batch size.
SERVE_RATE = 16.0
SERVE_BATCH = 32
#: Distinct documents in the hot set that repeats draw from.
SERVE_HOT = 48
#: Documents per 20 of each property: a repeat from the hot set (result
#: cache reads), a new chain sharing cells and low-bit probabilities
#: with an earlier one (segment hits), a fully new document (writes).
#: The shares are assumed, not taken from recorded traffic: reads lead
#: slightly so the result tier answers a visible share, and the other
#: two keep both tiers' misses and disk writes in the measured path.
#: Conclusions about the tiers hold for this mix only (RECORD.json).
SERVE_PROPERTIES = (("hot", 8), ("prefix", 6), ("unique", 6))
#: Question classes per 20 new documents (hot set and unique ones),
#: also assumed: chain ER (the only kind the segment tier serves) is
#: over half, and every magnitude kind and the zoo are present.
SERVE_CLASSES = (("chain", 6), ("hybrid", 5), ("med", 2), ("wce", 2),
                 ("mred", 2), ("zoo", 3))
SERVE_CHAIN_WIDTHS = (8, 16, 32, 64)
SERVE_MAGNITUDE_WIDTHS = (4, 8, 12)
#: ``serve-mixed`` caps mred at width 8 because a width-12 mred request
#: holds the single dispatcher for seconds (head-of-line cost); the
#: known width-12 failure is measured in explore-mixed, not hidden.
SERVE_MRED_WIDTHS = (4, 6, 8)
SERVE_ZOO_WIDTH = 8


def _pattern(counts: Sequence[Tuple[str, int]]) -> List[str]:
    """Labels spread evenly over one cycle, e.g. ``hot`` 8 times in 20."""
    slots = sorted(((j + 0.5) / n, label) for label, n in counts
                   for j in range(n))
    return [label for _, label in slots]


class ServeDocs:
    """Seeded document stream of ``serve-mixed``.

    ``next()`` returns ``(doc, property)``.  Properties and question
    classes follow fixed cycles (:data:`SERVE_PROPERTIES`,
    :data:`SERVE_CLASSES`) and cells and widths rotate from a fixed
    start, so every seed asks the same classes at the same widths and
    cells in the same order and every stretch of the stream carries the
    same mix of costs; the seed picks probabilities, cut points,
    hot-set repeats and prefix bases.
    """

    def __init__(self, rng: random.Random, zoo_configs: Sequence[str]):
        self.rng = rng
        self.zoo_configs = list(zoo_configs)
        self.properties = {name: 0 for name, _ in SERVE_PROPERTIES}
        self._property_cycle = _pattern(SERVE_PROPERTIES)
        self._class_cycle = _pattern(SERVE_CLASSES)
        self._turn = {"property": 0, "class": 0}
        self._rotation: Dict[str, int] = {}
        self.chains: List[Dict[str, object]] = []
        self.hot = [self._fresh() for _ in range(SERVE_HOT)]
        self.hot_first_uses = 0
        self._hot_used = set()

    def _cycle(self, name: str, cycle: List[str]) -> str:
        label = cycle[self._turn[name] % len(cycle)]
        self._turn[name] += 1
        return label

    def _rotate(self, key: str, choices: Sequence):
        """The next of *choices* in turn."""
        turn = self._rotation.get(key, 0)
        self._rotation[key] = turn + 1
        return choices[turn % len(choices)]

    def _fresh(self) -> Dict[str, object]:
        rng = self.rng
        label = self._cycle("class", self._class_cycle)
        if label == "zoo":
            return {"adder": self._rotate("zoo", self.zoo_configs),
                    "kind": self._rotate("zoo-kind", ("chain", "med", "wce")),
                    "p_a": profile_vector(rng, SERVE_ZOO_WIDTH),
                    "p_b": profile_vector(rng, SERVE_ZOO_WIDTH)}
        if label in ("chain", "hybrid"):
            width = self._rotate(label, SERVE_CHAIN_WIDTHS)
            cell = self._rotate(label + "-cell", LPAA)
            cells = [cell] * width
            if label == "hybrid":
                cut = rng.randint(1, width - 1)
                msb = self._rotate("msb", ("accurate",) + LPAA)
                cells = cells[:cut] + [msb] * (width - cut)
            doc: Dict[str, object] = {"cells": cells}
        else:
            widths = (SERVE_MRED_WIDTHS if label == "mred"
                      else SERVE_MAGNITUDE_WIDTHS)
            width = self._rotate(label, widths)
            doc = {"cells": [self._rotate(label + "-cell", LPAA)] * width,
                   "kind": label}
        doc.update({"p_a": profile_vector(rng, width),
                    "p_b": profile_vector(rng, width),
                    "p_cin": round(rng.uniform(0.1, 0.9), 6)})
        if "kind" not in doc:
            self.chains.append(doc)
        return doc

    def _prefix_sharing(self) -> Dict[str, object]:
        base = self.rng.choice(self.chains)
        width = len(base["cells"])
        keep = self.rng.randint(width // 2, width - 1)
        doc = {"cells": list(base["cells"]),
               "p_a": list(base["p_a"][:keep])
               + profile_vector(self.rng, width - keep),
               "p_b": list(base["p_b"][:keep])
               + profile_vector(self.rng, width - keep),
               "p_cin": base["p_cin"]}
        self.chains.append(doc)
        return doc

    def next(self) -> Tuple[Dict[str, object], str]:
        prop = self._cycle("property", self._property_cycle)
        if prop == "hot":
            index = self.rng.randrange(len(self.hot))
            if index not in self._hot_used:
                self._hot_used.add(index)
                self.hot_first_uses += 1
            doc = self.hot[index]
        elif prop == "prefix":
            doc = self._prefix_sharing()
        else:
            doc = self._fresh()
        self.properties[prop] += 1
        return doc, prop
