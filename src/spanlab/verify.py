"""Exact-distance auditing of spanners and emulators: per-pair-class
maximum stretch, full violation lists, and size-versus-bound ratios.

Both verifiers are front ends over one core that goes one block of
`_ROW_BLOCK` sorted roots at a time: host and candidate rows are arrays of
one block's rows, so no n x n matrix is built once the roots outnumber a
block, and pair masks and per-class folds take `_FOLD_CELLS` cells of a
block at a time.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .graphs import (
    _ROW_BLOCK,
    Emulator,
    Graph,
    Spanner,
    _check_roots,
    emulator_distance_matrix,
    hop_distance_matrix,
    is_subgraph,
)

_EPS = 1e-9

# Cells (root row x target column) of a block folded at once: the pair and
# rule masks and `_class_from_mask`'s float64 copies stay this size, not a
# whole _ROW_BLOCK x n block.
_FOLD_CELLS = 2**17

# scopes: which pairs a spec talks about
ALL_PAIRS = "all-pairs"      # unordered pairs over the whole vertex set
SOURCEWISE = "sourcewise"    # every (source, vertex) pair
SETWISE = "setwise"          # unordered pairs inside the source set

ADJACENT = "adjacent"
NONADJACENT = "nonadjacent"


@dataclass(frozen=True)
class StretchSpec:
    """Per-pair-class (alpha, beta) bounds under a pair scope."""

    name: str
    scope: str
    bounds: dict  # class label -> (alpha, beta)


def hybrid_spec(k: int) -> StretchSpec:
    if k < 2:
        raise ValueError("k must be >= 2")
    return StretchSpec(
        name="hybrid",
        scope=ALL_PAIRS,
        bounds={ADJACENT: (2 * k - 1, 0), NONADJACENT: (k, 0)},
    )


def sourcewise_mult_spec(k: int) -> StretchSpec:
    if k < 2:
        raise ValueError("k must be >= 2")
    return StretchSpec(
        name="swmult",
        scope=SOURCEWISE,
        bounds={ADJACENT: (2 * k - 1, 0), NONADJACENT: (2 * k - 2, 0)},
    )


def additive_spec(beta: int) -> StretchSpec:
    if beta < 0:
        raise ValueError("beta must be >= 0")
    return StretchSpec(
        name="additive",
        scope=SOURCEWISE,
        bounds={ADJACENT: (1, beta), NONADJACENT: (1, beta)},
    )


def subsetwise_spec(beta: int) -> StretchSpec:
    if beta < 0:
        raise ValueError("beta must be >= 0")
    return StretchSpec(
        name="subsetwise",
        scope=SETWISE,
        bounds={ADJACENT: (1, beta), NONADJACENT: (1, beta)},
    )


@dataclass
class ClassReport:
    alpha: float
    beta: float
    pairs: int = 0
    max_mult: float = 0.0
    max_add: float = 0.0
    violations: list = field(default_factory=list)  # (u, v, dist_g, dist_h|None)

    @property
    def n_violations(self) -> int:
        return len(self.violations)


@dataclass
class StretchReport:
    classes: dict
    size: int
    skipped_unreachable: int = 0
    bound_ratio: Optional[float] = None

    @property
    def ok(self) -> bool:
        return all(c.n_violations == 0 for c in self.classes.values())

    @property
    def n_violations(self) -> int:
        return sum(c.n_violations for c in self.classes.values())

    def max_mult(self) -> float:
        return max((c.max_mult for c in self.classes.values()), default=0.0)

    def max_add(self) -> float:
        return max((c.max_add for c in self.classes.values()), default=0.0)

    def to_dict(self, violation_cap: int = 100) -> dict:
        def fin(x):
            return None if x is None or not math.isfinite(x) else x

        classes = []
        for label in sorted(self.classes):
            c = self.classes[label]
            classes.append(
                {
                    "class": label,
                    "alpha": c.alpha,
                    "beta": c.beta,
                    "pairs": c.pairs,
                    "max_mult": fin(c.max_mult),
                    "max_add": fin(c.max_add),
                    "n_violations": c.n_violations,
                    "violations": [
                        {
                            "pair": [int(u), int(v)],
                            "dist_g": int(dg),
                            "dist_h": None if dh is None else int(dh),
                        }
                        for u, v, dg, dh in sorted(
                            c.violations, key=lambda t: (t[0], t[1])
                        )[:violation_cap]
                    ],
                }
            )
        return {
            "classes": classes,
            "size": self.size,
            "n_violations": self.n_violations,
            "skipped_unreachable": self.skipped_unreachable,
            "bound_ratio": fin(self.bound_ratio),
        }


# A pair class of the verifier core: `select(dg, dh)` masks the block cells
# it counts among the scope's pairs, and it bounds the candidate distance by
# dist_h <= alpha * dist_g + beta, or by dist_h >= dist_g when `lower`.
_Rule = namedtuple("_Rule", "alpha beta select lower", defaults=(False,))


def _class_from_mask(rep: ClassReport, block, dg, dh, mask, lower: bool) -> None:
    """Fold the masked (root-row, target-column) pairs of some rows into
    `rep`: their count, their violations and, for an upper bound, their
    maximum stretch.  An unreachable candidate distance is infinite for an
    upper bound; a lower bound flags every candidate distance below the
    host's, and every one the host cannot match (reported with dist_g -1)."""
    pairs = int(np.count_nonzero(mask))
    if pairs == 0:
        return
    if lower:
        dgm, dhm = dg[mask], dh[mask]
        bad = (dhm >= 0) & ((dhm < dgm) | (dgm < 0))
    else:
        dgm = dg[mask].astype(np.float64)
        dhm = dh[mask].astype(np.float64)
        dhm[dhm < 0] = np.inf
        mult, add = float(np.max(dhm / dgm)), float(np.max(dhm - dgm))
        if rep.pairs:
            mult, add = max(rep.max_mult, mult), max(rep.max_add, add)
        rep.max_mult, rep.max_add = mult, add
        bad = dhm > rep.alpha * dgm + rep.beta + _EPS
    rep.pairs += pairs
    if bad.any():
        rows, cols = (x[bad] for x in np.nonzero(mask))
        # rows ascend with the sorted roots, so violations stay (u, v)-sorted
        found = zip(block[rows].tolist(), cols.tolist(), dg[rows, cols].tolist(),
                    dh[rows, cols].tolist())
        rep.violations += [(u, v, a, None if b < 0 else b) for u, v, a, b in found]


def _verify_rows(g: Graph, h, candidate_rows, roots, scope: str, rules: dict) -> StretchReport:
    """The one verifier core: host rows (`hop_distance_matrix`) and the
    candidate's rows (`candidate_rows(h, block)`) from the sorted `roots`
    (None: every vertex), checked in range first, one block of `_ROW_BLOCK`
    at a time.  A block's rows are folded `_FOLD_CELLS` cells at a time, as
    whole rows and at least one: each rule folds its pairs of the rows'
    scope into its report, and scope pairs that no rule counts are
    skipped.  Rows go in root order, so violations stay (u, v)-sorted."""
    roots = _check_roots(g.n, roots)
    cols = np.arange(g.n)
    in_set = np.isin(cols, roots) if scope == SETWISE else None
    step = max(1, _FOLD_CELLS // max(g.n, 1))
    reports = {label: ClassReport(alpha=r.alpha, beta=r.beta) for label, r in rules.items()}
    skipped = 0
    for lo in range(0, len(roots), _ROW_BLOCK):
        block = roots[lo:lo + _ROW_BLOCK]
        dg_rows = hop_distance_matrix(g, block)
        dh_rows = candidate_rows(h, block)
        for at in range(0, len(block), step):
            part, dg, dh = block[at:at + step], dg_rows[at:at + step], dh_rows[at:at + step]
            if scope == SOURCEWISE:
                pairs = cols != part[:, None]
            else:  # unordered pairs, each once from its smaller end
                pairs = cols > part[:, None]
                if in_set is not None:
                    pairs &= in_set
            counted = np.zeros_like(pairs)
            for label, rule in rules.items():
                mask = pairs & rule.select(dg, dh)
                counted |= mask
                _class_from_mask(reports[label], part, dg, dh, mask, rule.lower)
            skipped += int(np.count_nonzero(pairs)) - int(np.count_nonzero(counted))
    return StretchReport(classes=reports, size=h.size, skipped_unreachable=skipped)


def _source_roots(sources: Sequence[int]) -> list:
    roots = sorted(set(sources))
    if not roots:
        raise ValueError("source set must be non-empty")
    return roots


# host-reachable pairs split by host adjacency: dist_g is 1 exactly on edges
_BY_ADJACENCY = {True: lambda dg, dh: dg == 1, False: lambda dg, dh: dg > 1}


def verify_spanner(
    g: Graph,
    h: Spanner,
    sources: Optional[Sequence[int]],
    spec: StretchSpec,
) -> StretchReport:
    """Hop rows in the host and in the candidate's edge set from every
    relevant root; exact max stretches per pair class plus every violating
    pair.  Pairs the host graph cannot connect are skipped (and counted)."""
    if h.n != g.n:
        raise ValueError("candidate and graph disagree on the vertex count")
    if not is_subgraph(h, g):
        raise ValueError("candidate is not a subgraph of the host graph")
    roots = None
    if spec.scope in (SOURCEWISE, SETWISE):
        if sources is None:
            raise ValueError(f"spec {spec.name!r} needs a source set")
        roots = _source_roots(sources)
    rules = {
        label: _Rule(alpha, beta, _BY_ADJACENCY[label == ADJACENT])
        for label, (alpha, beta) in spec.bounds.items()
    }
    return _verify_rows(g, h, hop_distance_matrix, roots, spec.scope, rules)


def verify_emulator(
    g: Graph, h: Emulator, sources: Sequence[int], beta: int
) -> StretchReport:
    """Weighted distances in the emulator against BFS in the host graph:
    the emulator may never undershoot a distance and may overshoot by at
    most beta on every (source, vertex) pair.  Host rows and emulator
    rows come from the one packed-bitset level loop, the emulator's over
    its per-weight CSRs; only roots past the level cap take Dijkstra rows."""
    if beta < 0:
        raise ValueError("beta must be >= 0")
    roots = _source_roots(sources)
    if h.n != g.n:
        raise ValueError("emulator and graph disagree on the vertex count")
    rules = {
        # pairs either side connects: an emulator path between vertices
        # the host cannot connect is an undershoot too
        "lower-sandwich": _Rule(1, 0, lambda dg, dh: (dg >= 0) | (dh >= 0), lower=True),
        "additive-upper": _Rule(1, beta, lambda dg, dh: dg >= 0),
    }
    return _verify_rows(g, h, emulator_distance_matrix, roots, SOURCEWISE, rules)


# ---------------------------------------------------------------------------
# size-versus-bound ratios
# ---------------------------------------------------------------------------


def size_bound(
    formula: str, n: int, k: Optional[int] = None, epsilon: Optional[float] = None
) -> float:
    """Evaluate a construction's nominal edge-count expression."""
    if formula == "hybrid":
        if k is None:
            raise ValueError("hybrid bound needs k")
        return k * k * n ** (1.0 + 1.0 / k)
    if formula == "swmult":
        if k is None or epsilon is None:
            raise ValueError("swmult bound needs k and epsilon")
        return k * k * n ** (1.0 + epsilon / k)
    if formula == "swadd":
        if k is None or epsilon is None:
            raise ValueError("swadd bound needs k and epsilon")
        return k * n ** (1.0 + (k * epsilon + 1.0) / (2.0 * k + 2.0))
    if formula in ("emu2", "sw4"):
        if epsilon is None:
            raise ValueError(f"{formula} bound needs epsilon")
        return n ** (1.0 + epsilon / 2.0)
    raise ValueError(f"unknown size formula {formula!r}")


def size_report(
    h, formula: str, n: int, k: Optional[int] = None, epsilon: Optional[float] = None
) -> float:
    """Edge count of a spanner or emulator divided by its nominal bound;
    0.0 when the bound is 0, which happens only for n = 0 (no edges)."""
    bound = size_bound(formula, n, k=k, epsilon=epsilon)
    return h.size / bound if bound else 0.0
