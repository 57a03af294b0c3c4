"""Exact-distance auditing of spanners and emulators: per-pair-class
maximum stretch, full violation lists, and size-versus-bound ratios.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .graphs import (
    Emulator,
    Graph,
    Spanner,
    emulator_distance_matrix,
    hop_distance_matrix,
)

_EPS = 1e-9

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


def _class_from_mask(roots, dg, dh, mask, alpha, beta) -> ClassReport:
    """Stretch statistics over the masked (root-row, target-column) pairs."""
    rep = ClassReport(alpha=alpha, beta=beta)
    rep.pairs = int(mask.sum())
    if rep.pairs == 0:
        return rep
    dgm = dg[mask].astype(np.float64)
    dhm = dh[mask].astype(np.float64)
    dhm[dhm < 0] = np.inf
    rep.max_mult = float(np.max(dhm / dgm))
    rep.max_add = float(np.max(dhm - dgm))
    bad = dhm > alpha * dgm + beta + _EPS
    if bad.any():
        rows, cols = np.nonzero(mask)
        for idx in np.nonzero(bad)[0]:
            u = int(roots[rows[idx]])
            v = int(cols[idx])
            dgv = int(dg[rows[idx], cols[idx]])
            dhv = int(dh[rows[idx], cols[idx]])
            rep.violations.append((u, v, dgv, None if dhv < 0 else dhv))
    rep.violations.sort(key=lambda t: (t[0], t[1]))
    return rep


def verify_spanner(
    g: Graph,
    h: Spanner,
    sources: Optional[Sequence[int]],
    spec: StretchSpec,
) -> StretchReport:
    """BFS in the host and in the candidate from every relevant root; exact
    max stretches per pair class plus every violating pair.  Pairs the host
    graph cannot connect are skipped (and counted)."""
    if not h.edges <= g.edges:
        raise ValueError("candidate is not a subgraph of the host graph")
    if spec.scope in (SOURCEWISE, SETWISE):
        if sources is None:
            raise ValueError(f"spec {spec.name!r} needs a source set")
        roots = sorted(set(sources))
    else:
        roots = list(range(g.n))

    dg = hop_distance_matrix(g, roots)
    dh = hop_distance_matrix(h.subgraph(), roots)

    nrows = len(roots)
    adjacency = np.zeros((nrows, g.n), dtype=bool)
    pair_mask = np.zeros((nrows, g.n), dtype=bool)
    for i, u in enumerate(roots):
        if g.adj[u]:
            adjacency[i, list(g.adj[u])] = True
        if spec.scope == SOURCEWISE:
            pair_mask[i, :] = True
            pair_mask[i, u] = False
        elif spec.scope == SETWISE:
            pair_mask[i, [v for v in roots if v > u]] = True
        else:
            pair_mask[i, u + 1:] = True

    reachable = dg >= 0
    skipped = int((pair_mask & ~reachable).sum())
    valid = pair_mask & reachable

    classes = {}
    for label, (alpha, beta) in spec.bounds.items():
        mask = valid & adjacency if label == ADJACENT else valid & ~adjacency
        classes[label] = _class_from_mask(np.array(roots), dg, dh, mask, alpha, beta)
    return StretchReport(classes=classes, size=h.size, skipped_unreachable=skipped)


def verify_emulator(
    g: Graph, h: Emulator, sources: Sequence[int], beta: int
) -> StretchReport:
    """Weighted distances in the emulator against BFS in the host graph:
    the emulator may never undershoot a distance and may overshoot by at
    most beta on every (source, vertex) pair.  Both sides are whole
    source-row matrices from batched scipy runs: unweighted rows in the
    host and weighted Dijkstra rows in the emulator."""
    roots = sorted(set(sources))
    if not roots:
        raise ValueError("source set must be non-empty")
    if h.n != g.n:
        raise ValueError("emulator and graph disagree on the vertex count")
    dg = hop_distance_matrix(g, roots)
    dh = emulator_distance_matrix(h, roots)
    pairs = np.ones(dg.shape, dtype=bool)
    pairs[np.arange(len(roots)), roots] = False  # a source is never paired with itself
    host, emu = dg >= 0, dh >= 0

    upper = _class_from_mask(np.array(roots), dg, dh, pairs & host, 1, beta)
    # dist_h < dist_g is an undershoot; an emulator path between vertices
    # the host cannot connect is one too, reported with dist_g = -1
    lower = ClassReport(alpha=1, beta=0)
    lower.pairs = int((pairs & (host | emu)).sum())
    under = pairs & emu & ((dh < dg) | ~host)
    lower.violations = [
        (roots[i], int(v), int(dg[i, v]), int(dh[i, v])) for i, v in zip(*np.nonzero(under))
    ]
    return StretchReport(
        classes={"lower-sandwich": lower, "additive-upper": upper},
        size=h.size,
        skipped_unreachable=int((pairs & ~host & ~emu).sum()),
    )


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
    """Edge count of a spanner or emulator divided by its nominal bound."""
    return h.size / size_bound(formula, n, k=k, epsilon=epsilon)
