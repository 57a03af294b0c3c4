"""Layered hard instances for additive sourcewise approximation, plus an
auditor that hunts for a level chain of missing edges certifying additive
distortion of at least 2k in a candidate subgraph.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Optional

from .graphs import Graph, Spanner, hop_distance_matrix, norm_edge
from .util import ceil_int


def _level_radices(k: int, width1: int, width2: int, level: int) -> list[int]:
    """Coordinate ranges (a_1..a_k) of the vertices on one level."""
    return [width1 if level == 1 else width2] + [width1] * (k - 1)


def _rank(coords, radices) -> int:
    """Mixed-radix index of 1-based coordinates within their level."""
    acc = 0
    for a, radix in zip(coords, radices):
        if not 1 <= a <= radix:
            raise ValueError(f"coordinate {a} out of range [1,{radix}]")
        acc = acc * radix + (a - 1)
    return acc


@dataclass
class LayeredGraph:
    """k+1 vertex levels with coordinate-replacement bipartite connections.

    Level-1 vertices (the sources) carry first coordinates in [1, width1];
    all other levels use [1, width2] there.  Every edge joins consecutive
    levels i and i+1 and rewrites exactly coordinate i.
    """

    r: int
    k: int
    epsilon: float
    width1: int          # range of every coordinate except the level-2+ first
    width2: int          # first-coordinate range on levels >= 2
    graph: Graph
    levels: list[int]    # per-vertex level in 1..k+1
    coords: list[tuple]  # per-vertex coordinate tuple (a_1..a_k)
    sources: list[int]   # the level-1 vertices
    level_sizes: list[int]
    level_offsets: list[int]

    def radices(self, level: int) -> list[int]:
        return _level_radices(self.k, self.width1, self.width2, level)

    def vertex_id(self, level: int, coords) -> int:
        return self.level_offsets[level - 1] + _rank(coords, self.radices(level))


def build_lb_graph(
    r: int, k: int, epsilon: float, max_vertices: int = 1_000_000
) -> LayeredGraph:
    """Materialize the layered instance for the given parameters.

    The per-level vertex and edge counts satisfy exact closed forms which
    are asserted after generation.
    """
    if r < 2:
        raise ValueError("r must be >= 2")
    if k < 1:
        raise ValueError("k must be >= 1")
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError("epsilon must lie in [0, 1]")
    width1 = ceil_int(float(r) ** (epsilon / k))
    width2 = ceil_int(r / float(width1 ** (k - 1)))
    size1 = width1 ** k
    size_other = width2 * width1 ** (k - 1)
    total = size1 + k * size_other
    if total > max_vertices:
        raise ValueError(
            f"instance would have {total} vertices (cap {max_vertices})"
        )
    if r >= 3 and math.log(math.log(r)) > 0 and k > math.log(r) / math.log(math.log(r)):
        warnings.warn(
            f"k={k} is outside the intended k <= ln(r)/ln(ln(r)) regime for r={r}",
            stacklevel=2,
        )

    level_sizes = [size1] + [size_other] * k
    level_offsets = [0]
    for s in level_sizes[:-1]:
        level_offsets.append(level_offsets[-1] + s)

    levels: list[int] = []
    coords: list[tuple] = []
    for level in range(1, k + 2):
        tuples = [()]
        for radix in _level_radices(k, width1, width2, level):
            tuples = [t + (a,) for t in tuples for a in range(1, radix + 1)]
        for t in tuples:
            levels.append(level)
            coords.append(t)

    edges: list[tuple[int, int]] = []
    for u in range(total):
        level = levels[u]
        if level > k:
            continue
        cs = coords[u]
        i = level - 1  # 0-based coordinate rewritten by this level's edges
        radices = _level_radices(k, width1, width2, level + 1)
        for c in range(1, radices[i] + 1):
            nxt = cs[:i] + (c,) + cs[i + 1:]
            edges.append((u, level_offsets[level] + _rank(nxt, radices)))

    graph = Graph(total, edges)
    expected_m = k * size1 * width2
    if graph.n != total or graph.m != expected_m:
        raise RuntimeError("layered-instance counting identity failed (internal bug)")

    return LayeredGraph(
        r=r,
        k=k,
        epsilon=epsilon,
        width1=width1,
        width2=width2,
        graph=graph,
        levels=levels,
        coords=coords,
        sources=list(range(size1)),
        level_sizes=level_sizes,
        level_offsets=level_offsets,
    )


@dataclass
class MissingChain:
    """One vertex per level whose k connecting edges all miss the candidate."""

    vertices: list[int]


def find_missing_chain(lg: LayeredGraph, h: Spanner) -> Optional[MissingChain]:
    """Backtracking search for a level chain of candidate-missing edges.

    Guaranteed to succeed when the candidate keeps fewer than |E|/k edges;
    returns None when every chain has a surviving edge.
    """
    if h.n != lg.graph.n:
        raise ValueError("candidate and graph disagree on the vertex count")
    if not h.edges <= lg.graph.edges:
        raise ValueError("candidate is not a subgraph of the layered instance")
    k = lg.k
    kept = h.edges

    def extend(v: int, level: int, acc: list[int]) -> Optional[list[int]]:
        acc.append(v)
        if level == k + 1:
            return acc
        for w in lg.graph.adj[v]:
            if lg.levels[w] == level + 1 and norm_edge(v, w) not in kept:
                found = extend(w, level + 1, acc)
                if found is not None:
                    return found
        acc.pop()
        return None

    for v1 in lg.sources:
        found = extend(v1, 1, [])
        if found is not None:
            return MissingChain(vertices=found)
    return None


def lb_audit(lg: LayeredGraph, h: Spanner) -> dict:
    """Search for a witness pair whose candidate distance proves additive
    distortion >= 2k, and report both exact distances."""
    chain = find_missing_chain(lg, h)
    if chain is None:
        return {
            "chain": None,
            "witness": None,
            "dist_graph": None,
            "dist_candidate": None,
            "certified": False,
            "note": "no all-missing chain; candidate not refuted",
        }
    v1, vlast = chain.vertices[0], chain.vertices[-1]
    dist_graph = int(hop_distance_matrix(lg.graph, [v1])[0, vlast])
    dh = int(hop_distance_matrix(h, [v1])[0, vlast])
    dist_candidate = None if dh < 0 else dh
    certified = dist_graph <= lg.k and (dist_candidate is None or dist_candidate >= 3 * lg.k)
    return {
        "chain": list(chain.vertices),
        "witness": [v1, vlast],
        "dist_graph": dist_graph,
        "dist_candidate": dist_candidate,
        "certified": certified,
    }
