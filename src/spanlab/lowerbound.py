"""Layered hard instances for additive sourcewise approximation, plus an
auditor that hunts for a level chain of missing edges certifying additive
distortion of at least 2k in a candidate subgraph.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .graphs import Graph, Spanner, _member, edge_codes, hop_distance_matrix, is_subgraph
from .util import ceil_int

_MAX_VERTICES = 1_000_000  # the most vertices `build_lb_graph` materializes


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

    @property
    def in_regime(self) -> bool:
        """Whether k <= ln(r)/ln(ln(r)), the regime the family is meant for
        (always, for r = 2, where ln(ln(r)) is negative)."""
        loglog = math.log(math.log(self.r))
        return loglog <= 0 or self.k <= math.log(self.r) / loglog

    def radices(self, level: int) -> list[int]:
        return _level_radices(self.k, self.width1, self.width2, level)

    def vertex_id(self, level: int, coords) -> int:
        if not 1 <= level <= self.k + 1:
            raise ValueError(f"level {level} out of range [1,{self.k + 1}]")
        return self.level_offsets[level - 1] + _rank(coords, self.radices(level))


def build_lb_graph(r: int, k: int, epsilon: float) -> LayeredGraph:
    """Materialize the layered instance for the given parameters, in or out
    of its regime (`LayeredGraph.in_regime`).

    The edge count satisfies an exact closed form, asserted after
    generation.
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
    if total > _MAX_VERTICES:
        raise ValueError(f"instance would have {total} vertices (cap {_MAX_VERTICES})")
    level_sizes = [size1] + [size_other] * k
    level_offsets = np.cumsum([0] + level_sizes[:-1]).tolist()
    radices = [_level_radices(k, width1, width2, lv) for lv in range(1, k + 2)]
    # 0-based coordinates, one row per vertex, each level in rank order
    digits = np.concatenate([np.indices(rs).reshape(k, -1).T for rs in radices])

    # a level-lv vertex meets every level-(lv+1) vertex that differs from it
    # only in coordinate lv-1, whose stride is width1**(k-lv) on both levels:
    # zero that digit of its rank, then step through the next level's radix
    tails, heads = [], []
    for lv in range(1, k + 1):
        stride, radix = width1 ** (k - lv), radices[lv][lv - 1]
        tail = np.arange(level_offsets[lv - 1], level_offsets[lv])
        base = tail - level_offsets[lv - 1] - stride * digits[tail, lv - 1]
        tails.append(np.repeat(tail, radix))
        heads.append((level_offsets[lv] + base[:, None] + stride * np.arange(radix)).ravel())

    graph = Graph(total, np.column_stack([np.concatenate(tails), np.concatenate(heads)]))
    if graph.m != k * size1 * width2:
        raise RuntimeError("layered-instance counting identity failed (internal bug)")

    return LayeredGraph(
        r=r,
        k=k,
        epsilon=epsilon,
        width1=width1,
        width2=width2,
        graph=graph,
        levels=np.repeat(np.arange(1, k + 2), level_sizes).tolist(),
        coords=list(zip(*(digits + 1).T.tolist())),
        sources=list(range(size1)),
        level_sizes=level_sizes,
        level_offsets=level_offsets,
    )


@dataclass
class MissingChain:
    """One vertex per level whose k connecting edges all miss the candidate."""

    vertices: list[int]


def find_missing_chain(lg: LayeredGraph, h: Spanner) -> Optional[MissingChain]:
    """The lexicographically first level chain of candidate-missing edges.

    Guaranteed to succeed when the candidate keeps fewer than |E|/k edges;
    returns None when every chain has a surviving edge.  Marks, level by
    level from the top, the vertices that still climb to level k+1 over
    missing edges, then walks from the first marked source through each
    vertex's min-id marked up-neighbor: every vertex is settled once.
    """
    if h.n != lg.graph.n:
        raise ValueError("candidate and graph disagree on the vertex count")
    if not is_subgraph(h, lg.graph):
        raise ValueError("candidate is not a subgraph of the layered instance")
    k, n = lg.k, lg.graph.n
    # next hops: the host's CSR cut down to the missing edges that climb a level
    indptr, indices = lg.graph.csr
    tail = np.repeat(np.arange(n), np.diff(indptr))
    levels = np.asarray(lg.levels)
    up = (levels[indices] == levels[tail] + 1) & ~_member(h.codes, edge_codes(n, tail, indices))
    tail, head = tail[up], indices[up]
    # every missing edge climbs one level, so pass i marks level k+1-i
    climbs = levels == k + 1
    for _ in range(k):
        climbs[tail[climbs[head]]] = True
    first = np.flatnonzero(climbs[lg.sources])
    if not len(first):
        return None
    bounds = np.searchsorted(tail, np.arange(n + 1))
    chain = [lg.sources[first[0]]]
    for _ in range(k):
        nxt = head[bounds[chain[-1]]:bounds[chain[-1] + 1]]
        chain.append(int(nxt[climbs[nxt]][0]))  # neighbor lists ascend
    return MissingChain(vertices=chain)


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
