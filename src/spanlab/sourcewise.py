"""Multiplicative spanner for a designated source set: stretch 2k-1 for
source-adjacent pairs, 2k-2 for every other source/vertex pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

from .clustering import cluster_sequence
from .graphs import (Graph, Spanner, _check_root_set, bfs_distances, pair_codes,
                     trace_parent_path, unique_codes)
from .hybrid import path_suffix


@dataclass(frozen=True)
class SourceSet:
    """Ordered distinct source ids with their density exponent in [0, 1]."""

    vertices: tuple
    epsilon: float
    n: int

    @classmethod
    def from_ids(cls, ids: Iterable[int], n: int) -> "SourceSet":
        """The sorted distinct `ids` (`_check_root_set`): ValueError if there is
        none or for the smallest outside [0, n), TypeError for a non-integer."""
        if n < 2:
            raise ValueError("host graph needs n >= 2")
        vs = tuple(_check_root_set(n, ids, "source"))
        eps = math.log(len(vs)) / math.log(n)
        return cls(vertices=vs, epsilon=eps, n=n)

    def __len__(self) -> int:
        return len(self.vertices)

    def check_host(self, g: Graph) -> None:
        """Reject a host graph of another size: every parameter derives
        from epsilon, which is only meaningful for the n it was built with."""
        if self.n != g.n:
            raise ValueError(f"source set is for n={self.n} but the graph has n={g.n}")


@dataclass(frozen=True)
class SwParams:
    k: int
    mu: float
    suffix_len: int


def sw_params(k: int, sources: SourceSet, n: int) -> SwParams:
    if k < 2:
        raise ValueError("k must be >= 2")
    if n < 2:
        raise ValueError("need n >= 2")
    return SwParams(k=k, mu=sources.epsilon / k, suffix_len=2 * k * k + 3 * k)


def build_sourcewise_mult(g: Graph, sources: SourceSet, k: int, seed: int) -> Spanner:
    """Level clustering at density exponent eps/k, then for every
    (source, level-(k-1) center) pair keep the last `suffix_len` edges of
    their canonical shortest path, anchored at the center.
    """
    sources.check_host(g)
    params = sw_params(k, sources, g.n)
    cs = cluster_sequence(g, k, params.mu, seed)
    hk = cs.spanner_edges
    centers = cs.levels[k - 1].centers

    suffixes: set = set()
    for s_j in sources.vertices:
        dist = bfs_distances(g, [s_j])
        for z_i in centers:
            path = trace_parent_path(g, dist, z_i)
            if path is None or len(path) < 2:
                continue
            suffixes |= path_suffix(path, params.suffix_len, anchor=z_i)

    edges = unique_codes(hk, pair_codes(g.n, suffixes))
    meta = {
        "construction": "swmult",
        "n": g.n,
        "k": k,
        "seed": seed,
        "epsilon": sources.epsilon,
        "mu": params.mu,
        "suffix_len": params.suffix_len,
        "phase_edges": {"clustering": len(hk), "source_paths": len(suffixes)},
        "size": len(edges),
        "sources": list(sources.vertices),
        "centers": list(centers),
    }
    return Spanner(g.n, edges, meta)
