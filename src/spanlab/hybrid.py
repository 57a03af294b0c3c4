"""Spanner with two stretch regimes: adjacent pairs get 2k-1, everything
else gets k.  Built from the level clustering plus bounded path suffixes
between center pairs and between cluster pairs at complementary levels.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .clustering import cluster_sequence
from .graphs import (
    Graph,
    Spanner,
    bfs,
    bfs_distances,
    norm_edge,
    trace_owner_path,
    trace_parent_path,
)


@dataclass(frozen=True)
class HybridParams:
    """Level split and suffix budget for a given stretch parameter k."""

    k: int
    t: int
    t_prime: int
    suffix_len: int

    @property
    def edge_budget(self) -> int:
        """Suffix length used for cluster pairs away from the split levels."""
        return 2 * self.k - 1


def hybrid_params(k: int) -> HybridParams:
    if k < 2:
        raise ValueError("k must be >= 2")
    t = k // 2
    t_prime = k - 1 - t
    return HybridParams(k=k, t=t, t_prime=t_prime, suffix_len=7 * t + 8 * t * t)


def path_suffix(path: Sequence[int], ell: int, anchor: int) -> set:
    """The min(ell, length) edges of `path` adjacent to the anchor endpoint."""
    if ell < 0:
        raise ValueError("ell must be >= 0")
    if not path:
        return set()
    if anchor == path[-1]:
        seg = path[max(0, len(path) - 1 - ell):]
    elif anchor == path[0]:
        seg = path[: ell + 1]
    else:
        raise ValueError("anchor must be one of the path endpoints")
    return {norm_edge(a, b) for a, b in zip(seg, seg[1:])}


def _closest_target(dist, owner, targets) -> Optional[int]:
    """Target vertex realizing (min distance, min owner id, min target id)."""
    best = None
    for u2 in targets:
        d = dist[u2]
        if d < 0:
            continue
        key = (d, owner[u2] if owner is not None else 0, u2)
        if best is None or key < best:
            best = key
    return None if best is None else best[2]


def build_hybrid(g: Graph, k: int, seed: int) -> Spanner:
    """Assemble the two-regime spanner.

    Phase one is the level clustering at density exponent 1/k.  Phase two
    adds, for every center pair across the split levels, the last
    `suffix_len` edges of their canonical shortest path (anchored at the
    higher-level center).  Phase three does the same for every ordered
    cluster pair at complementary levels, with a shorter 2k-1 budget away
    from the split levels.
    """
    params = hybrid_params(k)
    cs = cluster_sequence(g, k, 1.0 / k, seed)
    hk = set(cs.spanner_edges)

    dist_cache: dict[int, list[int]] = {}

    def dist_from(v: int):
        row = dist_cache.get(v)
        if row is None:
            row = bfs_distances(g, [v])
            dist_cache[v] = row
        return row

    # Center pairs across the split levels.
    e2: set = set()
    z_low = cs.centers_at(params.t_prime)
    z_high = cs.centers_at(params.t)
    for z_i in z_low:
        dist = dist_from(z_i)
        for z_j in z_high:
            path = trace_parent_path(g, dist, z_j)
            if path is None or len(path) < 2:
                continue
            e2 |= path_suffix(path, params.suffix_len, anchor=z_j)

    # Cluster pairs at complementary levels.
    e3: set = set()
    for tau in range(k):
        sigma = k - 1 - tau
        ell = params.suffix_len if tau in (params.t, params.t_prime) else params.edge_budget
        side1 = cs.clusters_at(tau)
        side2 = cs.clusters_at(sigma)
        if not side1 or not side2:
            continue
        target_sets = [sorted(side2[z]) for z in sorted(side2)]
        for z1 in sorted(side1):
            members = side1[z1]
            if len(members) == 1:
                dist = dist_from(members[0])
                owner = None
                res = None
            else:
                res = bfs(g, members)
                dist, owner = res.dist, res.owner
            for targets in target_sets:
                u2 = _closest_target(dist, owner, targets)
                if u2 is None or dist[u2] == 0:
                    continue
                if res is None:
                    path = trace_parent_path(g, dist, u2)
                else:
                    path = trace_owner_path(g, res, u2)
                e3 |= path_suffix(path, ell, anchor=u2)

    edges = hk | e2 | e3
    meta = {
        "construction": "hybrid",
        "n": g.n,
        "k": k,
        "seed": seed,
        "t": params.t,
        "t_prime": params.t_prime,
        "suffix_len": params.suffix_len,
        "phase_edges": {
            "clustering": len(hk),
            "center_paths": len(e2),
            "cluster_paths": len(e3),
        },
        "size": len(edges),
        "centers_low": list(z_low),
        "centers_high": list(z_high),
    }
    return Spanner(n=g.n, edges=frozenset(edges), meta=meta)
