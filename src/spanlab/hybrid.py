"""Spanner with two stretch regimes: adjacent pairs get 2k-1, everything
else gets k.  Built from the level clustering plus bounded path suffixes
between center pairs and between cluster pairs at complementary levels.

The path phases are array-native: every vertex's hop row comes once from
the packed-bitset BFS row kernel into one n x n matrix, closest cluster
pairs reduce its per-cluster minima (`clustering.cluster_minima`) over
each level's member-ordered columns, and canonical-parent walks take each
step for all their pairs at once with the pair step of `graphs`
(`_closer_neighbors`).  Every phase's edges are sorted edge codes, united
into the output by `unique_codes`, the one sort-based dedupe.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .clustering import cluster_minima, cluster_sequence
from .graphs import Graph, Spanner, _bfs_rows, _closer_neighbors, edge_codes, unique_codes
# spanbench's tracer self-test reads spanlab.hybrid.bfs_distances: keep the binding.
from .graphs import bfs_distances  # noqa: F401

# Source clusters per closest-pair block and member rows per chunk of it,
# so temporaries stay near _BLOCK * n entries; walks go _BLOCK**2 at a time.
_BLOCK = 256


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
    """The min(ell, length) edges of `path` next to the anchor end, as (min, max) tuples."""
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
    return {(a, b) if a < b else (b, a) for a, b in zip(seg, seg[1:])}


def hop_rows(g: Graph) -> np.ndarray:
    """Every vertex's hop row as one n x n matrix (int16, int32 once
    n >= 2**15; UNREACHED where cut off), filled by one call of the
    packed-bitset BFS row kernel (`_bfs_rows`) over the graph's kept CSR."""
    return _bfs_rows(g, None, np.int16 if g.n < 2**15 else np.int32)


def suffix_walk(csr, dist: np.ndarray, roots, targets, ell: int) -> np.ndarray:
    """Edges within `ell` steps of each target on its canonical path from
    the matching root, as sorted unique codes min*n + max.

    The canonical parent of v under root r is the minimum-id neighbor w
    with dist[r, w] == dist[r, v] - 1, the rule of `trace_parent_path`:
    r itself at distance 1, else the first such w of v's ascending
    neighbor list (`_closer_neighbors`).  Pairs at distance 0 or
    unreachable add nothing.  Walks go _BLOCK**2 at a time.
    """
    n = dist.shape[0]
    cells = dist.reshape(-1)
    roots = np.asarray(roots, np.int64)
    targets = np.asarray(targets, np.int64)
    out = np.empty(0, np.int64)
    for lo in range(0, len(roots), _BLOCK * _BLOCK):
        r, cur = roots[lo:lo + _BLOCK * _BLOCK], targets[lo:lo + _BLOCK * _BLOCK]
        codes = [out]
        for _ in range(ell):
            # walks that meet share every later step
            key = unique_codes(r * n + cur)
            d = cells[key]
            live = d > 0
            key, d = key[live], d[live]
            if not len(key):
                break
            r, cur = np.divmod(key, n)
            parent = r.copy()
            far = np.flatnonzero(d > 1)
            parent[far] = _closer_neighbors(csr, cells, r[far], cur[far], d[far] - 1)
            codes.append(edge_codes(n, cur, parent))
            cur = parent
        out = unique_codes(*codes)
    return out


def closest_pairs(dist: np.ndarray, sources, targets):
    """Closest vertex pair between every source and target cluster.

    Each side is a clustering as (members, starts) columns: cluster i is
    members[starts[i]:starts[i + 1]], members ascending.  For source
    cluster i and target cluster j the pick is the lexicographic minimum of
    (dist[m, u], m, u) over members m of i and u of j with dist[m, u] >= 0:
    `cluster_minima` gives every member row its nearest target member, and
    the first of i's rows that is nearest wins.  Returns arrays (i, j, m,
    u, d) over the cluster pairs that have a pick.  Member rows go `_BLOCK`
    at a time, so temporaries stay near _BLOCK * n entries.
    """
    n = dist.shape[0]
    members, starts = sources
    size = len(members)
    owner = np.repeat(np.arange(len(starts)), np.diff(starts, append=size))
    # per cluster pair the minimum d << bits | row over the source rows, and that row's u
    bits, low = size.bit_length(), (1 << size.bit_length()) - 1
    best = np.full((len(starts), len(targets[1])), n << bits, np.int64)
    pick = np.zeros_like(best)
    for lo in range(0, size, _BLOCK):
        key, u = cluster_minima(dist[members[lo:lo + _BLOCK]], *targets)
        key <<= bits
        key |= np.arange(lo, lo + len(u))[:, None]
        ids, seg = np.unique(owner[lo:lo + _BLOCK], return_index=True)
        key = np.minimum.reduceat(key, seg, axis=0)
        take = key < best[ids]
        best[ids] = np.where(take, key, best[ids])
        pick[ids] = np.where(take, np.take_along_axis(u, (key & low) - lo, axis=0), pick[ids])
    i, j = np.nonzero(best >> bits < n)
    return i, j, members[best[i, j] & low], pick[i, j], best[i, j] >> bits


def build_hybrid(g: Graph, k: int, seed: int) -> Spanner:
    """Assemble the two-regime spanner.

    Phase one is the level clustering at density exponent 1/k.  Phase two
    adds, for every center pair across the split levels, the last
    `suffix_len` edges of their canonical shortest path (anchored at the
    higher-level center).  Phase three does the same for every ordered
    cluster pair at complementary levels, with a shorter 2k-1 budget away
    from the split levels: the path runs from the min-id nearest member of
    the first cluster to its closest member of the second (`closest_pairs`).

    Phases two and three read one hop matrix of every vertex's row from the
    packed-bitset BFS row kernel (`hop_rows`) and walk canonical parents as
    arrays (`suffix_walk`) over the graph's kept CSR (`g.csr`), which the
    kernel reads too.  `meta["phase_edges"]` counts each phase's edges,
    overlaps included; `meta["phase_new_edges"]` counts the edges each
    phase adds to the earlier ones, and sums to `size`.
    """
    params = hybrid_params(k)
    cs = cluster_sequence(g, k, 1.0 / k, seed)
    hk = cs.spanner_edges
    dist = hop_rows(g)

    # Center pairs across the split levels.
    z_low = cs.levels[params.t_prime].centers
    z_high = cs.levels[params.t].centers
    roots = np.repeat(np.asarray(z_low, np.int64), len(z_high))
    e2 = suffix_walk(g.csr, dist, roots, np.tile(np.asarray(z_high, np.int64), len(z_low)),
                     params.suffix_len)

    # Cluster pairs at complementary levels.
    e3 = [np.empty(0, np.int64)]
    for tau in range(k):
        sigma = k - 1 - tau
        ell = params.suffix_len if tau in (params.t, params.t_prime) else params.edge_budget
        side1, side2 = cs.levels[tau], cs.levels[sigma]
        if not len(side1.starts) or not len(side2.starts):
            continue
        # blocks of source clusters, sliced off the level's columns
        bounds = np.append(side1.starts, len(side1.members))
        for lo in range(0, len(side1.starts), _BLOCK):
            a, b = bounds[lo], bounds[min(lo + _BLOCK, len(side1.starts))]
            sources = side1.members[a:b], side1.starts[lo:lo + _BLOCK] - a
            _, _, m, u, _ = closest_pairs(dist, sources, (side2.members, side2.starts))
            e3.append(suffix_walk(g.csr, dist, m, u, ell))

    e3 = unique_codes(*e3)
    upto2 = unique_codes(hk, e2)
    edges = unique_codes(upto2, e3)
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
        "phase_new_edges": {
            "clustering": len(hk),
            "center_paths": len(upto2) - len(hk),
            "cluster_paths": len(edges) - len(upto2),
        },
        "size": len(edges),
        "centers_low": list(z_low),
        "centers_high": list(z_high),
    }
    return Spanner(g.n, edges, meta)
