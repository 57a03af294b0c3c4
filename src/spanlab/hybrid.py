"""Spanner with two stretch regimes: adjacent pairs get 2k-1, everything
else gets k.  Built from the level clustering plus bounded path suffixes
between center pairs and between cluster pairs at complementary levels.

The path phases are array-native: every vertex's hop row comes once from
the packed-bitset BFS row kernel into one n x n matrix, closest cluster
pairs are masked minima over it, and canonical-parent walks run on the
pairs walked.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Sequence

import numpy as np

from .clustering import cluster_sequence
from .graphs import Graph, Spanner, _bfs_rows, norm_edge
# spanbench's tracer self-test reads spanlab.hybrid.bfs_distances: keep the binding.
from .graphs import bfs_distances  # noqa: F401

# Source clusters per closest-pair block and member rows per chunk of it,
# so temporaries stay near _BLOCK * n entries; walks go _BLOCK**2 at a time.
_BLOCK = 256
_NO_PAIR = np.iinfo(np.int64).max


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


def hop_rows(g: Graph) -> np.ndarray:
    """Every vertex's hop row as one n x n matrix (int16, int32 once
    n >= 2**15; UNREACHED where cut off), filled by one call of the
    packed-bitset BFS row kernel over the graph's kept CSR."""
    n = g.n
    dist = np.empty((n, n), np.int16 if n < 2**15 else np.int32)
    _bfs_rows(g.csr, np.arange(n), dist)
    return dist


def suffix_walk(csr, dist: np.ndarray, roots, targets, ell: int) -> np.ndarray:
    """Edges within `ell` steps of each target on its canonical path from
    the matching root, as sorted unique codes min*n + max.

    The canonical parent of v under root r is the minimum-id neighbor w
    with dist[r, w] == dist[r, v] - 1, the rule of `trace_parent_path`.
    Pairs at distance 0 or unreachable add nothing.  Walks go _BLOCK**2
    at a time.
    """
    indptr, indices = csr
    n = dist.shape[0]
    roots = np.asarray(roots, np.int64)
    targets = np.asarray(targets, np.int64)
    out = np.empty(0, np.int64)
    for lo in range(0, len(roots), _BLOCK * _BLOCK):
        r, cur = roots[lo:lo + _BLOCK * _BLOCK], targets[lo:lo + _BLOCK * _BLOCK]
        codes = [out]
        for _ in range(ell):
            # walks that meet share every later step
            r, cur = np.divmod(np.unique(r * n + cur), n)
            d = dist[r, cur].astype(np.int64)
            live = d > 0
            r, cur, d = r[live], cur[live], d[live]
            if not len(cur):
                break
            start = indptr[cur]
            deg = indptr[cur + 1] - start
            seg = np.cumsum(deg) - deg
            nbr = indices[np.repeat(start - seg, deg) + np.arange(int(deg.sum()))]
            closer = dist[np.repeat(r, deg), nbr] == np.repeat(d - 1, deg)
            parent = np.minimum.reduceat(np.where(closer, nbr, n), seg)
            codes.append(np.minimum(cur, parent) * n + np.maximum(cur, parent))
            cur = parent
        out = np.unique(np.concatenate(codes))
    return out


def closest_pairs(
    dist: np.ndarray, sources: Sequence[Sequence[int]], targets: Sequence[Sequence[int]]
):
    """Closest vertex pair between every source and target cluster.

    For source cluster i and target cluster j (non-empty member lists) the
    pick is the lexicographic minimum of (dist[m, u], m, u) over members m
    of i and u of j with dist[m, u] >= 0: the nearest target under the
    min-id nearest member, then the min-id target.  Returns arrays
    (i, j, m, u, d) over the cluster pairs that have a pick.  Member rows
    go `_BLOCK` at a time, so temporaries stay near _BLOCK * n entries.
    """
    n = dist.shape[0]
    best = np.full((len(sources), len(targets)), _NO_PAIR, np.int64)
    if best.size:
        cols = np.fromiter(chain.from_iterable(targets), np.int64)
        col_starts = np.cumsum([0] + [len(c) for c in targets[:-1]])
        rows = np.fromiter(chain.from_iterable(sources), np.int64)
        owner = np.repeat(np.arange(len(sources)), [len(c) for c in sources])
        for lo in range(0, len(rows), _BLOCK):
            r, c = rows[lo:lo + _BLOCK], owner[lo:lo + _BLOCK]
            key = dist[np.ix_(r, cols)].astype(np.int64)
            cut = key < 0
            key *= n
            key += r[:, None]
            key *= n
            key += cols
            key[cut] = _NO_PAIR
            per_row = np.minimum.reduceat(key, col_starts, axis=1)
            seg = np.flatnonzero(np.r_[True, c[1:] != c[:-1]])
            ids = c[seg]
            best[ids] = np.minimum(best[ids], np.minimum.reduceat(per_row, seg, axis=0))
    i, j = np.nonzero(best != _NO_PAIR)
    d, rest = np.divmod(best[i, j], n * n)
    m, u = np.divmod(rest, n)
    return i, j, m, u, d


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
    hk = set(cs.spanner_edges)
    n = g.n
    dist = hop_rows(g)

    # Center pairs across the split levels.
    z_low = cs.centers_at(params.t_prime)
    z_high = cs.centers_at(params.t)
    roots = np.repeat(np.asarray(z_low, np.int64), len(z_high))
    e2 = suffix_walk(g.csr, dist, roots, np.tile(np.asarray(z_high, np.int64), len(z_low)),
                     params.suffix_len)

    # Cluster pairs at complementary levels.
    e3 = [np.empty(0, np.int64)]
    for tau in range(k):
        sigma = k - 1 - tau
        ell = params.suffix_len if tau in (params.t, params.t_prime) else params.edge_budget
        side1 = cs.clusters_at(tau)
        side2 = cs.clusters_at(sigma)
        if not side1 or not side2:
            continue
        sources = [side1[z] for z in sorted(side1)]
        targets = [side2[z] for z in sorted(side2)]
        for lo in range(0, len(sources), _BLOCK):
            _, _, m, u, _ = closest_pairs(dist, sources[lo:lo + _BLOCK], targets)
            e3.append(suffix_walk(g.csr, dist, m, u, ell))

    hk_codes = np.array([u * n + v for u, v in hk], np.int64)
    e3 = np.unique(np.concatenate(e3))
    new2 = np.setdiff1d(e2, hk_codes)
    new3 = np.setdiff1d(e3, np.union1d(hk_codes, e2))
    lo_end, hi_end = np.divmod(np.concatenate([new2, new3]), max(n, 1))
    edges = hk | set(zip(lo_end.tolist(), hi_end.tolist()))
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
            "center_paths": len(new2),
            "cluster_paths": len(new3),
        },
        "size": len(edges),
        "centers_low": list(z_low),
        "centers_high": list(z_high),
    }
    return Spanner(n=g.n, edges=frozenset(edges), meta=meta)
