"""Additive sourcewise constructions: the purely-additive +2k spanner via
path buying, the +2 emulator, the +2 subsetwise helper, and the +4 spanner
for large source sets.

The +2k spanner reads every host search off arrays: the hop rows of the
sources and of the sampled tree roots come from the packed-bitset BFS
kernel (`hop_distance_matrix`) and their canonical min-id parents from
`parent_rows`; pair classification and path buying share one source
split (`_source_rows`).  The spanner rows of path buying and of the +2
subsetwise helper come from one row kernel call (`_spanner_rows`), which
`_relax_new_edges` keeps exact as edges are bought; path buying and the +2
emulator share one per-cluster minimum (`_nearest_members`).  Edge sets
are sorted edge codes; path buying, which tests one edge at a time, keeps
the growing spanner as neighbor sets built from them (`_adjacency`), and
the edges it buys become codes once, at the end.
"""

from __future__ import annotations

import math
import operator
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .clustering import HubClustering, hub_clustering
from .graphs import (
    _ROW_BLOCK,
    Emulator,
    Graph,
    Spanner,
    edge_codes,
    edge_ends,
    hop_distance_matrix,
    parent_path,
    parent_rows,
    unique_codes,
)
from .sourcewise import SourceSet
from .util import ceil_int, subrng

_INF = float("inf")
_EPS = 1e-9


@dataclass(frozen=True)
class AdditiveParams:
    """Degree/length thresholds and the per-level cost contraction factor."""

    k: int
    epsilon: float
    heavy_degree: int      # vertices of at least this degree count as heavy
    long_threshold: int    # heavy vertices on a path at which it turns long
    level_factor: float    # (2 * long_threshold) ** (1/k)


def additive_params(g: Graph, sources: SourceSet, k: int) -> AdditiveParams:
    if k < 1:
        raise ValueError("k must be >= 1")
    n = g.n
    if n < 2:
        raise ValueError("need n >= 2")
    eps = sources.epsilon
    heavy_degree = ceil_int(float(n) ** ((k * eps + 1.0) / (2.0 * k + 2.0)))
    long_threshold = ceil_int(n * math.log(n) / (heavy_degree * heavy_degree))
    level_factor = (2.0 * long_threshold) ** (1.0 / k)
    return AdditiveParams(
        k=k,
        epsilon=eps,
        heavy_degree=heavy_degree,
        long_threshold=long_threshold,
        level_factor=level_factor,
    )


@dataclass(frozen=True)
class PairClass:
    source: int
    target: int
    heavy_count: int
    is_long: bool


def _heavy_flags(g: Graph, heavy_degree: int) -> np.ndarray:
    return np.diff(g.csr[0]) >= heavy_degree


def classify_pairs(g: Graph, sources: SourceSet, params: AdditiveParams) -> list[PairClass]:
    """Heavy-vertex count along the canonical path of every connected
    source/vertex pair; a pair is long when the count reaches the threshold.
    The counts come from the same source split as the builder's."""
    dist, _, _, count = _source_rows(g, sources, params.heavy_degree)
    out: list[PairClass] = []
    for s, row, counts in zip(sources.vertices, dist, count):
        targets = np.flatnonzero(row >= 0)
        out += [
            PairClass(s, v, c, c >= params.long_threshold)
            for v, c in zip(targets.tolist(), counts[targets].tolist())
        ]
    return out


def _source_rows(g: Graph, sources: SourceSet, heavy_degree: int):
    """The sources' hop rows and parent rows, the heavy flags and the counts."""
    dist = hop_distance_matrix(g, sources.vertices)
    parents = parent_rows(g.csr, dist)
    heavy = _heavy_flags(g, heavy_degree)
    return dist, parents, heavy, _heavy_counts(dist, parents, heavy)


def _heavy_counts(dist: np.ndarray, parents: np.ndarray, heavy: np.ndarray) -> np.ndarray:
    """Heavy vertices (flags `heavy`) on the canonical path from each row's
    root to every vertex the row reaches (0 where it does not), with the
    parent rows `parents`: level by level, each vertex adds its parent's
    count, which the level before made final."""
    count = np.where(dist >= 0, heavy.astype(np.int32), 0).ravel()
    # cell i * n + v, visited by nondecreasing distance; roots already final
    order = np.argsort(dist, axis=None, kind="stable")
    levels = np.searchsorted(dist.ravel()[order], np.arange(1, int(dist.max(initial=0)) + 2))
    parent_cell = (parents + np.arange(0, dist.size, dist.shape[1])[:, None]).ravel()
    for lo, hi in zip(levels, levels[1:]):
        cells = order[lo:hi]
        count[cells] += count[parent_cell[cells]]
    return count.reshape(dist.shape)


def tree_union(g: Graph, roots: Sequence[int]) -> np.ndarray:
    """Edges of the canonical BFS trees (min-id parents, as `bfs` gives
    them) from every root, as sorted edge codes.

    Hop rows and parent rows come `_ROW_BLOCK` roots at a time, so
    temporaries stay near _ROW_BLOCK * n cells however many roots there
    are; each vertex's parents are sorted across a block's roots, so only
    its distinct tree edges become codes for one `unique_codes`.
    """
    n = g.n
    codes = [np.empty(0, np.int64)]
    for lo in range(0, len(roots), _ROW_BLOCK):
        rows = hop_distance_matrix(g, roots[lo:lo + _ROW_BLOCK])
        ups = np.sort(parent_rows(g.csr, rows).T, axis=1)
        distinct = ups >= 0
        distinct[:, 1:] &= ups[:, 1:] != ups[:, :-1]
        child, k = np.nonzero(distinct)
        up = ups[child, k].astype(np.int64)
        codes.append(edge_codes(n, child, up))
    return unique_codes(*codes)


# ---------------------------------------------------------------------------
# path buying
# ---------------------------------------------------------------------------


def _adjacency(n: int, codes: np.ndarray) -> list[set]:
    """Neighbor sets of the edges `codes`: the one form of a spanner that
    path buying grows, where edge {a, b} is kept when b is in adj[a]."""
    indptr, indices = Spanner(n, codes).csr
    nbrs, bounds = indices.tolist(), indptr.tolist()
    return [set(nbrs[a:b]) for a, b in zip(bounds, bounds[1:])]


def _spanner_rows(n: int, codes: np.ndarray, roots: Sequence[int]) -> list[list]:
    """Hop rows from `roots` over the spanner edges `codes` as lists, _INF
    where cut off, for `_relax_new_edges` to keep exact as edges are added."""
    hops = hop_distance_matrix(Spanner(n, codes), roots)
    cells = hops.astype(object)
    cells[hops < 0] = _INF
    return cells.tolist()


def _insert_edges(adj: list[set], new_edges: list, rows) -> list[list[int]]:
    """Add (u, v) edges to a growing spanner and repair every distance row
    in place; returns, per row, the vertices whose distance improved."""
    for u, v in new_edges:
        adj[u].add(v)
        adj[v].add(u)
    return [_relax_new_edges(adj, row, new_edges) for row in rows]


def _relax_new_edges(adj: list[set], dist: list[float], new_edges) -> list[int]:
    """Decrease-only distance repair after edge insertions; returns the
    vertices whose distance improved."""
    queue = deque()
    improved: list[int] = []
    for u, v in new_edges:
        for a, b in ((u, v), (v, u)):
            if dist[a] + 1 < dist[b]:
                dist[b] = dist[a] + 1
                queue.append(b)
                improved.append(b)
    while queue:
        x = queue.popleft()
        d1 = dist[x] + 1
        for w in adj[x]:
            if d1 < dist[w]:
                dist[w] = d1
                queue.append(w)
                improved.append(w)
    return improved


def _descend(adj: list[set], dist: list[float], target: int) -> list[int]:
    """Source-to-target path read off an exact distance array (min-id steps)."""
    path = [target]
    v = target
    while dist[v] > 0:
        d1 = dist[v] - 1
        v = min(w for w in adj[v] if dist[w] == d1)
        path.append(v)
    path.reverse()
    return path


def _remove_cycles(walk: list[int]) -> list[int]:
    out: list[int] = []
    at: dict[int, int] = {}
    for v in walk:
        if v in at:
            cut = at[v]
            for w in out[cut + 1:]:
                del at[w]
            del out[cut + 1:]
        else:
            at[v] = len(out)
            out.append(v)
    return out


def _cluster_route(a: int, b: int, hub: int, adj: list[set]) -> list[int]:
    """Vertices strictly between a and b on a <=2-edge route inside their
    cluster: none if the spanner keeps edge (a, b), else the hub.  The
    spanner holds the clustering subgraph, so it keeps every host edge
    inside a cluster."""
    if a == b or b in adj[a]:
        return []
    return [hub]


def _enforce_cluster_cap(walk: list[int], gc: HubClustering, adj: list[set]) -> list[int]:
    """Shorten until no cluster holds four or more path vertices."""
    while True:
        walk = _remove_cycles(walk)
        occ: dict[int, list[int]] = {}
        for pos, v in enumerate(walk):
            cid = gc.cluster_index[v]
            if cid >= 0:
                occ.setdefault(cid, []).append(pos)
        crowded = sorted(cid for cid, positions in occ.items() if len(positions) >= 4)
        if not crowded:
            return walk
        cid = crowded[0]
        a_pos, b_pos = occ[cid][0], occ[cid][-1]
        mid = _cluster_route(walk[a_pos], walk[b_pos], gc.hubs[cid], adj)
        walk = walk[: a_pos + 1] + mid + walk[b_pos:]


def _path_value(path: Sequence[int], cluster_index: Sequence[int], cdist: Sequence[float]) -> int:
    """Number of clusters the path reaches strictly earlier than the current
    spanner does: a cluster's first position along the path against cdist,
    the spanner distance from the source to its nearest member."""
    first_pos: dict[int, int] = {}
    for pos, x in enumerate(path):
        cid = cluster_index[x]
        if cid >= 0 and cid not in first_pos:
            first_pos[cid] = pos
    return sum(1 for cid, pos in first_pos.items() if pos < cdist[cid])


def _missing_positions(path: Sequence[int], adj: list[set]) -> list[int]:
    return [i for i in range(1, len(path)) if path[i] not in adj[path[i - 1]]]


def _check_candidate(path, source, target, level, base_dist, params, gc, adj):
    """Invariants every candidate path must satisfy at its level; returns
    the path's missing positions, whose count is its cost."""
    if path[0] != source or path[-1] != target:
        raise RuntimeError("candidate path endpoints drifted (internal bug)")
    if len(path) - 1 > base_dist + 2 * level:
        raise RuntimeError("candidate path length invariant violated (internal bug)")
    counts: dict[int, int] = {}
    for v in path:
        cid = gc.cluster_index[v]
        if cid >= 0:
            counts[cid] = counts.get(cid, 0) + 1
    if counts and max(counts.values()) > 3:
        raise RuntimeError("cluster occupancy invariant violated (internal bug)")
    missing = _missing_positions(path, adj)
    budget = params.long_threshold / (params.level_factor ** level)
    if len(missing) > budget + _EPS:
        raise RuntimeError("missing-edge budget invariant violated (internal bug)")
    return missing


def _buy_short_paths(g, sources, dist_rows, parents, short, gc, base, params):
    """Iterate short pairs in ascending (source, target) order, buying one
    candidate path per pair once its missing-edge cost is at most
    3 * level_factor * value; failed levels reroute through a cluster that
    the path does not improve.  Row i of `dist_rows`, `parents` (hop and
    parent rows) and `short` (short targets) is from sources[i].  Starts
    from the edge codes `base` and returns the codes of the spanner bought."""
    n = g.n
    adj = _adjacency(n, base)
    bought: list[tuple[int, int]] = []
    phi = params.level_factor
    k = params.k
    stats = {"paths_bought": 0, "edges_bought": 0, "levels": [0] * (k + 1)}

    rows = zip(sources, dist_rows, parents, short, _spanner_rows(n, base, sources))
    for s, row, up, targets, dist_h in rows:
        dist_g, parent = row.tolist(), up.tolist()
        _relax_new_edges(adj, dist_h, bought)  # catch up with earlier sources' edges
        # per cluster the spanner distance to its nearest member and that
        # member, the minimum (dist_h, id); distances only decrease, so the
        # running minimum over improved members stays exact
        cdist, nearest = (col[0].tolist() for col in _nearest_members([dist_h], gc))
        for v in np.flatnonzero(targets).tolist():
            path = parent_path(parent, v)
            base_dist = dist_g[v]
            level = 0
            while True:
                missing = _check_candidate(path, s, v, level, base_dist, params, gc, adj)
                cost = len(missing)
                value = _path_value(path, gc.cluster_index, cdist)
                if cost <= 3.0 * phi * value + _EPS:
                    if cost:
                        new_edges = [(path[i - 1], path[i]) for i in missing]
                        [improved] = _insert_edges(adj, new_edges, [dist_h])
                        bought += new_edges
                        for x in improved:
                            cid = gc.cluster_index[x]
                            if cid >= 0 and (dist_h[x], x) < (cdist[cid], nearest[cid]):
                                cdist[cid], nearest[cid] = dist_h[x], x
                        stats["paths_bought"] += 1
                        stats["edges_bought"] += len(new_edges)
                    stats["levels"][level] += 1
                    break
                if level == k:
                    raise RuntimeError("top-level candidate has positive cost (internal bug)")
                path = _next_level_path(path, cost, dist_h, cdist, nearest, adj, gc, phi)
                level += 1
    return unique_codes(base, edge_codes(n, *np.array(bought, np.int64).reshape(-1, 2).T)), stats


def _nearest_members(rows, gc: HubClustering) -> tuple[np.ndarray, np.ndarray]:
    """Per row and cluster the minimum (dist, x) over the cluster's members
    x, as (cdist, nearest) arrays of shape (rows, clusters): one masked
    minimum over the member-ordered columns of `gc`.  `rows` is a block of
    hop rows, cut-off cells UNREACHED in int rows or _INF in list rows; a
    cluster with no member reached gets (_INF, its min-id member)."""
    block = np.asarray(rows)
    n = block.shape[1]
    if not len(gc.members):
        return np.empty((len(block), 0)), np.empty((len(block), 0), np.int64)
    d = block[:, gc.members]
    key = np.where((d >= 0) & (d < _INF), d, n).astype(np.int64) * n + gc.members
    d, y = np.divmod(np.minimum.reduceat(key, gc.starts, axis=1), n)
    return np.where(d < n, d, _INF), y


def _next_level_path(path, cost, dist_h, cdist, nearest, adj, gc, phi):
    """Reroute a rejected candidate: keep the longest suffix with
    floor(cost/phi) missing edges, enter it through a cluster the spanner
    already reaches at least as fast as the path does, at the cluster's
    nearest member (`nearest`, the minimum (dist_h, id))."""
    missing = _missing_positions(path, adj)
    if len(missing) != cost or cost == 0:
        raise RuntimeError("stale cost during reroute (internal bug)")
    keep = int(cost / phi)
    r_start = missing[cost - keep - 1]
    if gc.cluster_index[path[r_start]] < 0:
        raise RuntimeError("suffix head must be clustered (internal bug)")

    pick = None
    for pos in range(len(path) - 1, r_start - 1, -1):
        cid = gc.cluster_index[path[pos]]
        if cid >= 0 and cdist[cid] <= pos:
            pick = (pos, cid)
            break
    if pick is None:
        raise RuntimeError("no reroute cluster available (internal bug)")
    pos, cid = pick
    x = path[pos]
    y = nearest[cid]
    prefix = _descend(adj, dist_h, y)
    mid = _cluster_route(y, x, gc.hubs[cid], adj)
    tail = list(path[pos:])
    if y == x:
        walk = prefix + tail[1:]
    else:
        walk = prefix + mid + tail
    return _enforce_cluster_cap(walk, gc, adj)


def build_sourcewise_additive(
    g: Graph, sources: SourceSet, k: int, seed: int, retries: int = 0
) -> Spanner:
    """Additive +2k spanner on source/vertex pairs.

    Deterministic part: all edges at light vertices, the fixed-size
    clustering subgraph, and the bought short-pair paths.  Randomized part:
    the canonical BFS trees (`tree_union`) of a vertex sample that covers
    the neighborhoods of long paths with high probability; if a long pair
    still exceeds +2k the sample is redrawn up to `retries` times.
    `meta["phase_edges"]` counts each part's edges, overlaps included.
    """
    sources.check_host(g)
    if retries < 0:
        raise ValueError("retries must be >= 0")
    params = additive_params(g, sources, k)
    n = g.n
    # the source split serves the light edges, the pair split, the buying
    # and the long check
    dist_g, parents, heavy, count = _source_rows(g, sources, params.heavy_degree)
    u, v = edge_ends(n, g.codes)
    light = g.codes[~(heavy[u] & heavy[v])]
    gamma = math.log(params.heavy_degree) / math.log(n)
    gc = hub_clustering(g, gamma)

    reached = dist_g >= 0
    long = reached & (count >= params.long_threshold)
    short = reached & ~long  # a source is paired with itself too

    bought, stats = _buy_short_paths(
        g, sources.vertices, dist_g, parents, short, gc, unique_codes(gc.g_c, light), params
    )

    long_rows = np.flatnonzero(long.any(axis=1))
    long_sources = [sources.vertices[i] for i in long_rows]
    long = long[long_rows]
    long_dist = dist_g[long_rows][long]  # host distance of each long pair

    sample_prob = min(1.0, 9.0 * params.heavy_degree / n)
    edges = bought
    attempts = 0
    long_violations = 0
    for attempt in range(retries + 1):
        attempts = attempt + 1
        rng = subrng(seed, "tree-roots", attempt)
        roots = np.flatnonzero(rng.random(n) < sample_prob)
        trees = tree_union(g, roots)
        edges = unique_codes(bought, trees)
        long_violations = 0
        if long_sources:
            dh = hop_distance_matrix(Spanner(n, edges), long_sources)[long]
            long_violations = int(((dh < 0) | (dh > long_dist + 2 * k)).sum())
        if long_violations == 0:
            break

    meta = {
        "construction": "swadd",
        "n": n,
        "k": k,
        "seed": seed,
        "epsilon": params.epsilon,
        "heavy_degree": params.heavy_degree,
        "long_threshold": params.long_threshold,
        "level_factor": params.level_factor,
        "attempts": attempts,
        "long_pairs": len(long_dist),
        "short_pairs": int(short.sum()),
        "long_violations": long_violations,
        "phase_edges": {
            "light": len(light),
            "clustering": len(gc.g_c),
            "bought": stats["edges_bought"],
            "trees": len(trees),
        },
        "buy_levels": stats["levels"],
        "size": len(edges),
        "sources": list(sources.vertices),
    }
    return Spanner(n, edges, meta)


# ---------------------------------------------------------------------------
# +2 emulator, +2 subsetwise helper, +4 spanner
# ---------------------------------------------------------------------------


def build_sourcewise_emulator2(g: Graph, sources: SourceSet) -> Emulator:
    """Weighted +2 emulator on source/vertex pairs: the clustering subgraph
    at unit weight plus one exact-distance shortcut from each source to the
    nearest vertex of every cluster."""
    sources.check_host(g)
    gc = hub_clustering(g, sources.epsilon / 2.0)
    n = g.n
    u, v = edge_ends(n, gc.g_c)
    # per (source, cluster) the minimum (dist, id) over reached members
    cdist, nearest = _nearest_members(hop_distance_matrix(g, sources.vertices), gc)
    row, col = np.nonzero((cdist > 0) & (cdist < _INF))  # no source to itself
    roots = np.array(sources.vertices, np.int64)[row]
    shortcuts = np.stack([roots, nearest[row, col], cdist[row, col].astype(np.int64)], axis=1)
    return Emulator(n, np.concatenate([np.stack([u, v, np.ones_like(u)], axis=1), shortcuts]))


def build_subsetwise_plus2(g: Graph, members: Iterable[int]) -> Spanner:
    """Spanner with additive stretch 2 inside a vertex set: keep the
    clustering subgraph, then sweep the set's pairs by nondecreasing graph
    distance and buy the full canonical path whenever a pair still exceeds
    the +2 budget."""
    # operator.index refuses floats, which int() would truncate
    zs = sorted(set(map(operator.index, members)))
    if not zs:
        raise ValueError("vertex set must be non-empty")
    n = g.n
    kappa = math.log(len(zs)) / math.log(n) if n >= 2 else 0.0
    gc = hub_clustering(g, kappa / 2.0)
    adj = _adjacency(n, gc.g_c)

    dist = hop_distance_matrix(g, zs)
    dist_g = dict(zip(zs, dist.tolist()))
    parents = dict(zip(zs, parent_rows(g.csr, dist).tolist()))
    order = sorted(
        ((dist_g[a][b], a, b) for a in zs for b in zs if a < b and dist_g[a][b] >= 0)
    )
    # spanner distances per member, kept exact by repair after every purchase
    rows = dict(zip(zs, _spanner_rows(n, gc.g_c, zs)))
    bought = 0
    bought_edges: list[tuple[int, int]] = []
    for dg, a, b in order:
        if rows[a][b] > dg + 2:
            path = parent_path(parents[a], b)
            new_edges = [(x, y) for x, y in zip(path, path[1:]) if y not in adj[x]]
            _insert_edges(adj, new_edges, rows.values())
            bought_edges += new_edges
            bought += 1
    codes = unique_codes(gc.g_c, edge_codes(n, *np.array(bought_edges, np.int64).reshape(-1, 2).T))

    meta = {
        "construction": "subsetwise2",
        "n": n,
        "set_size": len(zs),
        "kappa": kappa,
        "paths_bought": bought,
        "phase_edges": {"clustering": len(gc.g_c)},
        "size": len(codes),
    }
    return Spanner(n, codes, meta)


def build_sourcewise_additive4(g: Graph, sources: SourceSet) -> Spanner:
    """Additive +4 spanner on source/vertex pairs, intended for source sets
    of size at least n^(2/3): clustering subgraph plus a +2 subsetwise
    spanner over the hubs and the sources together.  Below that regime,
    recorded as meta["in_regime"], the +4 bound still holds but the size
    guarantee degrades."""
    sources.check_host(g)
    n = g.n
    gc = hub_clustering(g, sources.epsilon / 2.0)
    core = sorted(set(gc.hubs) | set(sources.vertices))
    inner = build_subsetwise_plus2(g, core)
    edges = unique_codes(gc.g_c, inner.codes)
    meta = {
        "construction": "sw4",
        "n": n,
        "epsilon": sources.epsilon,
        "hub_count": len(gc.hubs),
        "core_size": len(core),
        "phase_edges": {
            "clustering": len(gc.g_c),
            "subsetwise": inner.size,
        },
        "size": len(edges),
        "sources": list(sources.vertices),
        "in_regime": len(sources) >= n ** (2.0 / 3.0) - 1e-9,
    }
    return Spanner(n, edges, meta)
