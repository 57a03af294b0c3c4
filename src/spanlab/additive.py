"""Additive sourcewise constructions: the purely-additive +2k spanner via
path buying, the +2 emulator, the +2 subsetwise helper, and the +4 spanner
for large source sets.

The +2k spanner reads every host search off arrays: the hop rows of the
sources and of the sampled tree roots come from the packed-bitset BFS
kernel (`hop_distance_matrix`) and all their canonical min-id parents from
`parent_rows`; pair classification and path buying share one source split
(`_source_rows`).  The +2 subsetwise helper walks only the paths it buys,
one pair step (`_closer_neighbors`) per hop over its hop rows.  The
spanner rows of both come from one row kernel call (`_spanner_rows`),
which `_relax_new_edges` keeps exact as edges are bought; path buying and
the +2 emulator share one per-cluster minimum
(`clustering.cluster_minima`).  Edge sets are sorted edge codes; path
buying, which tests one edge at a time, keeps the growing spanner as
neighbor sets built from them (`_adjacency`), and the edges it buys become
codes once, at the end.

Path buying does its array work once per source (`_source_costs`): it
checks every canonical path the source's turn can visit and prices each
against the spanner codes of that turn, so paths already kept are counted
without a visit.  The other candidates are visited one by one, and the
reroutes between two purchases share their spanner descents.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .clustering import HubClustering, cluster_minima, hub_clustering
from .graphs import (
    _ROW_BLOCK,
    Emulator,
    Graph,
    Spanner,
    _check_root_set,
    _closer_neighbors,
    _member,
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


def _descend(adj: list[set], dist: list[float], target: int, source: int) -> list[int]:
    """Source-to-target path read off an exact distance array (min-id steps);
    the step from distance 1 goes to the source, the one vertex at 0."""
    path = [target]
    v = target
    while dist[v] > 1:
        d1 = dist[v] - 1
        v = min(w for w in adj[v] if dist[w] == d1)
        path.append(v)
    if v != source:
        path.append(source)
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


def _path_value(path: Sequence[int], cluster_index: Sequence[int], cdist: Sequence[int]) -> int:
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


def _cluster_counts(path: Sequence[int], cluster_index: Sequence[int], counts=None) -> dict:
    """Path vertices per cluster, added to `counts` (a fresh dict if None)."""
    counts = {} if counts is None else counts
    for v in path:
        cid = cluster_index[v]
        if cid >= 0:
            counts[cid] = counts.get(cid, 0) + 1
    return counts


def _check_candidate(path, counts, source, target, level, base_dist, params, adj):
    """Invariants a candidate path must satisfy at its level; returns the
    path's missing positions, whose count is its cost.  From level 1 on
    `counts` are the path's vertices per cluster (`_next_level_path`).  At
    level 0 the path is canonical and the source's pass (`_source_costs`)
    has checked its endpoints, its length and its clusters; only the
    checks that read the spanner `adj` are left."""
    if level:
        if path[0] != source or path[-1] != target:
            raise RuntimeError("candidate path endpoints drifted (internal bug)")
        if len(path) - 1 > base_dist + 2 * level:
            raise RuntimeError("candidate path length invariant violated (internal bug)")
        if counts and max(counts.values()) > 3:
            raise RuntimeError("cluster occupancy invariant violated (internal bug)")
    missing = _missing_positions(path, adj)
    budget = params.long_threshold / (params.level_factor ** level)
    if len(missing) > budget + _EPS:
        raise RuntimeError("missing-edge budget invariant violated (internal bug)")
    return missing


def _source_costs(source, dist_g, up, targets, kept, cluster):
    """The array pass at `source`'s turn over its hop row `dist_g`, its
    canonical parent row `up` and its short targets `targets`.

    Checks the level-0 invariants that do not read the spanner, on the
    canonical path of every target and every vertex the row reaches: each
    parent step goes one hop closer and the chain ends at the source, and
    no cluster (`cluster`, each vertex's id or -1) holds four vertices of a
    target's path, counted over each path's ancestors.  Returns per vertex
    its cost, the tree edges on its path that no sorted code array in
    `kept` holds.  Costs only fall while the source's turn goes on, so a
    target at cost 0 is free when its turn comes."""
    n = len(dist_g)
    on = (dist_g >= 0) | targets
    on[source] = False
    w = np.flatnonzero(on)
    up_w = up[w]
    if up[source] >= 0 or (up_w < 0).any():
        raise RuntimeError("candidate path endpoints drifted (internal bug)")
    if dist_g[source] != 0 or (dist_g[w] < 1).any() or (dist_g[up_w] != dist_g[w] - 1).any():
        raise RuntimeError("candidate path length invariant violated (internal bug)")
    # every chain from w now steps down one level at a time to the source,
    # whose up is the pad n: walk them all at once, first counting each
    # vertex's own cluster over its ancestors, then adding up the missing
    # edges and the crowded vertices over the same ancestors
    up_pad = np.append(up, n)
    up_pad[source] = n
    cl_pad = np.append(cluster, -1)
    tree = edge_codes(n, w, up_w)
    missing = np.zeros(n + 1, np.int64)
    missing[w] = ~np.logical_or.reduce([_member(codes, tree) for codes in kept])
    w = np.append(w, source)
    depth = int(dist_g[w].max())
    own = cluster[w]
    occ = np.zeros(len(w), np.int64)
    at = w
    for _ in range(depth + 1):
        occ += cl_pad[at] == own
        at = up_pad[at]
    crowded = np.zeros(n + 1, bool)
    crowded[w] = (occ > 3) & (own >= 0)
    cost, crowd = missing[w], crowded[w]
    at = up_pad[w]
    for _ in range(depth):
        cost += missing[at]
        crowd |= crowded[at]
        at = up_pad[at]
    if crowd[targets[w]].any():
        raise RuntimeError("cluster occupancy invariant violated (internal bug)")
    out = np.zeros(n, np.int64)
    out[w] = cost
    return out


def _buy_short_paths(g, sources, dist_rows, parents, short, gc, base, params):
    """Iterate short pairs in ascending (source, target) order, buying one
    candidate path per pair once its missing-edge cost is at most
    3 * level_factor * value; failed levels reroute through a cluster that
    the path does not improve.  Row i of `dist_rows`, `parents` (hop and
    parent rows) and `short` (short targets) is from sources[i].  Starts
    from the edge codes `base` and returns the codes of the spanner bought.

    Array work is done once per source, never once per purchase.  The
    source's pass (`_source_costs`) checks the canonical paths and prices
    them against the spanner at the source's turn; the targets it finds
    free are counted without a visit, and a visited candidate is valued by
    `_path_value` at every level.  Between two purchases that buy edges the
    spanner, its rows and the cluster minima stay fixed, so the reroutes of
    that epoch share one memo of spanner descents."""
    n = g.n
    adj = _adjacency(n, base)
    base = unique_codes(base)
    bought: list[tuple[int, int]] = []
    phi = params.level_factor
    k = params.k
    ci = gc.cluster_index
    cluster = np.array(ci, np.int64)
    stats = {"paths_bought": 0, "edges_bought": 0, "levels": [0] * (k + 1)}

    rows = zip(sources, dist_rows, parents, short, _spanner_rows(n, base, sources))
    for s, row, up, targets, dist_h in rows:
        _relax_new_edges(adj, dist_h, bought)  # catch up with earlier sources' edges
        # per cluster the minimum (dist_h, id) over its members, n if none is
        # reached; distances only decrease, so the running minimum over
        # improved members stays exact
        cdist, nearest = (col[0] for col in cluster_minima([dist_h], gc.members, gc.starts))
        kept = [base, unique_codes(edge_codes(n, *np.array(bought, np.int64).reshape(-1, 2).T))]
        costs = _source_costs(s, row, up, targets, kept, cluster)
        visit = np.flatnonzero(targets & (costs > 0)).tolist()
        stats["levels"][0] += int(targets.sum()) - len(visit)
        dist_g, parent = row.tolist(), up.tolist()
        cdist, nearest = cdist.tolist(), nearest.tolist()
        descents: dict = {}  # the epoch's memo for `_next_level_path`
        for v in visit:
            path, counts = parent_path(parent, v), None
            base_dist = dist_g[v]
            level = 0
            while True:
                missing = _check_candidate(path, counts, s, v, level, base_dist, params, adj)
                cost = len(missing)
                # a free path is bought whatever its value, which is >= 0
                value = _path_value(path, ci, cdist) if cost else 0
                if cost <= 3.0 * phi * value + _EPS:
                    if cost:
                        new_edges = [(path[i - 1], path[i]) for i in missing]
                        [improved] = _insert_edges(adj, new_edges, [dist_h])
                        bought += new_edges
                        for x in improved:
                            cid = ci[x]
                            if cid >= 0 and (dist_h[x], x) < (cdist[cid], nearest[cid]):
                                cdist[cid], nearest[cid] = dist_h[x], x
                        descents = {}
                        stats["paths_bought"] += 1
                        stats["edges_bought"] += len(new_edges)
                    stats["levels"][level] += 1
                    break
                if level == k:
                    raise RuntimeError("top-level candidate has positive cost (internal bug)")
                path, counts = _next_level_path(
                    path, cost, dist_h, cdist, nearest, adj, gc, phi, descents
                )
                level += 1
    return unique_codes(base, edge_codes(n, *np.array(bought, np.int64).reshape(-1, 2).T)), stats


def _next_level_path(path, cost, dist_h, cdist, nearest, adj, gc, phi, descents):
    """Reroute a rejected candidate: keep the longest suffix with
    floor(cost/phi) missing edges, enter it through a cluster the spanner
    already reaches at least as fast as the path does, at the cluster's
    nearest member (`nearest`, the minimum (dist_h, id)).  Returns the walk
    and its vertices per cluster.  `descents` maps an entry y to its
    spanner descent and that descent's vertices per cluster; it holds while
    `adj` and `dist_h` do, and starts empty after every purchase."""
    missing = _missing_positions(path, adj)
    if len(missing) != cost or cost == 0:
        raise RuntimeError("stale cost during reroute (internal bug)")
    keep = int(cost / phi)
    r_start = missing[cost - keep - 1]
    ci = gc.cluster_index
    if ci[path[r_start]] < 0:
        raise RuntimeError("suffix head must be clustered (internal bug)")

    for pos in range(len(path) - 1, r_start - 1, -1):
        cid = ci[path[pos]]
        if cid >= 0 and cdist[cid] <= pos:
            break
    else:
        raise RuntimeError("no reroute cluster available (internal bug)")
    x = path[pos]
    y = nearest[cid]
    descent = descents.get(y)
    if descent is None:
        prefix = _descend(adj, dist_h, y, path[0])
        descent = descents[y] = (prefix, _cluster_counts(prefix, ci))
    prefix, counts = descent
    rest = path[pos + 1:] if y == x else _cluster_route(y, x, gc.hubs[cid], adj) + path[pos:]
    walk = prefix + rest
    # a walk with no repeated vertex and no cluster at four is its own cap
    if len(set(walk)) == len(walk):
        counts = _cluster_counts(rest, ci, dict(counts))
        if not counts or max(counts.values()) < 4:
            return walk, counts
    walk = _enforce_cluster_cap(walk, gc, adj)
    return walk, _cluster_counts(walk, ci)


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
    cdist, nearest = cluster_minima(hop_distance_matrix(g, sources.vertices), gc.members, gc.starts)
    row, col = np.nonzero((cdist > 0) & (cdist < n))  # no source to itself
    roots = np.array(sources.vertices, np.int64)[row]
    shortcuts = np.stack([roots, nearest[row, col], cdist[row, col]], axis=1)
    return Emulator(n, np.concatenate([np.stack([u, v, np.ones_like(u)], axis=1), shortcuts]))


def build_subsetwise_plus2(g: Graph, members: Iterable[int]) -> Spanner:
    """Spanner with additive stretch 2 inside a vertex set: keep the
    clustering subgraph, then sweep the set's pairs by nondecreasing graph
    distance and buy the full canonical path whenever a pair still exceeds
    the +2 budget."""
    n = g.n
    zs = _check_root_set(n, members, "vertex")
    kappa = math.log(len(zs)) / math.log(n) if n >= 2 else 0.0
    gc = hub_clustering(g, kappa / 2.0)
    adj = _adjacency(n, gc.g_c)

    dist = hop_distance_matrix(g, zs)
    # the member pairs a < b by (distance, a, b), as indices into the ascending
    # zs; the unreached ones sort first, at distance -1, and are dropped
    a, b = np.triu_indices(len(zs), 1)
    d = dist[:, zs][a, b]
    order = np.lexsort((b, a, d))[np.count_nonzero(d < 0):]
    # spanner distances per member, kept exact by repair after every purchase
    rows = _spanner_rows(n, gc.g_c, zs)
    bought = 0
    bought_edges: list[tuple[int, int]] = []
    for i, j, dg in zip(a[order].tolist(), b[order].tolist(), d[order].tolist()):
        if rows[i][zs[j]] > dg + 2:
            path = [zs[j]]  # walked back to zs[i], one pair step per hop over its row
            for want in range(dg - 1, -1, -1):
                step = _closer_neighbors(g.csr, dist[i], np.array([0]), np.array(path[-1:]), np.array([want]))
                path.append(int(step[0]))
            new_edges = [(x, y) for x, y in zip(path, path[1:]) if y not in adj[x]]
            _insert_edges(adj, new_edges, rows)
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
