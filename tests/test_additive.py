from __future__ import annotations

import hashlib
import itertools
import math
import warnings
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest

from spanlab import (
    HubClustering,
    Graph,
    SourceSet,
    Spanner,
    UNREACHED,
    additive_params,
    bfs,
    bfs_distances,
    build_sourcewise_additive,
    build_sourcewise_additive4,
    build_sourcewise_emulator2,
    build_subsetwise_plus2,
    hub_clustering,
    classify_pairs,
    hop_distance_matrix,
    random_graph,
    trace_parent_path,
    weighted_sssp,
)
from spanlab import additive, bench, graphs
from spanlab.additive import (
    AdditiveParams,
    _buy_short_paths,
    _check_candidate,
    _enforce_cluster_cap,
    _heavy_flags,
    _path_value,
    _remove_cycles,
)
from conftest import pairs, parent_host, root_samples
from oracles import adjacency, canonical_path, floyd_warshall, recount_heavy

INF = float("inf")


# ---------------------------------------------------------------------------
# parameters
# ---------------------------------------------------------------------------


def test_params_match_hand_arithmetic():
    # n=1024, |S|=32, k=1: exponent (1*0.5+1)/4 = 0.375
    g = random_graph(1024, 0.004, 1)
    src = SourceSet.from_ids(range(32), 1024)
    p = additive_params(g, src, 1)
    assert src.epsilon == pytest.approx(0.5)
    assert p.heavy_degree == math.ceil(1024 ** 0.375)         # 14
    assert p.heavy_degree == 14
    assert p.long_threshold == math.ceil(1024 * math.log(1024) / 14 ** 2)  # 37
    assert p.long_threshold == 37
    assert additive_params(g, src, 1).level_factor == pytest.approx(2 * 37)


def test_params_reject_bad_k():
    g = random_graph(16, 0.3, 1)
    with pytest.raises(ValueError):
        additive_params(g, SourceSet.from_ids([0], 16), 0)


# ---------------------------------------------------------------------------
# pair classification
# ---------------------------------------------------------------------------


def test_all_pairs_short_when_nothing_is_heavy():
    g = random_graph(64, 0.08, 2)
    src = SourceSet.from_ids(range(6), 64)
    params = AdditiveParams(
        k=1,
        epsilon=src.epsilon,
        heavy_degree=g.n,  # unattainable
        long_threshold=3,
        level_factor=6.0,
    )
    pcs = classify_pairs(g, src, params)
    assert pcs and all(pc.heavy_count == 0 and not pc.is_long for pc in pcs)


def test_threshold_one_makes_any_heavy_path_long():
    # star center has degree 4; a path through it is long at threshold 1
    g = Graph(6, [(0, 1), (1, 2), (1, 3), (1, 4), (1, 5)])
    src = SourceSet.from_ids([0], 6)
    params = AdditiveParams(
        k=1, epsilon=src.epsilon, heavy_degree=4, long_threshold=1, level_factor=2.0
    )
    by_target = {pc.target: pc for pc in classify_pairs(g, src, params)}
    assert by_target[2].is_long          # path 0-1-2 passes the heavy center
    assert not by_target[0].is_long      # path [0] avoids it


def test_pair_classes_list_reachable_pairs_in_source_then_target_order():
    # two components: sources only pair with the vertices they reach
    g = Graph(7, [(0, 1), (1, 2), (2, 3), (4, 5), (5, 6)])
    src = SourceSet.from_ids([5, 1], 7)
    params = AdditiveParams(
        k=1, epsilon=src.epsilon, heavy_degree=2, long_threshold=2, level_factor=2.0
    )
    pcs = classify_pairs(g, src, params)
    assert [(pc.source, pc.target) for pc in pcs] == [
        (1, 0), (1, 1), (1, 2), (1, 3), (5, 4), (5, 5), (5, 6)
    ]
    # degree-2 vertices 1, 2 and 5 are heavy; counts include both endpoints
    assert [pc.heavy_count for pc in pcs] == [1, 1, 2, 2, 1, 1, 1]
    assert [pc.is_long for pc in pcs] == [False, False, True, True, False, False, False]


def test_heavy_counts_match_path_recount():
    g = random_graph(256, 0.1, 6)
    src = SourceSet.from_ids(range(10), 256)
    params = additive_params(g, src, 2)
    for pc in classify_pairs(g, src, params):
        path = canonical_path(g, pc.source, pc.target)
        assert pc.heavy_count == recount_heavy(g, path, params.heavy_degree)


def test_pair_classes_match_recount_on_split_hosts():
    # isolated sources, two components and rows past the BFS level cap
    g = parent_host()
    src = SourceSet.from_ids(range(g.n), g.n)
    params = AdditiveParams(
        k=1, epsilon=src.epsilon, heavy_degree=2, long_threshold=30, level_factor=2.0
    )
    want = []
    for s in src.vertices:
        dist = bfs_distances(g, [s])
        for v in range(g.n):
            path = trace_parent_path(g, dist, v)
            if path is not None:
                count = recount_heavy(g, path, params.heavy_degree)
                want.append((s, v, count, count >= params.long_threshold))
    pcs = classify_pairs(g, src, params)
    got = [(pc.source, pc.target, pc.heavy_count, pc.is_long) for pc in pcs]
    assert got == want
    assert any(pc[3] for pc in got) and not all(pc[3] for pc in got)
    assert all(type(x) is int for pc in got for x in pc[:3])


# ---------------------------------------------------------------------------
# value of a candidate path
# ---------------------------------------------------------------------------


def _hand_clustering(n, clusters, hubs):
    index = [-1] * n
    g_c = set()
    for cid, members in enumerate(clusters):
        for m in members:
            index[m] = cid
            g_c.add(min(hubs[cid], m) * n + max(hubs[cid], m))
    return HubClustering(
        gamma=0.5, size=len(clusters[0]) if clusters else 1,
        clusters=clusters, hubs=hubs, g_c=np.array(sorted(g_c), np.int64), cluster_index=index,
    )


def _value(path, clustering, n, spanner_edges):
    """_path_value with cdist recomputed by the cubic oracle: the spanner
    distance from the path's source to each cluster's nearest member."""
    dist = floyd_warshall(Graph(n, spanner_edges))[path[0]]
    cdist = [min(dist[m] for m in mem) for mem in clustering.clusters]
    return _path_value(path, clustering.cluster_index, cdist)


def test_value_zero_without_clustered_vertices():
    clustering = _hand_clustering(8, [[6, 7]], [5])
    assert _value([0, 1, 2], clustering, 8, {(0, 1), (1, 2)}) == 0


def test_value_zero_when_spanner_already_optimal():
    g = random_graph(48, 0.15, 4)
    clustering = hub_clustering(g, 0.4)
    for s, v in [(0, 20), (3, 41)]:
        path = canonical_path(g, s, v)
        assert _value(path, clustering, g.n, g.edges) == 0


def test_value_one_on_hand_built_instance():
    # spanner reaches the cluster {5,6,7} only via the chain 0-8-9-10-11-5
    # (distance 5); the candidate path touches member 6 at position 3
    clustering = _hand_clustering(12, [[5, 6, 7]], [4])
    current = {(0, 8), (8, 9), (9, 10), (10, 11), (5, 11)}
    assert _value([0, 1, 2, 6], clustering, 12, current) == 1


def test_value_requires_source_anchor():
    # the buyer's check of a rerouted candidate rejects a path that leaves
    # the source (a canonical one is checked by the source's array pass)
    params = AdditiveParams(k=1, epsilon=0.5, heavy_degree=2, long_threshold=1, level_factor=2.0)
    with pytest.raises(RuntimeError, match="endpoints drifted"):
        _check_candidate([1, 2], {}, 0, 2, 1, 1, params, [set()] * 4)


def test_rerouted_candidate_check_reads_length_and_cluster_counts():
    params = AdditiveParams(k=2, epsilon=0.5, heavy_degree=2, long_threshold=10, level_factor=2.0)
    adj = [set()] * 6
    path = [0, 1, 2, 3, 4, 5]
    assert _check_candidate(path, {0: 3}, 0, 5, 1, 3, params, adj) == [1, 2, 3, 4, 5]
    with pytest.raises(RuntimeError, match="length invariant"):
        _check_candidate(path, {0: 3}, 0, 5, 1, 2, params, adj)  # 5 hops > 2 + 2
    with pytest.raises(RuntimeError, match="cluster occupancy"):
        _check_candidate(path, {0: 4}, 0, 5, 1, 3, params, adj)
    with pytest.raises(RuntimeError, match="missing-edge budget"):
        _check_candidate(path, {0: 3}, 0, 5, 2, 3, params, adj)  # 5 missing > 10 / 4


# ---------------------------------------------------------------------------
# path surgery helpers
# ---------------------------------------------------------------------------


def test_remove_cycles_keeps_endpoints():
    assert _remove_cycles([0, 1, 2, 1, 3]) == [0, 1, 3]
    assert _remove_cycles([0, 1, 0, 2]) == [0, 2]
    assert _remove_cycles([4, 5, 6]) == [4, 5, 6]


def test_cluster_cap_shortens_crowded_clusters():
    # vertices 1,2,3,4 share a cluster with hub 9: the outermost pair 1..4
    # collapses onto the hub route
    clustering = _hand_clustering(10, [[1, 2, 3, 4]], [9])
    walk = [0, 1, 2, 3, 4, 5]
    out = _enforce_cluster_cap(walk, clustering, additive._adjacency(10, clustering.g_c))
    assert out == [0, 1, 9, 4, 5]
    assert out[0] == 0 and out[-1] == 5


def test_reroute_keeps_the_budgeted_suffix():
    # white-box check of the rejected-candidate surgery when the kept suffix
    # still contains missing edges (floor(cost/phi) >= 1)
    from spanlab.additive import _missing_positions, _next_level_path

    path = [0, 1, 2, 3, 4, 5, 6]
    spanner = Graph(11, [(0, 1), (2, 3), (4, 5), (0, 7), (3, 7)])  # path gaps at (1,2),(3,4),(5,6)
    adj = additive._adjacency(11, spanner.codes)
    # clusters: head of the suffix (vertex 2) and the reroute entry (vertex 3)
    clustering = _hand_clustering(11, [[2, 8], [3, 9]], [10, 7])
    dist_h = [0.0, 1.0, INF, 2.0, INF, INF, INF, 1.0, INF, INF, INF]
    cdist = [INF, 2.0]  # cluster of vertex 3 reachable at distance 2
    nearest = [2, 3]  # each cluster's minimum (dist_h, id) member
    phi = 1.5  # floor(3 / 1.5) = 2 missing edges stay in the suffix
    out, counts = _next_level_path(path, 3, dist_h, cdist, nearest, adj, clustering, phi, {})
    assert out == [0, 7, 3, 4, 5, 6]  # spanner prefix to 3, then the old tail
    assert counts == {1: 1}  # vertex 3
    assert len(_missing_positions(out, adj)) == 2  # (3,4) and (5,6) kept


def test_caught_up_spanner_rows_are_the_oracle_rows():
    # two random parts and isolated vertices, ids interleaved; a random edge
    # subset is the base spanner and the rest is bought in several batches,
    # then every row catches up in one repair: every vertex is a source once
    rng = np.random.default_rng(12)
    for seed in range(6):
        parts = [random_graph(int(rng.integers(3, 16)), 0.3, 10 * seed + i) for i in range(2)]
        edges, base = [], 0
        for part in parts:
            edges += [(u + base, v + base) for u, v in part.edges]
            base += part.n + int(rng.integers(1, 3))
        order = rng.permutation(base)
        host = [(int(order[u]), int(order[v])) for u, v in edges]
        in_base = rng.random(len(host)) < 0.7
        kept = Graph(base, [e for e, b in zip(host, in_base) if b])
        adj = additive._adjacency(base, kept.codes)
        assert [sorted(nbrs) for nbrs in adj] == list(map(list, adjacency(kept)))
        assert any(not nbrs for nbrs in adj)  # isolated sources are covered
        rows = additive._spanner_rows(base, kept.codes, range(base))
        assert rows == floyd_warshall(kept)
        assert all(type(d) is int for row in rows for d in row if d != INF)
        bought = [e for e, b in zip(host, in_base) if not b]
        cuts = sorted(rng.integers(0, len(bought) + 1, 2).tolist())
        for lo, hi in zip([0] + cuts, cuts + [len(bought)]):
            additive._insert_edges(adj, bought[lo:hi], [])
        full = Graph(base, host)
        assert [sorted(nbrs) for nbrs in adj] == list(map(list, adjacency(full)))
        for row in rows:
            additive._relax_new_edges(adj, row, bought)
        assert rows == floyd_warshall(full)


# ---------------------------------------------------------------------------
# the +2k builder
# ---------------------------------------------------------------------------


def test_everything_light_keeps_all_edges():
    g = random_graph(64, 0.03, 3)  # max degree well below the threshold
    src = SourceSet.from_ids(range(40), 64)  # big source set pushes Y above degrees
    params = additive_params(g, src, 1)
    assert all(len(nbrs) < params.heavy_degree for nbrs in adjacency(g))
    sp = build_sourcewise_additive(g, src, 1, seed=1)
    assert g.edges <= sp.edges
    dg = floyd_warshall(g)
    dh = floyd_warshall(Graph(g.n, sp.edges))
    for s in src.vertices:
        for v in range(g.n):
            if dg[s][v] < INF:
                assert dh[s][v] == dg[s][v]


def _additive_violations(g, edges, sources, bound):
    sub = Graph(g.n, edges)
    bad = 0
    for s in sources:
        dg = bfs_distances(g, [s])
        dh = bfs_distances(sub, [s])
        for v in range(g.n):
            if dg[v] < 0:
                continue
            if dh[v] < 0 or dh[v] > dg[v] + bound:
                bad += 1
    return bad


def test_random_graphs_meet_plus_2k():
    for seed in (1, 2, 3):
        g = random_graph(128, 8 / 127, seed)
        src = SourceSet.from_ids(range(12), 128)
        for k in (1, 2):
            sp = build_sourcewise_additive(g, src, k, seed, retries=2)
            assert sp.meta["long_violations"] == 0
            assert _additive_violations(g, sp.edges, src.vertices, 2 * k) == 0


def _caterpillar(spine: int, leaves: int):
    """Path of high-degree vertices, each dressed with pendant leaves."""
    edges = [(i, i + 1) for i in range(spine - 1)]
    nxt = spine
    for i in range(spine):
        for _ in range(leaves):
            edges.append((i, nxt))
            nxt += 1
    return Graph(nxt, edges)


def test_long_pairs_are_served_by_sampled_trees():
    g = _caterpillar(spine=40, leaves=10)  # n=440, spine degree 12
    src = SourceSet.from_ids(range(34), g.n)  # spine head plus nothing exotic
    params = additive_params(g, src, 1)
    assert params.heavy_degree <= 12  # the spine is heavy
    assert params.long_threshold <= 40  # far pairs really are long
    sp = build_sourcewise_additive(g, src, 1, seed=2, retries=3)
    assert sp.meta["long_pairs"] > 0
    assert sp.meta["attempts"] <= 4
    assert sp.meta["long_violations"] == 0
    assert _additive_violations(g, sp.edges, src.vertices, 2) == 0


def _hub_chain(spine: int, hub_leaves: int, spine_leaves: int):
    """Path of heavy spine vertices, each clustered around its own private
    hub (hubs take the lowest ids), with a two-hop detour through a light
    vertex beside every spine edge and pendant leaves for degree."""
    hubs, path = range(spine), range(spine, 2 * spine)
    edges = [(path[i], path[i + 1]) for i in range(spine - 1)]
    edges += [(hubs[i], path[i]) for i in range(spine)]
    nxt = 2 * spine
    for i in range(spine - 1):
        edges += [(path[i], nxt), (nxt, path[i + 1])]
        nxt += 1
    for i in range(spine):
        for end, count in ((hubs[i], hub_leaves), (path[i], spine_leaves)):
            edges += [(end, leaf) for leaf in range(nxt, nxt + count)]
            nxt += count
    return Graph(nxt, edges)


def test_long_check_counts_pairs_beyond_plus_2k(monkeypatch):
    # With no sampled trees and no bought paths the output is the light
    # edges plus the clustering; the cut spine edges leave long pairs 1-3
    # hops over their host distance, so the +2k bound splits them.
    g = _hub_chain(spine=12, hub_leaves=20, spine_leaves=18)  # n=491
    src = SourceSet.from_ids(range(g.n), g.n)
    def buy_nothing(g, sources, dist_rows, parents, short, gc, base, params):
        return base, {"edges_bought": 0, "levels": []}

    no_draws = SimpleNamespace(random=lambda size: np.ones(size))
    monkeypatch.setattr(additive, "subrng", lambda *labels: no_draws)
    monkeypatch.setattr(additive, "_buy_short_paths", buy_nothing)
    sp = build_sourcewise_additive(g, src, 1, seed=0)
    sub = Graph(g.n, sp.edges)
    pcs = classify_pairs(g, src, additive_params(g, src, 1))
    long_pairs = [(pc.source, pc.target) for pc in pcs if pc.is_long]
    sources = {s for s, _ in long_pairs}
    rows = {s: (bfs_distances(g, [s]), bfs_distances(sub, [s])) for s in sources}
    excess = Counter(rows[s][1][v] - rows[s][0][v] for s, v in long_pairs)
    assert sorted(excess) == [1, 2, 3]
    assert sp.meta["long_pairs"] == sum(excess.values())
    assert sp.meta["long_violations"] == excess[3]
    assert sp.meta["attempts"] == 1


def test_short_pairs_hold_without_any_sampled_trees():
    # the deterministic spine of the construction alone satisfies short pairs
    g = random_graph(128, 8 / 127, 5)
    src = SourceSet.from_ids(range(12), 128)
    k = 1
    params = additive_params(g, src, k)
    heavy = _heavy_flags(g, params.heavy_degree)
    assert heavy.tolist() == [len(nbrs) >= params.heavy_degree for nbrs in adjacency(g)]
    light = {e for e in g.edges if not (heavy[e[0]] and heavy[e[1]])}
    gc = hub_clustering(g, math.log(params.heavy_degree) / math.log(g.n))
    short_targets = {s: [] for s in src.vertices}
    for pc in classify_pairs(g, src, params):
        if not pc.is_long:
            short_targets[pc.source].append(pc.target)
    short = np.zeros((len(src), g.n), bool)
    for i, targets in enumerate(short_targets.values()):
        short[i, targets] = True
    dist = hop_distance_matrix(g, src.vertices)
    parents = graphs.parent_rows(g.csr, dist)
    base = np.union1d(gc.g_c, [u * g.n + v for u, v in light])
    edges, stats = _buy_short_paths(g, src.vertices, dist, parents, short, gc, base, params)
    assert np.isin(base, edges).all()
    sub = Spanner(g.n, edges)
    for s, targets in short_targets.items():
        dg = bfs_distances(g, [s])
        dh = bfs_distances(sub, [s])
        for v in targets:
            assert 0 <= dh[v] <= dg[v] + 2 * k
    assert stats["levels"][0] >= 1


def test_buyer_rows_are_exact_at_each_sources_turn(monkeypatch):
    # every source's row comes from one row kernel call over the base and
    # catches up with the edges earlier sources bought: when its turn comes
    # it is the hop row over the spanner bought so far
    spanners, caught_up = [], []
    adjacency, cluster_minima = additive._adjacency, additive.cluster_minima

    def recorded_adjacency(n, codes):
        spanners.append((Spanner(n, codes), adjacency(n, codes)))
        return spanners[-1][1]

    def hop_row(h, s):
        return [INF if d == UNREACHED else d for d in hop_distance_matrix(h, [s])[0].tolist()]

    def checked_cluster_minima(rows, members, starts):
        if isinstance(rows, list):  # the buyer passes one source's row
            [row] = rows
            base, adj = spanners[-1]
            kept = Graph(len(adj), [(a, b) for a, nbrs in enumerate(adj) for b in nbrs if a < b])
            assert row == hop_row(kept, row.index(0))
            caught_up.append(row != hop_row(base, row.index(0)))
        return cluster_minima(rows, members, starts)

    monkeypatch.setattr(additive, "_adjacency", recorded_adjacency)
    monkeypatch.setattr(additive, "cluster_minima", checked_cluster_minima)
    for seed in (1, 2):
        g = random_graph(128, 8 / 127, seed)
        build_sourcewise_additive(g, SourceSet.from_ids(range(12), g.n), 2, seed, 2)
    assert len(caught_up) == 24 and any(caught_up)


def _grid(rows: int, cols: int) -> Graph:
    """rows x cols grid, no diagonals, vertex r * cols + c."""
    right = [(r * cols + c, r * cols + c + 1) for r in range(rows) for c in range(cols - 1)]
    down = [(r * cols + c, (r + 1) * cols + c) for r in range(rows - 1) for c in range(cols)]
    return Graph(rows * cols, right + down)


def _grid_buy(g, sources, params, gc, parents=None):
    """`_buy_short_paths` from the bare clustering, every reached pair short."""
    dist = hop_distance_matrix(g, sources)
    parents = graphs.parent_rows(g.csr, dist) if parents is None else parents
    return _buy_short_paths(g, sources, dist, parents, dist >= 0, gc, gc.g_c, params)


def test_rerouted_candidates_buy_on_a_grid(monkeypatch):
    # a host where a candidate rejected at level 0 is rerouted and then
    # buys edges at level 1; no G(n, p) host tried reaches that branch
    g = _grid(12, 12)
    params = AdditiveParams(k=2, epsilon=0.0, heavy_degree=1, long_threshold=20, level_factor=1.5)
    # per visited target its path, then one reroute per level climbed, and
    # one insertion per purchase
    events = []

    def recorded(name):
        helper = getattr(additive, name)

        def record(*args):
            events.append(name)
            return helper(*args)

        monkeypatch.setattr(additive, name, record)

    for name in ("parent_path", "_next_level_path", "_insert_edges"):
        recorded(name)
    codes, stats = _grid_buy(g, list(range(6)), params, hub_clustering(g, 0.2))
    assert stats == {"paths_bought": 33, "edges_bought": 52, "levels": [498, 366, 0]}
    bought_at = Counter()
    for event in events:
        level = 0 if event == "parent_path" else level + (event == "_next_level_path")
        bought_at[level] += event == "_insert_edges"
    assert bought_at == {0: 29, 1: 4}
    assert len(codes) == 179
    assert hashlib.sha256(codes.tobytes()).hexdigest() == (
        "6ecf1bd4150f2ff4f78492cbb048b1abed542e57387cfbb1e875bc1cc0ed6373"
    )


@pytest.mark.parametrize("plant, error", [
    (2, "length invariant"),  # skips a level: vertex 26 is 4 hops out, vertex 2 is 2
    (27, "length invariant"),  # steps away from the source
    (-1, "endpoints drifted"),  # ends the chain short of the source
])
def test_buyer_checks_every_canonical_parent_step(plant, error):
    # the source's array pass checks the parent rows before any purchase
    g = _grid(12, 12)
    params = AdditiveParams(k=2, epsilon=0.0, heavy_degree=1, long_threshold=20, level_factor=1.5)
    gc = hub_clustering(g, 0.2)
    parents = graphs.parent_rows(g.csr, hop_distance_matrix(g, [0]))
    assert parents[0, 26] == 14
    parents[0, 26] = plant
    with pytest.raises(RuntimeError, match=error):
        _grid_buy(g, [0], params, gc, parents)


def test_buyer_checks_the_missing_edge_budget():
    # a canonical path missing more edges than the level-0 budget allows
    g = _grid(12, 12)
    params = AdditiveParams(k=2, epsilon=0.0, heavy_degree=1, long_threshold=5, level_factor=1.5)
    with pytest.raises(RuntimeError, match="missing-edge budget"):
        _grid_buy(g, list(range(6)), params, hub_clustering(g, 0.2))


@pytest.mark.parametrize("host, crowded", [
    ([(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)], True),  # 0-1-2-3-4-5: all four on a path
    ([(0, 1), (0, 2), (0, 3), (0, 4), (0, 5)], False),  # a star: at most one per path
])
def test_buyer_counts_cluster_members_on_each_path(host, crowded):
    # a hand-built cluster of four members; only a path that holds all
    # four breaks the occupancy invariant, even when the spanner already
    # keeps every edge and no path is visited
    g = Graph(7, host + [(5, 6)])
    params = AdditiveParams(k=1, epsilon=0.0, heavy_degree=1, long_threshold=20, level_factor=2.0)
    gc = _hand_clustering(7, [[1, 2, 3, 4]], [6])
    dist = hop_distance_matrix(g, [0])
    parents = graphs.parent_rows(g.csr, dist)

    def buy():
        return _buy_short_paths(g, [0], dist, parents, dist >= 0, gc, g.codes, params)

    if crowded:
        with pytest.raises(RuntimeError, match="cluster occupancy"):
            buy()
    else:
        assert buy()[1]["levels"] == [7, 0]


def test_swadd_split_is_classify_pairs():
    # the builder's short/long split and the public classification read the
    # same source rows: the acceptance grid's swadd rows and the caterpillar
    swadd = next(case for case in bench.CASES if case.command == "swadd")
    cases = []
    for n, k, eps, seed in itertools.product(*swadd.full):
        g = bench.random_graph(n, bench.degree8_p(n), seed)
        cases.append((g, SourceSet.from_ids(bench.pick_sources(n, eps), n), k, seed, bench.RETRIES))
    cat = _caterpillar(spine=40, leaves=10)
    cases.append((cat, SourceSet.from_ids(range(34), cat.n), 1, 2, 3))
    for g, src, k, seed, retries in cases:
        meta = build_sourcewise_additive(g, src, k, seed, retries).meta
        split = Counter(pc.is_long for pc in classify_pairs(g, src, additive_params(g, src, k)))
        assert (meta["short_pairs"], meta["long_pairs"]) == (split[False], split[True])
    assert meta["long_pairs"] > 0


def test_negative_retries_rejected():
    g = random_graph(64, 0.1, 3)
    src = SourceSet.from_ids(range(8), 64)
    for retries in (-1, -5):
        with pytest.raises(ValueError, match="retries"):
            build_sourcewise_additive(g, src, 1, 1, retries=retries)


def test_builder_is_deterministic():
    g = random_graph(96, 0.09, 7)
    src = SourceSet.from_ids(range(9), 96)
    a = build_sourcewise_additive(g, src, 2, 11)
    b = build_sourcewise_additive(g, src, 2, 11)
    assert a.edges == b.edges


# ---------------------------------------------------------------------------
# +2 emulator
# ---------------------------------------------------------------------------


def test_emulator_shortcut_weights_are_exact_distances():
    g = random_graph(120, 0.07, 11)
    src = SourceSet.from_ids(range(11), 120)
    em = build_sourcewise_emulator2(g, src)
    dist = floyd_warshall(g)
    for (u, v), w in em.weights.items():
        assert dist[u][v] == w  # unit edges are graph edges; shortcuts exact


def test_emulator_never_adds_self_shortcut():
    g = random_graph(80, 0.1, 3)
    src = SourceSet.from_ids(range(8), 80)
    em = build_sourcewise_emulator2(g, src)
    assert all(u != v for (u, v) in em.weights)


def _two_parts(a: Graph, b: Graph) -> Graph:
    return Graph(a.n + b.n, list(a.edges) + [(u + a.n, v + a.n) for u, v in b.edges])


@pytest.mark.parametrize("host", ["source_in_cluster", "unreached_cluster", "edgeless"])
def test_emulator_shortcuts_are_the_brute_force_minimum(host):
    # one shortcut per (source, cluster) to the minimum (distance, id)
    # member, none when the source is a member or reaches no member
    g, sources = {
        "source_in_cluster": lambda: (random_graph(120, 0.07, 11), range(11)),
        "unreached_cluster": lambda: (
            _two_parts(random_graph(40, 0.15, 2), random_graph(40, 0.4, 3)), range(6)),
        "edgeless": lambda: (Graph(10, []), [0, 3, 9]),
    }[host]()
    src = SourceSet.from_ids(sources, g.n)
    gc = hub_clustering(g, src.epsilon / 2.0)
    dist = floyd_warshall(g)
    want = {e: 1 for e in pairs(g.n, gc.g_c)}
    for s in src.vertices:
        for members in gc.clusters:
            d, m = min((dist[s][x], x) for x in members)
            if 0 < d < INF:
                want[min(s, m), max(s, m)] = d
    assert build_sourcewise_emulator2(g, src).weights == want
    clustered = [gc.cluster_index[s] >= 0 for s in src.vertices]
    unreached = [all(dist[s][x] == INF for s in src.vertices for x in c) for c in gc.clusters]
    assert {
        "source_in_cluster": any(clustered) and not any(unreached),
        "unreached_cluster": any(unreached) and not all(unreached),
        "edgeless": not gc.clusters and not want,
    }[host]


def test_emulator_sandwich_on_grid_instance():
    g = random_graph(400, 0.06, 11)
    src = SourceSet.from_ids(range(20), 400)
    em = build_sourcewise_emulator2(g, src)
    for s in src.vertices:
        dg = bfs_distances(g, [s])
        dh = weighted_sssp(em, s)
        for v in range(g.n):
            if dg[v] < 0:
                assert dh[v] < 0
                continue
            assert dg[v] <= dh[v] <= dg[v] + 2


# ---------------------------------------------------------------------------
# +2 inside a set, +4 for large source sets
# ---------------------------------------------------------------------------


def test_subsetwise_singleton_is_bare_clustering():
    g = random_graph(60, 0.1, 2)
    sp = build_subsetwise_plus2(g, [5])
    assert sp.edges == pairs(g.n, hub_clustering(g, 0.0).g_c)


def test_subsetwise_buys_forced_edge():
    g = random_graph(80, 0.07, 9)
    sp = build_subsetwise_plus2(g, range(16))
    dg = floyd_warshall(g)
    dh = floyd_warshall(Graph(g.n, sp.edges))
    for a in range(16):
        for b in range(a + 1, 16):
            if dg[a][b] < INF:
                assert dh[a][b] <= dg[a][b] + 2


def test_subsetwise_grid_instance():
    g = random_graph(300, 0.07, 8)
    members = list(range(30))
    sp = build_subsetwise_plus2(g, members)
    sub = Graph(g.n, sp.edges)
    for a in members:
        dg = bfs_distances(g, [a])
        dh = bfs_distances(sub, [a])
        for b in members:
            if dg[b] >= 0:
                assert 0 <= dh[b] <= dg[b] + 2


def test_subsetwise_refuses_non_integer_members():
    g = random_graph(20, 0.2, 1)
    for bad in ([0.5, 3.7, 9], [1, np.float64(2)], [2.0]):
        with pytest.raises(TypeError):
            build_subsetwise_plus2(g, bad)
    want = build_subsetwise_plus2(g, [0, 3, 9])
    got = build_subsetwise_plus2(g, np.array([9, 3, 0, 3]))
    assert got.edges == want.edges and got.meta == want.meta


def test_subsetwise_builds_without_per_root_paths(monkeypatch):
    cases = [(random_graph(80, 0.07, 9), range(16)), (random_graph(300, 0.07, 8), range(30)),
             (random_graph(512, 0.06, 3), range(0, 512, 5))]
    want = [build_subsetwise_plus2(g, members) for g, members in cases]
    assert all(sp.meta["paths_bought"] > 0 for sp in want)
    _forbid_per_root_searches(monkeypatch)

    def whole_rows(*args):
        raise AssertionError("whole parent rows where only bought paths are walked")

    for module in (graphs, additive):
        monkeypatch.setattr(module, "parent_rows", whole_rows)
    for (g, members), sp in zip(cases, want):
        got = build_subsetwise_plus2(g, members)
        assert got.edges == sp.edges and got.meta == sp.meta


def test_plus4_exact_when_no_clusters_form():
    g = Graph(50, [(i, i + 1) for i in range(49)])
    src = SourceSet.from_ids(range(40), 50)
    sp = build_sourcewise_additive4(g, src)
    assert sp.edges == g.edges


def test_plus4_on_grid_instance():
    g = random_graph(512, 0.05, 12)
    src = SourceSet.from_ids(range(64), 512)  # 64 = 512^(2/3)
    sp = build_sourcewise_additive4(g, src)
    assert _additive_violations(g, sp.edges, src.vertices, 4) == 0


def test_plus4_records_its_regime():
    g = random_graph(100, 0.08, 4)
    for size, in_regime in [(5, False), (21, False), (22, True), (100, True)]:  # 100^(2/3) = 21.5
        src = SourceSet.from_ids(range(size), 100)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the advisory is data, not a warning
            assert build_sourcewise_additive4(g, src).meta["in_regime"] is in_regime


# ---------------------------------------------------------------------------
# sampled trees and the array kernels behind the builder
# ---------------------------------------------------------------------------


def _two_caterpillars():
    """Two caterpillars side by side, with isolated vertices after them."""
    a, b = _caterpillar(6, 3), _caterpillar(9, 2)
    edges = list(a.edges) + [(u + a.n, v + a.n) for u, v in b.edges]
    return Graph(a.n + b.n + 3, edges)


@pytest.mark.parametrize("host", ["parent_host", "two_caterpillars", "random"])
@pytest.mark.parametrize("block", [None, 5])
def test_tree_union_is_the_union_of_per_root_bfs_trees(monkeypatch, host, block):
    g = {
        "parent_host": parent_host,
        "two_caterpillars": _two_caterpillars,
        "random": lambda: random_graph(90, 0.08, 4),
    }[host]()
    if block is not None:
        monkeypatch.setattr(graphs, "_ROW_BLOCK", block)
        monkeypatch.setattr(additive, "_ROW_BLOCK", block + 2)
    for roots in root_samples(g.n):
        want = set()
        for z in roots:
            want |= {(min(v, p), max(v, p)) for v, p in enumerate(bfs(g, [z]).parent) if p >= 0}
        got = additive.tree_union(g, roots)
        assert got.dtype == np.int64 and got.tolist() == sorted(got.tolist())
        assert len(got) == len(want) and pairs(g.n, got) == want


def _forbid_per_root_searches(monkeypatch):
    def per_root(*args, **kwargs):
        raise AssertionError("per-root search in an array-native builder")

    for module, name in [
        (graphs, "bfs"),
        (graphs, "bfs_distances"),
        (graphs, "trace_parent_path"),
        (additive, "bfs"),
        (additive, "trace_parent_path"),
    ]:
        monkeypatch.setattr(module, name, per_root, raising=False)


def test_swadd_builds_without_per_root_bfs(monkeypatch):
    cat = _caterpillar(spine=40, leaves=10)
    g = random_graph(128, 8 / 127, 2)
    builds = [
        lambda: build_sourcewise_additive(cat, SourceSet.from_ids(range(34), cat.n), 1, 2, 3),
        lambda: build_sourcewise_additive(g, SourceSet.from_ids(range(12), g.n), 2, 2, 2),
    ]
    want = [build() for build in builds]
    _forbid_per_root_searches(monkeypatch)
    for build, sp in zip(builds, want):
        got = build()
        assert got.edges == sp.edges and got.meta == sp.meta
    assert want[0].meta["long_pairs"] > 0  # the trees serve pairs here
    assert sum(want[1].meta["buy_levels"][1:]) > 0  # and rerouted candidates here


def test_swadd_phase_edges_cover_the_output():
    cat = _caterpillar(spine=40, leaves=10)
    cases = [(cat, SourceSet.from_ids(range(34), cat.n), 1, 3)]
    for seed in (1, 2):
        g = random_graph(128, 8 / 127, seed)
        cases += [(g, SourceSet.from_ids(range(12), g.n), k, 2) for k in (1, 2)]
    for g, src, k, retries in cases:
        sp = build_sourcewise_additive(g, src, k, 7, retries)
        phases = sp.meta["phase_edges"]
        assert set(phases) == {"light", "clustering", "bought", "trees"}
        assert all(0 <= count <= sp.size for count in phases.values())
        assert sum(phases.values()) >= sp.size
        assert phases["trees"] > 0
