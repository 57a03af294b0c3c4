from __future__ import annotations

import math

import numpy as np

from spanlab import clustering
from spanlab import (
    UNREACHED,
    Graph,
    Spanner,
    hub_clustering,
    cluster_sequence,
    hop_distance_matrix,
    random_graph,
)
from conftest import pairs
from oracles import floyd_warshall, greedy_hub_clustering

INF = float("inf")


# ---------------------------------------------------------------------------
# cluster_minima
# ---------------------------------------------------------------------------


def test_cluster_minima_is_the_per_cluster_minimum():
    # the loop it replaced is the reference: minimum (dist, id) per row and
    # cluster, (n, min-id member) when no member is reached; cut-off cells
    # are UNREACHED in int rows and inf in list rows
    rng = np.random.default_rng(4)
    for trial in range(20):
        n = int(rng.integers(4, 40))
        ids = rng.permutation(n).tolist()
        cuts = sorted(set(rng.integers(1, n, int(rng.integers(0, 6))).tolist()))
        clusters = [sorted(ids[a:b]) for a, b in zip([0] + cuts, cuts + [n])]
        members = np.array([x for c in clusters for x in c], np.int64)
        starts = np.cumsum([0] + [len(c) for c in clusters[:-1]])
        hops = rng.integers(0, 5, (4, n))
        hops[rng.random((4, n)) < 0.4] = UNREACHED
        hops[:, clusters[0][-1]] = UNREACHED
        hops[1] = UNREACHED  # a row that reaches nothing
        if trial % 3 == 0:
            hops[:, clusters[-1]] = UNREACHED
        lists = [[INF if d == UNREACHED else d for d in row] for row in hops.tolist()]
        want = [[min((n if row[x] == INF else row[x], x) for x in c) for c in clusters]
                for row in lists]
        for block, rows in [(hops.astype(np.int32), want), (hops, want), (lists, want),
                            (lists[2:3], want[2:3])]:
            cdist, nearest = clustering.cluster_minima(block, members, starts)
            assert cdist.shape == nearest.shape == (len(block), len(clusters))
            assert cdist.dtype == nearest.dtype == np.int64
            assert [list(zip(*pair)) for pair in zip(cdist.tolist(), nearest.tolist())] == rows
    none = np.empty(0, np.int64)
    for block in ([[0, 1]], np.array([[0, UNREACHED]], np.int32)):
        cdist, nearest = clustering.cluster_minima(block, none, none)
        assert cdist.shape == nearest.shape == (1, 0)


# ---------------------------------------------------------------------------
# cluster_sequence
# ---------------------------------------------------------------------------


def _audit_levels(g, cs):
    """Recheck every recorded level against a cubic distance oracle."""
    dist = floyd_warshall(g)
    prev_centers = None
    seen_delta = set()
    for level in cs.levels:
        tau = level.tau
        centers = level.centers
        if tau == 0:
            assert centers == list(range(g.n))
        if prev_centers is not None:
            assert set(centers) <= set(prev_centers)
        for u in range(g.n):
            z = level.assignment[u]
            if not centers:
                assert z < 0
                continue
            best = min(dist[u][c] for c in centers)
            if z >= 0:
                assert dist[u][z] == best <= tau
                assert z == min(c for c in centers if dist[u][c] == best)
                assert level.center_dist[u] == best
            else:
                assert best > tau
        # freshly unclustered vertices are recorded once, ever
        assert not (set(level.delta) & seen_delta)
        seen_delta |= set(level.delta)
        # both edge sets are sorted unique host edge codes
        for codes in (level.forest, level.q_edges):
            assert codes.dtype == np.int64 and codes.tolist() == sorted(set(codes.tolist()))
            assert pairs(g.n, codes) <= g.edges
        # forest: per cluster a spanning tree rooted at the center
        clusters = dict(zip(level.centers, _column_clusters(level.members, level.starts)))
        index_of = {u: z for z, members in clusters.items() for u in members}
        forest = pairs(g.n, level.forest)
        for a, b in forest:
            assert index_of[a] == index_of[b]
        for z, members in clusters.items():
            inside = [(a, b) for a, b in forest if index_of[a] == z]
            assert len(inside) == len(members) - 1
            adj = {u: [] for u in members}
            for a, b in inside:
                adj[a].append(b)
                adj[b].append(a)
            seen = {z}
            frontier = [z]
            depth = 0
            while frontier:
                depth += 1
                nxt = []
                for x in frontier:
                    for y in adj[x]:
                        if y not in seen:
                            seen.add(y)
                            assert level.center_dist[y] == depth
                            nxt.append(y)
                frontier = nxt
            assert seen == set(members)
        prev_centers = centers


def _column_clusters(members, starts):
    """The member lists that member-ordered columns hold, in column order."""
    bounds = starts.tolist() + [len(members)]
    return [members[a:b].tolist() for a, b in zip(bounds, bounds[1:])]


def _label_clusters(label, order):
    """Per cluster label in `order` its vertices, ascending."""
    return [[u for u, z in enumerate(label) if z == c] for c in order]


def test_level_columns_are_the_assignment_clusters(petersen):
    # clusters in center order, members ascending, each assigned vertex once
    cases = [(petersen, 2, 0.5, 3), (Graph(1, []), 2, 0.5, 1), (Graph(7, [(0, 1), (2, 3)]), 2, 0.5, 2)]
    cases += [(random_graph(80, 0.08, s), k, 1 / k, s) for s in (1, 2) for k in (2, 3, 4)]
    cases += [(random_graph(70, 0.1, 4), 3, 0.2, 5), (random_graph(60, 0.3, 3), 2, 0.5, 1)]
    sizes = set()
    for g, k, mu, seed in cases:
        for level in cluster_sequence(g, k, mu, seed).levels:
            assert level.members.dtype == level.starts.dtype == np.int64
            want = _label_clusters(level.assignment, level.centers)
            assert _column_clusters(level.members, level.starts) == want
            assert sorted(level.members.tolist()) == [u for u, z in enumerate(level.assignment) if z >= 0]
            sizes |= {len(c) for c in want}
    assert max(sizes) > 3 and 1 in sizes


def test_level_zero_is_singletons():
    g = random_graph(24, 0.2, 5)
    cs = cluster_sequence(g, 2, 0.5, 1)
    lvl = cs.levels[0]
    assert lvl.centers == list(range(24))
    assert lvl.assignment == list(range(24))
    assert len(lvl.forest) == len(lvl.q_edges) == 0


def test_k1_mu1_rebuilds_the_graph(petersen):
    cs = cluster_sequence(petersen, 1, 1.0, 7)
    assert cs.levels[1].centers == []
    assert cs.levels[1].delta == list(range(10))
    assert pairs(10, cs.spanner_edges) == set(petersen.edges)


def test_petersen_audit_and_golden_dump(petersen):
    cs = cluster_sequence(petersen, 2, 0.5, 3)
    _audit_levels(petersen, cs)
    golden = [
        (list(range(10)), [0] * 10),
        ([4, -1, -1, 4, 4, -1, 9, 9, -1, 9], [1, -1, -1, 1, 0, -1, 1, 1, -1, 0]),
        ([-1] * 10, [-1] * 10),
    ]
    assert _assignments(cs) == golden


def test_random_graph_audits():
    for seed in (1, 2, 5):
        g = random_graph(48, 0.12, seed)
        cs = cluster_sequence(g, 3, 1 / 3, seed)
        _audit_levels(g, cs)


def _assignments(cs):
    """(assignment, center_dist) per level: the whole clustering outcome."""
    return [(level.assignment, level.center_dist) for level in cs.levels]


def test_determinism():
    g = random_graph(60, 0.1, 4)
    a = cluster_sequence(g, 2, 0.5, 9)
    b = cluster_sequence(g, 2, 0.5, 9)
    assert np.array_equal(a.spanner_edges, b.spanner_edges)
    assert _assignments(a) == _assignments(b)


def _levels(cs):
    """Every field of every level, with the accumulated spanner."""
    fields = [
        (lv.tau, lv.centers, lv.assignment, lv.center_dist, lv.forest.tolist(), lv.delta,
         lv.q_edges.tolist())
        for lv in cs.levels
    ]
    return fields, cs.spanner_edges.tolist()


def test_cluster_sequence_reads_no_adjacency_tuples(petersen):
    cases = [(petersen, 2, 0.5, 3), (Graph(1, []), 2, 0.5, 1), (Graph(7, [(0, 1), (2, 3)]), 2, 0.5, 2)]
    cases += [(random_graph(80, 0.08, s), k, 1 / k, s) for s in (1, 2) for k in (2, 3, 4)]
    cases += [(random_graph(70, 0.1, 4), 3, 0.2, 5)]  # non-empty last level
    # the clustering reads codes and the CSR and never builds the host's
    # `edges` tuple view
    for g, k, mu, seed in cases:
        got = cluster_sequence(g, k, mu, seed)
        assert "edges" not in vars(g)
        for lv in got.levels:
            assert all(type(x) is int for x in lv.centers + lv.assignment + lv.center_dist + lv.delta)
            assert lv.forest.dtype == lv.q_edges.dtype == np.int64


def test_escape_edges_do_not_depend_on_the_gather_block(monkeypatch):
    cases = [(random_graph(80, 0.08, s), k, 1 / k, s) for s in (1, 2) for k in (2, 3)]
    want = [_levels(cluster_sequence(*case)) for case in cases]
    assert any(lv[5] for levels, _ in want for lv in levels)  # some delta
    for block in (1, 3, 7):
        monkeypatch.setattr(clustering, "_ROW_BLOCK", block)
        assert [_levels(cluster_sequence(*case)) for case in cases] == want


def _level_clustered(cs, ell):
    flags = cs.levels[ell].assignment
    return [z >= 0 for z in flags]


def test_partial_spanner_bounds_unclustered_edges():
    # edges with an endpoint outside the level-ell clustering sit at
    # distance <= 2*ell - 1 in the accumulated subgraph
    for seed in (1, 4):
        g = random_graph(64, 0.1, seed)
        k = 3
        cs = cluster_sequence(g, k, 1.0 / k, seed)
        hk = Spanner(g.n, cs.spanner_edges)
        dmat = hop_distance_matrix(hk)
        for ell in range(1, k + 1):
            clustered = _level_clustered(cs, ell)
            for u, v in g.edges:
                if not (clustered[u] and clustered[v]):
                    d = dmat[u][v]
                    assert 0 <= d <= 2 * ell - 1


def test_partial_spanner_is_low_stretch_at_density_one_over_k():
    for n, k, seed in [(64, 2, 1), (64, 2, 2), (96, 3, 1), (96, 4, 2)]:
        g = random_graph(n, 8.0 / (n - 1), seed)
        cs = cluster_sequence(g, k, 1.0 / k, seed)
        hk = Spanner(g.n, cs.spanner_edges)
        dmat = hop_distance_matrix(hk)
        worst = max(dmat[u][v] for u, v in g.edges)
        assert 1 <= worst <= 2 * k - 1


def test_sample_sizes_track_expectation():
    n, k, mu = 100, 2, 0.5
    g = random_graph(n, 0.08, 0)
    runs = 40
    # the final level is forced empty at mu*k >= 1, so measure level 1;
    # level 2 keeps its thinned expectation at smaller mu
    sizes1 = []
    sizes2 = []
    for seed in range(runs):
        sizes1.append(len(cluster_sequence(g, k, mu, seed).levels[1].centers))
        sizes2.append(len(cluster_sequence(g, k, 0.25, seed).levels[2].centers))
    for sizes, q in [(sizes1, n ** -mu), (sizes2, (n ** -0.25) ** 2)]:
        mean = n * q
        sd = math.sqrt(n * q * (1 - q) / runs)
        assert abs(sum(sizes) / runs - mean) <= 5 * sd


def test_forced_empty_final_sample_only_at_full_density():
    g = random_graph(64, 0.12, 3)
    assert cluster_sequence(g, 2, 0.5, 1).levels[2].centers == []
    sampled = [len(cluster_sequence(g, 2, 0.25, s).levels[2].centers) for s in range(25)]
    assert any(sz > 0 for sz in sampled)


# ---------------------------------------------------------------------------
# fixed-size greedy clustering
# ---------------------------------------------------------------------------


def test_hub_clustering_gamma_one_keeps_everything():
    g = random_graph(40, 0.2, 6)
    c = hub_clustering(g, 1.0)
    assert c.clusters == []
    assert pairs(g.n, c.g_c) == set(g.edges)


def test_hub_clustering_star():
    star = Graph(10, [(0, i) for i in range(1, 10)])
    gamma = math.log(9) / math.log(10)
    c = hub_clustering(star, gamma)
    assert c.size == 9
    assert c.clusters == [list(range(1, 10))]
    assert c.hubs == [0]
    assert pairs(star.n, c.g_c) == set(star.edges)


def _audit_hub_clustering(g, c):
    n = g.n
    # the member-ordered columns hold the clusters, members ascending
    assert _column_clusters(c.members, c.starts) == [sorted(m) for m in c.clusters]
    assert len(c.clusters) <= math.ceil(n ** (1 - c.gamma) + 1e-9)
    assert c.g_c.dtype == np.int64 and c.g_c.tolist() == sorted(set(c.g_c.tolist()))
    kept = pairs(n, c.g_c)
    seen = set()
    for cid, members in enumerate(c.clusters):
        assert len(members) == c.size
        assert not (set(members) & seen)
        seen |= set(members)
        hub = c.hubs[cid]
        for m in members:
            assert (min(hub, m), max(hub, m)) in g.edges
            assert (min(hub, m), max(hub, m)) in kept
    # any skipped edge joins two different clusters
    for u, v in g.edges:
        if (u, v) not in kept:
            cu, cv = c.cluster_index[u], c.cluster_index[v]
            assert cu >= 0 and cv >= 0 and cu != cv
    # members of one cluster sit within two hops inside the kept subgraph
    sub = Graph(n, kept)
    dmat = hop_distance_matrix(sub)
    for members in c.clusters:
        for a in members:
            for b in members:
                assert 0 <= dmat[a][b] <= 2


def test_hub_clustering_invariants_on_random_graph():
    g = random_graph(200, 0.1, 5)
    c = hub_clustering(g, 0.5)
    _audit_hub_clustering(g, c)


def test_hub_clustering_invariants_small_gamma():
    g = random_graph(90, 0.12, 8)
    c = hub_clustering(g, 0.25)
    _audit_hub_clustering(g, c)


def test_hub_clustering_is_the_rescanning_greedy():
    repeats = 0
    for n, p, seed, gamma in [(60, 0.2, 1, 0.5), (120, 0.1, 2, 0.4), (200, 0.05, 3, 0.3),
                              (90, 0.3, 4, 0.6), (150, 0.15, 5, 0.25), (2, 1.0, 6, 0.0)]:
        g = random_graph(n, p, seed)
        c = hub_clustering(g, gamma)
        want = greedy_hub_clustering(g, c.size)
        assert (c.clusters, c.hubs, pairs(n, c.g_c), c.cluster_index) == want
        repeats += len(c.hubs) - len(set(c.hubs))
    assert repeats > 0  # some hub heads more than one cluster


def test_hub_clustering_hub_heads_two_clusters_in_a_row():
    size = 4
    star = Graph(2 * size + 1, [(0, i) for i in range(1, 2 * size + 1)])
    c = hub_clustering(star, math.log(size) / math.log(star.n))
    assert c.size == size
    assert c.hubs == [0, 0]
    assert c.clusters == [[1, 2, 3, 4], [5, 6, 7, 8]]
    kept = pairs(star.n, c.g_c)
    assert (c.clusters, c.hubs, kept, c.cluster_index) == greedy_hub_clustering(star, size)
