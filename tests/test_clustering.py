from __future__ import annotations

import math

from spanlab import (
    Graph,
    hub_clustering,
    cluster_sequence,
    hop_distance_matrix,
    random_graph,
)
from oracles import floyd_warshall

INF = float("inf")


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
        # forest: per cluster a spanning tree rooted at the center
        clusters = level.clusters()
        index_of = {u: z for z, members in clusters.items() for u in members}
        for a, b in level.forest:
            assert index_of[a] == index_of[b]
        for z, members in clusters.items():
            inside = [(a, b) for a, b in level.forest if index_of[a] == z]
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


def test_level_zero_is_singletons():
    g = random_graph(24, 0.2, 5)
    cs = cluster_sequence(g, 2, 0.5, 1)
    lvl = cs.levels[0]
    assert lvl.centers == list(range(24))
    assert lvl.assignment == list(range(24))
    assert lvl.forest == set() and lvl.q_edges == set()


def test_k1_mu1_rebuilds_the_graph(petersen):
    cs = cluster_sequence(petersen, 1, 1.0, 7)
    assert cs.levels[1].centers == []
    assert cs.levels[1].delta == list(range(10))
    assert cs.spanner_edges == set(petersen.edges)


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
    assert a.spanner_edges == b.spanner_edges
    assert _assignments(a) == _assignments(b)


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
        hk = Graph(g.n, cs.spanner_edges)
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
        hk = Graph(g.n, cs.spanner_edges)
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
    assert c.g_c == set(g.edges)


def test_hub_clustering_star():
    star = Graph(10, [(0, i) for i in range(1, 10)])
    gamma = math.log(9) / math.log(10)
    c = hub_clustering(star, gamma)
    assert c.size == 9
    assert c.clusters == [list(range(1, 10))]
    assert c.hubs == [0]
    assert c.g_c == set(star.edges)


def _audit_hub_clustering(g, c):
    n = g.n
    assert len(c.clusters) <= math.ceil(n ** (1 - c.gamma) + 1e-9)
    seen = set()
    for cid, members in enumerate(c.clusters):
        assert len(members) == c.size
        assert not (set(members) & seen)
        seen |= set(members)
        hub = c.hubs[cid]
        for m in members:
            assert g.has_edge(hub, m)
            assert (min(hub, m), max(hub, m)) in c.g_c
    # any skipped edge joins two different clusters
    for u, v in g.edges:
        if (u, v) not in c.g_c:
            cu, cv = c.cluster_index[u], c.cluster_index[v]
            assert cu >= 0 and cv >= 0 and cu != cv
    # members of one cluster sit within two hops inside the kept subgraph
    sub = Graph(n, c.g_c)
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
