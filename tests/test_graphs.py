from __future__ import annotations

import numpy as np
import pytest

from spanlab import (
    Emulator,
    Graph,
    GraphFormatError,
    bfs,
    bfs_distances,
    canonical_path,
    dump_emulator,
    dump_graph,
    emulator_distance_matrix,
    hop_distance_matrix,
    load_emulator,
    load_graph,
    path_is_valid,
    random_graph,
    weighted_sssp,
)
from conftest import random_tree
from oracles import as_int_grid, bellman_ford, floyd_warshall


# ---------------------------------------------------------------------------
# edge-list parsing
# ---------------------------------------------------------------------------


def test_load_path_graph():
    g = load_graph("p 3 2\n0 1\n1 2\n")
    assert g.n == 3 and g.m == 2
    assert g.adj == ((1,), (0, 2), (1,))


def test_load_rejects_self_loop():
    with pytest.raises(GraphFormatError, match="line 2.*self-loop"):
        load_graph("p 2 1\n0 0\n")


def test_load_five_cycle():
    g = load_graph("p 5 5\n0 1\n1 2\n2 3\n3 4\n4 0\n")
    assert g.m == 5


def test_load_rejects_duplicate_edge():
    with pytest.raises(GraphFormatError, match="line 3.*duplicate"):
        load_graph("p 3 2\n0 1\n1 0\n")


def test_load_rejects_out_of_range_id():
    with pytest.raises(GraphFormatError, match="line 2.*out of range"):
        load_graph("p 3 1\n0 3\n")


def test_load_rejects_bad_header_and_counts():
    with pytest.raises(GraphFormatError, match="header"):
        load_graph("q 3 1\n0 1\n")
    with pytest.raises(GraphFormatError, match="declares m=2"):
        load_graph("p 3 2\n0 1\n")


def test_load_skips_comments_and_blanks():
    g = load_graph("# a comment\n\np 2 1\n# another\n0 1\n")
    assert g.m == 1


def test_dump_load_roundtrip():
    g = random_graph(30, 0.2, 1)
    assert load_graph(dump_graph(g)) == g


def test_emulator_roundtrip_and_validation():
    em = Emulator(4, [(0, 1, 1), (1, 3, 5)])
    assert load_emulator(dump_emulator(em)).weights == em.weights
    with pytest.raises(GraphFormatError, match="weight"):
        load_emulator("e 2 1\n0 1 0\n")
    with pytest.raises(ValueError, match="self-loop"):
        Emulator(3, [(1, 1, 2)])


def test_emulator_parallel_entries_keep_min_weight():
    em = Emulator(3, [(0, 1, 4), (1, 0, 2)])
    assert em.weights == {(0, 1): 2}


# ---------------------------------------------------------------------------
# BFS and canonical paths
# ---------------------------------------------------------------------------


def test_bfs_cycle_distances(cycle5):
    assert bfs_distances(cycle5, [0]) == [0, 1, 2, 2, 1]


def test_bfs_multi_root_owner_tie(path3):
    res = bfs(path3, [0, 2])
    assert res.dist == [0, 1, 0]
    assert res.owner[1] == 0  # equidistant: min root id wins


def test_bfs_rejects_empty_roots(cycle5):
    with pytest.raises(ValueError):
        bfs_distances(cycle5, [])


def test_bfs_parent_is_min_id_closer_neighbor(cycle5):
    res = bfs(cycle5, [0])
    assert res.parent[2] == 1  # neighbors at distance 1 are {1, 3}
    assert res.parent[0] == -1


def test_bfs_matches_cubic_oracle_on_random_graph():
    g = random_graph(64, 0.1, 7)
    want = as_int_grid(floyd_warshall(g))
    for r in range(g.n):
        assert bfs_distances(g, [r]) == want[r]


def test_bfs_distance_is_edge_lipschitz():
    for seed in (1, 2, 3):
        g = random_graph(50, 0.12, seed)
        dist = bfs_distances(g, [0])
        for u, v in g.edges:
            if dist[u] >= 0 and dist[v] >= 0:
                assert abs(dist[u] - dist[v]) <= 1


def test_canonical_path_identity(cycle5):
    assert canonical_path(cycle5, 3, 3) == [3]


def test_canonical_path_cycle_prefers_min_index(cycle5):
    assert canonical_path(cycle5, 0, 2) == [0, 1, 2]


def test_canonical_path_on_tree_is_unique_tree_path():
    t = random_tree(40, 11)
    want = as_int_grid(floyd_warshall(t))
    for v in (5, 17, 39):
        p = canonical_path(t, 0, v)
        assert p[0] == 0 and p[-1] == v
        assert len(p) - 1 == want[0][v]
        assert path_is_valid(t, p)


def test_canonical_path_idempotent_and_optimal():
    g = random_graph(48, 0.12, 5)
    want = as_int_grid(floyd_warshall(g))
    for u, v in [(0, 40), (3, 17), (8, 8)]:
        p1 = canonical_path(g, u, v)
        p2 = canonical_path(g, u, v)
        assert p1 == p2
        assert len(p1) - 1 == want[u][v]
        assert path_is_valid(g, p1)


def test_canonical_path_disconnected_is_none():
    g = Graph(4, [(0, 1), (2, 3)])
    assert canonical_path(g, 0, 3) is None


# ---------------------------------------------------------------------------
# weighted distances
# ---------------------------------------------------------------------------


def test_weighted_sssp_unit_weights_match_bfs(petersen):
    em = Emulator(10, [(u, v, 1) for u, v in petersen.edges])
    for r in (0, 7):
        assert weighted_sssp(em, r) == bfs_distances(petersen, [r])


def test_weighted_sssp_ignores_worse_shortcut():
    em = Emulator(3, [(0, 1, 1), (1, 2, 1), (0, 2, 5)])
    assert weighted_sssp(em, 0)[2] == 2


def test_weighted_sssp_matches_relaxation_oracle():
    rng = np.random.default_rng(9)
    triples = []
    for _ in range(90):
        u, v = rng.integers(0, 32, size=2)
        if u != v:
            triples.append((int(u), int(v), int(rng.integers(1, 9))))
    em = Emulator(32, triples)
    want = bellman_ford(em, 0)
    got = weighted_sssp(em, 0)
    for v in range(32):
        assert (got[v] == -1 and want[v] == float("inf")) or got[v] == want[v]
    # matrix rows follow the given (unsorted, repeated) source order
    roots = [5, 0, 31, 5]
    mat = emulator_distance_matrix(em, roots)
    assert mat.shape == (4, 32)
    assert mat.tolist() == [as_int_grid([bellman_ford(em, r)])[0] for r in roots]
    assert emulator_distance_matrix(em, []).shape == (0, 32)


def test_emulator_distances_refuse_inexact_weights():
    em = Emulator(3, [(0, 1, 2**52), (1, 2, 2**52)])
    with pytest.raises(ValueError, match="too large"):
        weighted_sssp(em, 0)
    assert weighted_sssp(Emulator(3, [(0, 1, 2**51), (1, 2, 2**51)]), 0)[2] == 2**52


# ---------------------------------------------------------------------------
# random graphs and matrix distances
# ---------------------------------------------------------------------------


def test_random_graph_extremes():
    assert random_graph(20, 0.0, 3).m == 0
    assert random_graph(20, 1.0, 3).m == 20 * 19 // 2


def test_random_graph_deterministic():
    a = random_graph(100, 0.05, 1)
    b = random_graph(100, 0.05, 1)
    assert a == b


def test_random_graph_invariants():
    g = random_graph(80, 0.07, 2)
    for v in range(g.n):
        assert list(g.adj[v]) == sorted(set(g.adj[v]))
        assert v not in g.adj[v]
        for w in g.adj[v]:
            assert v in g.adj[w]


def test_hop_distance_matrix_agrees_with_bfs():
    g = random_graph(40, 0.1, 13)
    mat = hop_distance_matrix(g)
    for r in range(g.n):
        assert list(mat[r]) == bfs_distances(g, [r])
    sub = hop_distance_matrix(g, [4, 9])
    assert list(sub[0]) == bfs_distances(g, [4])
    assert list(sub[1]) == bfs_distances(g, [9])
