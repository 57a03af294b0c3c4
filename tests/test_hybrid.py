from __future__ import annotations

import numpy as np
import pytest

from spanlab import (
    Graph,
    Spanner,
    bfs,
    build_hybrid,
    cluster_sequence,
    hybrid_params,
    path_suffix,
    random_graph,
    size_bound,
    trace_owner_path,
)
from spanlab import hybrid
from spanlab.hybrid import closest_pairs, hop_rows, suffix_walk
from conftest import broom, pairs, parent_step_hosts, random_tree
from oracles import (
    adjacency,
    as_int_grid,
    canonical_parents,
    floyd_warshall,
    hop_row,
    path_is_valid,
    suffix_edges,
)

INF = float("inf")


# ---------------------------------------------------------------------------
# parameters
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "k,t,t_prime,ell",
    [(2, 1, 0, 15), (3, 1, 1, 15), (5, 2, 2, 46)],
)
def test_hybrid_params_values(k, t, t_prime, ell):
    p = hybrid_params(k)
    assert (p.t, p.t_prime, p.suffix_len) == (t, t_prime, ell)


def test_hybrid_params_invariants():
    for k in range(2, 11):
        p = hybrid_params(k)
        assert p.t == k // 2
        assert p.t_prime == k - 1 - p.t
        assert p.t_prime <= p.t
        assert p.suffix_len == 7 * p.t + 8 * p.t * p.t
        assert p.suffix_len >= 2 * k - 1


def test_hybrid_params_rejects_small_k():
    with pytest.raises(ValueError):
        hybrid_params(1)


# ---------------------------------------------------------------------------
# path_suffix
# ---------------------------------------------------------------------------


def test_suffix_zero_is_empty():
    assert path_suffix([0, 1, 2], 0, anchor=2) == set()


def test_suffix_covers_whole_path():
    assert path_suffix([0, 1, 2], 9, anchor=2) == {(0, 1), (1, 2)}


def test_suffix_by_definition():
    assert path_suffix([0, 1, 2, 3], 2, anchor=3) == {(2, 3), (1, 2)}
    assert path_suffix([0, 1, 2, 3], 2, anchor=0) == {(0, 1), (1, 2)}


def test_suffix_rejects_interior_anchor():
    with pytest.raises(ValueError):
        path_suffix([0, 1, 2, 3], 2, anchor=1)


# ---------------------------------------------------------------------------
# closest cluster pairs and suffix walks: the array path of phases 2 and 3,
# against the reference chain bfs -> (dist, owner, id) minimum ->
# trace_owner_path -> path_suffix
# ---------------------------------------------------------------------------


def _walked(g, dist, roots, targets, ell):
    # a CSR laid out from the edge tuples, not the host's own
    codes = suffix_walk(Spanner(g.n, g.edges).csr, dist, roots, targets, ell)
    return {divmod(int(c), g.n) for c in codes}


def _columns(clusters):
    """Member-ordered (members, starts) columns of sorted member lists."""
    members = np.array([v for c in clusters for v in c], np.int64)
    return members, np.cumsum([0] + [len(c) for c in clusters[:-1]])


def _closest_pair_path(g, c1, c2):
    dist = hop_rows(g)
    _, _, m, u, _ = closest_pairs(dist, _columns([sorted(c1)]), _columns([sorted(c2)]))
    if not len(m):
        return None
    m, u = int(m[0]), int(u[0])
    edges = _walked(g, dist, [m], [u], g.n)
    path, nbrs = [m], adjacency(g)
    while path[-1] != u:
        v = path[-1]
        path.append(next(w for w in nbrs[v] if (min(v, w), max(v, w)) in edges and w not in path))
    return path


def _reference_pick(g, c1, c2, ell):
    res = bfs(g, c1)
    best = min(((res.dist[u], res.owner[u], u) for u in c2 if res.dist[u] >= 0), default=None)
    if best is None:
        return None, set()
    d, m, u = best
    return (m, u, d), path_suffix(trace_owner_path(g, res, u), ell, anchor=u)


def _random_clusters(rng, n):
    """Disjoint clusters over a random subset of 0..n-1: one singleton, one
    of three members, then 1-5 members each."""
    order = rng.permutation(n)[: int(rng.integers(4, n + 1))]
    out, i = [], 0
    while i < len(order):
        size = (1, 3)[len(out)] if len(out) < 2 else int(rng.integers(1, 6))
        out.append(sorted(int(v) for v in order[i:i + size]))
        i += size
    return out


@pytest.mark.parametrize("seed", range(6))
def test_closest_pairs_and_walks_match_reference_chain(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(20, 60))
    # seeds 1-3 draw disconnected hosts with isolated vertices
    g = random_graph(n, float(rng.choice([0.02, 0.05, 0.1, 0.3])), seed)
    dist = hop_rows(g)
    side1, side2 = _random_clusters(rng, n), _random_clusters(rng, n)
    i, j, m, u, d = closest_pairs(dist, _columns(side1), _columns(side2))
    picks = {(a, b): (c, e, f) for a, b, c, e, f in zip(*(x.tolist() for x in (i, j, m, u, d)))}
    for ell in (0, 1, 2, n):
        union: set = set()
        for a, c1 in enumerate(side1):
            for b, c2 in enumerate(side2):
                pick, suffix = _reference_pick(g, c1, c2, ell)
                assert picks.get((a, b)) == pick
                if pick is not None:
                    assert _walked(g, dist, [pick[0]], [pick[1]], ell) == suffix
                union |= suffix
        assert _walked(g, dist, m, u, ell) == union


def test_parent_step_hosts_place_the_closer_neighbor():
    # the broom hub's one closer neighbor under the largest-id root sits at
    # the named rank: the first, the last of a chunk, the next chunk's first
    for rank in (0, 7, 8, 20):
        g = broom(rank)
        assert canonical_parents(g, g.n - 1)[rank + 1] == rank == adjacency(g)[rank + 1].index(rank)
    star_path = parent_step_hosts()[4]
    assert canonical_parents(star_path, 23)[0] == 20 == adjacency(star_path)[0][19]


@pytest.mark.parametrize("chunk", [None, 1, 3])
def test_suffix_walk_is_the_oracle_walk(monkeypatch, chunk):
    # every ordered pair, unreachable and distance-0 ones included, walked
    # over oracle hop rows, at any number of ranks per chunk
    if chunk is not None:
        monkeypatch.setattr(hybrid, "_RANK_CHUNK", chunk)
    rng = np.random.default_rng(5)
    for g in parent_step_hosts():
        dist = np.array(as_int_grid([hop_row(g, r) for r in range(g.n)]), np.int16)
        parents = [canonical_parents(g, r) for r in range(g.n)]
        roots, targets = np.divmod(np.arange(g.n * g.n), g.n)
        for ell in (0, 1, 2, 9):
            want = [suffix_edges(parents[r], t, ell)
                    for r, t in zip(roots.tolist(), targets.tolist())]
            got = suffix_walk(g.csr, dist, roots, targets, ell)
            assert pairs(g.n, got) == set().union(*want)
            assert np.all(got[1:] > got[:-1])
            for i in rng.integers(0, g.n * g.n, 30).tolist():  # single walks
                got = suffix_walk(g.csr, dist, roots[i:i + 1], targets[i:i + 1], ell)
                assert pairs(g.n, got) == want[i]


def test_closest_pair_adjacent_clusters():
    # two triangles joined by edges (2,3) and (1,4): min-id closest pair is (1,4)
    g = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3), (1, 4)])
    p = _closest_pair_path(g, {0, 1, 2}, {3, 4, 5})
    assert p == [1, 4]


def test_closest_pair_equal_sets(cycle5):
    assert _closest_pair_path(cycle5, {1, 3}, {1, 3}) == [1]


def test_closest_pair_path_graph_ends():
    g = Graph(5, [(i, i + 1) for i in range(4)])
    assert _closest_pair_path(g, {0}, {4}) == [0, 1, 2, 3, 4]


def test_closest_pair_disconnected():
    g = Graph(4, [(0, 1), (2, 3)])
    assert _closest_pair_path(g, {0, 1}, {2, 3}) is None


def test_closest_pair_matches_brute_force():
    for seed in (2, 6):
        g = random_graph(40, 0.08, seed)
        dist = floyd_warshall(g)
        c1, c2 = {1, 7, 13, 22}, {5, 9, 30, 38}
        best = min(
            (
                (dist[u1][u2], u1, u2)
                for u1 in sorted(c1)
                for u2 in sorted(c2)
                if dist[u1][u2] < INF
            ),
            default=None,
        )
        p = _closest_pair_path(g, c1, c2)
        if best is None:
            assert p is None
        else:
            d, u1, u2 = best
            assert p[0] == u1 and p[-1] == u2
            assert len(p) - 1 == d
            assert path_is_valid(g, p)


# ---------------------------------------------------------------------------
# build_hybrid
# ---------------------------------------------------------------------------


def _two_regime_violations(g, edges, k):
    """Independent check of the stretch contract via the cubic oracle."""
    dg = floyd_warshall(g)
    dh = floyd_warshall(Graph(g.n, edges))
    bad = 0
    for u in range(g.n):
        for v in range(u + 1, g.n):
            if dg[u][v] == INF:
                continue
            limit = (2 * k - 1) * dg[u][v] if (u, v) in g.edges else k * dg[u][v]
            if dh[u][v] > limit:
                bad += 1
    return bad


def test_trees_are_rebuilt_entirely():
    graphs = [
        Graph(6, [(i, i + 1) for i in range(5)]),
        Graph(7, [(0, i) for i in range(1, 7)]),
        random_tree(30, 3),
    ]
    for g in graphs:
        for k in (2, 3):
            sp = build_hybrid(g, k, seed=1)
            assert sp.edges == g.edges


def test_petersen_no_violations_any_seed(petersen):
    for seed in (1, 2, 3, 4, 5):
        sp = build_hybrid(petersen, 2, seed)
        assert _two_regime_violations(petersen, sp.edges, 2) == 0


def test_medium_random_graph_no_violations_and_size():
    g = random_graph(256, 0.05, 2)
    k = 3
    sp = build_hybrid(g, k, seed=2)
    from spanlab import hybrid_spec, verify_spanner

    rep = verify_spanner(g, sp, None, hybrid_spec(k))
    assert rep.ok
    assert sp.size <= 100 * size_bound("hybrid", g.n, k=k)


def test_deterministic_per_seed():
    g = random_graph(80, 0.1, 3)
    assert build_hybrid(g, 2, 5).edges == build_hybrid(g, 2, 5).edges


def test_meta_counts_consistent():
    g = random_graph(64, 0.1, 1)
    sp = build_hybrid(g, 2, 1)
    phases = sp.meta["phase_edges"]
    assert sp.size <= sum(phases.values())
    assert sp.size >= max(phases.values())
    assert sp.meta["size"] == sp.size
    assert sp.edges <= g.edges
    new = sp.meta["phase_new_edges"]
    assert list(new) == ["clustering", "center_paths", "cluster_paths"]
    assert sum(new.values()) == sp.size
    assert new["clustering"] == phases["clustering"]


def test_center_paths_add_edges_on_a_dense_instance():
    g = random_graph(96, 0.2, 1)
    new = build_hybrid(g, 3, 1).meta["phase_new_edges"]
    assert new["center_paths"] > 0 and new["cluster_paths"] > 0


@pytest.mark.parametrize("k", [2, 3])
def test_output_does_not_depend_on_block_size(monkeypatch, k):
    g = random_graph(40, 0.3, 2)
    # a cluster above 3 members spans several member-row blocks at size 3
    level = cluster_sequence(g, k, 1.0 / k, 2).levels[1]
    assert np.diff(level.starts, append=len(level.members)).max() > 3
    ref = build_hybrid(g, k, 2)
    for block in (1, 3, g.n + 5):
        monkeypatch.setattr(hybrid, "_BLOCK", block)
        sp = build_hybrid(g, k, 2)
        assert sp.edges == ref.edges and sp.meta == ref.meta


def test_build_reads_no_adjacency_tuples(petersen):
    # the builder reads codes and the CSR and never builds the host's
    # `edges` tuple view
    for g, k, seed in [(petersen, 2, 3), (random_graph(96, 0.2, 1), 3, 1),
                       (random_graph(120, 0.06, 2), 2, 2), (random_tree(30, 3), 3, 1)]:
        build_hybrid(g, k, seed)
        assert "edges" not in vars(g)


def test_center_pairs_exact_within_budget():
    g = random_graph(96, 0.09, 4)
    sp = build_hybrid(g, 2, 4)
    ell = sp.meta["suffix_len"]
    t = sp.meta["t"]
    dg = floyd_warshall(g)
    dh = floyd_warshall(Graph(g.n, sp.edges))
    for zi in sp.meta["centers_low"]:
        for zj in sp.meta["centers_high"]:
            d = dg[zi][zj]
            if d == INF:
                continue
            if d <= ell:
                assert dh[zi][zj] == d
            else:
                assert dh[zi][zj] <= 2 * t * (d + 1) - ell
