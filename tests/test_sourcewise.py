from __future__ import annotations

import numpy as np
import pytest

from spanlab import (
    Graph,
    SourceSet,
    build_sourcewise_mult,
    random_graph,
    size_bound,
    sourcewise_mult_spec,
    sw_params,
    verify_spanner,
)
from conftest import random_tree
from oracles import floyd_warshall

INF = float("inf")


# ---------------------------------------------------------------------------
# source sets and parameters
# ---------------------------------------------------------------------------


def test_source_set_normalizes_and_checks():
    s = SourceSet.from_ids([4, 1, 4, 2], 10)
    assert s.vertices == (1, 2, 4)
    with pytest.raises(ValueError):
        SourceSet.from_ids([10], 10)
    with pytest.raises(ValueError):
        SourceSet.from_ids([], 10)


def test_source_set_refuses_non_integer_ids():
    for bad in ([0.5, 1.7], [1, 2.0], [np.float64(3)]):
        with pytest.raises(TypeError):
            SourceSet.from_ids(bad, 10)
    s = SourceSet.from_ids([np.int64(4), np.int32(1), True], 10)
    assert s.vertices == (1, 4) and all(type(v) is int for v in s.vertices)


def test_epsilon_endpoints():
    assert SourceSet.from_ids([3], 50).epsilon == 0.0
    assert SourceSet.from_ids(range(50), 50).epsilon == pytest.approx(1.0)


@pytest.mark.parametrize("k,ell", [(2, 14), (3, 27)])
def test_suffix_budget_values(k, ell):
    s = SourceSet.from_ids(range(4), 64)
    assert sw_params(k, s, 64).suffix_len == ell


def test_full_source_set_gives_density_one_over_k():
    s = SourceSet.from_ids(range(64), 64)
    p = sw_params(4, s, 64)
    assert p.mu == pytest.approx(1.0 / 4)


def test_sw_params_rejects_small_k():
    s = SourceSet.from_ids(range(4), 64)
    with pytest.raises(ValueError):
        sw_params(1, s, 64)


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------


def test_all_sources_on_tree_rebuilds_graph():
    t = random_tree(32, 8)
    s = SourceSet.from_ids(range(32), 32)
    sp = build_sourcewise_mult(t, s, 2, seed=1)
    assert sp.edges == t.edges


def test_source_center_distances_exact_within_budget():
    g = random_graph(128, 0.1, 4)
    s = SourceSet.from_ids(range(12), 128)
    k = 2
    sp = build_sourcewise_mult(g, s, k, seed=4)
    ell = sp.meta["suffix_len"]
    dg = floyd_warshall(g)
    dh = floyd_warshall(Graph(g.n, sp.edges))
    for s_j in sp.meta["sources"]:
        for z_i in sp.meta["centers"]:
            d = dg[s_j][z_i]
            if d == INF:
                continue
            if d <= ell:
                assert dh[s_j][z_i] == d
            else:
                assert dh[s_j][z_i] <= 2 * (k - 1) * (d + 1) - ell


def _sourcewise_violations(g, edges, sources, k):
    dg = floyd_warshall(g)
    dh = floyd_warshall(Graph(g.n, edges))
    bad = 0
    for s in sources:
        for v in range(g.n):
            if v == s or dg[s][v] == INF:
                continue
            adjacent = (min(s, v), max(s, v)) in g.edges
            limit = (2 * k - 1 if adjacent else 2 * k - 2) * dg[s][v]
            if dh[s][v] > limit:
                bad += 1
    return bad


def test_small_instance_zero_violations_oracle():
    for seed in (1, 2, 3):
        g = random_graph(64, 0.1, seed)
        s = SourceSet.from_ids(range(8), 64)
        sp = build_sourcewise_mult(g, s, 2, seed)
        assert _sourcewise_violations(g, sp.edges, s.vertices, 2) == 0


def test_sparse_instance_zero_violations():
    g = random_graph(512, 0.03, 9)
    s = SourceSet.from_ids(range(23), 512)
    k = 3
    sp = build_sourcewise_mult(g, s, k, seed=9)
    rep = verify_spanner(g, sp, s.vertices, sourcewise_mult_spec(k))
    assert rep.ok
    assert sp.size <= 100 * size_bound("swmult", g.n, k=k, epsilon=s.epsilon)


def test_deterministic_per_seed():
    g = random_graph(100, 0.08, 2)
    s = SourceSet.from_ids(range(10), 100)
    assert (
        build_sourcewise_mult(g, s, 2, 7).edges
        == build_sourcewise_mult(g, s, 2, 7).edges
    )
