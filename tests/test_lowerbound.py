from __future__ import annotations

import warnings
from itertools import product

import numpy as np
import pytest

from spanlab import (
    Spanner,
    build_lb_graph,
    find_missing_chain,
    hop_distance_matrix,
    lb_audit,
    norm_edge,
)


def _quiet_build(r, k, eps, **kw):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return build_lb_graph(r, k, eps, **kw)


# ---------------------------------------------------------------------------
# generation
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "r,k,eps,w1,w2,nv,ne",
    [
        (16, 2, 1.0, 4, 4, 48, 128),
        (8, 3, 1.0, 2, 2, 32, 48),
        (16, 2, 0.5, 2, 8, 36, 64),
    ],
)
def test_counts_match_closed_forms(r, k, eps, w1, w2, nv, ne):
    lg = _quiet_build(r, k, eps)
    assert (lg.width1, lg.width2) == (w1, w2)
    assert lg.graph.n == nv and lg.graph.m == ne
    # recount by brute force over coordinate tuples
    level1 = list(product(range(1, w1 + 1), repeat=k))
    others = list(product(range(1, w2 + 1), *[range(1, w1 + 1)] * (k - 1)))
    assert lg.graph.n == len(level1) + k * len(others)
    assert lg.graph.m == sum(
        (w2 if lvl == 1 else w1) * (len(level1) if lvl == 1 else len(others))
        for lvl in range(1, k + 1)
    )


def test_edges_change_exactly_one_coordinate():
    lg = _quiet_build(16, 2, 1.0)
    for u, v in lg.graph.edges:
        lo, hi = (u, v) if lg.levels[u] < lg.levels[v] else (v, u)
        assert lg.levels[hi] == lg.levels[lo] + 1
        i = lg.levels[lo] - 1
        cu, cv = lg.coords[lo], lg.coords[hi]
        assert all(cu[j] == cv[j] for j in range(lg.k) if j != i)


def test_k1_is_complete_bipartite():
    lg = build_lb_graph(6, 1, 1.0)
    assert lg.level_sizes == [6, 6]
    assert lg.graph.m == 36
    for u in lg.sources:
        assert len(lg.graph.adj[u]) == 6


def test_vertex_id_roundtrip():
    lg = _quiet_build(16, 2, 0.5)
    for v in range(lg.graph.n):
        assert lg.vertex_id(lg.levels[v], lg.coords[v]) == v


def test_sources_are_level_one():
    lg = _quiet_build(8, 3, 1.0)
    assert lg.sources == [v for v in range(lg.graph.n) if lg.levels[v] == 1]


def test_size_cap():
    with pytest.raises(ValueError, match="cap"):
        build_lb_graph(16, 2, 1.0, max_vertices=10)


def test_regime_warning():
    with pytest.warns(UserWarning, match="regime"):
        build_lb_graph(8, 3, 1.0)


def test_diameter_stays_small():
    for r, k, eps in [(16, 2, 1.0), (8, 3, 1.0), (16, 2, 0.5)]:
        lg = _quiet_build(r, k, eps)
        dmat = hop_distance_matrix(lg.graph)
        assert dmat.min() >= 0  # connected
        assert dmat.max() <= 3 * k


# ---------------------------------------------------------------------------
# chain search and auditing
# ---------------------------------------------------------------------------


def _all_chains(lg):
    """Exhaustive level-chain enumeration for cross-checks."""
    chains = [[v] for v in lg.sources]
    for level in range(1, lg.k + 1):
        chains = [
            c + [w]
            for c in chains
            for w in lg.graph.adj[c[-1]]
            if lg.levels[w] == level + 1
        ]
    return chains


def test_full_candidate_has_no_chain():
    lg = _quiet_build(16, 2, 1.0)
    h = Spanner(lg.graph.n, lg.graph.edges, {})
    assert find_missing_chain(lg, h) is None
    assert lb_audit(lg, h)["certified"] is False


def test_empty_candidate_yields_first_chain():
    lg = _quiet_build(16, 2, 1.0)
    h = Spanner(lg.graph.n, frozenset(), {})
    assert find_missing_chain(lg, h).vertices == [0, 16, 32]


def test_chain_matches_exhaustive_enumeration():
    lg = _quiet_build(16, 2, 1.0)
    edge_list = lg.graph.sorted_edges()
    rng = np.random.default_rng(17)
    for _ in range(5):
        keep = rng.choice(len(edge_list), size=60, replace=False)
        h = Spanner(lg.graph.n, frozenset(edge_list[i] for i in keep), {})
        kept = h.edges
        missing_chains = [
            c
            for c in _all_chains(lg)
            if all(norm_edge(a, b) not in kept for a, b in zip(c, c[1:]))
        ]
        got = find_missing_chain(lg, h)
        assert missing_chains, "budget below |E|/k must leave a chain"
        assert got.vertices == min(missing_chains)


def test_candidate_not_subgraph_rejected():
    lg = _quiet_build(16, 2, 1.0)
    h = Spanner(lg.graph.n, frozenset({(0, 1)}), {})  # not an instance edge
    with pytest.raises(ValueError):
        find_missing_chain(lg, h)


def test_audit_rejects_candidate_of_another_vertex_count():
    lg = _quiet_build(16, 2, 1.0)
    edges = frozenset(lg.graph.sorted_edges()[:60])
    for n in (lg.graph.n + 7, lg.graph.n + 1):
        with pytest.raises(ValueError, match="vertex count"):
            lb_audit(lg, Spanner(n, edges, {}))
    assert lb_audit(lg, Spanner(lg.graph.n, edges, {}))["certified"]


def test_audit_certifies_sparse_candidates():
    lg = _quiet_build(16, 2, 1.0)
    edge_list = lg.graph.sorted_edges()
    rng = np.random.default_rng(23)
    keep = rng.choice(len(edge_list), size=60, replace=False)  # < 128/2
    h = Spanner(lg.graph.n, frozenset(edge_list[i] for i in keep), {})
    report = lb_audit(lg, h)
    assert report["certified"]
    assert report["dist_graph"] <= lg.k
    assert report["dist_candidate"] is None or report["dist_candidate"] >= 3 * lg.k


def _walks_avoiding(g, start, goal, banned_edges, max_len):
    """Count walks start->goal of length <= max_len avoiding banned edges."""
    hits = 0
    stack = [(start, 0)]
    while stack:
        v, depth = stack.pop()
        if v == goal and depth > 0:
            hits += 1
            # longer continuations only repeat the level parity argument
        if depth == max_len:
            continue
        for w in g.adj[v]:
            if norm_edge(v, w) not in banned_edges:
                stack.append((w, depth + 1))
    return hits


def test_every_short_walk_uses_a_chain_edge():
    # drop exactly the canonical chain's edges: the endpoints drift to >= 3k
    lg = _quiet_build(16, 2, 1.0)
    chain = [0, 16, 32]
    banned = {norm_edge(a, b) for a, b in zip(chain, chain[1:])}
    h = Spanner(lg.graph.n, frozenset(lg.graph.edges - banned), {})
    assert find_missing_chain(lg, h).vertices == chain
    # exhaustive walk enumeration up to length 3k-1
    assert _walks_avoiding(lg.graph, 0, 32, banned, 3 * lg.k - 1) == 0
    dh = hop_distance_matrix(h, [0])[0, 32]
    assert dh >= 3 * lg.k
    report = lb_audit(lg, h)
    assert report["certified"] and report["dist_graph"] == lg.k
