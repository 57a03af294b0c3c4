from __future__ import annotations

from itertools import product

import numpy as np
import pytest

from spanlab import lowerbound
from spanlab.graphs import edge_ends
from spanlab import (
    Spanner,
    build_lb_graph,
    find_missing_chain,
    hop_distance_matrix,
    lb_audit,
)

from oracles import adjacency, layered_instance


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
    lg = build_lb_graph(r, k, eps)
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
    lg = build_lb_graph(16, 2, 1.0)
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
    assert np.diff(lg.graph.csr[0])[lg.sources].tolist() == [6] * 6


def test_vertex_id_roundtrip():
    lg = build_lb_graph(16, 2, 0.5)
    for v in range(lg.graph.n):
        assert lg.vertex_id(lg.levels[v], lg.coords[v]) == v


def test_vertex_id_refuses_a_level_outside_one_to_k_plus_one():
    lg = build_lb_graph(16, 2, 1.0)
    assert lg.vertex_id(3, (1, 1)) == 32
    # level 0 would wrap to the last level's offset, level k + 2 past the list
    for level in (0, 4, -1):
        with pytest.raises(ValueError, match=rf"level {level} out of range \[1,3\]"):
            lg.vertex_id(level, (1, 1))


def test_sources_are_level_one():
    lg = build_lb_graph(8, 3, 1.0)
    assert lg.sources == [v for v in range(lg.graph.n) if lg.levels[v] == 1]


def test_size_cap(monkeypatch):
    monkeypatch.setattr(lowerbound, "_MAX_VERTICES", 10)
    with pytest.raises(ValueError, match="cap 10"):
        build_lb_graph(16, 2, 1.0)


def test_matches_brute_force_enumeration(monkeypatch):
    # k = 1, eps = 0 (width1 = 1) and width2 > width1 included
    for r, k, eps in product((2, 3, 5, 16, 27, 64), (1, 2, 3, 4), (0.0, 0.5, 1.0)):
        lg = build_lb_graph(r, k, eps)
        levels, coords, edges = layered_instance(k, lg.width1, lg.width2)
        assert lg.levels == levels and lg.coords == coords, (r, k, eps)
        assert lg.graph.edges == edges, (r, k, eps)
        assert lg.sources == [v for v, lv in enumerate(levels) if lv == 1]
        assert lg.level_offsets == [levels.index(lv) for lv in range(1, k + 2)]
        assert lg.level_sizes == [levels.count(lv) for lv in range(1, k + 2)]
        with monkeypatch.context() as m:
            m.setattr(lowerbound, "_MAX_VERTICES", len(levels))
            assert build_lb_graph(r, k, eps).graph == lg.graph
            m.setattr(lowerbound, "_MAX_VERTICES", len(levels) - 1)
            with pytest.raises(ValueError, match="cap"):
                build_lb_graph(r, k, eps)


@pytest.mark.parametrize(
    "r,k,want",
    # ln(ln(2)) < 0 puts every k in regime; ln(8)/ln(ln(8)) = 2.84, ln(16)/ln(ln(16)) = 2.72
    [(2, 1, True), (2, 5, True), (3, 5, True), (8, 2, True), (8, 3, False),
     (16, 2, True), (16, 3, False), (256, 3, True), (256, 4, False)],
)
def test_in_regime_truth_table(r, k, want):
    lg = build_lb_graph(r, k, 1.0)
    assert lg.in_regime is want
    with pytest.raises(AttributeError):
        lg.in_regime = not want  # derived from r and k, never stored


def test_diameter_stays_small():
    for r, k, eps in [(16, 2, 1.0), (8, 3, 1.0), (16, 2, 0.5)]:
        lg = build_lb_graph(r, k, eps)
        dmat = hop_distance_matrix(lg.graph)
        assert dmat.min() >= 0  # connected
        assert dmat.max() <= 3 * k


# ---------------------------------------------------------------------------
# chain search and auditing
# ---------------------------------------------------------------------------


def _all_chains(lg):
    """Exhaustive level-chain enumeration for cross-checks."""
    chains, nbrs = [[v] for v in lg.sources], adjacency(lg.graph)
    for level in range(1, lg.k + 1):
        chains = [
            c + [w]
            for c in chains
            for w in nbrs[c[-1]]
            if lg.levels[w] == level + 1
        ]
    return chains


def test_full_candidate_has_no_chain():
    lg = build_lb_graph(16, 2, 1.0)
    h = Spanner(lg.graph.n, lg.graph.edges, {})
    assert find_missing_chain(lg, h) is None
    assert lb_audit(lg, h)["certified"] is False


def test_empty_candidate_yields_first_chain():
    lg = build_lb_graph(16, 2, 1.0)
    h = Spanner(lg.graph.n, frozenset(), {})
    assert find_missing_chain(lg, h).vertices == [0, 16, 32]


def _missing(chain, kept):
    return all((min(a, b), max(a, b)) not in kept for a, b in zip(chain, chain[1:]))


def test_chain_matches_exhaustive_enumeration():
    # random candidates, and candidates that keep the top edges of some
    # level-k vertices: chains that climb to those vertices over missing
    # edges end there, dead ends a search must back out of
    rng = np.random.default_rng(17)
    dead_ends = refuted = 0
    for r, k in [(16, 2), (8, 3), (27, 3), (64, 3)]:
        lg = build_lb_graph(r, k, 1.0)
        edge_list = sorted(lg.graph.edges)
        chains = _all_chains(lg)
        for trial in range(8):
            if trial < 3:
                keep = rng.choice(len(edge_list), size=int(len(edge_list) * rng.uniform(0.2, 0.6)),
                                  replace=False)
                kept = {edge_list[i] for i in keep}
            else:
                level_k = lg.level_offsets[k - 1] + np.arange(lg.level_sizes[k - 1])
                size = len(level_k) * (trial - 2) // 5  # all of level k at the last trial
                closed = set(rng.choice(level_k, size=size, replace=False).tolist())
                kept = {(a, b) for a, b in edge_list if a in closed and lg.levels[b] == k + 1}
                kept |= {e for e in edge_list if rng.random() < 0.1 * (trial - 3)}
                dead_ends += any(_missing(c[:-1], kept) and c[-2] in closed for c in chains)
            missing_chains = [c for c in chains if _missing(c, kept)]
            got = find_missing_chain(lg, Spanner(lg.graph.n, frozenset(kept), {}))
            if len(kept) < lg.graph.m / k:
                assert missing_chains, "budget below |E|/k must leave a chain"
            assert (got and got.vertices) == min(missing_chains, default=None), (r, k, trial)
            refuted += got is None
    assert dead_ends and refuted


def test_chain_search_settles_each_vertex_once():
    # a candidate that keeps exactly the edges into level k+1 on a
    # 103,680-vertex instance: every chain dies one step short of the top,
    # which a search that revisits dead ends from every prefix takes
    # seconds to learn
    lg = build_lb_graph(20000, 4, 1.0)
    n = lg.graph.n
    _, v = edge_ends(n, lg.graph.codes)
    h = Spanner(n, lg.graph.codes[np.asarray(lg.levels)[v] == lg.k + 1])
    assert h.size == lg.graph.m // lg.k
    assert find_missing_chain(lg, h) is None


def test_candidate_not_subgraph_rejected():
    lg = build_lb_graph(16, 2, 1.0)
    h = Spanner(lg.graph.n, frozenset({(0, 1)}), {})  # not an instance edge
    with pytest.raises(ValueError):
        find_missing_chain(lg, h)


@pytest.mark.parametrize("kind", ["reversed", "loop", "out of range", "non-host"])
def test_malformed_pairs_are_not_instance_edges(kind):
    lg = build_lb_graph(16, 2, 1.0)
    n = lg.graph.n
    edge_list = sorted(lg.graph.edges)
    u, v = edge_list[-1]
    # (u - 1, v + n) would encode to u*n + v, the code of host edge (u, v)
    pair = {"reversed": (v, u), "loop": (u, u), "out of range": (u - 1, v + n),
            "non-host": (0, 1)}[kind]
    for edges in ({pair}, set(edge_list[:-1]) | {pair}):
        h = Spanner(n, edges)
        with pytest.raises(ValueError, match="not a subgraph of the layered instance"):
            lb_audit(lg, h)
        with pytest.raises(ValueError, match="not a subgraph"):
            find_missing_chain(lg, h)


def test_audit_rejects_candidate_of_another_vertex_count():
    lg = build_lb_graph(16, 2, 1.0)
    edges = frozenset(sorted(lg.graph.edges)[:60])
    for n in (lg.graph.n + 7, lg.graph.n + 1):
        with pytest.raises(ValueError, match="vertex count"):
            lb_audit(lg, Spanner(n, edges, {}))
    assert lb_audit(lg, Spanner(lg.graph.n, edges, {}))["certified"]


def test_audit_certifies_sparse_candidates():
    lg = build_lb_graph(16, 2, 1.0)
    edge_list = sorted(lg.graph.edges)
    rng = np.random.default_rng(23)
    keep = rng.choice(len(edge_list), size=60, replace=False)  # < 128/2
    h = Spanner(lg.graph.n, frozenset(edge_list[i] for i in keep), {})
    report = lb_audit(lg, h)
    assert report["certified"]
    assert report["dist_graph"] <= lg.k
    assert report["dist_candidate"] is None or report["dist_candidate"] >= 3 * lg.k


def _walks_avoiding(g, start, goal, banned_edges, max_len):
    """Count walks start->goal of length <= max_len avoiding banned edges."""
    hits, nbrs = 0, adjacency(g)
    stack = [(start, 0)]
    while stack:
        v, depth = stack.pop()
        if v == goal and depth > 0:
            hits += 1
            # longer continuations only repeat the level parity argument
        if depth == max_len:
            continue
        for w in nbrs[v]:
            if (min(v, w), max(v, w)) not in banned_edges:
                stack.append((w, depth + 1))
    return hits


def test_every_short_walk_uses_a_chain_edge():
    # drop exactly the canonical chain's edges: the endpoints drift to >= 3k
    lg = build_lb_graph(16, 2, 1.0)
    chain = [0, 16, 32]
    banned = {(min(a, b), max(a, b)) for a, b in zip(chain, chain[1:])}
    h = Spanner(lg.graph.n, frozenset(lg.graph.edges - banned), {})
    assert find_missing_chain(lg, h).vertices == chain
    # exhaustive walk enumeration up to length 3k-1
    assert _walks_avoiding(lg.graph, 0, 32, banned, 3 * lg.k - 1) == 0
    dh = hop_distance_matrix(h, [0])[0, 32]
    assert dh >= 3 * lg.k
    report = lb_audit(lg, h)
    assert report["certified"] and report["dist_graph"] == lg.k
