from __future__ import annotations

import json
import tracemalloc
from functools import cached_property

import numpy as np
import pytest

from spanlab import graphs, verify
from spanlab import (
    Emulator,
    Graph,
    Spanner,
    additive_spec,
    build_hybrid,
    hop_distance_matrix,
    hybrid_spec,
    random_graph,
    size_bound,
    size_report,
    sourcewise_mult_spec,
    subsetwise_spec,
    verify_emulator,
    verify_spanner,
    weighted_sssp,
)
from spanlab.additive import tree_union
from oracles import bellman_ford, floyd_warshall

INF = float("inf")


def _as_spanner(g, edges=None):
    return Spanner(g.n, frozenset(g.edges if edges is None else edges), {})


# ---------------------------------------------------------------------------
# spanner verification
# ---------------------------------------------------------------------------


def test_identity_candidate_is_tight(petersen):
    rep = verify_spanner(petersen, _as_spanner(petersen), None, hybrid_spec(2))
    assert rep.ok
    assert rep.max_mult() == 1.0
    assert rep.max_add() == 0.0
    assert rep.size == petersen.m


def test_cycle_minus_edge_stretch(cycle5):
    h = _as_spanner(cycle5, cycle5.edges - {(0, 4)})
    rep = verify_spanner(cycle5, h, None, hybrid_spec(2))
    adj = rep.classes["adjacent"]
    assert adj.max_mult == 4.0 and adj.max_add == 3.0
    assert (0, 4, 1, 4) in adj.violations  # bound for neighbors is 3
    assert not rep.ok


def test_hybrid_output_verifies_clean(petersen):
    sp = build_hybrid(petersen, 2, seed=1)
    rep = verify_spanner(petersen, sp, None, hybrid_spec(2))
    assert rep.ok and rep.n_violations == 0


def test_non_subgraph_candidate_rejected(cycle5):
    rogue = Spanner(5, frozenset({(0, 2)}), {})
    with pytest.raises(ValueError, match="subgraph"):
        verify_spanner(cycle5, rogue, None, hybrid_spec(2))


@pytest.mark.parametrize("pair", [(1, 0), (2, 2), (0, 7), (-1, 2), (0, 2)])
def test_malformed_pairs_are_not_host_edges(pair):
    # a reversed pair, a loop, two out-of-range pairs and a non-host edge of
    # the 5-path; (0, 7) would encode to 7, the code of host edge (1, 2)
    path5 = Graph(5, [(i, i + 1) for i in range(4)])
    assert 0 * 5 + 7 in path5.codes
    for edges in ({pair}, {pair, (1, 2)}, set(path5.edges) | {pair}):
        with pytest.raises(ValueError, match="candidate is not a subgraph of the host graph"):
            verify_spanner(path5, Spanner(5, edges), None, hybrid_spec(2))
    assert verify_spanner(path5, Spanner(5, path5.edges), None, hybrid_spec(2)).ok


@pytest.mark.parametrize("delta", [1, -1])
def test_candidate_vertex_count_must_match(petersen, delta):
    other = Spanner(petersen.n + delta, frozenset(petersen.edges), {})
    with pytest.raises(ValueError, match="disagree on the vertex count"):
        verify_spanner(petersen, other, None, hybrid_spec(2))
    with pytest.raises(ValueError, match="disagree on the vertex count"):
        verify_spanner(petersen, other, [0, 1], additive_spec(0))


def test_sourcewise_scope_requires_sources(cycle5):
    with pytest.raises(ValueError, match="source"):
        verify_spanner(cycle5, _as_spanner(cycle5), None, sourcewise_mult_spec(2))


@pytest.mark.parametrize("spec", [additive_spec(2), subsetwise_spec(2)])
def test_empty_source_set_rejected(cycle5, spec):
    # no pair to check is not a pass
    with pytest.raises(ValueError, match="source set must be non-empty"):
        verify_spanner(cycle5, Spanner(cycle5.n, frozenset(), {}), [], spec)


def test_candidate_is_measured_from_its_edges(monkeypatch):
    g = random_graph(40, 0.15, 3)
    h = _as_spanner(g, sorted(g.edges)[::2])
    built = []
    init = Graph.__init__

    def counting_init(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(Graph, "__init__", counting_init)
    reports = [
        verify_spanner(g, h, None, hybrid_spec(2)),
        verify_spanner(g, h, [0, 7, 31], additive_spec(2)),
        verify_spanner(g, h, [0, 7, 31], subsetwise_spec(2)),
    ]
    assert built == []
    assert not reports[0].ok  # the candidate really was measured


def test_sourcewise_scope_counts_all_source_pairs():
    g = random_graph(30, 0.2, 1)
    rep = verify_spanner(g, _as_spanner(g), [0, 5], additive_spec(2))
    total = sum(c.pairs for c in rep.classes.values())
    assert total + rep.skipped_unreachable == 2 * (g.n - 1)


def test_setwise_scope_checks_only_inner_pairs():
    g = random_graph(30, 0.2, 1)
    members = [2, 7, 11, 19]
    rep = verify_spanner(g, _as_spanner(g), members, subsetwise_spec(2))
    total = sum(c.pairs for c in rep.classes.values())
    assert total + rep.skipped_unreachable == 6  # C(4,2)


def test_unreachable_pairs_skipped():
    g = Graph(4, [(0, 1), (2, 3)])
    rep = verify_spanner(g, _as_spanner(g), None, hybrid_spec(2))
    assert rep.skipped_unreachable == 4  # pairs across the two components
    assert rep.ok


def test_max_values_match_cubic_oracle():
    g = random_graph(40, 0.12, 3)
    h = _as_spanner(g, sorted(g.edges)[: g.m * 3 // 4])
    rep = verify_spanner(g, h, None, hybrid_spec(2))
    dg = floyd_warshall(g)
    dh = floyd_warshall(Graph(g.n, h.edges))
    want_mult = 0.0
    want_add = 0.0
    for u in range(g.n):
        for v in range(u + 1, g.n):
            if dg[u][v] == INF:
                continue
            want_mult = max(want_mult, dh[u][v] / dg[u][v])
            want_add = max(want_add, dh[u][v] - dg[u][v])
    assert rep.max_mult() == want_mult
    assert rep.max_add() == want_add


def test_adding_edges_never_hurts():
    g = random_graph(36, 0.15, 8)
    edges = sorted(g.edges)
    small = verify_spanner(g, _as_spanner(g, edges[: g.m // 2]), None, hybrid_spec(2))
    large = verify_spanner(g, _as_spanner(g, edges[: 3 * g.m // 4]), None, hybrid_spec(2))
    assert large.max_mult() <= small.max_mult()
    assert large.max_add() <= small.max_add()
    assert large.n_violations <= small.n_violations


def test_report_serializes_and_caps_violations(cycle5):
    h = _as_spanner(cycle5, set())
    rep = verify_spanner(cycle5, h, None, hybrid_spec(2))
    payload = rep.to_dict(violation_cap=3)
    text = json.dumps(payload)  # must be valid JSON, no infinities
    assert "Infinity" not in text
    for cls in payload["classes"]:
        assert len(cls["violations"]) <= 3
    assert payload["n_violations"] == rep.n_violations


# ---------------------------------------------------------------------------
# emulator verification
# ---------------------------------------------------------------------------


def test_emulator_identity_unit_weights(petersen):
    em = Emulator(10, [(u, v, 1) for u, v in petersen.edges])
    rep = verify_emulator(petersen, em, range(10), beta=2)
    assert rep.ok
    assert rep.classes["additive-upper"].max_add == 0.0


def test_emulator_undershoot_flagged(path3):
    em = Emulator(3, [(0, 1, 1), (1, 2, 1), (0, 2, 1)])  # true distance is 2
    rep = verify_emulator(path3, em, [0], beta=2)
    assert not rep.ok
    assert rep.classes["lower-sandwich"].violations == [(0, 2, 2, 1)]


def test_emulator_overshoot_flagged(path3):
    em = Emulator(3, [(0, 1, 1), (1, 2, 9)])
    rep = verify_emulator(path3, em, [0], beta=2)
    assert (0, 2, 2, 10) in rep.classes["additive-upper"].violations


def _oracle_emulator_report(g, em, sources, beta):
    """The full sandwich report rebuilt from the cubic and relaxation oracles."""
    dg = floyd_warshall(g)
    want = {"lower_pairs": 0, "upper_pairs": 0, "max_mult": 0.0, "max_add": 0.0,
            "lower": [], "upper": [], "skipped": 0}
    for s in sorted(set(sources)):
        dh = bellman_ford(em, s)
        for v in range(g.n):
            a, b = dg[s][v], dh[v]
            if v == s:
                continue
            if a == INF:
                if b == INF:
                    want["skipped"] += 1
                else:
                    want["lower_pairs"] += 1
                    want["lower"].append((s, v, -1, b))
                continue
            want["lower_pairs"] += 1
            want["upper_pairs"] += 1
            want["max_mult"] = max(want["max_mult"], b / a)
            want["max_add"] = max(want["max_add"], b - a)
            if b > a + beta:
                want["upper"].append((s, v, a, None if b == INF else b))
            if b < a:
                want["lower"].append((s, v, a, b))
    return want


def _assert_matches_oracle(g, em, sources, beta):
    rep = verify_emulator(g, em, sources, beta)
    want = _oracle_emulator_report(g, em, sources, beta)
    lower = rep.classes["lower-sandwich"]
    upper = rep.classes["additive-upper"]
    assert (lower.alpha, lower.beta, upper.alpha, upper.beta) == (1, 0, 1, beta)
    assert lower.pairs == want["lower_pairs"]
    assert upper.pairs == want["upper_pairs"]
    assert (lower.max_mult, lower.max_add) == (0.0, 0.0)
    assert upper.max_mult == want["max_mult"]
    assert upper.max_add == want["max_add"]
    assert lower.violations == want["lower"]
    assert upper.violations == want["upper"]
    assert rep.skipped_unreachable == want["skipped"]
    assert rep.size == em.size
    return rep


def _perturbed_emulator(g, rng, mode):
    """Host edges at unit weight, then dropped (cut-off pairs), reweighted
    (overshoot) or joined by random shortcuts (undershoot, bridging)."""
    triples = []
    for u, v in sorted(g.edges):
        if mode == 1 and rng.random() < 0.3:
            continue
        w = int(rng.integers(1, 5)) if mode == 2 and rng.random() < 0.3 else 1
        triples.append((u, v, w))
    if mode == 3:
        for _ in range(int(rng.integers(1, 6))):
            u, v = (int(x) for x in rng.integers(0, g.n, size=2))
            if u != v:
                triples.append((u, v, int(rng.integers(1, 4))))
    return Emulator(g.n, triples)


def test_emulator_report_matches_oracles_on_random_instances():
    rng = np.random.default_rng(2024)
    kinds = set()
    for t in range(80):
        n = int(rng.integers(2, 25))
        g = random_graph(n, float(rng.uniform(0.03, 0.3)), int(rng.integers(1 << 30)))
        em = _perturbed_emulator(g, rng, t % 4)
        sources = [int(x) for x in rng.integers(0, n, size=int(rng.integers(1, 7)))]
        for beta in (0, 2):
            rep = _assert_matches_oracle(g, em, sources, beta)
            for label, cls in rep.classes.items():
                kinds.update((label, dg < 0, dh is None) for _, _, dg, dh in cls.violations)
    # every violation kind the verifier can report was exercised
    assert kinds == {
        ("lower-sandwich", False, False),
        ("lower-sandwich", True, False),
        ("additive-upper", False, False),
        ("additive-upper", False, True),
    }


def test_emulator_bridging_host_components_undershoots():
    g = Graph(5, [(0, 1), (2, 3)])
    em = Emulator(5, [(0, 1, 1), (2, 3, 1), (1, 2, 1)])
    rep = _assert_matches_oracle(g, em, [0], beta=2)
    lower = rep.classes["lower-sandwich"]
    assert lower.violations == [(0, 2, -1, 2), (0, 3, -1, 3)]
    assert lower.pairs == 3
    assert rep.skipped_unreachable == 1  # vertex 4 is cut off on both sides
    assert rep.classes["additive-upper"].violations == []
    assert rep.to_dict()["classes"][1]["violations"][0]["dist_g"] == -1


def test_emulator_isolating_a_vertex_is_unbounded(path3):
    em = Emulator(3, [(0, 1, 1)])
    rep = _assert_matches_oracle(path3, em, [0], beta=2)
    upper = rep.classes["additive-upper"]
    assert upper.violations == [(0, 2, 2, None)]
    assert upper.max_mult == INF and upper.max_add == INF
    cls = {c["class"]: c for c in rep.to_dict()["classes"]}["additive-upper"]
    assert cls["max_mult"] is None and cls["violations"][0]["dist_h"] is None


def test_emulator_duplicate_sources_count_once(petersen):
    em = Emulator(10, [(u, v, 1) for u, v in petersen.edges] + [(0, 7, 1)])
    rep = _assert_matches_oracle(petersen, em, [7, 0, 7, 0, 0], beta=2)
    assert rep.to_dict() == verify_emulator(petersen, em, [0, 7], 2).to_dict()
    assert rep.classes["additive-upper"].pairs == 2 * 9


def test_emulator_beta_zero_demands_exact_distances(path3):
    em = Emulator(3, [(0, 1, 1), (1, 2, 2)])
    tight = _assert_matches_oracle(path3, em, [0, 2], beta=0)
    assert tight.classes["additive-upper"].violations == [
        (0, 2, 2, 3), (2, 0, 2, 3), (2, 1, 1, 2)
    ]
    assert tight.classes["additive-upper"].max_add == 1
    assert _assert_matches_oracle(path3, em, [0, 2], beta=1).ok


def test_emulator_negative_beta_rejected(path3):
    em = Emulator(3, [(0, 1, 1), (1, 2, 1)])
    with pytest.raises(ValueError, match="beta must be >= 0"):
        verify_emulator(path3, em, [0], beta=-1)


@pytest.mark.parametrize("bad", [-1, 3])
def test_verifiers_reject_out_of_range_sources(path3, bad):
    msg = rf"root {bad} out of range \[0,3\)"
    em = Emulator(3, [(0, 1, 1), (1, 2, 1)])
    with pytest.raises(ValueError, match=msg):
        verify_emulator(path3, em, [0, bad], beta=2)
    for spec in (additive_spec(0), subsetwise_spec(0)):
        with pytest.raises(ValueError, match=msg):
            verify_spanner(path3, _as_spanner(path3), [bad, 1], spec)
    with pytest.raises(ValueError, match=msg):
        weighted_sssp(em, bad)


def test_verifiers_refuse_non_integer_sources(path3):
    em = Emulator(3, [(0, 1, 1), (1, 2, 1)])
    for bad in ([1.5], [0, 1.0], np.array([1.5]), [np.float64(2)]):
        with pytest.raises(TypeError):
            verify_emulator(path3, em, bad, beta=2)
        for spec in (additive_spec(0), subsetwise_spec(0)):
            with pytest.raises(TypeError):
                verify_spanner(path3, _as_spanner(path3), bad, spec)
    for good in ([np.int64(2), 0], np.array([2, 0], np.int32)):
        assert verify_emulator(path3, em, good, beta=0).ok
        assert verify_spanner(path3, _as_spanner(path3), good, subsetwise_spec(0)).ok


# ---------------------------------------------------------------------------
# the blocked core
# ---------------------------------------------------------------------------


def test_blocked_verify_builds_the_candidate_csr_once(monkeypatch):
    g = random_graph(40, 0.15, 3)
    h = _as_spanner(g, sorted(g.edges)[::2])
    want = verify_spanner(g, h, None, hybrid_spec(2)).to_dict(violation_cap=10**9)
    built = []
    inner = graphs._csr

    def counted(*args):
        built.append(args)
        return inner(*args)

    monkeypatch.setattr(graphs, "_csr", counted)
    monkeypatch.setattr(graphs, "_ROW_BLOCK", 7)
    monkeypatch.setattr(verify, "_ROW_BLOCK", 7)  # 40 roots: six blocks
    h = _as_spanner(g, h.edges)
    for _ in range(2):
        assert verify_spanner(g, h, None, hybrid_spec(2)).to_dict(violation_cap=10**9) == want
    assert len(built) == 1


def test_blocked_verify_builds_the_weight_classes_once(monkeypatch):
    g = random_graph(40, 0.15, 3)
    triples = [(u, v, 1 + i % 3) for i, (u, v) in enumerate(sorted(g.edges)) if i % 4]
    # vertex 0 is reached only over an entry heavier than the level cap, so
    # the roots that reach vertex 1 take rows of the Dijkstra fallback
    triples = [t for t in triples if 0 not in t[:2]] + [(0, 1, graphs._LEVEL_CAP + 30)]
    want = verify_emulator(g, Emulator(g.n, triples), range(g.n), beta=2)
    assert want.n_violations and want.classes["additive-upper"].pairs
    built, handed = [], []
    inner = Emulator.weight_classes.func

    def counted(self):
        built.append(self)
        return inner(self)

    kept = cached_property(counted)
    kept.__set_name__(Emulator, "weight_classes")
    monkeypatch.setattr(Emulator, "weight_classes", kept)
    dijkstra_rows = graphs._dijkstra_rows

    def spied(n, codes, weight, roots):
        handed.extend(roots.tolist())
        return dijkstra_rows(n, codes, weight, roots)

    monkeypatch.setattr(graphs, "_dijkstra_rows", spied)
    monkeypatch.setattr(graphs, "_ROW_BLOCK", 7)
    monkeypatch.setattr(verify, "_ROW_BLOCK", 7)  # 40 roots: six blocks
    em = Emulator(g.n, triples)
    for _ in range(2):
        assert verify_emulator(g, em, range(g.n), beta=2) == want
    assert len(built) == 1
    # only emulator roots whose exact distances run past the cap go deep,
    # block by block in each verify; no host row does
    far = [max(d for d in bellman_ford(em, r) if d < INF) for r in range(g.n)]
    deep = [r for r in range(g.n) if far[r] > graphs._LEVEL_CAP]
    assert deep and handed == deep * 2


def _every_scope(g, h, em, sources):
    return [
        rep.to_dict(violation_cap=10**9)
        for rep in (
            verify_spanner(g, h, None, hybrid_spec(2)),
            verify_spanner(g, h, sources, additive_spec(2)),
            verify_spanner(g, h, sources, subsetwise_spec(0)),
            verify_emulator(g, em, sources, beta=0),
        )
    ]


def test_blocks_of_roots_report_as_one_block(monkeypatch):
    # a host with isolated vertices, a spanning forest plus every fifth
    # edge as the candidate, an emulator that drops, lengthens and adds
    # edges (one into an isolated vertex), and repeated sources
    g = random_graph(60, 0.06, 7)
    edges = sorted(g.edges)
    isolated = np.flatnonzero(np.diff(g.csr[0]) == 0).tolist()
    dist = hop_distance_matrix(g)
    firsts = [v for v in range(g.n) if (dist[v, :v] < 0).all()]  # one per component
    h = _as_spanner(g, {divmod(int(c), g.n) for c in tree_union(g, firsts)} | set(edges[::5]))
    em = Emulator(g.n, [(u, v, 1 + (i % 5 == 0)) for i, (u, v) in enumerate(edges) if i % 4]
                  + [(0, isolated[0], 1), (3, 41, 2)])
    sources = [5, 0, 17, 33, 5, 59, 41, 12, 17, 8, 22, 47, 30, 51, 2, 0, 44, 38, 19, 26]
    sources += isolated
    one_block = _every_scope(g, h, em, sources)
    for rep in one_block:
        assert rep["n_violations"] and rep["skipped_unreachable"]

    rows = []

    def spy(rows_of):
        def measured(*args):
            out = rows_of(*args)
            rows.append(len(out))
            return out
        return measured

    monkeypatch.setattr(verify, "_ROW_BLOCK", 7)  # 60 and 19 roots split unevenly
    for name in ("hop_distance_matrix", "emulator_distance_matrix"):
        monkeypatch.setattr(verify, name, spy(getattr(verify, name)))
    assert _every_scope(g, h, em, sources) == one_block
    assert max(rows) == 7 and sum(rows) == 2 * (g.n + 3 * len(set(sources)))


def _damaged(g: Graph) -> tuple[Spanner, Emulator]:
    """A spanner of every third edge and an emulator that drops every fifth
    entry, lengthens every third and adds two shortcuts: violations in
    every class, root after root."""
    edges = sorted(g.edges)
    h = _as_spanner(g, edges[::3])
    em = Emulator(g.n, [(u, v, 1 + (i % 3 == 0)) for i, (u, v) in enumerate(edges) if i % 5]
                  + [(0, g.n - 1, 1), (2, 30, 1)])
    return h, em


@pytest.mark.parametrize("fold_rows", [1, 3, 200])
def test_fold_chunks_report_as_one_fold(monkeypatch, fold_rows):
    # two blocks of 40 roots; fold chunks of 1 and 3 rows split each, 200
    # rows exceed a block: the reports equal the one-fold reports field for
    # field, the order of every violation list included
    g = random_graph(70, 0.06, 4)
    h, em = _damaged(g)
    sources = [3, 68, 0, 41, 12, 3, 55, 27, 9, 33, 61, 18, 2, 47, 30, 66, 5, 22, 39, 50]

    def reports():
        return [
            verify_spanner(g, h, None, hybrid_spec(2)),
            verify_spanner(g, h, sources, additive_spec(2)),
            verify_spanner(g, h, sources, subsetwise_spec(0)),
            verify_emulator(g, em, sources, beta=0),
        ]

    monkeypatch.setattr(verify, "_ROW_BLOCK", 40)
    whole = reports()
    assert all(rep.n_violations and rep.skipped_unreachable for rep in whole[:3])
    assert whole[3].n_violations and all(c.pairs for c in whole[3].classes.values())
    folded = []
    inner = verify._class_from_mask

    def spied(rep, block, dg, dh, mask, lower):
        before = rep.n_violations
        inner(rep, block, dg, dh, mask, lower)
        folded.append((len(block), rep.n_violations > before))

    monkeypatch.setattr(verify, "_class_from_mask", spied)
    monkeypatch.setattr(verify, "_FOLD_CELLS", fold_rows * g.n)
    got = reports()
    assert got == whole
    assert [rep.to_dict(violation_cap=10**9) for rep in got] == [
        rep.to_dict(violation_cap=10**9) for rep in whole
    ]
    assert max(rows for rows, _ in folded) == min(fold_rows, 40)
    # violations come from many chunks, not one
    assert sum(hit for _, hit in folded) > (8 if fold_rows < 40 else 0)


def test_rows_and_verify_stay_within_their_budgets(monkeypatch):
    # all-pairs rows on G(512, 0.3): the whole neighbor gather of a block
    # would be 2 * m rows of 8 words, 5 MB, 80 times the 64 KiB budget set
    # here; the fold's chunks hold 8192 cells of at most 64 B of masks and
    # float64 copies each.  The slack covers the block's uint8 unpacking.
    g = random_graph(512, 0.3, 1)
    h = _as_spanner(g, sorted(g.edges)[::2])
    g.csr, h.csr
    hop_distance_matrix(g, [0])  # imports and first-call set-up
    monkeypatch.setattr(graphs, "_GATHER_BYTES", 2**16)
    monkeypatch.setattr(verify, "_FOLD_CELLS", 2**13)
    assert (2 * g.m + 1) * 8 * 8 >= 8 * graphs._GATHER_BYTES
    rows_bytes, slack = 4 * g.n * g.n, 2**20

    def peak(run):
        tracemalloc.start()
        try:
            run()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(lambda: hop_distance_matrix(g)) <= rows_bytes + graphs._GATHER_BYTES + slack
    assert peak(lambda: verify_spanner(g, h, None, hybrid_spec(2))) <= (
        2 * rows_bytes + graphs._GATHER_BYTES + 64 * verify._FOLD_CELLS + slack
    )


# ---------------------------------------------------------------------------
# size ratios
# ---------------------------------------------------------------------------


def test_empty_spanner_ratio_zero():
    sp = Spanner(100, frozenset(), {})
    assert size_report(sp, "hybrid", 100, k=2) == 0.0


def test_full_graph_hybrid_ratio():
    g = random_graph(100, 0.1, 1)
    ratio = size_report(_as_spanner(g), "hybrid", 100, k=2)
    assert ratio == pytest.approx(g.m / 4000.0)
    assert size_bound("hybrid", 100, k=2) == pytest.approx(4000.0)


def test_unknown_formula_rejected():
    sp = Spanner(10, frozenset(), {})
    with pytest.raises(ValueError, match="unknown"):
        size_report(sp, "mystery", 10)
    with pytest.raises(ValueError, match="needs"):
        size_report(sp, "swmult", 10, k=2)
