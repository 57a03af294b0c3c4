from __future__ import annotations

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from spanlab import graphs, hybrid
from spanlab import (
    Emulator,
    Graph,
    GraphFormatError,
    Spanner,
    bfs,
    bfs_distances,
    dump_emulator,
    dump_graph,
    emulator_distance_matrix,
    hop_distance_matrix,
    load_emulator,
    load_graph,
    random_graph,
    trace_owner_path,
    trace_parent_path,
    weighted_sssp,
)
from conftest import parent_host, parent_step_hosts, random_tree, root_samples
from oracles import (
    adjacency,
    as_int_grid,
    bellman_ford,
    canonical_parents,
    canonical_path,
    floyd_warshall,
    path_is_valid,
)


# ---------------------------------------------------------------------------
# edge-list parsing
# ---------------------------------------------------------------------------


def test_load_path_graph():
    g = load_graph("p 3 2\n0 1\n1 2\n")
    assert g.n == 3 and g.m == 2
    assert sorted(g.edges) == [(0, 1), (1, 2)]


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


@pytest.mark.parametrize(
    "document, message",
    [
        ("", "empty document (missing 'p <n> <m>' header)"),
        ("# only a comment\n\n", "empty document (missing 'p <n> <m>' header)"),
        ("q 3 1\n0 1\n", "line 1: expected header 'p <n> <m>', got 'q 3 1'"),
        ("p 3\n", "line 1: expected header 'p <n> <m>', got 'p 3'"),
        ("p x 1\n", "line 1: non-integer header fields"),
        ("p 3 -1\n", "line 1: negative counts in header"),
        ("p 3 1\n0 1 2\n", "line 2: expected '<u> <v>', got '0 1 2'"),
        ("p 3 1\n0\n", "line 2: expected '<u> <v>', got '0'"),
        ("p 3 1\n0 a\n", "line 2: non-integer vertex id"),
        ("p 3 1\n0 1.0\n", "line 2: non-integer vertex id"),
        ("p 3 1\n0 3\n", "line 2: vertex id out of range [0,3)"),
        ("p 3 1\n-1 1\n", "line 2: vertex id out of range [0,3)"),
        ("p 3 1\n0 99999999999999999999999\n", "line 2: vertex id out of range [0,3)"),
        ("p 3 1\n4 4\n", "line 2: vertex id out of range [0,3)"),  # range before self-loop
        ("p 3 1\n1 1\n", "line 2: self-loop at vertex 1"),
        ("p 3 2\n0 1\n0 1\n", "line 3: duplicate edge (0,1)"),
        ("p 3 2\n0 1\n1 0\n", "line 3: duplicate edge (1,0)"),  # reversed repeat
        ("p 3 2\n+0 1\n1 +0\n", "line 3: duplicate edge (1,0)"),
        ("p 3 2\n0 1\n", "header declares m=2 but found 1 edges"),
        ("p 3 1\n0 1\n1 2\n", "header declares m=1 but found 2 edges"),
        # line numbers count comments and blank lines
        ("# c\np 4 3\n\n0 1\n# c\n2 3\n3 2\n", "line 7: duplicate edge (3,2)"),
        # the first bad line wins, whatever is wrong with it
        ("p 4 4\n0 1\n2 2\n1 0\n0 9\n", "line 3: self-loop at vertex 2"),
        ("p 4 4\n0 1\n1 0\n2 2\n0 9\n", "line 3: duplicate edge (1,0)"),
        ("p 4 4\n0 1\n0 9\n1 0\n2 2\n", "line 3: vertex id out of range [0,4)"),
        ("p 4 3\n0 1\n1 0\n0 1 2\n", "line 3: duplicate edge (1,0)"),
        ("p 4 3\n0 1\n0 1 2\n1 0\n", "line 3: expected '<u> <v>', got '0 1 2'"),
        ("p 4 3\n0 1\n1 0\nx 2\n", "line 3: duplicate edge (1,0)"),
        ("p 4 3\n0 1\nx 2\n1 0\n", "line 3: non-integer vertex id"),
        # a bad edge wins over a wrong edge count
        ("p 4 9\n0 1\n1 0\n", "line 3: duplicate edge (1,0)"),
    ],
)
def test_load_graph_error_messages(document, message):
    with pytest.raises(GraphFormatError) as info:
        load_graph(document)
    assert str(info.value) == message


def test_load_graph_keeps_the_first_repeat_among_many():
    pairs = [(u, v) for u in range(30) for v in range(u + 1, 30)]
    body = "".join(f"{u} {v}\n" for u, v in pairs)
    doc = f"p 30 {2 * len(pairs)}\n{body}" + "".join(f"{v} {u}\n" for u, v in pairs)
    with pytest.raises(GraphFormatError) as info:
        load_graph(doc)
    assert str(info.value) == f"line {len(pairs) + 2}: duplicate edge (1,0)"
    g = load_graph(f"p 30 {len(pairs)}\n{body}")
    assert g == Graph(30, pairs)
    assert list(g.edges) == list(Graph(30, pairs).edges)


def test_load_skips_comments_and_blanks():
    g = load_graph("# a comment\n\np 2 1\n# another\n0 1\n")
    assert g.m == 1


def test_dump_load_roundtrip():
    g = random_graph(30, 0.2, 1)
    assert load_graph(dump_graph(g)) == g


def test_emulator_roundtrip_and_validation():
    em = Emulator(4, [(0, 1, 1), (1, 3, 5)])
    assert load_emulator(dump_emulator(em)).weights == em.weights
    assert load_emulator(dump_emulator(em)) == em
    with pytest.raises(GraphFormatError, match="weight"):
        load_emulator("e 2 1\n0 1 0\n")
    with pytest.raises(ValueError, match="self-loop"):
        Emulator(3, [(1, 1, 2)])


@pytest.mark.parametrize(
    "document, message",
    [
        ("", "empty document (missing 'e <n> <m>' header)"),
        ("p 3 1\n0 1 1\n", "line 1: expected header 'e <n> <m>', got 'p 3 1'"),
        ("e 3 1\n0 1\n", "line 2: expected '<u> <v> <w>', got '0 1'"),
        ("e 3 1\n0 1 x\n", "line 2: non-integer field"),
        ("e 3 1\n0 5 2\n", "line 2: vertex id out of range [0,3)"),
        ("e 3 1\n-1 1 2\n", "line 2: vertex id out of range [0,3)"),
        ("e 3 1\n0 99999999999999999999999 2\n", "line 2: vertex id out of range [0,3)"),
        ("e 3 1\n4 4 0\n", "line 2: vertex id out of range [0,3)"),  # range, loop, weight
        ("e 3 1\n1 1 0\n", "line 2: self-loop at vertex 1"),
        ("e 3 1\n0 1 0\n", "line 2: weight must be >= 1"),
        ("e 3 1\n0 1 -99999999999999999999999\n", "line 2: weight must be >= 1"),
        ("e 3 2\n0 1 1\n", "header declares m=2 but found 1 edges"),
        # line numbers count comments and blank lines; the first bad line wins
        ("# c\ne 4 3\n0 1 1\n\n2 2 1\n0 9 1\n", "line 5: self-loop at vertex 2"),
        ("e 4 3\n0 1 1\n0 9 1\n0 1 0\n", "line 3: vertex id out of range [0,4)"),
        ("e 4 3\n0 1 0\n0 1\n0 9 1\n", "line 2: weight must be >= 1"),
        ("e 4 3\n0 1 1\n0 1\n0 9 1\n", "line 3: expected '<u> <v> <w>', got '0 1'"),
    ],
)
def test_load_emulator_error_messages(document, message):
    with pytest.raises(GraphFormatError) as info:
        load_emulator(document)
    assert str(info.value) == message


def test_emulator_parallel_entries_keep_min_weight():
    em = Emulator(3, [(0, 1, 4), (1, 0, 2)])
    assert em.weights == {(0, 1): 2}
    # a document counts its lines, not the entries they merge into
    assert load_emulator("e 3 2\n0 1 4\n1 0 2\n") == em


@pytest.mark.parametrize(
    "n, triples, message",
    [
        (3, [(0, 3, 1)], "edge (0,3) out of range for n=3"),
        (3, [(-1, 1, 1)], "edge (-1,1) out of range for n=3"),
        (3, [(4, 4, 0)], "edge (4,4) out of range for n=3"),  # range, loop, weight
        (0, [(0, 1, 1)], "edge (0,1) out of range for n=0"),
        (3, [(0, 2**70, 1)], f"edge (0,{2**70}) out of range for n=3"),
        (3, [(-2**64 + 1, 1, 1)], f"edge ({-2**64 + 1},1) out of range for n=3"),
        (3, [(1, 1, 0)], "self-loop at vertex 1"),
        (3, [(0, 1, 0)], "non-positive weight 0 on edge (0,1)"),
        (3, [(0, 1, -2**64 + 1)], f"non-positive weight {-2**64 + 1} on edge (0,1)"),
        # the first bad triple in input order wins
        (4, [(0, 1, 1), (2, 2, 1), (1, 0, 0), (0, 9, 1)], "self-loop at vertex 2"),
        (4, [(0, 1, 1), (1, 0, 0), (2, 2, 1), (0, 9, 1)], "non-positive weight 0 on edge (1,0)"),
        (4, [(0, 1, 1), (0, 9, 1), (1, 0, 0), (2, 2, 1)], "edge (0,9) out of range for n=4"),
    ],
)
def test_emulator_names_the_first_bad_triple(n, triples, message):
    for given in (triples, (t for t in triples), np.array(triples)):
        with pytest.raises(ValueError) as info:
            Emulator(n, given)
        assert str(info.value) == message


def test_emulator_vertex_count_and_big_weights():
    with pytest.raises(ValueError, match="vertex count must be non-negative"):
        Emulator(-1, [])
    # a weight past int64 neither wraps nor truncates: it stays too large
    for given in ([(0, 1, 2**64 + 1)], np.array([[0, 1, 2**64 - 1]], np.uint64)):
        em = Emulator(3, given)
        assert em.weight.tolist() == [np.iinfo(np.int64).max]
        with pytest.raises(ValueError, match="too large"):
            weighted_sssp(em, 0)


def test_emulator_stores_codes_and_weights_only():
    em = Emulator(4, [(3, 1, 5), (0, 1, 4), (1, 0, 2), (2, 3, 7)])
    assert set(vars(em)) == {"n", "codes", "weight"}  # no dict until `weights` is read
    assert em.codes.tolist() == [1, 7, 11] and em.weight.tolist() == [2, 5, 7]
    assert not em.codes.flags.writeable and not em.weight.flags.writeable
    assert em.weights == {(0, 1): 2, (1, 3): 5, (2, 3): 7} and em.weights is em.weights
    same = Emulator(4, np.array([[1, 0, 2], [1, 3, 5], [3, 2, 7]], np.int32))
    assert em == same and hash(em) == hash(same)
    assert em != Emulator(4, [(0, 1, 3), (1, 3, 5), (2, 3, 7)])  # equality covers weights
    assert em != Graph(4, [(0, 1), (1, 3), (2, 3)])


def test_emulator_refuses_non_integer_ids_and_weights():
    for bad in ([(0, 2, 1.9)], [(0.5, 2, 1)], [(0, 2.0, 1)], [(0, 1, 1), (1, 2, np.float64(2))]):
        with pytest.raises(TypeError):
            Emulator(3, bad)
    em = Emulator(3, [(np.int64(2), np.int32(0), np.int64(3)), (True, 2, 1)])
    assert em.weights == {(0, 2): 3, (1, 2): 1}
    assert all(type(x) is int for e, w in em.weights.items() for x in (*e, w))


# ---------------------------------------------------------------------------
# Graph construction and validation
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "n, edges, message",
    [
        (3, [(0, 3)], "edge (0,3) out of range for n=3"),
        (3, [(-1, 1)], "edge (-1,1) out of range for n=3"),
        (3, [(4, 4)], "edge (4,4) out of range for n=3"),  # range before self-loop
        (0, [(0, 1)], "edge (0,1) out of range for n=0"),
        (3, [(0, 2**70)], f"edge (0,{2**70}) out of range for n=3"),
        (3, [(1, 1)], "self-loop at vertex 1"),
        (3, [(0, 1), (0, 1)], "duplicate edge (0,1)"),
        (3, [(0, 1), (1, 0)], "duplicate edge (1,0)"),
        # the first bad pair in input order wins
        (4, [(0, 1), (2, 2), (1, 0), (0, 9)], "self-loop at vertex 2"),
        (4, [(0, 1), (1, 0), (2, 2), (0, 9)], "duplicate edge (1,0)"),
        (4, [(0, 1), (0, 9), (1, 0), (2, 2)], "edge (0,9) out of range for n=4"),
        (4, [(2, 3), (0, 1), (3, 2), (0, 1)], "duplicate edge (3,2)"),
        (60, [(i, i + 1) for i in range(50)] + [(31, 30), (30, 31), (9, 10)],
         "duplicate edge (31,30)"),
        # 210 pairs, then each again reversed: every repeat sits after its pair
        (21, [(u, v) for u in range(21) for v in range(u + 1, 21)]
         + [(v, u) for u in range(21) for v in range(u + 1, 21)], "duplicate edge (1,0)"),
    ],
)
def test_graph_names_the_first_bad_pair(n, edges, message):
    for given in (edges, (e for e in edges), np.array(edges)):
        with pytest.raises(ValueError) as info:
            Graph(n, given)
        assert str(info.value) == message


def test_graph_vertex_count_and_empty_edge_lists():
    with pytest.raises(ValueError, match="vertex count must be non-negative"):
        Graph(-1, [])
    for n in (0, 3):
        for empty in ([], (), iter([]), np.empty((0, 2), np.int64)):
            g = Graph(n, empty)
            assert g.m == 0 and g.edges == frozenset() and not np.diff(g.csr[0]).any()


def test_graph_rejects_triples_and_non_integer_ids():
    for bad in ([(0, 1, 2)], [(0, 1), (1, 2, 0)], np.array([[0, 1, 2]])):
        with pytest.raises(ValueError):
            Graph(3, bad)
    for bad in ([(0, 0.5)], [(0, 1.0)], [(0.5, 1)], np.array([[0.0, 1.0]])):
        with pytest.raises(TypeError):
            Graph(3, bad)


def test_graph_inputs_give_equal_graphs():
    g = random_graph(60, 0.1, 4)
    pairs = [(v, u) if (u + v) % 2 else (u, v) for u, v in sorted(g.edges)]
    for given in (pairs, (e for e in pairs), set(pairs), np.array(pairs),
                  np.array(pairs, np.int32), np.array(pairs, np.uint16)):
        h = Graph(g.n, given)
        assert h == g and h.m == g.m and all(map(np.array_equal, h.csr, g.csr))


def test_graph_stores_plain_shared_ints():
    # the one stored form is the sorted read-only int64 code array; the
    # CSR and the tuple view are built on first read and kept, and the
    # tuples hold plain ints
    assert Graph(3, [(True, 2)]).edges == {(1, 2)}
    for given in ([(np.int64(0), np.int64(1)), (True, 2)], np.array([[0, 1], [2, 1]], np.int32)):
        g = Graph(3, given)
        assert g.codes.dtype == np.int64 and g.codes.tolist() == [1, 5]
        assert not g.codes.flags.writeable
        assert not {"edges", "csr"} & set(vars(g))
        assert g.edges == {(0, 1), (1, 2)} and g.edges is g.edges
        assert np.diff(g.csr[0]).tolist() == [1, 2, 1] and g.csr is g.csr
        assert all(type(x) is int for e in g.edges for x in e)
        assert sorted(g.edges) == [(0, 1), (1, 2)]
    g = random_graph(400, 0.05, 2)
    assert set(vars(g)) == {"n", "codes"}
    assert g.codes.tolist() == [u * g.n + v for u, v in sorted(g.edges)]


def test_graph_holds_codes_and_csr_only():
    # about 24 B per edge: 8 for the code, 16 for its two CSR entries
    tracemalloc.start()
    try:
        g = random_graph(2048, 0.1, 1)
        g.csr
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert g.m > 200_000 and held <= 40 * g.m


@pytest.mark.parametrize("n, p", [(0, 0.5), (1, 0.5), (50, 0.1), (50, 1.0)])
def test_graph_keeps_a_read_only_csr(n, p):
    g = random_graph(n, p, 3)
    assert g.csr is g.csr
    for kept in g.csr:
        assert kept.dtype == np.int64 and not kept.flags.writeable
    assert _csr_lists(g) == list(map(list, adjacency(g)))


def _csr_lists(g) -> list[list[int]]:
    """The neighbor lists that the kept CSR of `g` holds, as plain ints."""
    indptr, indices = g.csr
    return [indices[indptr[v]:indptr[v + 1]].tolist() for v in range(g.n)]


def test_host_rows_read_the_kept_csr(monkeypatch):
    from spanlab import build_hybrid

    g = random_graph(60, 0.1, 5)
    want = hybrid.hop_rows(g)

    def rebuilt(*args):
        raise AssertionError("a host's CSR was rebuilt")

    monkeypatch.setattr(graphs, "_csr", rebuilt)
    assert np.array_equal(hop_distance_matrix(g), want)
    assert np.array_equal(hybrid.hop_rows(g), want)
    build_hybrid(g, 2, 1)


def test_import_defers_scipy_to_the_first_dijkstra():
    # scipy is loaded only for rows past the level cap, never for the
    # shallow hop and weighted rows every verifier reads; each deep row
    # runs in a fresh interpreter
    src = Path(graphs.__file__).resolve().parents[1]
    path = os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])
    env = dict(os.environ, PYTHONPATH=path)
    for deep_row in (
        # a hop row past the level cap: one end of a 70-edge path
        "sl.hop_distance_matrix(sl.Graph(71, [(i, i + 1) for i in range(70)]), [0])[0, 70] == 70",
        # a weighted row past the level cap: one weight-100 edge
        "sl.weighted_sssp(sl.Emulator(2, [(0, 1, 100)]), 0) == [0, 100]",
    ):
        code = "\n".join([
            "import sys",
            "import spanlab as sl",
            "assert 'scipy.sparse' not in sys.modules",
            "g = sl.random_graph(40, 0.1, 1)",
            "assert sl.verify_spanner(g, sl.build_hybrid(g, 2, 1), None, sl.hybrid_spec(2)).ok",
            "assert sl.weighted_sssp(sl.Emulator(2, [(0, 1, 3)]), 0) == [0, 3]",
            "h = sl.build_sourcewise_emulator2(g, sl.SourceSet.from_ids(range(6), g.n))",
            "assert sl.verify_emulator(g, h, range(6), 2).ok",
            "assert 'scipy.sparse' not in sys.modules",
            f"assert {deep_row}",
            "assert 'scipy.sparse' in sys.modules",
        ])
        subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=120)


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
    with pytest.raises(ValueError, match="root set must be non-empty"):
        bfs_distances(cycle5, [])


def test_bfs_rejects_empty_and_out_of_range_roots(cycle5):
    for search in (bfs, bfs_distances):
        with pytest.raises(ValueError, match="root set must be non-empty"):
            search(cycle5, [])
        for bad in (-1, 5):
            with pytest.raises(ValueError, match=rf"root {bad} out of range \[0,5\)"):
                search(cycle5, [0, bad])


@pytest.mark.parametrize("root", [1.5, np.float64(2)])
def test_bfs_refuses_non_integer_roots(cycle5, root):
    # an int64 array would truncate these roots
    for search in (bfs, bfs_distances):
        with pytest.raises(TypeError):
            search(cycle5, [0, root])


def test_bfs_takes_numpy_integer_roots():
    g = random_graph(30, 0.12, 4)
    want = bfs(g, [3, 17])
    for roots in ([np.int64(3), np.int32(17)], np.array([17, 3]), np.array([3, 17], np.uint16)):
        res = bfs(g, roots)
        assert (res.dist, res.parent, res.owner) == (want.dist, want.parent, want.owner)
        assert bfs_distances(g, roots) == want.dist


def test_bfs_names_the_smallest_bad_root():
    g = random_graph(40, 0.1, 2)
    for search in (bfs, bfs_distances):
        with pytest.raises(ValueError, match=r"root -1 out of range \[0,40\)"):
            search(g, [7, -1, 99])
        with pytest.raises(ValueError, match=r"root 40 out of range \[0,40\)"):
            search(g, [99, 7, 40])


def _root_cases():
    """Generator, repeated, isolated and all-vertex roots, and n = 1."""
    g = Graph(30, sorted(random_graph(24, 0.15, 8).edges))  # 24..29 isolated
    yield g, (r for r in (5, 26)), [5, 26]
    yield g, [9, 3, 9, 3, 3], [3, 9]
    yield g, [27, 29], [27, 29]
    yield g, range(g.n), list(range(g.n))
    yield Graph(1, []), [0], [0]
    for g in (random_graph(35, 0.1, 3), Graph(12, [(i, i + 1) for i in range(11)])):
        yield g, iter(range(g.n)), list(range(g.n))


def test_bfs_root_forms_match_the_oracle():
    for g, roots, plain in _root_cases():
        dist, owner, parent = _oracle_owner_and_parent(g, plain)
        res = bfs(g, roots)
        assert (res.dist, res.owner, res.parent) == (dist, owner, parent)
        assert all(type(x) is int for x in res.dist + res.owner + res.parent)
        assert bfs_distances(g, list(plain)) == dist


def test_bfs_reads_no_adjacency_tuples():
    # searches read the CSR and never build the `edges` tuple view
    for g, roots, plain in _root_cases():
        bfs(g, roots)
        bfs_distances(g, plain[:1])
        assert "edges" not in vars(g)


def _multi_root_instances():
    rng = np.random.default_rng(31)
    for seed in range(40):
        n = int(rng.integers(8, 40))
        g = random_graph(n, float(rng.choice([0.06, 0.12, 0.25])), seed)
        size = int(rng.integers(2, 7))
        yield g, sorted(int(r) for r in rng.choice(n, size=size, replace=False))


def _oracle_owner_and_parent(g, roots):
    """Nearest root (minimum id on ties) and the minimum-id closer neighbor
    with that owner, from cubic all-pairs distances."""
    fw = floyd_warshall(g)
    dist = [min(fw[r][v] for r in roots) for v in range(g.n)]
    owner = [
        min((r for r in roots if fw[r][v] == dist[v]), default=-1)
        if dist[v] < float("inf") else -1
        for v in range(g.n)
    ]
    parent, nbrs = [-1] * g.n, adjacency(g)
    for v in range(g.n):
        if 0 < dist[v] < float("inf"):
            parent[v] = min(
                w for w in nbrs[v] if dist[w] == dist[v] - 1 and owner[w] == owner[v]
            )
    return as_int_grid([dist])[0], owner, parent


@pytest.mark.parametrize("depth", [None, 1, 2])
def test_bfs_levels_go_in_frontier_blocks(monkeypatch, kernel_host, depth):
    # levels wider than a block of 7 frontier vertices give the same
    # (dist, parent, owner) as whole levels
    searches = [(h, np.array(sorted(set(roots)), np.int64))
                for h in (kernel_host[0], parent_host()) for roots in root_samples(h.n) if roots]
    want = [graphs._bfs_arrays(h.csr, roots, depth) for h, roots in searches]
    monkeypatch.setattr(graphs, "_ROW_BLOCK", 7)
    for (h, roots), rows in zip(searches, want):
        assert np.array_equal(graphs._bfs_arrays(h.csr, roots, depth), rows)
    assert any(len(roots) > 7 for _, roots in searches)


def test_bfs_multi_root_parents_match_oracle():
    checked = 0
    for g, roots in _multi_root_instances():
        dist, owner, parent = _oracle_owner_and_parent(g, roots)
        res = bfs(g, roots)
        assert res.dist == dist
        assert bfs_distances(g, roots[::-1] + roots[:1]) == dist
        assert res.owner == owner
        assert res.parent == parent
        checked += sum(1 for p in parent if p >= 0)
    assert checked > 500


def test_trace_owner_path_is_the_oracle_descent():
    for g, roots in _multi_root_instances():
        dist, owner, parent = _oracle_owner_and_parent(g, roots)
        res = bfs(g, roots)
        for v in range(g.n):
            if dist[v] < 0:
                assert trace_owner_path(g, res, v) is None
                continue
            want = [v]
            while parent[want[-1]] >= 0:
                want.append(parent[want[-1]])
            want.reverse()
            assert want[0] == owner[v] and len(want) - 1 == dist[v]
            assert trace_owner_path(g, res, v) == want


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


def _row_path(g, u, v):
    """The library's canonical u-v walk: min-id parents off u's hop row."""
    dist = hop_distance_matrix(g, [u])
    if dist[0, v] < 0:
        return None
    return graphs.parent_path(graphs.parent_rows(g.csr, dist)[0].tolist(), v)


def test_canonical_path_identity(cycle5):
    assert _row_path(cycle5, 3, 3) == canonical_path(cycle5, 3, 3) == [3]


def test_canonical_path_cycle_prefers_min_index(cycle5):
    assert _row_path(cycle5, 0, 2) == canonical_path(cycle5, 0, 2) == [0, 1, 2]


def test_canonical_path_on_tree_is_unique_tree_path():
    t = random_tree(40, 11)
    want = as_int_grid(floyd_warshall(t))
    for v in (5, 17, 39):
        p = _row_path(t, 0, v)
        assert p[0] == 0 and p[-1] == v
        assert len(p) - 1 == want[0][v]
        assert path_is_valid(t, p)
        assert p == canonical_path(t, 0, v)


def test_canonical_path_idempotent_and_optimal():
    g = random_graph(48, 0.12, 5)
    want = as_int_grid(floyd_warshall(g))
    for u, v in [(0, 40), (3, 17), (8, 8)]:
        p1 = _row_path(g, u, v)
        p2 = _row_path(g, u, v)
        assert p1 == p2 == canonical_path(g, u, v)
        assert len(p1) - 1 == want[u][v]
        assert path_is_valid(g, p1)


def test_canonical_path_disconnected_is_none():
    g = Graph(4, [(0, 1), (2, 3)])
    assert _row_path(g, 0, 3) is None and canonical_path(g, 0, 3) is None


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
    rows = _csr_lists(g)
    assert rows == list(map(list, adjacency(g)))
    for v, row in enumerate(rows):
        assert row == sorted(set(row)) and v not in row
        assert all(v in rows[w] for w in row)


def test_hop_distance_matrix_agrees_with_bfs():
    g = random_graph(40, 0.1, 13)
    mat = hop_distance_matrix(g)
    for r in range(g.n):
        assert list(mat[r]) == bfs_distances(g, [r])
    sub = hop_distance_matrix(g, [4, 9])
    assert list(sub[0]) == bfs_distances(g, [4])
    assert list(sub[1]) == bfs_distances(g, [9])


def _split_instances():
    """Seeded graphs with isolated vertices and several components, each
    with a random edge subset as a Spanner."""
    rng = np.random.default_rng(21)
    for seed in range(12):
        parts = [random_graph(int(rng.integers(2, 14)), 0.3, 100 * seed + i) for i in range(3)]
        edges, base = [], 0
        for part in parts:
            edges += [(u + base, v + base) for u, v in part.edges]
            base += part.n + int(rng.integers(0, 3))  # isolated vertices between parts
        order = rng.permutation(base)  # interleave the parts' ids
        g = Graph(base, [(int(order[u]), int(order[v])) for u, v in edges])
        kept = frozenset(e for e in g.edges if rng.random() < 0.7)
        yield g, Spanner(g.n, kept, {})


@pytest.mark.parametrize(
    "parts",
    [
        (),
        (np.empty(0, np.int64),),
        (np.array([7]),),
        (np.full(5, 3),),
        (np.arange(10),),
        (np.array([9, -2, 4, 4, 1, -2], np.int32),),
        (graphs.pair_codes(4, [(0, 4), (2, 3), (-1, 1), (2, 3)]),),
        ([], np.array([5, 1]), np.empty(0, np.int64), np.array([1, 8, 5]), []),
        tuple(np.random.default_rng(2).integers(-50, 5000, size) for size in (3000, 0, 4000)),
    ],
)
def test_unique_codes_is_np_unique(parts):
    want = np.unique(np.concatenate([np.empty(0, np.int64), *parts]).astype(np.int64))
    given = [np.copy(p) for p in parts]
    got = graphs.unique_codes(*given)
    assert got.dtype == np.int64 and got.flags.writeable
    assert got.tolist() == want.tolist()
    assert all(np.array_equal(a, b) for a, b in zip(given, parts))  # inputs untouched
    for p in given:
        if len(p):
            assert not np.shares_memory(got, p)


def test_spanner_normalizes_codes_as_np_unique():
    given = [
        np.array([12, 3, 3, 7, 1], np.int32),
        np.array([5, 5, 0], np.uint64),
        np.array([], np.int16),
        graphs.pair_codes(3, [(0, 3), (-1, 1), (1, 2), (1, 2)]),
    ]
    for codes in given:
        kept = Spanner(3, codes)
        assert kept.codes.dtype == np.int64 and not kept.codes.flags.writeable
        assert kept.codes.tolist() == np.unique(codes.astype(np.int64)).tolist()
    hand_built = Spanner(3, [(0, 3), (-1, 1), (2, 1), (0, 1)])
    assert hand_built.codes.tolist() == [-2, -1, 1, 7]


def test_hop_rows_read_a_spanner_edge_set():
    for g, sp in _split_instances():
        want = as_int_grid(floyd_warshall(Graph(g.n, sp.edges)))
        got = hop_distance_matrix(sp)
        assert got.dtype == np.int32 and got.tolist() == want
        assert hop_distance_matrix(Graph(g.n, sp.edges)).tolist() == want
        assert hop_distance_matrix(g).tolist() == as_int_grid(floyd_warshall(g))
        roots = [g.n - 1, 0, g.n // 2, 0]
        assert hop_distance_matrix(sp, roots).tolist() == [want[r] for r in roots]


def test_spanner_keeps_its_csr():
    for g, sp in _split_instances():
        assert sp.csr is sp.csr
        for kept, built in zip(sp.csr, Graph(g.n, sp.edges).csr):
            assert kept.dtype == np.int64 and np.array_equal(kept, built)
            assert not kept.flags.writeable
        assert sp == Spanner(sp.n, sp.edges)  # the kept CSR is no field
        assert sp == Spanner(sp.n, sp.codes) and hash(sp) == hash(Spanner(sp.n, sp.codes))


def test_spanner_csr_checks_every_end():
    with pytest.raises(ValueError, match=r"edge end out of range \[0,3\)"):
        hop_distance_matrix(Spanner(3, frozenset({(0, 3)})))
    for bad in ((0.5, 2), (0, 2.0), (np.float64(1), 2)):
        with pytest.raises(TypeError):
            hop_distance_matrix(Spanner(3, frozenset({(0, 1), bad})))
    sp = Spanner(3, frozenset({(np.int64(0), np.int32(2)), (True, 2)}))
    assert hop_distance_matrix(sp).tolist() == [[0, 2, 1], [2, 0, 1], [1, 1, 0]]


@pytest.mark.parametrize("n", [0, 1, 3])
def test_distance_matrices_keep_shapes_and_dtypes(n):
    g = Graph(n, [(0, 1), (1, 2)] if n == 3 else [])
    em = Emulator(n, [(0, 1, 2)] if n == 3 else [])
    assert hop_distance_matrix(g).shape == (n, n)
    assert hop_distance_matrix(g).dtype == np.int32
    for sources in ([], ()):
        assert hop_distance_matrix(g, sources).shape == (0, n)
        assert hop_distance_matrix(g, sources).dtype == np.int32
        assert emulator_distance_matrix(em, sources).shape == (0, n)
        assert emulator_distance_matrix(em, sources).dtype == np.int64
    if n:
        roots = [n - 1, 0, n - 1]  # repeated and unsorted: rows follow the list
        hop = hop_distance_matrix(g, roots)
        emu = emulator_distance_matrix(em, roots)
        assert hop.shape == emu.shape == (3, n)
        assert hop.dtype == np.int32 and emu.dtype == np.int64
        assert hop.tolist() == [bfs_distances(g, [r]) for r in roots]
        assert emu.tolist() == [weighted_sssp(em, r) for r in roots]


# ---------------------------------------------------------------------------
# packed-bitset BFS row kernel behind hop_distance_matrix and hybrid.hop_rows
# ---------------------------------------------------------------------------


def _count_dijkstra_rows(monkeypatch) -> list:
    """Record the roots handed to the Dijkstra fallback."""
    handed = []
    inner = graphs._dijkstra_rows

    def counted(n, codes, weight, roots):
        handed.extend(int(r) for r in roots)
        return inner(n, codes, weight, roots)

    monkeypatch.setattr(graphs, "_dijkstra_rows", counted)
    return handed


@pytest.fixture(scope="module")
def kernel_host():
    """140 vertices: a dense random part, a 30-path, a random tree and
    isolated vertices between them, ids interleaved; the last vertex has
    degree 0, so the last CSR segment is empty.  Returns the host and its
    Floyd-Warshall rows."""
    path = Graph(30, [(i, i + 1) for i in range(29)])
    parts = [random_graph(50, 0.15, 3), path, random_tree(40, 4)]
    edges, base = [], 0
    for part in parts:
        edges += [(u + base, v + base) for u, v in part.edges]
        base += part.n + 5
    order = np.random.default_rng(8).permutation(139)
    g = Graph(140, [(int(order[u]), int(order[v])) for u, v in edges])
    degree = np.diff(g.csr[0])
    assert degree[139] == 0 and (degree == 0).sum() > 1
    return g, as_int_grid(floyd_warshall(g))


@pytest.mark.parametrize("block", [None, 1, 3, 145])
@pytest.mark.parametrize("count", [1, 63, 64, 65, 130])
def test_bitset_rows_match_the_cubic_oracle(monkeypatch, kernel_host, count, block):
    g, want = kernel_host
    if block is not None:
        monkeypatch.setattr(graphs, "_ROW_BLOCK", block)
    handed = _count_dijkstra_rows(monkeypatch)
    rng = np.random.default_rng(count)
    # repeated, unsorted roots that cross 64-bit word boundaries; always
    # one isolated root (the last vertex)
    roots = [g.n - 1] + rng.integers(0, g.n, count - 1).tolist()
    got = hop_distance_matrix(g, roots)
    assert got.dtype == np.int32 and got.tolist() == [want[r] for r in roots]
    assert hop_distance_matrix(g).tolist() == want
    assert handed == []  # diameter below the level cap: no root falls back


@pytest.mark.parametrize("extra", [-4, 0, 1, 6])
def test_paths_past_the_level_cap_fall_back_to_dijkstra(monkeypatch, extra):
    n = graphs._LEVEL_CAP + 1 + extra  # an end root needs n - 1 levels
    g = Graph(n, [(i, i + 1) for i in range(n - 1)])
    handed = _count_dijkstra_rows(monkeypatch)
    roots = [n - 1, 0, n // 2, 0]
    want = as_int_grid(floyd_warshall(g))
    assert hop_distance_matrix(g, roots).tolist() == [want[r] for r in roots]
    # only the roots still expanding after the cap take Dijkstra rows
    assert sorted(handed) == sorted(r for r in roots if max(r, n - 1 - r) > graphs._LEVEL_CAP)
    assert (extra > 0) == bool(handed)


@pytest.mark.parametrize("n", [0, 1, 2])
def test_bitset_rows_on_tiny_hosts(n):
    g = Graph(n, [(0, 1)] if n == 2 else [])
    want = as_int_grid(floyd_warshall(g))
    assert hop_distance_matrix(g).tolist() == want
    roots = [n - 1, 0, n - 1] if n else []
    assert hop_distance_matrix(g, roots).tolist() == [want[r] for r in roots]


def test_level_loop_stops_once_every_root_has_found_every_vertex(monkeypatch):
    # the ten roots of K_10, one padded 64-bit word, find every vertex at
    # level 1: no second level and no deep-root check
    g = Graph(10, [(u, v) for u in range(10) for v in range(u + 1, 10)])
    passes = []
    inner = graphs._reach

    def counted(frontier, spread):
        passes.append(frontier.shape)
        return inner(frontier, spread)

    monkeypatch.setattr(graphs, "_reach", counted)
    assert hop_distance_matrix(g).tolist() == [[int(u != v) for v in range(10)] for u in range(10)]
    assert passes == [(11, 1)]


def test_adjacency_csr_is_the_sorted_adjacency(kernel_host):
    g, _ = kernel_host
    # laid out from the tuples, checked against lists built from them alone
    assert _csr_lists(Spanner(g.n, g.edges)) == list(map(list, adjacency(g)))
    for bad in [(0, 3), (-1, 1)]:
        with pytest.raises(ValueError, match="out of range"):
            hop_distance_matrix(Spanner(3, frozenset({bad}), {}))


# ---------------------------------------------------------------------------
# weighted rows from the same level kernel, Dijkstra only past the level cap
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def weighted_host():
    """An emulator on 120 vertices, ids interleaved: random weights 1..9 on
    a random part, a weight-7 path of 14 edges (its end roots run past the
    level cap, its middle roots do not), a tree with weights 40..90
    (several above the cap), one class holding a single edge (weight 13)
    and isolated vertices between the parts and at the last id.  Returns
    the emulator, its Bellman-Ford rows and per vertex whether its search
    runs past the cap (some finite distance above it)."""
    rng = np.random.default_rng(11)
    rand = random_graph(40, 0.12, 6)
    parts = [
        [(u, v, int(rng.integers(1, 10))) for u, v in sorted(rand.edges)],
        [(i, i + 1, 7) for i in range(14)] + [(14, 15, 13)],
        [(u, v, int(rng.integers(40, 91))) for u, v in sorted(random_tree(12, 2).edges)],
    ]
    triples, base = [], 0
    for size, part in zip((40, 16, 12), parts):
        triples += [(u + base, v + base, w) for u, v, w in part]
        base += size + 6
    order = np.random.default_rng(5).permutation(119)
    em = Emulator(120, [(int(order[u]), int(order[v]), w) for u, v, w in triples])
    assert (em.weight == 13).sum() == 1 and em.weight.max() > graphs._LEVEL_CAP
    want = [as_int_grid([bellman_ford(em, r)])[0] for r in range(em.n)]
    deep = [max(row) > graphs._LEVEL_CAP for row in want]
    assert any(deep) and not all(deep) and want[119] == [-1] * 119 + [0]  # last id isolated
    return em, want, deep


@pytest.mark.parametrize("block", [None, 1, 5])
@pytest.mark.parametrize("count", [1, 63, 64, 65, 130])
def test_weighted_rows_match_bellman_ford(monkeypatch, weighted_host, count, block):
    em, want, deep = weighted_host
    if block is not None:
        monkeypatch.setattr(graphs, "_ROW_BLOCK", block)
    handed = _count_dijkstra_rows(monkeypatch)
    rng = np.random.default_rng(count)
    # repeated, unsorted roots across 64-bit words; always the isolated last id
    roots = [em.n - 1] + rng.integers(0, em.n, count - 1).tolist()
    got = emulator_distance_matrix(em, roots)
    assert got.dtype == np.int64 and got.tolist() == [want[r] for r in roots]
    # deep and shallow roots share blocks: only the deep ones take Dijkstra rows
    assert sorted(handed) == sorted(r for r in roots if deep[r])


@pytest.mark.parametrize("top", [9, graphs._LEVEL_CAP, 200])
def test_random_weights_match_bellman_ford(monkeypatch, top):
    rng = np.random.default_rng(top)
    for t in range(6):
        n = int(rng.integers(2, 40))
        g = random_graph(n, float(rng.uniform(0.05, 0.3)), t)
        em = Emulator(n, [(u, v, int(rng.integers(1, top + 1))) for u, v in sorted(g.edges)])
        handed = _count_dijkstra_rows(monkeypatch)
        want = [as_int_grid([bellman_ford(em, r)])[0] for r in range(n)]
        assert emulator_distance_matrix(em, range(n)).tolist() == want
        assert handed == [r for r in range(n) if max(want[r]) > graphs._LEVEL_CAP]


@pytest.mark.parametrize("total", [graphs._LEVEL_CAP - 1, graphs._LEVEL_CAP, graphs._LEVEL_CAP + 1])
def test_weighted_search_goes_deep_only_past_the_cap(monkeypatch, total):
    # 0 -(32)- 1 -(total - 32)- 2: only the end roots see distance `total`
    em = Emulator(4, [(0, 1, 32), (1, 2, total - 32)])
    handed = _count_dijkstra_rows(monkeypatch)
    got = emulator_distance_matrix(em, [2, 0, 1, 3])
    assert got.tolist() == [[total, total - 32, 0, -1], [0, 32, total, -1],
                            [32, 0, total - 32, -1], [-1, -1, -1, 0]]
    assert handed == ([2, 0] if total > graphs._LEVEL_CAP else [])


def test_unit_weight_rows_are_hop_rows(monkeypatch):
    # a random part and a path longer than the level cap, with isolated vertices
    g = parent_host()
    em = Emulator(g.n, [(u, v, 1) for u, v in sorted(g.edges)])
    handed = _count_dijkstra_rows(monkeypatch)
    roots = list(range(g.n))[::-1] + [0, 0]
    hop = hop_distance_matrix(g, roots)
    hop_handed = sorted(handed)
    handed.clear()
    assert np.array_equal(emulator_distance_matrix(em, roots), hop.astype(np.int64))
    assert sorted(handed) == hop_handed and hop_handed  # the same roots go deep


def _long_host(name: str) -> tuple[Graph, np.ndarray]:
    """A 300-path, a 200-cycle or an 8 x 128 grid (vertex 128 r + c at row r,
    column c) and its distances in closed form."""
    if name == "grid8x128":
        row, col = np.divmod(np.arange(8 * 128), 128)
        edges = [(v, v + 1) for v in np.flatnonzero(col < 127)]
        edges += [(v, v + 128) for v in range(7 * 128)]
        want = abs(row[:, None] - row) + abs(col[:, None] - col)
        return Graph(8 * 128, edges), want
    n = 300 if name == "path300" else 200
    gap = abs(np.arange(n)[:, None] - np.arange(n))
    if name == "path300":
        return Graph(n, [(i, i + 1) for i in range(n - 1)]), gap
    return Graph(n, [(i, (i + 1) % n) for i in range(n)]), np.minimum(gap, n - gap)


@pytest.mark.parametrize("name", ["path300", "cycle200", "grid8x128"])
def test_long_diameter_rows_match_closed_forms(monkeypatch, name):
    # the host's, a spanner's and a unit-weight emulator's rows over the
    # same edges all take the one Dijkstra fallback, for the same roots
    g, want = _long_host(name)
    u, v = graphs.edge_ends(g.n, g.codes)
    em = Emulator(g.n, np.column_stack([u, v, np.ones_like(u)]))
    deep = np.flatnonzero(want.max(axis=1) > graphs._LEVEL_CAP).tolist()
    roots = list(range(g.n))[::-1]
    handed = _count_dijkstra_rows(monkeypatch)
    for rows in (
        lambda: hop_distance_matrix(g, roots),
        lambda: hop_distance_matrix(Spanner(g.n, g.codes), roots),
        lambda: emulator_distance_matrix(em, roots),
    ):
        handed.clear()
        assert np.array_equal(rows(), want[roots])
        assert sorted(handed) == deep
    handed.clear()
    assert np.array_equal(hybrid.hop_rows(g), want) and handed == deep


def test_inexact_weights_raise_even_when_no_root_goes_deep(monkeypatch):
    # the heavy edge lies on no shortest path: no root's search goes deep
    handed = _count_dijkstra_rows(monkeypatch)
    fine = Emulator(3, [(0, 1, 1), (1, 2, 1), (0, 2, 2**53 - 3)])
    assert emulator_distance_matrix(fine, [2, 0]).tolist() == [[2, 1, 0], [0, 1, 2]]
    assert handed == []
    big = Emulator(3, [(0, 1, 1), (1, 2, 1), (0, 2, 2**53 - 2)])  # weights sum to 2**53
    for roots in ([0], [1, 1]):
        with pytest.raises(ValueError, match="too large for exact distances"):
            emulator_distance_matrix(big, roots)
    assert emulator_distance_matrix(big, []).shape == (0, 3)  # no root, no distance
    assert handed == []


# ---------------------------------------------------------------------------
# canonical parent rows
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("block", [None, 7])
def test_parent_rows_are_the_canonical_bfs_parents(monkeypatch, block):
    g = parent_host()
    if block is not None:
        monkeypatch.setattr(graphs, "_ROW_BLOCK", block)
    handed = _count_dijkstra_rows(monkeypatch)
    for roots in root_samples(g.n):
        dist = hop_distance_matrix(g, roots)
        got = graphs.parent_rows(g.csr, dist)
        assert got.dtype == np.int32 and got.shape == (len(roots), g.n)
        assert got.tolist() == [bfs(g, [z]).parent for z in roots]
        for z, row, parents in zip(roots, dist.tolist(), got.tolist()):
            for v in range(g.n):
                path = trace_parent_path(g, row, v)
                assert (path is None) == (row[v] < 0)
                if path is not None:
                    assert graphs.parent_path(parents, v) == path
    assert handed  # some rows came from the Dijkstra fallback


@pytest.mark.parametrize("block", [None, 5])
def test_parent_rows_are_the_oracle_parents(monkeypatch, block):
    # every root, the largest id too, on hosts whose closer neighbors sit
    # at chosen ranks, rows that reach only distance 1, and edgeless hosts
    if block is not None:
        monkeypatch.setattr(graphs, "_ROW_BLOCK", block)
    for g in parent_step_hosts():
        roots = list(range(g.n))[::-1]
        got = graphs.parent_rows(g.csr, hop_distance_matrix(g, roots))
        assert got.tolist() == [canonical_parents(g, z) for z in roots]


def test_parent_rows_on_tiny_hosts():
    for g in (Graph(0, []), Graph(1, []), Graph(2, []), Graph(2, [(0, 1)])):
        for roots in ([], list(range(g.n))):
            got = graphs.parent_rows(g.csr, hop_distance_matrix(g, roots))
            assert got.shape == (len(roots), g.n)
            assert got.tolist() == [bfs(g, [z]).parent for z in roots]
