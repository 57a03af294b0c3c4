"""Cross-construction robustness: disconnected hosts, degenerate source
sets, and a small randomized sweep beyond the acceptance grid."""

from __future__ import annotations

import re

import numpy as np
import pytest

from spanlab import (
    Emulator,
    Graph,
    SourceSet,
    Spanner,
    additive_spec,
    bfs,
    bfs_distances,
    build_hybrid,
    build_sourcewise_additive,
    build_sourcewise_additive4,
    build_sourcewise_emulator2,
    build_sourcewise_mult,
    build_subsetwise_plus2,
    emulator_distance_matrix,
    hop_distance_matrix,
    hybrid_spec,
    random_graph,
    sourcewise_mult_spec,
    subsetwise_spec,
    trace_owner_path,
    trace_parent_path,
    verify_emulator,
    verify_spanner,
    weighted_sssp,
)
from spanlab.util import ceil_int


@pytest.fixture(scope="module")
def split_graph():
    """Two random blobs plus isolated vertices 80..84."""
    edges = []
    for base in (0, 40):
        blob = random_graph(40, 0.15, base + 1)
        edges += [(u + base, v + base) for u, v in blob.edges]
    return Graph(85, edges)


def test_disconnected_host_all_builders(split_graph):
    g = split_graph
    src = SourceSet.from_ids([0, 3, 41, 80], g.n)

    rep = verify_spanner(g, build_hybrid(g, 2, 1), None, hybrid_spec(2))
    assert rep.ok and rep.skipped_unreachable > 0

    sw = build_sourcewise_mult(g, src, 2, 1)
    assert verify_spanner(g, sw, src.vertices, sourcewise_mult_spec(2)).ok

    sa = build_sourcewise_additive(g, src, 1, 1, retries=1)
    assert verify_spanner(g, sa, src.vertices, additive_spec(2)).ok

    em = build_sourcewise_emulator2(g, src)
    assert verify_emulator(g, em, src.vertices, 2).ok

    members = [0, 5, 41, 44, 80]
    sub = build_subsetwise_plus2(g, members)
    assert verify_spanner(g, sub, members, subsetwise_spec(2)).ok

    s4 = build_sourcewise_additive4(g, src)
    assert s4.meta["in_regime"] is False  # 4 sources < 85^(2/3)
    assert verify_spanner(g, s4, src.vertices, additive_spec(4)).ok


def test_hybrid_sweep_small_hosts():
    # tiny hosts where sampled center sets routinely collapse to nothing
    for n, p in [(24, 0.12), (32, 0.3), (48, 0.06)]:
        for k in (2, 4, 5):
            for seed in (1, 2, 3, 4):
                g = random_graph(n, p, seed)
                sp = build_hybrid(g, k, seed)
                assert verify_spanner(g, sp, None, hybrid_spec(k)).ok, (n, p, k, seed)


def test_sourcewise_degenerate_source_sets():
    g = random_graph(64, 0.08, 2)
    for m_src in (1, ceil_int(64 ** 0.5), 64):
        src = SourceSet.from_ids(range(m_src), 64)
        for k in (2, 3):
            sp = build_sourcewise_mult(g, src, k, 2)
            assert verify_spanner(g, sp, src.vertices, sourcewise_mult_spec(k)).ok


def test_additive_deeper_level_budget():
    for seed in (1, 2, 3):
        g = random_graph(96, 0.06, seed)
        src = SourceSet.from_ids(range(10), 96)
        sp = build_sourcewise_additive(g, src, 3, seed, retries=2)
        assert sp.meta["long_violations"] == 0
        assert verify_spanner(g, sp, src.vertices, additive_spec(6)).ok


@pytest.mark.parametrize(
    "build",
    [
        lambda g, src: build_sourcewise_mult(g, src, 2, 1),
        lambda g, src: build_sourcewise_additive(g, src, 1, 1),
        build_sourcewise_emulator2,
        build_sourcewise_additive4,
    ],
    ids=["swmult", "swadd", "emulator2", "sw4"],
)
def test_builders_reject_source_set_of_another_graph(build):
    # a source set's epsilon, and every parameter derived from it, is only
    # meaningful for the n it was built with
    g = random_graph(50, 0.1, 1)
    for n in (10_000, 49):
        with pytest.raises(ValueError, match="source set is for n="):
            build(g, SourceSet.from_ids(range(4), n))


# ---------------------------------------------------------------------------
# vertex ids from the caller: one rule at every entry point that takes them
# ---------------------------------------------------------------------------


def _id_entry_points() -> dict:
    """Per entry point that takes vertex ids, a call on a 3-vertex path that
    passes one given id, beside good ones where it takes several."""
    g = Graph(3, [(0, 1), (1, 2)])
    em = Emulator(3, [(0, 1, 1), (1, 2, 1)])
    whole = Spanner(3, g.codes)
    dist, res = bfs_distances(g, [0]), bfs(g, [0])
    return {
        "bfs": lambda v: bfs(g, [0, v]),
        "bfs_distances": lambda v: bfs_distances(g, [v, 2]),
        "hop_distance_matrix": lambda v: hop_distance_matrix(g, [1, v]),
        "emulator_distance_matrix": lambda v: emulator_distance_matrix(em, [v, 0]),
        "weighted_sssp": lambda v: weighted_sssp(em, v),
        "verify_spanner-sourcewise": lambda v: verify_spanner(g, whole, [0, v], additive_spec(0)),
        "verify_spanner-setwise": lambda v: verify_spanner(g, whole, [v, 1], subsetwise_spec(0)),
        "verify_spanner-allpairs": lambda v: verify_spanner(g, whole, [v, 0], hybrid_spec(2)),
        "verify_emulator": lambda v: verify_emulator(g, em, [0, v], 0),
        "SourceSet.from_ids": lambda v: SourceSet.from_ids([2, v], 3),
        "build_subsetwise_plus2": lambda v: build_subsetwise_plus2(g, [0, v]),
        "trace_parent_path": lambda v: trace_parent_path(g, dist, v),
        "trace_owner_path": lambda v: trace_owner_path(g, res, v),
    }


_ID_ENTRY_POINTS = _id_entry_points()


@pytest.mark.parametrize("bad", [-1, 3, 2**70, -2**70, 1.5, np.float64(2)], ids=repr)
@pytest.mark.parametrize("entry", list(_ID_ENTRY_POINTS))
def test_every_id_taking_entry_point_refuses_a_bad_id(entry, bad):
    # an id past int64 once raised OverflowError; a -1 target once looped in
    # trace_parent_path and came back as a path's end from trace_owner_path
    call = _ID_ENTRY_POINTS[entry]
    if isinstance(bad, float):
        with pytest.raises(TypeError):
            call(bad)
    else:
        with pytest.raises(ValueError, match=rf"(^| ){re.escape(str(bad))} out of range \[0,3\)"):
            call(bad)


def test_every_id_taking_entry_point_takes_good_ids():
    for entry, call in _ID_ENTRY_POINTS.items():
        call(np.int64(2))
        call(1)
