"""Cross-construction robustness: disconnected hosts, degenerate source
sets, and a small randomized sweep beyond the acceptance grid."""

from __future__ import annotations

import warnings

import pytest

from spanlab import (
    Graph,
    SourceSet,
    additive_spec,
    build_hybrid,
    build_sourcewise_additive,
    build_sourcewise_additive4,
    build_sourcewise_emulator2,
    build_sourcewise_mult,
    build_subsetwise_plus2,
    hybrid_spec,
    random_graph,
    sourcewise_mult_spec,
    subsetwise_spec,
    verify_emulator,
    verify_spanner,
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

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        s4 = build_sourcewise_additive4(g, src)
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
