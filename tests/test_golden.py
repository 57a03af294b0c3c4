"""Golden digests: the sha256 of every construction's sorted edge list on
one fixed instance.  Any change to a builder's output, however small,
changes its digest; a deliberate change must update the pinned value and
say why.
"""

from __future__ import annotations

import hashlib

import pytest

from spanlab import (
    Emulator,
    SourceSet,
    build_hybrid,
    build_sourcewise_additive,
    build_sourcewise_additive4,
    build_sourcewise_emulator2,
    build_sourcewise_mult,
    build_subsetwise_plus2,
    dump_emulator,
    dump_graph,
    random_graph,
)

G = random_graph(128, 0.25, 1)  # m = 2009
S12 = SourceSet.from_ids(range(12), G.n)
S26 = SourceSet.from_ids(range(26), G.n)  # at the n^(2/3) regime of sw4

CASES = {
    "hybrid-k2": (lambda: build_hybrid(G, 2, 1), 1400,
                  "b845049f330856d7505835fd6244b0d015849f0163f77a9b626319987f20304f"),
    "hybrid-k3": (lambda: build_hybrid(G, 3, 1), 655,
                  "24ef4b5472ca242367b27bec9a3ae87d3312566923950dae4c6fc972251cc527"),
    "swmult-k2": (lambda: build_sourcewise_mult(G, S12, 2, 1), 449,
                  "35cf331aa75432e0160e79ce43239950986798bfa151d79bb914a7baba01992a"),
    "swmult-k3": (lambda: build_sourcewise_mult(G, S12, 3, 1), 335,
                  "53bf2107fad1be99079edca51d9fc5976e72e8ed5b2fe757432e6c10ca2c0014"),
    "swadd-k1": (lambda: build_sourcewise_additive(G, S12, 1, 1, retries=2), 1798,
                 "f5fc959307b1059f0754526439fbbde46b31541272c1bdbf5a17076ada2a5b27"),
    "swadd-k2": (lambda: build_sourcewise_additive(G, S12, 2, 1, retries=2), 1689,
                 "337a3a5d80cfd586954af67f3eb5d3e59fe16db10aa554688bdc81d353e71bbb"),
    "swadd-k3": (lambda: build_sourcewise_additive(G, S12, 3, 1, retries=2), 1611,
                 "d6fb840c9e571cd4e8757a84065d43dbd958af9e7e4cbc14563011600e45d59e"),
    "emulator2": (lambda: build_sourcewise_emulator2(G, S12), 503,
                  "65c8e7d5f4204fb291a126e2e96673d11416c2db58405b699d082fec7c3a6bb7"),
    "sw4": (lambda: build_sourcewise_additive4(G, S26), 275,
            "1d547c43422181478dcfa611c24c177e1629efe6694297f223c65622ea38f4c1"),
    "subsetwise2": (lambda: build_subsetwise_plus2(G, range(12)), 187,
                    "2675f5e49c406c87e408237b6038dbf169d76dddcec779c2014e164f11941db7"),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_digest(name):
    build, size, digest = CASES[name]
    h = build()
    doc = dump_emulator(h) if isinstance(h, Emulator) else dump_graph(h)
    assert h.size == size < G.m
    assert hashlib.sha256(doc.encode()).hexdigest() == digest


# path buying's per-level counts on the swadd cases: candidates bought at
# each level, free ones included
BUY_LEVELS = {"swadd-k1": [796, 740], "swadd-k2": [764, 772, 0], "swadd-k3": [797, 739, 0, 0]}


@pytest.mark.parametrize("name", sorted(BUY_LEVELS))
def test_swadd_buy_levels(name):
    assert CASES[name][0]().meta["buy_levels"] == BUY_LEVELS[name]


def test_golden_digest_where_sampled_trees_serve_long_pairs():
    # every instance above has no long pair; this caterpillar (a tree, so
    # the spanner keeps all 439 host edges) has 4246 served by the trees
    from test_additive import _caterpillar

    g = _caterpillar(spine=40, leaves=10)
    h = build_sourcewise_additive(g, SourceSet.from_ids(range(34), g.n), 1, 2, retries=3)
    assert h.meta["long_pairs"] == 4246 and h.meta["long_violations"] == 0
    assert h.size == 439
    assert hashlib.sha256(dump_graph(h).encode()).hexdigest() == (
        "2e272b93ef4ffe1a9ca85eda39d4eceb0de84dc3a23800e65f194894a38dd537"
    )


# random_graph's edge sets, pinned on the per-row draws it replaced: the
# coins are one uniform stream, however it is split into draws.  n = 600
# spans 179,700 coins, several draw blocks.
RANDOM_GRAPHS = {
    (0, 1.0, 1): (0, "b73dcfb259b465605d93eaae4410c12a38420b678635bb16d68560dae49bb91d"),
    (1, 1.0, 1): (0, "6b9289a3b57d843e59c01fc734d1292bb937e660ea54420f46ea942748991fe7"),
    (2, 0.0, 1): (0, "bb4430ee533ce62092a8e92e6e6a1ad8052c6d97b4f5a4bfeecb39985aa1716e"),
    (2, 1.0, 1): (1, "12c01778dc9e71a4e25a3df64a7c741d9e41da684b2838b5dd39c6a1f492fb02"),
    (2, 0.5, 3): (1, "12c01778dc9e71a4e25a3df64a7c741d9e41da684b2838b5dd39c6a1f492fb02"),
    (40, 0.0, 1): (0, "8f6d8e76ac390af29dbfd33cac0a8f36d13121f3e898040c9a02ff19958a48df"),
    (40, 1.0, 1): (780, "80772e69f84246f307f1dab63a022f685bbc346a64835f245bb7f62c5be47dfa"),
    (600, 0.05, 1): (8957, "9834594e41156dd2883428025918c07945c6ee0af3eaa3bda3e15e3b4485cf93"),
    (600, 0.5, 2): (89804, "b7bf9ed3f040b025d1e196b1071606602845bca7fe8ac783823a2486e4f27284"),
}


@pytest.mark.parametrize("n, p, seed", sorted(RANDOM_GRAPHS))
def test_random_graph_digest(n, p, seed):
    m, digest = RANDOM_GRAPHS[n, p, seed]
    g = random_graph(n, p, seed)
    assert g.m == m
    assert hashlib.sha256(dump_graph(g).encode()).hexdigest() == digest


def test_random_graph_rejects_nan_probability():
    with pytest.raises(ValueError, match="p must lie"):
        random_graph(4, float("nan"), 1)
