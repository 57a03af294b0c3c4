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
