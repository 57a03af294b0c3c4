"""Acceptance suite: every exit criterion at its stated tolerance, one
pass/fail line per criterion (run with `pytest -s` to see them inline).

The grid runs once, through the same spanlab.bench.run_all that
`spanlab bench` calls, so the two can never disagree.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

import numpy as np
import pytest

from spanlab import Emulator, bench, graphs, hybrid


@pytest.fixture(scope="module")
def outcomes():
    return {oc.number: oc for oc in bench.run_all()[0]}


def test_criteria_payload_is_pinned(outcomes):
    """The full grid's criteria, in the bytes `spanlab bench --json` writes."""
    payload = {
        "criteria": [
            {"criterion": oc.number, "name": oc.name, "passed": oc.passed,
             "detail": oc.detail, "warnings": oc.warnings}
            for oc in outcomes.values()
        ]
    }
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "b274efa4732d3bf59304f7bf3aaf2b7019d921b733c384a3d95173e868c64893"
    )


def test_swadd_rows_get_the_resample_budget():
    swadd = next(case for case in bench.CASES if case.command == "swadd")
    seen = []

    def build(g, src, k, seed, retries):
        seen.append(retries)
        return swadd.build(g, src, k, seed, retries)

    bench.run_case(dataclasses.replace(swadd, build=build), fast=True)
    assert seen == [bench.RETRIES]


def test_fast_grid_builds_no_edge_views(monkeypatch):
    # builders, checkers and the lower-bound audit read codes and CSRs,
    # never the tuple views of a host, an output or a candidate
    hosts, outputs, audited = [], [], []
    make, audit = bench.random_graph, bench.lb_audit

    def recorded(*args):
        hosts.append(make(*args))
        return hosts[-1]

    def recorded_audit(lg, h):
        audited.extend([lg.graph, h])
        return audit(lg, h)

    monkeypatch.setattr(bench, "random_graph", recorded)
    monkeypatch.setattr(bench, "lb_audit", recorded_audit)
    for case in bench.CASES:
        def build(*args, build=case.build):
            outputs.append(build(*args))
            return outputs[-1]

        rows = bench.run_case(dataclasses.replace(case, build=build), fast=True)
        assert all(row.violations == 0 for row in rows)
    lb_rows = bench.run_lowerbound_check()
    assert all(row.violations == 0 for row in lb_rows)
    assert len(hosts) == len(outputs) == sum(len(case.fast) for case in bench.CASES)
    assert len(audited) == 2 * len(lb_rows) * bench.LB_CANDIDATES
    for g in hosts + audited:
        assert "edges" not in vars(g)
    for h in outputs:
        assert not {"edges", "weights"} & set(vars(h))
    assert any(isinstance(h, Emulator) for h in outputs)


def _report(outcome):
    status = "PASS" if outcome.passed else "FAIL"
    print(f"criterion {outcome.number} ({outcome.name}): {status} -- {outcome.detail}")
    for w in outcome.warnings:
        print(f"  warning: {w}")
    assert outcome.passed, f"criterion {outcome.number}: {outcome.detail}"


def test_criterion_1_hybrid_stretch(outcomes):
    _report(outcomes[1])


def test_criterion_2_hybrid_center_pairs(outcomes):
    _report(outcomes[2])


def test_criterion_2_takes_the_budget_from_the_parameters(monkeypatch):
    # a builder that keeps one-edge suffixes records suffix_len = 1 in its
    # meta; the check still holds its center pairs to hybrid_params(k)
    params = hybrid.hybrid_params
    monkeypatch.setattr(
        hybrid, "hybrid_params", lambda k: dataclasses.replace(params(k), suffix_len=1)
    )
    case = next(c for c in bench.CASES if c.construction == "hybrid")
    rows = bench.run_case(case)
    assert all(r.violations == 0 for r in rows)  # criterion 1 still passes
    assert bench._sum(rows, "center_pair_violations") == 97
    # the fast grid's n=128, k=4 row sees it too
    assert bench._sum(bench.run_case(case, fast=True), "center_pair_violations") > 0


def test_criterion_3_sourcewise_multiplicative(outcomes):
    _report(outcomes[3])


def test_criterion_4_additive_sourcewise(outcomes):
    _report(outcomes[4])


def test_criterion_5_emulator_sandwich(outcomes):
    _report(outcomes[5])


def test_criterion_6_plus4_sourcewise(outcomes):
    _report(outcomes[6])


def test_criterion_7_lowerbound_family(outcomes):
    _report(outcomes[7])


def test_criterion_8_size_ratio_caps(outcomes):
    _report(outcomes[8])


def test_criterion_9_oracle_self_consistency(outcomes):
    _report(outcomes[9])


def test_criterion_9_checks_the_canonical_parents(monkeypatch):
    rows = bench.run_oracle_check()
    assert all(r.violations == 0 and r.extra["parents_ok"] for r in rows)
    min_id_parents = bench.parent_rows

    def max_id_parents(csr, dist):
        # the maximum-id closer neighbor: a rule that differs on ties
        indptr, indices = csr
        out = min_id_parents(csr, dist)
        for r, v in zip(*np.nonzero(out >= 0)):
            nbrs = indices[indptr[v]:indptr[v + 1]]
            out[r, v] = nbrs[dist[r, nbrs] == dist[r, v] - 1].max()
        return out

    monkeypatch.setattr(bench, "parent_rows", max_id_parents)
    rows = bench.run_oracle_check()
    assert not all(r.extra["parents_ok"] for r in rows)
    assert all(r.violations == (not r.extra["parents_ok"]) for r in rows)
    assert all(r.extra["matrix_ok"] and r.extra["bfs_ok"] and r.extra["walk_ok"] for r in rows)


def test_criterion_9_checks_the_suffix_walk_step(monkeypatch):
    rows = bench.run_oracle_check()
    assert all(r.violations == 0 and r.extra["walk_ok"] for r in rows)

    def max_id_step(csr, cells, r, v, want):
        # the maximum-id closer neighbor: a rule that differs on ties
        indptr, indices = csr
        n = len(indptr) - 1
        out = np.empty(len(v), np.int64)
        for i, (root, x) in enumerate(zip(r, v)):
            nbrs = indices[indptr[x]:indptr[x + 1]]
            out[i] = nbrs[cells[root * n + nbrs] == want[i]].max()
        return out

    monkeypatch.setattr(bench, "_closer_neighbors", max_id_step)
    rows = bench.run_oracle_check()
    assert not all(r.extra["walk_ok"] for r in rows)
    assert all(r.violations == (not r.extra["walk_ok"]) for r in rows)
    assert all(r.extra["matrix_ok"] and r.extra["bfs_ok"] and r.extra["parents_ok"] for r in rows)


def test_criterion_9_checks_the_multi_root_owners(monkeypatch):
    min_id_owners = graphs._bfs_arrays

    def max_id_owners(csr, roots, depth=None):
        # the same search over the graph with its ids reversed: every owner
        # tie goes to the larger root
        indptr, indices = csr
        n = len(indptr) - 1
        u = np.repeat(np.arange(n), np.diff(indptr))
        codes = graphs.unique_codes(graphs.edge_codes(n, n - 1 - u, n - 1 - indices))
        out = min_id_owners(graphs._csr(n, codes), np.sort(n - 1 - roots), depth)[:, ::-1]
        out[1:] = np.where(out[1:] < 0, -1, n - 1 - out[1:])  # parents and owners
        return out

    monkeypatch.setattr(graphs, "_bfs_arrays", max_id_owners)
    rows = bench.run_oracle_check()
    assert not all(r.extra["bfs_ok"] for r in rows)
    assert all(r.violations == (not r.extra["bfs_ok"]) for r in rows)
    assert all(r.extra["matrix_ok"] and r.extra["parents_ok"] and r.extra["walk_ok"] for r in rows)
    # singletons have no tie to break: only the multi-root sets catch it
    for _, g in bench.oracle_suite_graphs():
        want = bench.floyd_warshall_oracle(g)
        assert all(bench.bfs_matches_oracle(g, want, [r]) for r in range(g.n))
