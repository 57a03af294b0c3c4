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

from spanlab import bench


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
    assert all(r.extra["matrix_ok"] and r.extra["bfs_ok"] for r in rows)
