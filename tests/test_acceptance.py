"""Acceptance suite: every exit criterion at its stated tolerance, one
pass/fail line per criterion (run with `pytest -s` to see them inline).

The grid runs once, through the same spanlab.bench.run_all that
`spanlab bench` calls, so the two can never disagree.
"""

from __future__ import annotations

import pytest

from spanlab import bench


@pytest.fixture(scope="module")
def outcomes():
    return {oc.number: oc for oc in bench.run_all()[0]}


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
