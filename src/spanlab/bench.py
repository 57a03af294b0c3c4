"""Acceptance grid: builds every construction over its parameter grid,
audits the stretch contracts with exact oracles, and tracks size ratios
and wall times.  The CLI `bench` subcommand and the acceptance test suite
both run these functions, so the grid lives in exactly one place.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .additive import (
    build_sourcewise_additive,
    build_sourcewise_additive4,
    build_sourcewise_emulator2,
)
from .graphs import (
    Graph,
    Spanner,
    bfs,
    dump_emulator,
    dump_graph,
    edge_ends,
    hop_distance_matrix,
    parent_rows,
    random_graph,
)
from .hybrid import _closer_neighbors, build_hybrid, hybrid_params
from .lowerbound import build_lb_graph, lb_audit
from .sourcewise import SourceSet, build_sourcewise_mult, sw_params
from .util import ceil_int
from .verify import (
    additive_spec,
    hybrid_spec,
    size_report,
    sourcewise_mult_spec,
    verify_emulator,
    verify_spanner,
)

# soft size-ratio caps; a ratio above 5x the cap is a hard failure
RATIO_CAPS = {"hybrid": 100.0, "swmult": 100.0, "swadd": 200.0}
RETRIES = 2          # tree-root resamples allowed per swadd build
LB_CANDIDATES = 20   # random sparse candidates refuted per lower-bound instance


def degree8_p(n: int) -> float:
    """Edge probability giving average degree about 8."""
    return min(1.0, 8.0 / (n - 1))


def pick_sources(n: int, epsilon: float) -> list[int]:
    """Deterministic source choice: the lowest ceil(n**epsilon) ids."""
    return list(range(ceil_int(float(n) ** epsilon)))


@dataclass
class GridRow:
    construction: str
    n: int
    k: Optional[int]
    epsilon: Optional[float]
    seed: Optional[int]
    size: int
    ratio: Optional[float]
    max_mult: float
    max_add: float
    violations: int
    seconds: float
    extra: dict = field(default_factory=dict)


@dataclass
class CriterionOutcome:
    number: int
    name: str
    passed: bool
    detail: str
    rows: list = field(default_factory=list)
    warnings: list = field(default_factory=list)


def _fmt_eps(e) -> str:
    return "-" if e is None else f"{e:.3f}"


def format_rows(rows) -> str:
    head = (
        f"{'construction':>12} {'n':>5} {'k':>3} {'eps':>6} {'seed':>5} "
        f"{'size':>7} {'ratio':>8} {'max_mult':>9} {'max_add':>8} {'viol':>5} {'sec':>7}"
    )
    lines = [head, "-" * len(head)]
    for r in rows:
        lines.append(
            f"{r.construction:>12} {r.n:>5} {str(r.k or '-'):>3} {_fmt_eps(r.epsilon):>6} "
            f"{str(r.seed if r.seed is not None else '-'):>5} {r.size:>7} "
            f"{('%.3f' % r.ratio) if r.ratio is not None else '-':>8} "
            f"{r.max_mult:>9.3f} {r.max_add:>8.1f} {r.violations:>5} {r.seconds:>7.2f}"
        )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# criteria 1-6: one table of construction grids
# ---------------------------------------------------------------------------


def _center_pair_violations(g: Graph, h: Spanner, rows, cols, ell: int, far: int) -> int:
    """Distances between the (row, column) vertex pairs: exact up to the
    suffix budget ell of the construction's parameters (not of the output's
    meta), at most far * (d + 1) - ell beyond it."""
    if not rows or not cols:
        return 0
    dg = hop_distance_matrix(g, rows)[:, cols].astype(np.int64)
    dh = hop_distance_matrix(h, rows)[:, cols].astype(np.int64)
    reach = dg >= 0
    bad_near = reach & (dg <= ell) & (dh != dg)
    bad_far = reach & (dg > ell) & ((dh < 0) | (dh > far * (dg + 1) - ell))
    return int(bad_near.sum() + bad_far.sum())


def _sum(rows, key: Optional[str] = None) -> int:
    return sum(r.violations if key is None else r.extra[key] for r in rows)


@dataclass(frozen=True)
class Case:
    """One construction: its `spanlab build` subcommand, its grid and the
    criteria its rows decide.

    `flags` are the build flags it takes among k, retries, sources and seed;
    `build(g, src, k, seed, retries)` makes its output and `dump` writes it.
    `full` and `fast` are (sizes, ks, eps targets, seeds); each instance
    is a degree-8 G(n, p) with the lowest ceil(n**eps) ids as sources (no
    sources when eps is None).  `check` returns the stretch report plus
    the row's extra fields; each criterion is (number, name, pass rule per
    row, detail over the rows).
    """

    construction: str
    command: str
    help: str
    flags: tuple
    formula: str
    full: tuple
    fast: tuple
    build: Callable
    check: Callable
    criteria: tuple
    dump: Callable = dump_graph


CASES = (
    Case(
        "hybrid", "hybrid", "two-regime multiplicative spanner", ("k", "seed"), "hybrid",
        full=((128, 256, 512), (2, 3, 4), (None,), (1, 2, 3)),
        fast=((64,), (2,), (None,), (1,)),
        build=lambda g, src, k, seed, _: build_hybrid(g, k, seed),
        check=lambda g, src, h, k: (
            verify_spanner(g, h, None, hybrid_spec(k)),
            {"center_pair_violations": _center_pair_violations(
                g, h, h.meta["centers_low"], h.meta["centers_high"],
                hybrid_params(k).suffix_len, 2 * hybrid_params(k).t)},
        ),
        criteria=(
            (1, "hybrid stretch (adjacent <= 2k-1, others <= k*d)",
             lambda r: r.violations == 0,
             lambda rows: f"{_sum(rows)} violations"),
            (2, "hybrid center pairs (exact within suffix budget, bounded beyond)",
             lambda r: r.extra["center_pair_violations"] == 0,
             lambda rows: f"{_sum(rows, 'center_pair_violations')} center-pair violations"),
        ),
    ),
    Case(
        "swmult", "swmult", "sourcewise multiplicative spanner", ("k", "sources", "seed"),
        "swmult",
        full=((128, 256, 512), (2, 3, 4), (0.25, 0.5), (1, 2, 3)),
        fast=((64,), (2,), (0.5,), (1,)),
        build=lambda g, src, k, seed, _: build_sourcewise_mult(g, src, k, seed),
        check=lambda g, src, h, k: (
            verify_spanner(g, h, src.vertices, sourcewise_mult_spec(k)),
            {"center_pair_violations": _center_pair_violations(
                g, h, src.vertices, h.meta["centers"], sw_params(k, src, g.n).suffix_len, 2 * (k - 1))},
        ),
        criteria=(
            (3, "sourcewise multiplicative stretch (adjacent <= 2k-1, others <= (2k-2)*d)",
             lambda r: r.violations == 0 and r.extra["center_pair_violations"] == 0,
             lambda rows: f"{_sum(rows)} stretch violations, "
             f"{_sum(rows, 'center_pair_violations')} center-pair violations"),
        ),
    ),
    Case(
        "swadd", "swadd", "additive +2k sourcewise spanner",
        ("k", "retries", "sources", "seed"), "swadd",
        full=((256, 512), (1, 2), (0.5,), (1, 2, 3)),
        fast=((64,), (1,), (0.5,), (1,)),
        build=build_sourcewise_additive,
        check=lambda g, src, h, k: (
            verify_spanner(g, h, src.vertices, additive_spec(2 * k)),
            {"attempts": h.meta["attempts"], "long_violations": h.meta["long_violations"]},
        ),
        criteria=(
            (4, f"additive sourcewise (+2k on all source pairs, <= {RETRIES} resamples)",
             lambda r: r.violations == 0 and r.extra["attempts"] <= RETRIES + 1
             and r.extra["long_violations"] == 0,
             lambda rows: f"{_sum(rows)} violations, "
             f"{sum(r.extra['attempts'] - 1 for r in rows)} resamples used"),
        ),
    ),
    Case(
        "emulator2", "emulator", "+2 sourcewise emulator (weighted)", ("sources",), "emu2",
        full=((256, 512), (None,), (0.5,), (1, 2, 3)),
        fast=((64,), (None,), (0.5,), (1,)),
        build=lambda g, src, *_: build_sourcewise_emulator2(g, src),
        check=lambda g, src, h, k: (verify_emulator(g, h, src.vertices, beta=2), {}),
        criteria=(
            (5, "+2 sourcewise emulator (sandwich bound, size ratio <= 20)",
             lambda r: r.violations == 0 and r.ratio <= 20.0,
             lambda rows: f"{_sum(rows)} violations, "
             f"worst ratio {max(r.ratio for r in rows):.3f}"),
        ),
        dump=dump_emulator,
    ),
    Case(
        "sw4", "sw4", "+4 sourcewise spanner for large source sets", ("sources",), "sw4",
        full=((512,), (None,), (2 / 3,), (1, 2, 3)),
        fast=((64,), (None,), (2 / 3,), (1,)),
        build=lambda g, src, *_: build_sourcewise_additive4(g, src),
        check=lambda g, src, h, k: (verify_spanner(g, h, src.vertices, additive_spec(4)), {}),
        criteria=(
            (6, "+4 sourcewise spanner for large source sets (size ratio <= 20)",
             lambda r: r.violations == 0 and r.ratio <= 20.0,
             lambda rows: f"{_sum(rows)} violations"),
        ),
    ),
)


def run_case(case: Case, fast: bool = False) -> list[GridRow]:
    """Build and check every instance of one construction grid."""
    rows = []
    for n, k, eps, seed in itertools.product(*(case.fast if fast else case.full)):
        g = random_graph(n, degree8_p(n), seed)
        src = None if eps is None else SourceSet.from_ids(pick_sources(n, eps), n)
        epsilon = None if src is None else src.epsilon
        t0 = time.perf_counter()
        h = case.build(g, src, k, seed, RETRIES)
        rep, extra = case.check(g, src, h, k)
        dt = time.perf_counter() - t0
        ratio = size_report(h, case.formula, n, k=k, epsilon=epsilon)
        rows.append(
            GridRow(
                case.construction, n, k, epsilon, seed, h.size, ratio,
                rep.max_mult(), rep.max_add(), rep.n_violations, dt, extra,
            )
        )
    return rows


def _outcome(number, name, rows, passes, detail) -> CriterionOutcome:
    return CriterionOutcome(number, name, all(passes(r) for r in rows), detail, rows)


# ---------------------------------------------------------------------------
# criterion 7
# ---------------------------------------------------------------------------


def run_lowerbound_check() -> list[GridRow]:
    triples = [(16, 2, 1.0), (8, 3, 1.0), (16, 2, 0.5)]
    rows = []
    for r, k, eps in triples:
        lg = build_lb_graph(r, k, eps)
        n1, n2 = lg.width1, lg.width2
        expect_v = n1 ** k + k * n2 * n1 ** (k - 1)
        expect_e = k * (n1 ** k) * n2
        counts_ok = lg.graph.n == expect_v and lg.graph.m == expect_e
        t0 = time.perf_counter()
        budget = expect_e // k - 1
        found = 0
        certified = 0
        rng = np.random.default_rng(20_000 + 97 * r + k)
        for _ in range(LB_CANDIDATES):
            keep_idx = rng.choice(lg.graph.m, size=budget, replace=False)
            h = Spanner(lg.graph.n, lg.graph.codes[keep_idx])
            report = lb_audit(lg, h)
            if report["chain"] is not None:
                found += 1
            if report["certified"]:
                certified += 1
        dt = time.perf_counter() - t0
        rows.append(
            GridRow(
                "lowerbound", lg.graph.n, k, eps, None, lg.graph.m, None,
                0.0, 0.0, 0 if counts_ok else 1, dt,
                extra={
                    "r": r,
                    "counts_ok": counts_ok,
                    "chains_found": found,
                    "certified": certified,
                },
            )
        )
    return rows


# ---------------------------------------------------------------------------
# criterion 8: size-ratio soft caps over the hybrid, swmult and swadd rows
# ---------------------------------------------------------------------------


def criterion_ratios(rows) -> CriterionOutcome:
    hard_ok = True
    warnings = []
    details = []
    for name, cap in RATIO_CAPS.items():
        worst = max((r.ratio for r in rows if r.construction == name), default=0.0)
        details.append(f"{name}: worst {worst:.3f} vs cap {cap:g}")
        if worst > 5 * cap:
            hard_ok = False
        elif worst > cap:
            warnings.append(
                f"{name} ratio {worst:.3f} exceeds soft cap {cap:g} (hard limit {5 * cap:g})"
            )
    return CriterionOutcome(
        8,
        "size-ratio soft caps (warn above cap, fail above 5x cap)",
        hard_ok,
        "; ".join(details),
        warnings=warnings,
    )


# ---------------------------------------------------------------------------
# criterion 9: BFS rows, searches, parents and walk steps against a cubic oracle
# ---------------------------------------------------------------------------


def floyd_warshall_oracle(g: Graph) -> np.ndarray:
    """Cubic all-pairs recomputation, independent of the BFS code paths."""
    n = g.n
    big = np.iinfo(np.int64).max // 4
    dist = np.full((n, n), big, dtype=np.int64)
    np.fill_diagonal(dist, 0)
    u, v = edge_ends(n, g.codes)
    dist[u, v] = dist[v, u] = 1
    for mid in range(n):
        np.minimum(dist, dist[:, mid, None] + dist[None, mid, :], out=dist)
    return np.where(dist >= big, -1, dist)


def oracle_parents(dist: np.ndarray) -> np.ndarray:
    """Canonical BFS parents off an all-pairs hop matrix alone: (r, v) holds
    v's min-id neighbor one hop closer to r, -1 at r and where r is cut off."""
    closer = (dist[None] == 1) & (dist[:, None, :] == dist[:, :, None] - 1) & (dist[..., None] > 0)
    return np.where(closer.any(axis=2), closer.argmax(axis=2), -1)


def bfs_matches_oracle(g: Graph, dist: np.ndarray, roots: list[int]) -> bool:
    """Whether `bfs` from the sorted `roots` gives each vertex the hop
    distance `dist` reads to its nearest root and, as owner, the least such
    root (UNREACHED for both where no root reaches)."""
    rows = np.where(dist[roots] >= 0, dist[roots], g.n)  # n: past every distance
    near = rows.min(axis=0)
    owner = np.asarray(roots)[rows.argmin(axis=0)]  # the first minimum: the least id
    want_dist, want_owner = np.where(near < g.n, [near, owner], -1).tolist()
    res = bfs(g, roots)
    return res.dist == want_dist and res.owner == want_owner


def oracle_suite_graphs() -> list[tuple[str, Graph]]:
    path8 = Graph(8, [(i, i + 1) for i in range(7)])
    cycle5 = Graph(5, [(i, (i + 1) % 5) for i in range(5)])
    petersen = Graph(
        10,
        [(i, (i + 1) % 5) for i in range(5)]
        + [(i, i + 5) for i in range(5)]
        + [(5 + i, 5 + (i + 2) % 5) for i in range(5)],
    )
    two_parts = Graph(7, [(0, 1), (1, 2), (3, 4), (4, 5), (5, 3)])  # disconnected
    return [
        ("path8", path8),
        ("cycle5", cycle5),
        ("petersen", petersen),
        ("disconnected7", two_parts),
        ("gnp32", random_graph(32, 0.15, 3)),
        ("gnp64", random_graph(64, 0.1, 7)),
        ("layered32", build_lb_graph(8, 3, 1.0).graph),
    ]


def run_oracle_check() -> list[GridRow]:
    rows = []
    for name, g in oracle_suite_graphs():
        t0 = time.perf_counter()
        want = floyd_warshall_oracle(g)
        parents = oracle_parents(want)
        # every singleton, then root sets whose vertices tie between roots
        ties = [[0, g.n - 1], list(range(0, g.n, 2)), list(range(1, g.n, 3))]
        # hybrid's suffix-walk step, at every cell one hop or more away
        root, far = np.nonzero(want > 0)
        step = _closer_neighbors(g.csr, want.reshape(-1), root, far, want[root, far] - 1)
        checks = {
            "matrix_ok": np.array_equal(want, hop_distance_matrix(g)),
            "bfs_ok": all(bfs_matches_oracle(g, want, r) for r in [[v] for v in range(g.n)] + ties),
            "parents_ok": np.array_equal(parent_rows(g.csr, want), parents),
            "walk_ok": np.array_equal(step, parents[root, far]),
        }
        rows.append(
            GridRow(
                "oracle", g.n, None, None, None, g.m, None, 0.0, 0.0,
                0 if all(checks.values()) else 1, time.perf_counter() - t0,
                extra={"graph": name, **checks},
            )
        )
    return rows


# ---------------------------------------------------------------------------
# the whole grid
# ---------------------------------------------------------------------------


def run_all(fast: bool = False) -> tuple[list[CriterionOutcome], list[GridRow]]:
    outcomes = []
    grid_rows = []
    for case in CASES:
        rows = run_case(case, fast)
        grid_rows += rows
        for number, name, passes, detail in case.criteria:
            outcomes.append(
                _outcome(number, name, rows, passes, f"{len(rows)} builds, {detail(rows)}")
            )
    lb_rows = run_lowerbound_check()
    oracle_rows = run_oracle_check()
    outcomes += [
        _outcome(
            7,
            "layered lower-bound family (exact counts; every sparse candidate refuted)",
            lb_rows,
            lambda r: r.extra["counts_ok"]
            and r.extra["chains_found"] == r.extra["certified"] == LB_CANDIDATES,
            "; ".join(
                f"r={r.extra['r']},k={r.k}: counts_ok={r.extra['counts_ok']}, "
                f"certified {r.extra['certified']}/{LB_CANDIDATES}"
                for r in lb_rows
            ),
        ),
        criterion_ratios(grid_rows),
        _outcome(
            9,
            "oracle self-consistency (BFS == cubic all-pairs on every suite graph)",
            oracle_rows,
            lambda r: r.violations == 0,
            f"{len(oracle_rows)} graphs checked",
        ),
    ]
    return outcomes, grid_rows + lb_rows + oracle_rows
