"""Workload definitions for the spanlab benchmark.

A workload is a fixed set of instances derived from one workload seed.  An
instance is a host graph, one builder call and one exact check of its
output, all through ``spanlab``'s public API.  One iteration builds and
checks every instance of the set once, in a closed loop: one caller, one
thread, the next call starts when the previous one returns.

Builders and checkers are looked up on the ``spanlab`` module at call time,
so the tracer's wrappers see them.
"""

from __future__ import annotations

import gc
import hashlib
import time
import zlib
from dataclasses import dataclass
from typing import Callable

import numpy as np

import spanlab as sl


@dataclass
class Instance:
    """One build-then-certify unit: ``build()`` makes the output and
    ``check(output)`` returns a ``StretchReport`` of the exact check."""

    label: str
    host_edges: int
    build: Callable[[], object]
    check: Callable[[object], object]


def derive_seed(seed: int, *labels: str) -> int:
    """Independent 63-bit seed for one labelled input of a workload."""
    entropy = [int(seed) % (1 << 63)] + [zlib.crc32(label.encode()) for label in labels]
    return int(np.random.SeedSequence(entropy).generate_state(1, dtype=np.uint64)[0] >> 1)


def pick_sources(n: int, size: int, seed: int) -> "sl.SourceSet":
    rng = np.random.default_rng(seed)
    ids = rng.choice(n, size=size, replace=False)
    return sl.SourceSet.from_ids((int(v) for v in ids), n)


def _degree8(n: int) -> float:
    return 8.0 / (n - 1)


def _hybrid(label: str, seed: int, n: int, p: float, k: int) -> Instance:
    g = sl.random_graph(n, p, derive_seed(seed, label, "graph"))
    build_seed = derive_seed(seed, label, "build")
    return Instance(
        label=f"{label}: hybrid k={k} G({n}, {p:.4g})",
        host_edges=g.m,
        build=lambda: sl.build_hybrid(g, k, build_seed),
        check=lambda h: sl.verify_spanner(g, h, None, sl.hybrid_spec(k)),
    )


def hybrid_allpairs(seed: int) -> list[Instance]:
    """Dense hybrid builds plus all-pairs verification.

    Twelve A instances (k=3 on G(384, 0.2)) really sparsify, keeping about
    a quarter of the edges; two B instances (k=2 on degree-8 G(1024)) are
    the ROADMAP's degree-8 row and have the largest all-pairs matrices.
    Many small instances rather than one large one: the sampled centers
    make build time and output size vary by 15-20 % from one instance to
    the next, and a run must average that out to be comparable across
    seeds.
    """
    return [_hybrid(f"A{i}", seed, 384, 0.2, 3) for i in range(12)] + [
        _hybrid(f"B{i}", seed, 1024, _degree8(1024), 2) for i in range(2)
    ]


def _swadd(label: str, seed: int, n: int, p: float, size: int) -> Instance:
    g = sl.random_graph(n, p, derive_seed(seed, label, "graph"))
    s = pick_sources(n, size, derive_seed(seed, label, "sources"))
    build_seed = derive_seed(seed, label, "build")
    return Instance(
        label=f"{label}: swadd k=1 G({n}, {p:.4g}) |S|={size}",
        host_edges=g.m,
        build=lambda: sl.build_sourcewise_additive(g, s, 1, build_seed, retries=2),
        check=lambda h: sl.verify_spanner(g, h, s.vertices, sl.additive_spec(2)),
    )


def _sw4(label: str, seed: int, n: int, p: float, size: int) -> Instance:
    g = sl.random_graph(n, p, derive_seed(seed, label, "graph"))
    s = pick_sources(n, size, derive_seed(seed, label, "sources"))
    return Instance(
        label=f"{label}: sw4 G({n}, {p:.4g}) |S|={size}",
        host_edges=g.m,
        build=lambda: sl.build_sourcewise_additive4(g, s),
        check=lambda h: sl.verify_spanner(g, h, s.vertices, sl.additive_spec(4)),
    )


def _swmult(label: str, seed: int, n: int, p: float, size: int) -> Instance:
    g = sl.random_graph(n, p, derive_seed(seed, label, "graph"))
    s = pick_sources(n, size, derive_seed(seed, label, "sources"))
    build_seed = derive_seed(seed, label, "build")
    return Instance(
        label=f"{label}: swmult k=3 G({n}, {p:.4g}) |S|={size}",
        host_edges=g.m,
        build=lambda: sl.build_sourcewise_mult(g, s, 3, build_seed),
        check=lambda h: sl.verify_spanner(g, h, s.vertices, sl.sourcewise_mult_spec(3)),
    )


def sourcewise_additive(seed: int) -> list[Instance]:
    """Builder-dominated sourcewise constructions, each checked on its
    source rows only: four each of swadd (|S| = n^(1/2)), sw4 (|S| =
    n^(2/3), the +4 regime) and swmult (|S| = 32)."""
    return (
        [_swadd(f"swadd{i}", seed, 512, 0.15, 23) for i in range(4)]
        + [_sw4(f"sw4_{i}", seed, 512, 0.06, 64) for i in range(4)]
        + [_swmult(f"swmult{i}", seed, 1024, 0.08, 32) for i in range(4)]
    )


def _emulator(label: str, seed: int, n: int, size: int) -> Instance:
    g = sl.random_graph(n, _degree8(n), derive_seed(seed, label, "graph"))
    s = pick_sources(n, size, derive_seed(seed, label, "sources"))
    return Instance(
        label=f"{label}: emulator2 G({n}, 8/{n - 1}) |S|={size}",
        host_edges=g.m,
        build=lambda: sl.build_sourcewise_emulator2(g, s),
        check=lambda h: sl.verify_emulator(g, h, s.vertices, 2),
    )


def emulator_weighted(seed: int) -> list[Instance]:
    """Weighted +2 emulators on degree-8 G(2048) with |S| = 46 = n^(1/2):
    verification runs weighted single-source distances and bypasses the
    BFS-heavy builders."""
    return [_emulator(f"emu{i}", seed, 2048, 46) for i in range(3)]


def spanners_unweighted(seed: int) -> list[Instance]:
    """The hybrid and the sourcewise sets in one loop: unweighted BFS
    builders, each output checked by ``verify_spanner``."""
    return hybrid_allpairs(seed) + sourcewise_additive(seed)


# Two workloads, so that each run can be long enough to average out the
# host's speed swings; the emulator set bypasses the unweighted BFS builders.
WORKLOADS: dict[str, Callable[[int], list[Instance]]] = {
    "spanners_unweighted": spanners_unweighted,
    "emulator_weighted": emulator_weighted,
}


def output_digest(out) -> str:
    """sha256 of the sorted edge list (weighted triples for an emulator)."""
    h = hashlib.sha256()
    if isinstance(out, sl.Emulator):
        h.update(f"e {out.n}\n".encode())
        for (u, v), w in sorted(out.weights.items()):
            h.update(f"{u} {v} {w}\n".encode())
    else:
        h.update(f"p {out.n}\n".encode())
        for u, v in sorted(out.edges):
            h.update(f"{u} {v}\n".encode())
    return h.hexdigest()


def workload_digest(digests: list[str]) -> str:
    return hashlib.sha256("\n".join(digests).encode()).hexdigest()


@dataclass
class Outcome:
    """One instance's result within one iteration."""

    label: str
    build_s: float
    verify_s: float
    ok: bool
    kept: int
    digest: str
    error: str = ""


def run_instance(inst: Instance, span=None) -> Outcome:
    """Build, then check exactly.  A raise in either step or any reported
    violation counts the instance as failed.  ``span(name)``, when given,
    opens a tracer span around each step."""
    gc.collect()
    t0 = time.perf_counter()
    try:
        if span is None:
            out = inst.build()
        else:
            with span("bench.build"):
                out = inst.build()
    except Exception as exc:  # a failing builder is a counted failure
        return Outcome(inst.label, time.perf_counter() - t0, 0.0, False, 0, "", repr(exc))
    t1 = time.perf_counter()
    try:
        if span is None:
            report = inst.check(out)
        else:
            with span("bench.verify"):
                report = inst.check(out)
        ok, error = bool(report.ok), ""
        if not ok:
            error = f"{report.n_violations} violations"
    except Exception as exc:  # a raising check is a counted failure
        ok, error = False, repr(exc)
    t2 = time.perf_counter()
    return Outcome(inst.label, t1 - t0, t2 - t1, ok, out.size, output_digest(out), error)
