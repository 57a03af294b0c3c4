"""Command-line entry point: generators, builders, verifier, auditor and
the benchmark grid.  Exit codes: 0 success with no violations, 2 when the
requested audit found violations, 1 on usage or I/O errors.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from . import bench
from .additive import (
    build_sourcewise_additive,
    build_sourcewise_additive4,
    build_sourcewise_emulator2,
)
from .graphs import (
    GraphFormatError,
    Spanner,
    dump_emulator,
    dump_graph,
    load_emulator,
    load_graph,
    random_graph,
)
from .hybrid import build_hybrid
from .lowerbound import build_lb_graph, lb_audit
from .sourcewise import SourceSet, build_sourcewise_mult
from .verify import (
    additive_spec,
    hybrid_spec,
    size_report,
    sourcewise_mult_spec,
    subsetwise_spec,
    verify_emulator,
    verify_spanner,
)


class CliError(Exception):
    """Usage or input problem; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits with code 2
        raise CliError(f"{self.prog}: {message}")


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from None


def _write_text(path: str, text: str) -> None:
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc}") from None


def _write_json(path: str, payload: dict) -> None:
    _write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _load_graph_file(path: str):
    try:
        return load_graph(_read_text(path))
    except GraphFormatError as exc:
        raise CliError(f"{path}: {exc}") from None


def _load_sources_file(path: str, n: int) -> SourceSet:
    ids = []
    for lineno, raw in enumerate(_read_text(path).splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            ids.append(int(line))
        except ValueError:
            raise CliError(f"{path}: line {lineno}: expected a vertex id") from None
    try:
        return SourceSet.from_ids(ids, n)
    except ValueError as exc:
        raise CliError(f"{path}: {exc}") from None


def _load_candidate(path: str) -> Spanner:
    g = _load_graph_file(path)
    return Spanner(n=g.n, edges=g.edges, meta={"input": path})


def parse_spec(text: str):
    """Parse 'name:key=value,...' audit spec strings."""
    name, _, rest = text.partition(":")
    params = {}
    for piece in filter(None, rest.split(",")):
        key, _, value = piece.partition("=")
        if not value:
            raise CliError(f"malformed spec parameter {piece!r}")
        try:
            params[key] = int(value)
        except ValueError:
            raise CliError(f"spec parameter {piece!r} must be an integer") from None
    try:
        if name == "hybrid":
            return hybrid_spec(params["k"]), params
        if name == "swmult":
            return sourcewise_mult_spec(params["k"]), params
        if name == "additive":
            return additive_spec(params["beta"]), params
        if name == "subsetwise":
            return subsetwise_spec(params["beta"]), params
        if name == "emulator":
            return "emulator", {"beta": params["beta"]}
    except KeyError as exc:
        raise CliError(f"spec {name!r} is missing parameter {exc.args[0]!r}") from None
    except ValueError as exc:
        raise CliError(str(exc)) from None
    raise CliError(f"unknown spec {name!r} (expected hybrid|swmult|additive|subsetwise|emulator)")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_gen_random(args) -> int:
    g = random_graph(args.n, args.p, args.seed)
    _write_text(args.out, dump_graph(g))
    print(f"wrote G({args.n}, {args.p}) with m={g.m} to {args.out}")
    return 0


def cmd_gen_lb(args) -> int:
    lg = build_lb_graph(args.r, args.k, args.eps, max_vertices=args.max_vertices)
    _write_text(args.out, dump_graph(lg.graph))
    _write_text(args.sources, "\n".join(str(v) for v in lg.sources) + "\n")
    meta = {
        "family": "layered-lower-bound",
        "r": lg.r,
        "k": lg.k,
        "epsilon": lg.epsilon,
        "width1": lg.width1,
        "width2": lg.width2,
        "n": lg.graph.n,
        "m": lg.graph.m,
        "level_sizes": lg.level_sizes,
        "level_offsets": lg.level_offsets,
    }
    _write_json(args.meta, meta)
    print(
        f"wrote layered instance r={lg.r} k={lg.k} eps={lg.epsilon} "
        f"(n={lg.graph.n}, m={lg.graph.m}) to {args.out}"
    )
    return 0


def _finish_build(args, g, obj, ratio, started) -> int:
    if isinstance(obj, Spanner):
        _write_text(args.out, dump_graph(obj))
        meta = dict(obj.meta)
    else:
        _write_text(args.out, dump_emulator(obj))
        meta = {"construction": "emulator2", "n": obj.n, "size": obj.size}
    report = {
        **meta,
        "input": args.infile,
        "output": args.out,
        "input_edges": g.m,
        "size_ratio": ratio,
        "elapsed_s": round(time.perf_counter() - started, 4),
    }
    if args.report:
        _write_json(args.report, report)
    print(
        f"{report['construction']}: kept {report['size']} of {g.m} edges"
        + (f", ratio {ratio:.3f}" if ratio is not None else "")
    )
    return 0


def cmd_build_hybrid(args) -> int:
    g = _load_graph_file(args.infile)
    t0 = time.perf_counter()
    sp = build_hybrid(g, args.k, args.seed)
    ratio = size_report(sp, "hybrid", g.n, k=args.k)
    return _finish_build(args, g, sp, ratio, t0)


def cmd_build_swmult(args) -> int:
    g = _load_graph_file(args.infile)
    src = _load_sources_file(args.sources, g.n)
    t0 = time.perf_counter()
    sp = build_sourcewise_mult(g, src, args.k, args.seed)
    ratio = size_report(sp, "swmult", g.n, k=args.k, epsilon=src.epsilon)
    return _finish_build(args, g, sp, ratio, t0)


def cmd_build_swadd(args) -> int:
    g = _load_graph_file(args.infile)
    src = _load_sources_file(args.sources, g.n)
    t0 = time.perf_counter()
    sp = build_sourcewise_additive(g, src, args.k, args.seed, retries=args.retries)
    ratio = size_report(sp, "swadd", g.n, k=args.k, epsilon=src.epsilon)
    code = _finish_build(args, g, sp, ratio, t0)
    if sp.meta["long_violations"]:
        print(
            f"warning: {sp.meta['long_violations']} long pairs above +{2 * args.k} "
            f"after {sp.meta['attempts']} attempts",
            file=sys.stderr,
        )
        return 2
    return code


def cmd_build_emulator(args) -> int:
    g = _load_graph_file(args.infile)
    src = _load_sources_file(args.sources, g.n)
    t0 = time.perf_counter()
    em = build_sourcewise_emulator2(g, src)
    ratio = size_report(em, "emu2", g.n, epsilon=src.epsilon)
    return _finish_build(args, g, em, ratio, t0)


def cmd_build_sw4(args) -> int:
    g = _load_graph_file(args.infile)
    src = _load_sources_file(args.sources, g.n)
    t0 = time.perf_counter()
    sp = build_sourcewise_additive4(g, src)
    ratio = size_report(sp, "sw4", g.n, epsilon=src.epsilon)
    return _finish_build(args, g, sp, ratio, t0)


def cmd_verify(args) -> int:
    g = _load_graph_file(args.graph)
    spec, params = parse_spec(args.spec)
    src = _load_sources_file(args.sources, g.n) if args.sources else None

    if spec == "emulator":
        if src is None:
            raise CliError("emulator verification needs --sources")
        try:
            em = load_emulator(_read_text(args.candidate))
        except GraphFormatError as exc:
            raise CliError(f"{args.candidate}: {exc}") from None
        rep = verify_emulator(g, em, src.vertices, beta=params["beta"])
        rep.bound_ratio = size_report(em, "emu2", g.n, epsilon=src.epsilon)
        spec_name = "emulator"
    else:
        h = _load_candidate(args.candidate)
        if spec.scope in ("sourcewise", "setwise") and src is None:
            raise CliError(f"spec {spec.name!r} needs --sources")
        try:
            rep = verify_spanner(g, h, src.vertices if src else None, spec)
        except ValueError as exc:
            raise CliError(str(exc)) from None
        rep.bound_ratio = _bound_ratio_for(spec.name, params, h, g.n, src)
        spec_name = spec.name

    payload = {"spec": args.spec, **rep.to_dict()}
    if args.report:
        _write_json(args.report, payload)
    status = "ok" if rep.ok else f"{rep.n_violations} violations"
    print(
        f"{spec_name}: {status}; max_mult={rep.max_mult():.3f} "
        f"max_add={rep.max_add():.1f} size={rep.size}"
    )
    return 0 if rep.ok else 2


def _bound_ratio_for(name, params, h, n, src):
    if name == "hybrid":
        return size_report(h, "hybrid", n, k=params["k"])
    if name == "swmult" and src is not None:
        return size_report(h, "swmult", n, k=params["k"], epsilon=src.epsilon)
    if name == "additive" and src is not None and params["beta"] % 2 == 0 and params["beta"] > 0:
        return size_report(h, "swadd", n, k=params["beta"] // 2, epsilon=src.epsilon)
    return None


def cmd_audit_lb(args) -> int:
    g = _load_graph_file(args.graph)
    try:
        meta = json.loads(_read_text(args.meta))
        r, k, eps = int(meta["r"]), int(meta["k"]), float(meta["epsilon"])
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise CliError(f"{args.meta}: bad metadata: {exc}") from None
    import warnings as _warnings

    with _warnings.catch_warnings():
        _warnings.simplefilter("ignore")
        lg = build_lb_graph(r, k, eps)
    if lg.graph != g:
        raise CliError("graph file does not match the instance described by the metadata")
    h = _load_candidate(args.candidate)
    try:
        report = lb_audit(lg, h)
    except ValueError as exc:
        raise CliError(str(exc)) from None
    payload = {
        "r": r,
        "k": k,
        "epsilon": eps,
        "candidate_edges": h.size,
        "graph_edges": g.m,
        "refutation_budget": g.m // k,
        **report,
    }
    if args.report:
        _write_json(args.report, payload)
    if report["certified"]:
        w = report["witness"]
        print(
            f"distortion witness {w[0]}->{w[1]}: dist_graph={report['dist_graph']}, "
            f"dist_candidate={report['dist_candidate'] if report['dist_candidate'] is not None else 'unreachable'}"
            f" (additive gap >= {2 * k})"
        )
        return 2
    print("no all-missing chain; candidate not refuted")
    return 0


def cmd_bench(args) -> int:
    t0 = time.perf_counter()
    outcomes, rows = bench.run_all(fast=args.fast)
    print(bench.format_rows(rows))
    print()
    failed = 0
    payload = []
    for oc in outcomes:
        status = "PASS" if oc.passed else "FAIL"
        if not oc.passed:
            failed += 1
        print(f"criterion {oc.number} ({oc.name}): {status} -- {oc.detail}")
        for w in oc.warnings:
            print(f"  warning: {w}")
        payload.append(
            {
                "criterion": oc.number,
                "name": oc.name,
                "passed": oc.passed,
                "detail": oc.detail,
                "warnings": oc.warnings,
            }
        )
    print(f"\ntotal wall time: {time.perf_counter() - t0:.1f}s")
    if args.json:
        _write_json(args.json, {"criteria": payload})
    return 0 if failed == 0 else 2


# ---------------------------------------------------------------------------
# parser wiring
# ---------------------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="spanlab", description=__doc__)
    top = parser.add_subparsers(dest="command", required=True)

    gen = top.add_parser("gen", help="generate graphs").add_subparsers(
        dest="generator", required=True
    )
    p = gen.add_parser("random", help="seeded G(n, p) graph")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen_random)

    p = gen.add_parser("lb", help="layered lower-bound instance")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--sources", required=True)
    p.add_argument("--meta", required=True)
    p.add_argument("--max-vertices", type=int, default=1_000_000)
    p.set_defaults(func=cmd_gen_lb)

    build = top.add_parser("build", help="construct spanners and emulators").add_subparsers(
        dest="builder", required=True
    )

    def _io_args(p, sources=False, seeded=True):
        p.add_argument("--in", dest="infile", required=True)
        p.add_argument("--out", required=True)
        p.add_argument("--report")
        if sources:
            p.add_argument("--sources", required=True)
        if seeded:
            p.add_argument("--seed", type=int, required=True)

    p = build.add_parser("hybrid", help="two-regime multiplicative spanner")
    p.add_argument("--k", type=int, required=True)
    _io_args(p)
    p.set_defaults(func=cmd_build_hybrid)

    p = build.add_parser("swmult", help="sourcewise multiplicative spanner")
    p.add_argument("--k", type=int, required=True)
    _io_args(p, sources=True)
    p.set_defaults(func=cmd_build_swmult)

    p = build.add_parser("swadd", help="additive +2k sourcewise spanner")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--retries", type=int, default=0, help="extra root resamples")
    _io_args(p, sources=True)
    p.set_defaults(func=cmd_build_swadd)

    p = build.add_parser("emulator", help="+2 sourcewise emulator (weighted)")
    _io_args(p, sources=True, seeded=False)
    p.set_defaults(func=cmd_build_emulator)

    p = build.add_parser("sw4", help="+4 sourcewise spanner for large source sets")
    _io_args(p, sources=True, seeded=False)
    p.set_defaults(func=cmd_build_sw4)

    p = top.add_parser("verify", help="audit a candidate against a stretch contract")
    p.add_argument("--graph", required=True)
    p.add_argument("--candidate", required=True)
    p.add_argument("--sources")
    p.add_argument(
        "--spec",
        required=True,
        help="hybrid:k=K | swmult:k=K | additive:beta=B | subsetwise:beta=B | emulator:beta=B",
    )
    p.add_argument("--report")
    p.set_defaults(func=cmd_verify)

    audit = top.add_parser("audit", help="adversarial audits").add_subparsers(
        dest="audit_kind", required=True
    )
    p = audit.add_parser("lb", help="hunt for a distortion witness in a candidate")
    p.add_argument("--graph", required=True)
    p.add_argument("--meta", required=True)
    p.add_argument("--candidate", required=True)
    p.add_argument("--report")
    p.set_defaults(func=cmd_audit_lb)

    p = top.add_parser("bench", help="run the acceptance grid and print a table")
    p.add_argument("--fast", action="store_true", help="small smoke grid")
    p.add_argument("--json", help="also write the per-criterion results")
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except CliError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    try:
        return args.func(args)
    except CliError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
