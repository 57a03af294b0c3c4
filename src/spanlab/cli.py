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
from .graphs import (
    GraphFormatError,
    Spanner,
    dump_graph,
    load_emulator,
    load_graph,
    random_graph,
)
from .lowerbound import build_lb_graph, lb_audit
from .sourcewise import SourceSet
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


def _load_graph_file(path: str, loader=load_graph):
    try:
        return loader(_read_text(path))
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
    return Spanner(g.n, g.codes, {"input": path})


def _spanner_check(factory):
    """Check a spanner file against the stretch spec factory(parameter)."""
    return lambda g, path, src, value: verify_spanner(
        g, _load_candidate(path), src and src.vertices, factory(value)
    )


def _emulator_check(g, path, src, beta):
    if src is None:
        raise CliError("emulator verification needs --sources")
    return verify_emulator(g, _load_graph_file(path, load_emulator), src.vertices, beta)


# --spec name -> (its one parameter, check of a candidate file, the size
# formula and k of its bound ratio, or None when it has no bound)
SPECS = {
    "hybrid": ("k", _spanner_check(hybrid_spec), lambda k: ("hybrid", k)),
    "swmult": ("k", _spanner_check(sourcewise_mult_spec), lambda k: ("swmult", k)),
    # an edge list does not say whether swadd or sw4 made it: no bound
    "additive": ("beta", _spanner_check(additive_spec), lambda b: None),
    "subsetwise": ("beta", _spanner_check(subsetwise_spec), lambda b: None),
    "emulator": ("beta", _emulator_check, lambda b: ("emu2", None)),
}


def parse_spec(text: str):
    """Parse a 'name:param=value' audit spec into its name, SPECS row and value."""
    name, _, rest = text.partition(":")
    if name not in SPECS:
        raise CliError(f"unknown spec {name!r} (expected {'|'.join(SPECS)})")
    param, value = SPECS[name][0], None
    for piece in filter(None, rest.split(",")):
        key, _, text_value = piece.partition("=")
        if not text_value:
            raise CliError(f"malformed spec parameter {piece!r}")
        if key != param or value is not None:
            raise CliError(f"unexpected spec parameter {key!r} ({name!r} takes {param!r} once)")
        try:
            value = int(text_value)
        except ValueError:
            raise CliError(f"spec parameter {piece!r} must be an integer") from None
    if value is None:
        raise CliError(f"spec {name!r} is missing parameter {param!r}")
    return name, SPECS[name], value


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_gen_random(args) -> int:
    g = random_graph(args.n, args.p, args.seed)
    _write_text(args.out, dump_graph(g))
    print(f"wrote G({args.n}, {args.p}) with m={g.m} to {args.out}")
    return 0


def cmd_gen_lb(args) -> int:
    lg = build_lb_graph(args.r, args.k, args.eps)
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
        "in_regime": lg.in_regime,
    }
    _write_json(args.meta, meta)
    print(
        f"wrote layered instance r={lg.r} k={lg.k} eps={lg.epsilon} "
        f"(n={lg.graph.n}, m={lg.graph.m}) to {args.out}"
    )
    if not lg.in_regime:
        print(
            f"warning: k={lg.k} is outside the intended k <= ln(r)/ln(ln(r)) regime for r={lg.r}",
            file=sys.stderr,
        )
    return 0


def cmd_build(args) -> int:
    case = args.case
    g = _load_graph_file(args.infile)
    src = _load_sources_file(args.sources, g.n) if args.sources else None
    t0 = time.perf_counter()
    h = case.build(g, src, args.k, args.seed, args.retries)
    ratio = size_report(h, case.formula, g.n, k=args.k, epsilon=src and src.epsilon)
    _write_text(args.out, case.dump(h))
    report = {
        "construction": case.construction,
        "n": h.n,
        "size": h.size,
        **getattr(h, "meta", {}),  # a spanner's meta; an emulator has none
        "input": args.infile,
        "output": args.out,
        "input_edges": g.m,
        "size_ratio": ratio,
        "elapsed_s": round(time.perf_counter() - t0, 4),
    }
    if args.report:
        _write_json(args.report, report)
    print(f"{report['construction']}: kept {h.size} of {g.m} edges, ratio {ratio:.3f}")
    if report.get("in_regime") is False:
        print(
            f"warning: {report['construction']} input is outside its intended regime; "
            "the stretch bound still holds but the size guarantee degrades",
            file=sys.stderr,
        )
    if report.get("long_violations"):
        print(
            f"warning: {report['long_violations']} long pairs above +{2 * args.k} "
            f"after {report['attempts']} attempts",
            file=sys.stderr,
        )
        return 2
    return 0


def cmd_verify(args) -> int:
    g = _load_graph_file(args.graph)
    name, (_, check, bound), value = parse_spec(args.spec)
    src = _load_sources_file(args.sources, g.n) if args.sources else None
    try:
        rep = check(g, args.candidate, src, value)
    except ValueError as exc:
        raise CliError(str(exc)) from None
    if bound(value):
        formula, k = bound(value)
        rep.bound_ratio = size_report(rep, formula, g.n, k=k, epsilon=src and src.epsilon)

    payload = {"spec": args.spec, **rep.to_dict()}
    if args.report:
        _write_json(args.report, payload)
    status = "ok" if rep.ok else f"{rep.n_violations} violations"
    print(
        f"{name}: {status}; max_mult={rep.max_mult():.3f} "
        f"max_add={rep.max_add():.1f} size={rep.size}"
    )
    return 0 if rep.ok else 2


def cmd_audit_lb(args) -> int:
    g = _load_graph_file(args.graph)
    try:
        meta = json.loads(_read_text(args.meta))
        r, k, eps = int(meta["r"]), int(meta["k"]), float(meta["epsilon"])
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise CliError(f"{args.meta}: bad metadata: {exc}") from None
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
    payload = []
    for oc in outcomes:
        status = "PASS" if oc.passed else "FAIL"
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
    return 0 if all(oc.passed for oc in outcomes) else 2


# ---------------------------------------------------------------------------
# parser wiring
# ---------------------------------------------------------------------------


# `spanlab build` flags in --help order; each construction takes --in, --out,
# --report and the ones its bench.CASES row names
_BUILD_FLAGS = {
    "k": dict(type=int, required=True),
    "retries": dict(type=int, default=0, help="extra root resamples"),
    "in": dict(dest="infile", required=True),
    "out": dict(required=True),
    "report": {},
    "sources": dict(required=True),
    "seed": dict(type=int, required=True),
}


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
    p.set_defaults(func=cmd_gen_lb)

    build = top.add_parser("build", help="construct spanners and emulators").add_subparsers(
        dest="builder", required=True
    )
    for case in bench.CASES:
        p = build.add_parser(case.command, help=case.help)
        for flag, options in _BUILD_FLAGS.items():
            if flag in case.flags + ("in", "out", "report"):
                p.add_argument(f"--{flag}", **options)
        p.set_defaults(func=cmd_build, case=case, k=None, retries=0, sources=None, seed=None)

    p = top.add_parser("verify", help="audit a candidate against a stretch contract")
    p.add_argument("--graph", required=True)
    p.add_argument("--candidate", required=True)
    p.add_argument("--sources")
    p.add_argument(
        "--spec",
        required=True,
        help=" | ".join(f"{name}:{row[0]}={row[0][0].upper()}" for name, row in SPECS.items()),
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
