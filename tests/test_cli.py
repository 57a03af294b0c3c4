from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from spanlab import SourceSet, load_graph
from spanlab.cli import main


def _sources_file(tmp_path, ids, name="sources.txt"):
    p = tmp_path / name
    p.write_text("\n".join(str(i) for i in ids) + "\n")
    return str(p)


def _gen_random(tmp_path, n=60, p=0.12, seed=1, name="g.el"):
    out = tmp_path / name
    assert main(["gen", "random", "--n", str(n), "--p", str(p), "--seed", str(seed), "--out", str(out)]) == 0
    return str(out)


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------


def test_gen_random_is_byte_identical(tmp_path):
    a = _gen_random(tmp_path, name="a.el")
    b = _gen_random(tmp_path, name="b.el")
    assert (tmp_path / "a.el").read_bytes() == (tmp_path / "b.el").read_bytes()
    g = load_graph((tmp_path / "a.el").read_text())
    assert g.n == 60


def test_gen_lb_writes_graph_sources_meta(tmp_path):
    code = main(
        [
            "gen", "lb", "--r", "16", "--k", "2", "--eps", "1.0",
            "--out", str(tmp_path / "lb.el"),
            "--sources", str(tmp_path / "lb.sources"),
            "--meta", str(tmp_path / "lb.json"),
        ]
    )
    assert code == 0
    meta = json.loads((tmp_path / "lb.json").read_text())
    assert meta["n"] == 48 and meta["m"] == 128
    assert len((tmp_path / "lb.sources").read_text().split()) == 16


@pytest.mark.parametrize("r,k,in_regime", [(16, 2, True), (8, 3, False), (2, 4, True)])
def test_gen_lb_reports_its_regime(tmp_path, capsys, r, k, in_regime):
    meta = tmp_path / "lb.json"
    assert main(
        ["gen", "lb", "--r", str(r), "--k", str(k), "--eps", "1.0",
         "--out", str(tmp_path / "lb.el"), "--sources", str(tmp_path / "lb.sources"),
         "--meta", str(meta)]
    ) == 0
    assert json.loads(meta.read_text())["in_regime"] is in_regime
    err = capsys.readouterr().err
    advisory = f"warning: k={k} is outside the intended k <= ln(r)/ln(ln(r)) regime for r={r}\n"
    assert err == ("" if in_regime else advisory)


# ---------------------------------------------------------------------------
# build + verify round trips
# ---------------------------------------------------------------------------


def test_hybrid_end_to_end(tmp_path):
    g = _gen_random(tmp_path)
    out = tmp_path / "h.el"
    report = tmp_path / "h.json"
    assert main(
        ["build", "hybrid", "--k", "2", "--seed", "1", "--in", g,
         "--out", str(out), "--report", str(report)]
    ) == 0
    rep = json.loads(report.read_text())
    for key in ("construction", "k", "seed", "size", "size_ratio", "phase_edges"):
        assert key in rep
    vreport = tmp_path / "v.json"
    assert main(
        ["verify", "--graph", g, "--candidate", str(out),
         "--spec", "hybrid:k=2", "--report", str(vreport)]
    ) == 0
    v = json.loads(vreport.read_text())
    assert v["n_violations"] == 0
    assert {c["class"] for c in v["classes"]} == {"adjacent", "nonadjacent"}


def test_hybrid_on_empty_host_exits_0(tmp_path):
    g = tmp_path / "empty.el"
    g.write_text("p 0 0\n")
    out, report, vreport = tmp_path / "h.el", tmp_path / "h.json", tmp_path / "v.json"
    assert main(
        ["build", "hybrid", "--k", "2", "--seed", "1", "--in", str(g),
         "--out", str(out), "--report", str(report)]
    ) == 0
    rep = json.loads(report.read_text())
    assert rep["size"] == 0 and rep["size_ratio"] == 0.0
    assert main(
        ["verify", "--graph", str(g), "--candidate", str(out),
         "--spec", "hybrid:k=2", "--report", str(vreport)]
    ) == 0
    assert json.loads(vreport.read_text())["bound_ratio"] == 0.0


def test_verify_flags_violations_with_exit_2(tmp_path, cycle5):
    from spanlab import dump_graph

    g = tmp_path / "c5.el"
    g.write_text(dump_graph(cycle5))
    broken = tmp_path / "broken.el"
    broken.write_text("p 5 4\n0 1\n1 2\n2 3\n3 4\n")
    assert main(
        ["verify", "--graph", str(g), "--candidate", str(broken), "--spec", "hybrid:k=2"]
    ) == 2


def test_swmult_end_to_end(tmp_path):
    g = _gen_random(tmp_path)
    src = _sources_file(tmp_path, range(8))
    out = tmp_path / "sw.el"
    assert main(
        ["build", "swmult", "--k", "2", "--sources", src, "--seed", "3",
         "--in", g, "--out", str(out)]
    ) == 0
    assert main(
        ["verify", "--graph", g, "--candidate", str(out),
         "--sources", src, "--spec", "swmult:k=2"]
    ) == 0


def test_swadd_end_to_end(tmp_path):
    g = _gen_random(tmp_path)
    src = _sources_file(tmp_path, range(8))
    out = tmp_path / "sa.el"
    report = tmp_path / "sa.json"
    assert main(
        ["build", "swadd", "--k", "1", "--sources", src, "--seed", "2",
         "--retries", "2", "--in", g, "--out", str(out), "--report", str(report)]
    ) == 0
    assert json.loads(report.read_text())["attempts"] >= 1
    assert main(
        ["verify", "--graph", g, "--candidate", str(out),
         "--sources", src, "--spec", "additive:beta=2"]
    ) == 0


def test_swadd_negative_retries_exits_1(tmp_path, capsys):
    g = _gen_random(tmp_path)
    src = _sources_file(tmp_path, range(8))
    out = tmp_path / "sa.el"
    assert main(
        ["build", "swadd", "--k", "1", "--sources", src, "--seed", "2",
         "--retries", "-3", "--in", g, "--out", str(out)]
    ) == 1
    assert "retries" in capsys.readouterr().err
    assert not out.exists()


def test_emulator_end_to_end(tmp_path):
    g = _gen_random(tmp_path)
    src = _sources_file(tmp_path, range(8))
    out = tmp_path / "em.wel"
    assert main(
        ["build", "emulator", "--sources", src, "--in", g, "--out", str(out)]
    ) == 0
    assert (tmp_path / "em.wel").read_text().startswith("e 60 ")
    assert main(
        ["verify", "--graph", g, "--candidate", str(out),
         "--sources", src, "--spec", "emulator:beta=2"]
    ) == 0


def test_sw4_end_to_end(tmp_path):
    g = _gen_random(tmp_path)
    src = _sources_file(tmp_path, range(20))  # 20 >= 60^(2/3)
    out = tmp_path / "s4.el"
    assert main(
        ["build", "sw4", "--sources", src, "--in", g, "--out", str(out)]
    ) == 0
    assert main(
        ["verify", "--graph", g, "--candidate", str(out),
         "--sources", src, "--spec", "additive:beta=4"]
    ) == 0


@pytest.mark.parametrize("size,in_regime", [(20, True), (5, False)])
def test_sw4_reports_its_regime(tmp_path, capsys, size, in_regime):
    g = _gen_random(tmp_path)
    src = _sources_file(tmp_path, range(size))  # 60^(2/3) = 15.3
    report = tmp_path / "s4.json"
    assert main(
        ["build", "sw4", "--sources", src, "--in", g, "--out", str(tmp_path / "s4.el"),
         "--report", str(report)]
    ) == 0
    assert json.loads(report.read_text())["in_regime"] is in_regime
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == (0 if in_regime else 1)
    assert all(line.startswith("warning: sw4 input is outside its intended regime") for line in lines)


# ---------------------------------------------------------------------------
# the adversarial audit
# ---------------------------------------------------------------------------


def _gen_lb(tmp_path):
    paths = {
        "graph": str(tmp_path / "lb.el"),
        "sources": str(tmp_path / "lb.sources"),
        "meta": str(tmp_path / "lb.json"),
    }
    assert main(
        ["gen", "lb", "--r", "16", "--k", "2", "--eps", "1.0",
         "--out", paths["graph"], "--sources", paths["sources"], "--meta", paths["meta"]]
    ) == 0
    return paths


def test_audit_refutes_sparse_candidate(tmp_path):
    paths = _gen_lb(tmp_path)
    g = load_graph((tmp_path / "lb.el").read_text())
    edges = sorted(g.edges)[:60]  # below the |E|/k refutation budget
    cand = tmp_path / "cand.el"
    cand.write_text("p 48 60\n" + "\n".join(f"{u} {v}" for u, v in edges) + "\n")
    report = tmp_path / "audit.json"
    code = main(
        ["audit", "lb", "--graph", paths["graph"], "--meta", paths["meta"],
         "--candidate", str(cand), "--report", str(report)]
    )
    assert code == 2
    rep = json.loads(report.read_text())
    assert rep["certified"] and rep["dist_graph"] <= 2
    assert rep["refutation_budget"] == 64


def test_audit_accepts_full_candidate(tmp_path):
    paths = _gen_lb(tmp_path)
    assert main(
        ["audit", "lb", "--graph", paths["graph"], "--meta", paths["meta"],
         "--candidate", paths["graph"]]
    ) == 0


# ---------------------------------------------------------------------------
# error handling and exit codes
# ---------------------------------------------------------------------------


def test_usage_errors_exit_1(tmp_path, capsys):
    assert main(["gen", "random", "--n", "10"]) == 1  # missing required flags
    assert main(["verify", "--graph", "x", "--candidate", "y", "--spec", "nonsense:z=1"]) == 1
    assert main(["build", "hybrid", "--k", "2", "--seed", "1",
                 "--in", str(tmp_path / "missing.el"), "--out", str(tmp_path / "o.el")]) == 1
    capsys.readouterr()


def test_malformed_graph_exits_1(tmp_path):
    bad = tmp_path / "bad.el"
    bad.write_text("p 2 1\n0 0\n")
    assert main(["build", "hybrid", "--k", "2", "--seed", "1",
                 "--in", str(bad), "--out", str(tmp_path / "o.el")]) == 1


def test_candidate_vertex_count_mismatch_exits_1(tmp_path):
    g = _gen_random(tmp_path)
    other = tmp_path / "other.el"
    other.write_text("p 3 1\n0 1\n")
    assert main(["verify", "--graph", g, "--candidate", str(other), "--spec", "hybrid:k=2"]) == 1


def test_non_host_candidate_exits_1(tmp_path, capsys):
    g = _gen_random(tmp_path)
    host = load_graph(open(g).read()).edges
    u, v = next((u, v) for u in range(60) for v in range(u + 1, 60) if (u, v) not in host)
    rogue = tmp_path / "rogue.el"
    rogue.write_text(f"p 60 1\n{u} {v}\n")
    assert main(["verify", "--graph", g, "--candidate", str(rogue), "--spec", "hybrid:k=2"]) == 1
    assert "not a subgraph" in capsys.readouterr().err


def test_audit_candidate_vertex_count_mismatch_exits_1(tmp_path, capsys):
    paths = _gen_lb(tmp_path)
    g = load_graph((tmp_path / "lb.el").read_text())
    other = tmp_path / "other.el"
    lines = [f"p {g.n + 1} {g.m}"] + [f"{u} {v}" for u, v in sorted(g.edges)]
    other.write_text("\n".join(lines) + "\n")
    assert main(
        ["audit", "lb", "--graph", paths["graph"], "--meta", paths["meta"],
         "--candidate", str(other)]
    ) == 1
    assert "disagree on the vertex count" in capsys.readouterr().err


def test_help_exits_0(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()


def test_bench_fast_smoke(tmp_path, capsys):
    out = tmp_path / "bench.json"
    assert main(["bench", "--fast", "--json", str(out)]) == 0
    text = capsys.readouterr().out
    assert "criterion 9" in text
    payload = json.loads(out.read_text())
    assert len(payload["criteria"]) == 9
    assert all(c["passed"] for c in payload["criteria"])
    # the whole --json file, byte for byte
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "c7950d7caa2f3324df39a66caee829704409a82e4170d63261c6cbe47206e1cb"
    )


# ---------------------------------------------------------------------------
# the CLI surface: which flags each builder takes, and the verify bound ratios
# ---------------------------------------------------------------------------

# every required flag of each build subcommand besides --in and --out;
# None stands for the sources file
BUILD_FLAGS = {
    "hybrid": {"--k": "2", "--seed": "1"},
    "swmult": {"--k": "2", "--sources": None, "--seed": "3"},
    "swadd": {"--k": "1", "--sources": None, "--seed": "2"},
    "emulator": {"--sources": None},
    "sw4": {"--sources": None},
}


@pytest.fixture(scope="module")
def surface(tmp_path_factory):
    """A 60-vertex host with 20 sources, enough for the +4 regime n^(2/3)."""
    d = tmp_path_factory.mktemp("surface")
    return _gen_random(d), _sources_file(d, range(20)), d


def _build_argv(surface, builder, drop=None, extra=()):
    g, src, d = surface
    flags = {**BUILD_FLAGS[builder], "--in": g, "--out": str(d / f"{builder}.out")}
    argv = ["build", builder]
    for flag, value in flags.items():
        if flag != drop:
            argv += [flag, src if value is None else value]
    return argv + list(extra)


@pytest.mark.parametrize(
    "builder,flag", [(b, f) for b, flags in BUILD_FLAGS.items() for f in [*flags, "--in", "--out"]]
)
def test_build_without_a_required_flag_exits_1(surface, builder, flag, capsys):
    assert main(_build_argv(surface, builder, drop=flag)) == 1
    assert flag in capsys.readouterr().err


@pytest.mark.parametrize("builder", list(BUILD_FLAGS))
def test_build_optional_flags(surface, builder, capsys):
    assert main(_build_argv(surface, builder)) == 0
    assert main(_build_argv(surface, builder, extra=["--retries", "1"])) == (
        0 if builder == "swadd" else 1
    )
    if "--seed" not in BUILD_FLAGS[builder]:
        assert main(_build_argv(surface, builder, extra=["--seed", "1"])) == 1
    capsys.readouterr()


@pytest.fixture(scope="module")
def built(surface):
    """Output file of every builder on the surface host, and the host."""
    for builder in BUILD_FLAGS:
        assert main(_build_argv(surface, builder)) == 0
    return {"host": surface[0], **{b: str(surface[2] / f"{b}.out") for b in BUILD_FLAGS}}


@pytest.mark.parametrize(
    "builder,spec,bound",
    [
        # the nominal size bound at n = 60 as a function of the source exponent
        ("hybrid", "hybrid:k=2", lambda eps: 4 * 60 ** 1.5),
        ("swmult", "swmult:k=2", lambda eps: 4 * 60 ** (1 + eps / 2)),
        # an additive candidate may come from swadd or sw4, whose bounds differ
        ("swadd", "additive:beta=2", None),
        ("host", "additive:beta=0", None),
        ("swadd", "additive:beta=3", None),
        ("swadd", "additive:beta=4", None),
        ("sw4", "additive:beta=4", None),
        ("swadd", "subsetwise:beta=2", None),
        ("emulator", "emulator:beta=2", lambda eps: 60 ** (1 + eps / 2)),
    ],
)
def test_verify_bound_ratio(surface, built, builder, spec, bound):
    g, src, d = surface
    report = d / "verify.json"
    assert main(
        ["verify", "--graph", g, "--candidate", built[builder], "--sources", src,
         "--spec", spec, "--report", str(report)]
    ) == 0
    rep = json.loads(report.read_text())
    if bound is None:
        assert rep["bound_ratio"] is None
    else:
        eps = SourceSet.from_ids(range(20), 60).epsilon
        assert rep["bound_ratio"] == pytest.approx(rep["size"] / bound(eps), rel=1e-12)


@pytest.mark.parametrize(
    "spec,name", [("hybrid:kk=2", "'kk'"), ("hybrid:k=2,kk=9", "'kk'"), ("hybrid:k=2,k=3", "'k'")]
)
def test_verify_rejects_unknown_and_repeated_spec_parameters(surface, built, spec, name, capsys):
    g, _, _ = surface
    assert main(["verify", "--graph", g, "--candidate", built["hybrid"], "--spec", spec]) == 1
    assert name in capsys.readouterr().err


def test_sources_file_with_an_id_out_of_range_exits_1(surface, built, capsys):
    g, _, d = surface
    far = _sources_file(d, [0, 75, 1, 90], name="far.txt")  # the host has 60 vertices
    for argv in (
        ["build", "swmult", "--k", "2", "--sources", far, "--seed", "3", "--in", g,
         "--out", str(d / "far.el")],
        ["verify", "--graph", g, "--candidate", built["swadd"], "--sources", far,
         "--spec", "additive:beta=2"],
    ):
        assert main(argv) == 1
        assert "root 75 out of range [0,60)" in capsys.readouterr().err
    assert not (d / "far.el").exists()


def test_verify_emulator_negative_beta_exits_1(surface, built, capsys):
    g, src, _ = surface
    assert main(
        ["verify", "--graph", g, "--candidate", built["emulator"], "--sources", src,
         "--spec", "emulator:beta=-1"]
    ) == 1
    assert "beta must be >= 0" in capsys.readouterr().err


def test_swadd_long_violations_exit_2(tmp_path, monkeypatch, capsys):
    # no sampled trees and no bought paths leave long pairs above +2 on
    # this host (tests/test_additive.py::test_long_check_counts_pairs_beyond_plus_2k)
    from types import SimpleNamespace

    from spanlab import additive, dump_graph
    from test_additive import _hub_chain

    g = _hub_chain(spine=12, hub_leaves=20, spine_leaves=18)
    host = tmp_path / "chain.el"
    host.write_text(dump_graph(g))
    no_draws = SimpleNamespace(random=lambda size: np.ones(size))
    monkeypatch.setattr(additive, "subrng", lambda *labels: no_draws)
    monkeypatch.setattr(
        additive, "_buy_short_paths",
        lambda g, sources, dist, parents, short, gc, base, params: (
            base, {"edges_bought": 0, "levels": []}
        ),
    )
    out, report = tmp_path / "sa.el", tmp_path / "sa.json"
    assert main(
        ["build", "swadd", "--k", "1", "--sources", _sources_file(tmp_path, range(g.n)),
         "--seed", "0", "--in", str(host), "--out", str(out), "--report", str(report)]
    ) == 2
    rep = json.loads(report.read_text())
    assert rep["long_violations"] > 0 and out.exists()
    warning = f"{rep['long_violations']} long pairs above +2 after 1 attempts"
    assert warning in capsys.readouterr().err
