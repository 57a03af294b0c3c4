"""Self-tests of the benchmark: the correctness gate can fail, the tracer
sees intra-module calls and restores every binding, and run.py refuses
to run without the spanlab sources.

    python3 -m pytest -q spanbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import spanlab as sl  # noqa: E402
import spans  # noqa: E402
from spans import Instrumented, Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS, Instance, output_digest, run_instance  # noqa: E402


@pytest.fixture(scope="module")
def connected():
    g = sl.random_graph(48, 0.25, 3)
    assert min(sl.bfs_distances(g, [0])) >= 0
    return g


def _instance(g, build):
    return Instance(
        label="t",
        host_edges=g.m,
        build=build,
        check=lambda h: sl.verify_spanner(g, h, None, sl.hybrid_spec(2)),
    )


def test_gate_counts_empty_spanner_as_failed(connected):
    empty = sl.Spanner(n=connected.n, edges=frozenset())
    outcome = run_instance(_instance(connected, lambda: empty))
    assert not outcome.ok
    assert "violations" in outcome.error


def test_gate_counts_empty_emulator_as_failed(connected):
    sources = sl.SourceSet.from_ids(range(4), connected.n)
    inst = Instance(
        label="t",
        host_edges=connected.m,
        build=lambda: sl.Emulator(connected.n, []),
        check=lambda h: sl.verify_emulator(connected, h, sources.vertices, 2),
    )
    assert not run_instance(inst).ok


def test_gate_counts_raising_builder_as_failed(connected):
    def broken():
        raise RuntimeError("boom")

    outcome = run_instance(_instance(connected, broken))
    assert not outcome.ok and "boom" in outcome.error


def test_gate_passes_real_builder(connected):
    outcome = run_instance(_instance(connected, lambda: sl.build_hybrid(connected, 2, 1)))
    assert outcome.ok and outcome.kept > 0


def test_digest_is_stable_and_tells_outputs_apart(connected):
    h = sl.build_hybrid(connected, 2, 1)
    assert output_digest(h) == output_digest(sl.build_hybrid(connected, 2, 1))
    assert output_digest(h) != output_digest(sl.Spanner(n=h.n, edges=frozenset()))
    em = sl.Emulator(3, [(0, 1, 1), (1, 2, 2)])
    assert output_digest(em) != output_digest(sl.Emulator(3, [(0, 1, 1), (1, 2, 1)]))


def test_tracer_sees_internal_lookups_and_restores(connected):
    originals = (sl.bfs_distances, sl.path_suffix, sl.graphs.Graph, sl.Graph.__init__)
    tracer = Tracer()
    sources = sl.SourceSet.from_ids(range(6), connected.n)
    with Instrumented(tracer) as inst:
        assert inst.skipped == []
        assert sl.graphs.Graph is originals[2]
        with tracer.span("root"):
            sl.build_hybrid(connected, 2, 1)
            sl.build_sourcewise_mult(connected, sources, 2, 1)
        calls = {name: entry[0] for name, entry in tracer.stats.items()}
    # hybrid reaches bfs_distances through its local dist_from closure and
    # sourcewise calls its re-imported path_suffix
    assert calls["graphs.bfs_distances"] > 0
    assert calls["hybrid.path_suffix"] > 0
    assert calls["sourcewise.build_sourcewise_mult"] == 1
    assert (sl.bfs_distances, sl.path_suffix, sl.graphs.Graph, sl.Graph.__init__) == originals
    assert sl.hybrid.bfs_distances is originals[0]


def test_self_times_sum_to_root_span(connected):
    tracer = Tracer()
    tracer.keep_spans = True
    with Instrumented(tracer):
        with tracer.span("root"):
            h = sl.build_hybrid(connected, 2, 1)
            sl.verify_spanner(connected, h, None, sl.hybrid_spec(2))
    root = tracer.stats["root"][2]
    assert tracer.self_time_sum() == pytest.approx(root, rel=1e-9)
    ids = {s[0] for s in tracer.spans}
    assert all(s[1] == 0 or s[1] in ids for s in tracer.spans)
    metrics = layer_metrics(tracer)
    assert metrics["verify.verify_spanner.cells"][0] == connected.n * connected.n
    assert metrics["graphs.hop_distance_matrix.rows"][0] == 2 * connected.n


def test_missing_target_is_skipped(monkeypatch, connected):
    monkeypatch.setattr(
        spans, "TARGETS", spans.TARGETS + [("graphs", "no_such_function", "graphs.gone")]
    )
    with Instrumented(Tracer()) as inst:
        sl.build_hybrid(connected, 2, 1)
    assert inst.skipped == ["graphs.no_such_function"]


def test_inputs_follow_the_seed():
    for make in WORKLOADS.values():
        first = [i.host_edges for i in make(5)]
        assert first == [i.host_edges for i in make(5)]
        assert first != [i.host_edges for i in make(6)]


def test_run_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "spanbench", ignore=shutil.ignore_patterns("results"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, *spec["command"][1:], "--workload", "emulator_weighted",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
