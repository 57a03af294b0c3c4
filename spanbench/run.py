"""spanlab benchmark entry point: one workload (or all of them) per call.

    python3 spanbench/run.py --workload spanners_unweighted --seed 1 --seconds 55 --trace 0
    python3 spanbench/run.py --workload all --seed 1

Run from the repository root.  Each run starts fresh interpreters with
``src`` on ``PYTHONPATH`` (nothing is installed): three that only set the
workload up, then one that sets it up again and measures.  ``setup_s`` is
the median of the four set-up times.  With ``--trace 0`` the metrics are the
end-to-end metrics of ``BENCHMARK.json``; with ``--trace 1`` they are its
per-layer metrics.  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the full
record of the run goes to ``spanbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
SETUP_PROBES = 3
TIME_LIMIT_S = 170.0  # a run must end within 180 s

# Closed loop on one thread: native libraries must not spread out either.
SINGLE_THREAD = {
    name: "1"
    for name in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
    )
}


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.update(SINGLE_THREAD)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def call_worker(args: list[str], deadline: float) -> dict:
    """Run worker.py in a fresh interpreter; return its last-line JSON."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a worker")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), *args],
            cwd=ROOT,
            env=child_env(),
            stdout=subprocess.PIPE,
            timeout=timeout,
            text=True,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {args} ran past the time limit") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker {args} exited with code {proc.returncode}")
    return json.loads(lines[-1])


def run_workload(spec: dict, workload: str, seed: int, seconds: float, trace: int) -> dict:
    deadline = time.monotonic() + TIME_LIMIT_S
    base = ["--workload", workload, "--seed", str(seed)]
    setups = [
        call_worker(base + ["--setup-only"], deadline)["setup_s"]
        for _ in range(SETUP_PROBES)
    ]
    result = call_worker(
        base + ["--seconds", str(seconds), "--trace", str(trace)], deadline
    )
    setups.append(result["setup_s"])
    result["setup_samples_s"] = setups

    correct = result["failed"] == 0 and result["digests_stable"]
    if trace:
        correct = correct and result["digests_match"] and result["self_sum_ok"]
        names = [m["name"] for m in spec["per_layer"]]
        metrics = {name: result["metrics"][name] for name in names}
    else:
        values = {
            "setup_s": (statistics.median(setups), "s"),
            "build_s": (result["build_s"], "s"),
            "verify_s": (result["verify_s"], "s"),
            "total_s": (result["total_s"], "s"),
            "peak_rss_mb": (result["peak_rss_mb"], "MB"),
            "kept_frac": (result["kept_frac"], "ratio"),
        }
        metrics = {
            m["name"]: {"value": values[m["name"]][0], "unit": m["unit"]}
            for m in spec["end_to_end"]
        }
    result.update(
        {
            "workload": workload,
            "seed": seed,
            "seconds": seconds,
            "trace": trace,
            "correct": correct,
            "failed_frac": result["failed"] / result["attempted"],
            "reported": metrics,
        }
    )
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{workload}-seed{seed}-trace{trace}.json"
    out.write_text(json.dumps(result, indent=1) + "\n")
    return result


def show(result: dict) -> None:
    """Human-readable lines; the machine-readable line comes last."""
    w = result["workload"]
    print(f"== {w}  seed={result['seed']}  trace={result['trace']}  "
          f"iterations={result['iterations']}  digest={result['digest'][:16]}")
    for name, m in result["reported"].items():
        print(f"  {name:<48} {m['value']:>16.10g} {m['unit']}")
    print(f"  {'failed_frac':<48} {result['failed_frac']:>16.10g} ratio  "
          f"({result['failed']} of {result['attempted']} instances)")
    if result["trace"]:
        ratios = ", ".join(f"{r:.4f}" for r in result["self_sum_over_wall"])
        print(f"  tracing overhead {result['overhead_s']:+.4f} s on total_s "
              f"(mean of {result['traced_iterations']} traced iterations "
              f"{result['traced_total_s']:.4f} s, of {result['untraced_iterations']} "
              f"untraced {result['untraced_total_s']:.4f} s)")
        print(f"  self-time sum / traced wall: {ratios}; "
              f"traced digests match untraced: {result['digests_match']}")
    else:
        print(f"  setup samples (s): "
              + ", ".join(f"{s:.4f}" for s in result["setup_samples_s"]))
    for err in result["errors"]:
        print(f"  error: {err}")


def main(argv=None) -> int:
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "spanlab" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"spanbench: no spanlab sources under {ROOT}/src", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    names = [w["name"] for w in spec["workloads"]]

    ap = argparse.ArgumentParser(description="spanlab build-and-certify benchmark")
    ap.add_argument("--workload", required=True, choices=names + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    try:
        if args.workload != "all":
            result = run_workload(spec, args.workload, args.seed, args.seconds, args.trace)
            show(result)
            summary = {k: result[k] for k in ("correct", "attempted", "failed")}
            summary["metrics"] = result["reported"]
        else:
            # every workload untraced, then traced; metric names get the
            # workload as prefix
            summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
            for name in names:
                for trace in (0, 1):
                    result = run_workload(spec, name, args.seed, args.seconds, trace)
                    show(result)
                    summary["correct"] = summary["correct"] and result["correct"]
                    summary["attempted"] += result["attempted"]
                    summary["failed"] += result["failed"]
                    for metric, m in result["reported"].items():
                        summary["metrics"][f"{name}.{metric}"] = m
    except BenchError as exc:
        print(f"spanbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
