"""One benchmark process: set up one workload, then build and certify its
instances in a closed loop for a fixed time.

Run by ``run.py`` in a fresh interpreter per workload, with ``src`` on
``PYTHONPATH`` and BLAS/OpenMP threads pinned to 1.  The last line of
standard output is one JSON object for ``run.py``.

    python3 spanbench/worker.py --workload NAME --seed N --seconds S --trace 0|1
    python3 spanbench/worker.py --workload NAME --seed N --setup-only
"""

import time

_START = time.perf_counter()  # set-up time counts from here: imports included

import argparse
import gzip
import json
import os
import platform
import resource
import statistics
import sys

import numpy
import scipy

import spanlab as sl
from spans import Instrumented, Tracer, layer_metrics
from workloads import WORKLOADS, run_instance, workload_digest

RESULTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "results")


def setup(workload: str, seed: int):
    """First scipy call, graph generation and source-set construction."""
    sl.hop_distance_matrix(sl.Graph(2, [(0, 1)]), [0])
    return WORKLOADS[workload](seed)


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "spanlab": getattr(sl, "__version__", "unknown"),
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
    }


def iterate(instances, span=None) -> dict:
    """Build and check every instance once."""
    outcomes = [run_instance(inst, span) for inst in instances]
    build = sum(o.build_s for o in outcomes)
    verify = sum(o.verify_s for o in outcomes)
    return {
        "build_s": build,
        "verify_s": verify,
        "total_s": build + verify,
        "outcomes": [o.__dict__ for o in outcomes],
        "digest": workload_digest([o.digest for o in outcomes]),
    }


def keep_going(start: float, done: int, seconds: float) -> bool:
    """Start another iteration only if it should end within the budget."""
    elapsed = time.perf_counter() - start
    return elapsed + elapsed / done <= seconds


def summarize(iterations: list[dict], instances) -> dict:
    outcomes = [o for it in iterations for o in it["outcomes"]]
    host = sum(inst.host_edges for inst in instances)
    kept = sum(o["kept"] for o in iterations[0]["outcomes"])
    return {
        "iterations": len(iterations),
        # means, so that the times are per iteration over the whole run
        "build_s": statistics.mean(it["build_s"] for it in iterations),
        "verify_s": statistics.mean(it["verify_s"] for it in iterations),
        "total_s": statistics.mean(it["total_s"] for it in iterations),
        "kept_frac": kept / host,
        "attempted": len(outcomes),
        "failed": sum(1 for o in outcomes if not o["ok"]),
        "digest": iterations[0]["digest"],
        "digests_stable": len({it["digest"] for it in iterations}) == 1,
        "errors": sorted({o["error"] for o in outcomes if o["error"]}),
    }


def untraced_run(instances, seconds: float) -> dict:
    start = time.perf_counter()
    iterations = [iterate(instances)]
    while keep_going(start, len(iterations), seconds):
        iterations.append(iterate(instances))
    result = summarize(iterations, instances)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["per_iteration"] = [
        {k: it[k] for k in ("build_s", "verify_s", "total_s")} for it in iterations
    ]
    result["instances"] = [
        {"label": o["label"], "ok": o["ok"], "error": o["error"],
         "build_s": o["build_s"], "verify_s": o["verify_s"],
         "kept": o["kept"], "host_edges": inst.host_edges, "digest": o["digest"]}
        for o, inst in zip(iterations[0]["outcomes"], instances)
    ]
    return result


def traced_run(instances, seconds: float, spans_path: str) -> dict:
    """Untraced iterations for the first half of the budget, traced ones for
    the rest.  Per-layer metrics are medians over the traced iterations; the
    spans of the first traced iteration are written out."""
    start = time.perf_counter()
    untraced = [iterate(instances)]
    while keep_going(start, len(untraced), seconds / 2):
        untraced.append(iterate(instances))
    untraced_total = statistics.mean(it["total_s"] for it in untraced)
    tracer = Tracer()
    traced: list[dict] = []
    layers: list[dict] = []
    with Instrumented(tracer) as inst:
        while not traced or keep_going(start, len(untraced) + len(traced), seconds):
            tracer.reset()
            tracer.keep_spans = not traced
            t0 = time.perf_counter()
            with tracer.span("bench.iteration"):
                it = iterate(instances, tracer.span)
            it["traced_wall_s"] = time.perf_counter() - t0
            it["self_sum_s"] = tracer.self_time_sum()
            traced.append(it)
            layers.append(layer_metrics(tracer))
    skipped = inst.skipped

    metrics = {
        name: {"value": statistics.median(m[name][0] for m in layers), "unit": unit}
        for name, (_, unit) in layers[0].items()
    }
    result = summarize(untraced + traced, instances)
    traced_total = statistics.mean(it["total_s"] for it in traced)
    self_ratio = [it["self_sum_s"] / it["traced_wall_s"] for it in traced]
    result.update(
        {
            "metrics": metrics,
            "untraced_total_s": untraced_total,
            "traced_total_s": traced_total,
            "overhead_s": traced_total - untraced_total,
            "untraced_iterations": len(untraced),
            "traced_iterations": len(traced),
            "self_sum_over_wall": self_ratio,
            "self_sum_ok": all(abs(r - 1.0) <= 0.05 for r in self_ratio),
            "digests_match": all(it["digest"] == untraced[0]["digest"] for it in traced),
            "skipped_targets": skipped,
        }
    )
    write_spans(tracer.spans, spans_path)
    result["spans_file"] = os.path.relpath(spans_path)
    return result


def write_spans(spans: list[tuple], path: str) -> None:
    """Gzipped JSON, one column per field; times in integer nanoseconds
    from the first span's start, names as indices into ``names``."""
    t0 = min((s[3] for s in spans), default=0.0)
    names = sorted({s[2] for s in spans})
    index = {name: i for i, name in enumerate(names)}
    doc = {
        "t0_perf_counter_s": t0,
        "names": names,
        "id": [s[0] for s in spans],
        "parent_id": [s[1] for s in spans],
        "name": [index[s[2]] for s in spans],
        "start_ns": [round((s[3] - t0) * 1e9) for s in spans],
        "end_ns": [round((s[4] - t0) * 1e9) for s in spans],
    }
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with gzip.open(path, "wt") as fh:
        json.dump(doc, fh)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    instances = setup(args.workload, args.seed)
    setup_s = time.perf_counter() - _START
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    if args.trace:
        spans_path = os.path.join(
            RESULTS, f"{args.workload}-seed{args.seed}-spans.json.gz"
        )
        result = traced_run(instances, args.seconds, spans_path)
    else:
        result = untraced_run(instances, args.seconds)
    result["setup_s"] = setup_s
    result["environment"] = environment()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
