#!/usr/bin/env python3
"""Why +2k-1 additive approximation needs many edges: the layered family.

Generates the layered instance, then plays adversary: any candidate keeping
fewer than |E|/k edges is refuted by a chain of missing level edges whose
endpoints drift from distance k to at least 3k.

Usage: python demos/lowerbound_audit.py
"""

import numpy as np

from spanlab import Spanner, build_lb_graph, lb_audit


def main():
    print("=" * 70)
    print("  LAYERED LOWER-BOUND INSTANCES + ADVERSARIAL AUDIT")
    print("=" * 70)

    for r, k, eps in [(16, 2, 1.0), (8, 3, 1.0), (16, 2, 0.5)]:
        lg = build_lb_graph(r, k, eps)
        g = lg.graph
        budget = g.m // k
        print(
            f"\n  r={r}, k={k}, eps={eps}: widths ({lg.width1},{lg.width2}), "
            f"levels {lg.level_sizes}, n={g.n}, m={g.m}"
        )
        print(f"  refutation budget: any candidate with < {budget} edges is doomed")

        rng = np.random.default_rng(100 * r + k)
        refuted = 0
        sample = None
        for trial in range(10):
            keep = rng.choice(g.m, size=budget - 1, replace=False)
            h = Spanner(g.n, g.codes[keep], {})
            report = lb_audit(lg, h)
            if report["certified"]:
                refuted += 1
                sample = report
        print(f"  random candidates at budget-1 edges refuted: {refuted}/10")
        if sample:
            w = sample["witness"]
            far = sample["dist_candidate"]
            print(
                f"  sample witness {w[0]} -> {w[1]}: graph distance "
                f"{sample['dist_graph']}, candidate distance "
                f"{far if far is not None else 'unreachable'} (needed < {sample['dist_graph'] + 2 * k})"
            )

        full = lb_audit(lg, Spanner(g.n, g.codes, {}))
        print(f"  full graph as candidate: certified={full['certified']} (no chain exists)")


if __name__ == "__main__":
    main()
