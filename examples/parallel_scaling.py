#!/usr/bin/env python3
"""Round scaling of parallel peeling: O(log log n) below vs Ω(log n) above.

This example measures, on real random hypergraphs, the quantity at the heart
of the paper: how the number of parallel peeling rounds grows with n on both
sides of the threshold, and how the simulated parallel machine translates
that into end-to-end speedup over the serial baseline.

Run with:  python examples/parallel_scaling.py          (quick, ~30s)
           python examples/parallel_scaling.py --full   (larger sweep)
"""

from __future__ import annotations

import math
import sys

from repro import ParallelMachine, peel_many, random_hypergraph
from repro.analysis import peeling_threshold, rounds_below_threshold
from repro.utils.tables import Table, format_float


def main() -> None:
    full = "--full" in sys.argv
    k, r = 2, 4
    c_star = peeling_threshold(k, r)
    sizes = [10_000, 40_000, 160_000, 640_000] if full else [10_000, 40_000, 160_000]
    densities = [0.70, 0.85]
    trials = 3

    machine = ParallelMachine(num_threads=4096)
    print(f"k={k}, r={r}, threshold c* = {c_star:.4f}; {trials} trials per point\n")

    for c in densities:
        regime = "below" if c < c_star else "above"
        table = Table(
            ["n", "log log n", "log n", "avg rounds", "Theorem-1 leading term", "simulated speedup"],
            title=f"c = {c} ({regime} threshold)",
        )
        for n in sizes:
            graphs = [random_hypergraph(n, c, r, seed=1000 * trial + n) for trial in range(trials)]
            # Batched front door: one call peels every trial graph, dispatched
            # over the thread-pool backend.
            results = peel_many(graphs, "parallel", k=k, backend="threads", max_workers=trials)
            rounds = [result.num_rounds for result in results]
            speedups = [
                machine.time_recovery(result, num_cells=n, edge_size=r).speedup
                for result in results
            ]
            leading = rounds_below_threshold(n, k, r) if c < c_star else float("nan")
            table.add_row(
                n,
                format_float(math.log(math.log(n)), 2),
                format_float(math.log(n), 2),
                format_float(sum(rounds) / len(rounds), 2),
                format_float(leading, 2) if c < c_star else "-",
                format_float(sum(speedups) / len(speedups), 1) + "x",
            )
        print(table.render())
        print()

    print("Below the threshold the round count tracks log log n (it barely moves "
          "across a 16-64x range of n) while above the threshold it tracks log n; "
          "correspondingly the parallel speedup is larger below the threshold, the "
          "asymmetry Section 1 calls 'particularly fortuitous'.")


if __name__ == "__main__":
    main()
