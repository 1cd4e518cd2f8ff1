"""table1-batch: one near-threshold Table 1 cell per op, on the batched backend.

An op is ``run_table1_cell(1000, 0.75, trials=256, backend="batched")``:
256 small graphs just below c*_{2,4} ~ 0.772, about 23 rounds each and a
tenth of the trials failing, so the time goes to per-round dispatch of the
lockstep engine and to the sweep scheduler around it.  This is the only
workload that reaches ``engine.batched`` / ``kernels.batched`` and
``sweeps``.

Each op's cell seed is drawn from a pool of ``POOL`` seeds whose
serial-backend rows are computed during set-up; an op's row must equal the
serial row of its seed.  Graphs are generated afresh inside every op.
"""

from __future__ import annotations

import time

from harness import OpOutcome, Report, closed_loop, counter_window_means, op_seed
from harness import sequential_report, timed_attribute

NAME = "table1-batch"
N, C, TRIALS = 1000, 0.75, 256
POOL = 8
WARMUP = 2
COUNTER_OPS = 16


def _pool_seed(seed: int, index: int) -> int:
    return op_seed(seed, NAME, index % POOL)


def _reference_rows(seed: int):
    """Serial-backend rows of the seed pool; each row is one set-up unit."""
    from repro.experiments.table1 import run_table1_cell
    from repro.kernels import DEFAULT_KERNEL

    # run_table1_cell takes no kernel argument; it peels with the default.
    if DEFAULT_KERNEL != "numpy":
        raise RuntimeError(f"table1-batch expects the numpy kernel, default is {DEFAULT_KERNEL}")
    rows, timings = [], []
    for slot in range(POOL):
        started = time.perf_counter()
        rows.append(
            run_table1_cell(N, C, trials=TRIALS, backend="serial", seed=_pool_seed(seed, slot))
        )
        timings.append(time.perf_counter() - started)
    return rows, timings


def _op(seed: int, reference):
    import repro.engine
    import repro.experiments.table1 as table1

    def op(index: int, traced: bool) -> OpOutcome:
        cell_seed = _pool_seed(seed, index)
        generate, peel_many = [], []
        started = time.perf_counter()
        if traced:
            with timed_attribute(table1, "random_hypergraph", generate), timed_attribute(
                repro.engine, "peel_many", peel_many
            ):
                row = table1.run_table1_cell(N, C, trials=TRIALS, backend="batched", seed=cell_seed)
        else:
            row = table1.run_table1_cell(N, C, trials=TRIALS, backend="batched", seed=cell_seed)
        elapsed = time.perf_counter() - started
        layers = {}
        if traced:
            layers = {
                "hypergraph.generate_ms": 1e3 * sum(generate),
                "engine.peel_many_ms": 1e3 * sum(peel_many),
                "sweeps.self_ms": 1e3 * (elapsed - sum(generate) - sum(peel_many)),
            }
        ok = row == reference[index % POOL]
        return OpOutcome(elapsed, ok, [row.avg_rounds, row.failed], layers)

    return op


def run(seed: int, seconds: float, trace: bool) -> Report:
    reference, setup = _reference_rows(seed)
    loop = closed_loop(
        _op(seed, reference), seconds=seconds, warmup=WARMUP, counter_ops=COUNTER_OPS,
        trace=trace,
    )
    avg_rounds, failed_trials = counter_window_means(loop.counters, COUNTER_OPS)
    return sequential_report(
        loop,
        setup_s=setup,
        per_layer={"experiments.avg_rounds": avg_rounds, "experiments.failed_trials": failed_trials},
        traced_layers=("hypergraph.generate_ms", "engine.peel_many_ms", "sweeps.self_ms"),
        trace=trace,
    )
