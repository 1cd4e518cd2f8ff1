"""iblt-stream: churn a million-key IBLT and checkpoint its incremental decode.

Set-up inserts 1e6 keys into an ``IBLT`` with r=3 at load 0.7 and
bootstraps ``decode(incremental=True, decoder="flat")``.  Each op then
deletes 1,000 live keys, inserts 1,000 fresh ones (the set size stays
fixed) and runs one incremental checkpoint: the write path of the ``iblt``
layer.  The checkpoint's recovered keys must equal the maintained current
set exactly.
"""

from __future__ import annotations

import time

import numpy as np

from harness import OpOutcome, Report, closed_loop, counter_window_means, median, op_rng
from harness import op_seed, sequential_report

NAME = "iblt-stream"
KEYS, R, LOAD = 1_000_000, 3, 0.7
CHURN = 1_000
NUM_CELLS = R * int(np.ceil(KEYS / LOAD / R))
WARMUP = 8
COUNTER_OPS = 64
SETUP_REPEATS = 3
KEY_HIGH = np.uint64(1) << np.uint64(63)


def _fresh_keys(rng: np.random.Generator, count: int, live: np.ndarray) -> np.ndarray:
    """``count`` distinct non-zero keys, sorted, none of them in sorted ``live``."""
    while True:
        keys = np.unique(rng.integers(1, KEY_HIGH, size=count, dtype=np.uint64))
        if keys.size < count:
            continue
        at = np.minimum(np.searchsorted(live, keys), live.size - 1)
        if live.size == 0 or not (live[at] == keys).any():
            return keys


def _decode(table):
    return table.decode(decoder="flat", incremental=True, kernel="numpy")


def _verified(result, live: np.ndarray) -> bool:
    return bool(
        result.success and result.removed.size == 0 and np.array_equal(result.recovered, live)
    )


def _setup_unit(seed: int):
    """Build the table and bootstrap its session; returns (table, live, timings)."""
    from repro import IBLT

    live = _fresh_keys(op_rng(seed, NAME + "/keys", 0), KEYS, np.empty(0, np.uint64))
    table = IBLT(NUM_CELLS, R, seed=op_seed(seed, NAME + "/hash", 0))
    started = time.perf_counter()
    table.insert(live)
    built = time.perf_counter()
    result = _decode(table)
    decoded = time.perf_counter()
    if not _verified(result, live):
        raise RuntimeError("bootstrap decode did not recover the inserted keys")
    return table, live, {"build": built - started, "decode": decoded - built}


def run(seed: int, seconds: float, trace: bool) -> Report:
    setup = []
    for _ in range(SETUP_REPEATS):
        table = live = None  # free the previous table before building the next
        table, live, timing = _setup_unit(seed)
        setup.append(timing)
    holder = {"live": live}

    def op(index: int, traced: bool) -> OpOutcome:
        rng = op_rng(seed, NAME, index)
        current = holder["live"]
        doomed = np.sort(rng.choice(current.size, CHURN, replace=False))
        victims = current[doomed]
        fresh = _fresh_keys(rng, CHURN, current)
        started = time.perf_counter()
        table.delete(victims)
        table.insert(fresh)
        mutated = time.perf_counter()
        result = _decode(table)
        elapsed = time.perf_counter() - started
        kept = np.delete(current, doomed)
        holder["live"] = np.insert(kept, np.searchsorted(kept, fresh), fresh)
        layers = {}
        if traced:
            layers = {
                "iblt.mutate_ms": 1e3 * (mutated - started),
                "iblt.checkpoint_ms": 1e3 * (started + elapsed - mutated),
            }
        counters = [
            result.rounds_incremental,
            result.cells_scanned,
            float(result.resumed_from_round == 0),
        ]
        return OpOutcome(elapsed, _verified(result, holder["live"]), counters, layers)

    loop = closed_loop(op, seconds=seconds, warmup=WARMUP, counter_ops=COUNTER_OPS, trace=trace)
    rounds, cells, rebootstraps = counter_window_means(loop.counters, COUNTER_OPS)
    per_layer = {
        "iblt.build_s": median([t["build"] for t in setup]),
        "iblt.bootstrap_decode_s": median([t["decode"] for t in setup]),
        "iblt.rounds_incremental": rounds,
        "iblt.cells_scanned": cells,
        "iblt.rebootstrap_share": rebootstraps,
    }
    return sequential_report(
        loop,
        setup_s=[t["build"] + t["decode"] for t in setup],
        per_layer=per_layer,
        traced_layers=("iblt.mutate_ms", "iblt.checkpoint_ms"),
        trace=trace,
    )
