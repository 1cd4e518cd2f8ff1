"""Perf-trajectory benchmark harness: engines × kernel backends × workloads.

This module seeds the repo's performance trajectory: every run times the
three peeling engines and the parallel IBLT decoders on every registered
kernel backend and writes the wall-clock numbers to a JSON file
(``BENCH_kernels.json`` by default), so successive PRs can diff like for
like.  It is reachable three ways:

* ``repro bench`` (the CLI sub-command; ``--quick`` for a seconds-long smoke
  run used by CI),
* ``python benchmarks/bench_kernels.py`` from a checkout,
* :func:`run_benchmarks` programmatically.

The benchmark matrix is declared as a :class:`repro.sweeps.SweepSpec`
(:func:`bench_spec`) — one single-trial cell per (section, workload, kernel,
size) — and executed on the :func:`repro.sweeps.run_sweep` scheduler, always
serially (timing cells in parallel would corrupt each other's wall clocks);
what the sweep layer buys here is the shared progress/artifact machinery.

Timing methodology: each cell first warms its kernel backend up
(``get_kernel`` + ``warmup()``, so one-time C compile+dlopen
costs never leak into the timings; the warm-up cost itself is reported per
record as ``compile_ms``), then builds its workload from its cell seed
(generation is not timed), then runs it ``repeats`` times; the *best*
wall-clock time is reported, which is the standard way to suppress scheduler
noise for sub-second kernels.  ``compare_payloads`` diffs two result files
per (section, workload, kernel, size) and flags regressions past a
tolerance — ``repro bench --compare BASELINE.json`` exits non-zero on any,
except in sections marked informational via ``--informational-section``
(used by CI for hardware-bound baselines such as ``serve``).

The ``batched`` section times the same batch of small graphs through the
per-graph loop and through the fused lockstep path
(``peel_many(..., backend="batched")``) at several batch sizes; both
produce bit-identical results, so the ratio isolates dispatch structure.
The ``serve`` section runs the decode service end-to-end (in-process
server on a loopback socket, one multiplexed client firing concurrent
requests) at several ``--batch-window-ms`` settings and records
requests/sec plus p50/p95/p99 latency; it is wall-clock- and
scheduler-bound, so CI compares it with ``--informational-section serve``.

The ``incremental`` section measures what the resident decode session buys:
per churn ratio it replays the identical deterministic churn schedule
(delete/insert a fraction of the keys) against the same bootstrapped table
twice — once re-decoding from scratch, once through
``IBLT.decode(incremental=True)`` — timing only the (re-)decode.  The two
modes return bit-identical key sets, so the seconds ratio isolates the
incremental re-peel; its rounds scale with the churn, not the table size.

The ``memory`` section records the footprint story of the compact columnar
state: per mode (``compact`` 32-bit ids vs ``wide`` int64) it reports the
explicit working-set bytes of a fully-attached :class:`PeelState`
(``state_bytes`` — the acceptance metric: compact must be well under
wide), the tracemalloc peak of newly-allocated bytes during one
steady-state peel (``steady_peel_traced_bytes`` — the per-round temporary
traffic), the thread-local arena's new-buffer count across that peel
(``arena_allocations_steady`` — zero once warm), the process high-water
RSS for context, and the peel wall clock.  Footprints are deterministic
but wall clocks are not, so CI compares this section with
``--informational-section memory``.
"""

from __future__ import annotations

import argparse
import json
import platform
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro._version import __version__
from repro.sweeps import CellSpec, SweepProgress, SweepSpec, print_progress, run_sweep
from repro.utils.rng import derive_seed
from repro.utils.tables import Table

__all__ = [
    "DEFAULT_SIZES",
    "QUICK_SIZES",
    "BATCHED_BATCH_SIZES",
    "QUICK_BATCHED_BATCH_SIZES",
    "BATCHED_GRAPH_SIZE",
    "BATCHED_DENSITY",
    "SERVE_WINDOWS_MS",
    "QUICK_SERVE_WINDOWS_MS",
    "SERVE_REQUESTS",
    "QUICK_SERVE_REQUESTS",
    "SERVE_NUM_CELLS",
    "SERVE_MAX_BATCH",
    "MEMORY_SIZES",
    "QUICK_MEMORY_SIZES",
    "INCREMENTAL_CHURNS",
    "QUICK_INCREMENTAL_CHURNS",
    "DEFAULT_TOLERANCE",
    "bench_spec",
    "run_benchmarks",
    "write_results",
    "format_results",
    "compare_payloads",
    "main",
]

DEFAULT_SIZES = (10_000, 100_000)
"""Problem sizes of the standing perf trajectory (Tables 1/5 territory)."""

QUICK_SIZES = (2_000,)
"""Sizes for the CI smoke run (``--quick``)."""

BATCHED_BATCH_SIZES = (16, 256, 1024)
"""Batch sizes of the ``batched`` section (per-graph loop vs fused lockstep)."""

QUICK_BATCHED_BATCH_SIZES = (16,)
"""Batch sizes for the CI smoke run (``--quick``)."""

BATCHED_GRAPH_SIZE = 1_000
"""Graph size of the ``batched`` section: small graphs, where per-graph
dispatch overhead dominates — the shape batching exists to fix."""

BATCHED_DENSITY = 0.75
"""Edge density of the ``batched`` section (a Table 1 density close to
``c*_{2,4} ≈ 0.772``): near the threshold the round count stretches, so the
per-graph loop pays many almost-empty Python rounds per graph while the
lockstep pass absorbs them — the regime the fused path targets."""

SERVE_WINDOWS_MS = (0.0, 2.0, 8.0)
"""Batch-window settings of the ``serve`` section: 0 ms (no time-based
coalescing — every request decodes solo unless arrivals are simultaneous)
against two real latency budgets, so the trajectory records what fusion
buys end-to-end."""

QUICK_SERVE_WINDOWS_MS = (2.0,)
"""Batch windows for the CI smoke run (``--quick``)."""

SERVE_REQUESTS = 192
"""Concurrent requests fired per ``serve`` cell."""

QUICK_SERVE_REQUESTS = 32
"""Requests per ``serve`` cell in the CI smoke run."""

SERVE_NUM_CELLS = 240
"""Table geometry of the ``serve`` section: small digests (the
reconciliation shape) where per-request dispatch dominates — the regime
micro-batching exists to fix."""

SERVE_MAX_BATCH = 64
"""Size-trigger of the benched server's coalescer."""

MEMORY_SIZES = (1_000_000,)
"""Graph sizes of the ``memory`` section: large enough that the columnar
working set dwarfs every constant, so the compact-vs-wide byte ratio is the
asymptotic one."""

QUICK_MEMORY_SIZES = (100_000,)
"""Memory-section sizes for the CI smoke run (``--quick``)."""

INCREMENTAL_CHURNS = (0.001, 0.01, 0.1)
"""Churn ratios of the ``incremental`` section: the fraction of keys
replaced between decodes, spanning three orders of magnitude so the
trajectory records how incremental cost tracks churn rather than size."""

QUICK_INCREMENTAL_CHURNS = (0.01,)
"""Churn ratios for the CI smoke run (``--quick``)."""

DEFAULT_TOLERANCE = 0.25
"""Default slowdown fraction past which ``--compare`` reports a regression."""

_PEEL_ENGINES = ("sequential", "parallel", "subtable")
_PARALLEL_DECODERS = ("flat", "subtable")


def _best_time(fn: Callable[[], Any], repeats: int) -> float:
    """Best wall-clock seconds for ``fn()`` over ``repeats`` runs."""
    best = float("inf")
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _warmup_kernel(kernel: Optional[str]) -> Optional[float]:
    """Resolve ``kernel`` and run its warm-up; returns the cost in ms.

    Compiled backends pay their one-time cost (C build+dlopen)
    inside ``get_kernel`` + ``warmup()``; running this before the timed
    repetitions keeps compilation out of every ``seconds`` figure, and the
    returned ``compile_ms`` reports it separately per record (near-zero
    once a process has already warmed that backend — the first record of a
    backend carries its real compile cost).
    """
    if kernel is None:
        return None
    from repro.kernels import get_kernel

    start = time.perf_counter()
    get_kernel(kernel).warmup()
    return (time.perf_counter() - start) * 1000.0


def _subtable_cells(n: int, r: int) -> int:
    """Largest cell count ``<= n`` divisible by ``r`` (the subtable layout needs it)."""
    return max(n - n % r, r)


def _bench_peel_trial(params: Dict[str, Any], rng: np.random.Generator) -> Dict[str, Any]:
    # Module-level so process-pool backends could pickle it; the sweep rng is
    # unused — workloads are rebuilt deterministically from the cell seed so
    # every kernel times the identical graph.
    from repro.engine import peel
    from repro.hypergraph import partitioned_hypergraph, random_hypergraph

    engine, kernel = params["engine"], params["kernel"]
    n, c, r, k, seed = params["n"], params["c"], params["r"], params["k"], params["seed"]
    compile_ms = _warmup_kernel(kernel)
    if engine == "subtable":
        graph = partitioned_hypergraph(_subtable_cells(n, r), c, r, seed=seed)
    else:
        graph = random_hypergraph(n, c, r, seed=seed)
    result = peel(graph, engine, k=k, kernel=kernel)
    seconds = _best_time(lambda: peel(graph, engine, k=k, kernel=kernel), params["repeats"])
    return {
        "section": "peel",
        "engine": engine,
        "kernel": kernel,
        "n": int(graph.num_vertices),
        "c": c,
        "r": r,
        "k": k,
        "seed": seed,
        "rounds": result.num_rounds,
        "success": bool(result.success),
        "compile_ms": compile_ms,
        "seconds": seconds,
    }


def _bench_peel_many_trial(params: Dict[str, Any], rng: np.random.Generator) -> Dict[str, Any]:
    from repro.engine import peel_many
    from repro.hypergraph import random_hypergraph

    n, c, r, k, seed = params["n"], params["c"], params["r"], params["k"], params["seed"]
    kernel, batch = params["kernel"], params["batch"]
    compile_ms = _warmup_kernel(kernel)
    graphs = [random_hypergraph(n, c, r, seed=seed + i) for i in range(batch)]
    seconds = _best_time(
        lambda: peel_many(graphs, "parallel", k=k, kernel=kernel, backend="serial"),
        params["repeats"],
    )
    return {
        "section": "peel_many",
        "engine": "parallel",
        "kernel": kernel,
        "n": n,
        "c": c,
        "r": r,
        "k": k,
        "seed": seed,
        "batch": batch,
        "compile_ms": compile_ms,
        "seconds": seconds,
    }


def _bench_iblt_trial(params: Dict[str, Any], rng: np.random.Generator) -> Dict[str, Any]:
    from repro.iblt import IBLT

    num_cells, r, load, seed = params["num_cells"], params["r"], params["load"], params["seed"]
    decoder, kernel = params["decoder"], params["kernel"]
    compile_ms = _warmup_kernel(kernel)
    table = IBLT(num_cells, r, seed=seed)
    num_keys = int(load * num_cells)
    # Any fixed injective map into non-zero uint64 keys works here.
    keys = (
        np.arange(1, num_keys + 1, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    ) | np.uint64(1)
    table.insert(keys)
    decode_kwargs = {"decoder": decoder}
    if kernel is not None:
        decode_kwargs["kernel"] = kernel
    result = table.decode(**decode_kwargs)
    seconds = _best_time(lambda: table.decode(**decode_kwargs), params["repeats"])
    record: Dict[str, Any] = {
        "section": "iblt_decode",
        "decoder": decoder,
        "kernel": kernel,
        "num_cells": num_cells,
        "r": r,
        "load": load,
        "seed": seed,
    }
    if decoder != "serial":
        record["rounds"] = result.rounds
    record["success"] = bool(result.success)
    record["compile_ms"] = compile_ms
    record["seconds"] = seconds
    return record


def _bench_batched_trial(params: Dict[str, Any], rng: np.random.Generator) -> Dict[str, Any]:
    # Per-graph loop vs fused lockstep on the identical batch of small
    # graphs: "loop" is peel_many over the serial backend (one engine run
    # per graph), "batched" the block-diagonal lockstep pass.  Both produce
    # bit-identical results, so the delta is pure dispatch structure.
    from repro.engine import peel_many
    from repro.hypergraph import random_hypergraph

    n, c, r, k, seed = params["n"], params["c"], params["r"], params["k"], params["seed"]
    kernel, batch, mode = params["kernel"], params["batch"], params["mode"]
    compile_ms = _warmup_kernel(kernel)
    backend = "batched" if mode == "batched" else "serial"
    graphs = [random_hypergraph(n, c, r, seed=seed + i) for i in range(batch)]
    # track_stats=False is the serving/throughput configuration (the same
    # one table1's trials use); both modes run it, so the delta is pure
    # dispatch structure.
    run = lambda: peel_many(  # noqa: E731
        graphs, "parallel", k=k, kernel=kernel, track_stats=False, backend=backend
    )
    run()  # untimed warm-up: builds the graphs' incidence caches
    seconds = _best_time(run, params["repeats"])
    return {
        "section": "batched",
        "engine": mode,
        "kernel": kernel,
        "n": n,
        "c": c,
        "r": r,
        "k": k,
        "seed": seed,
        "batch": batch,
        "compile_ms": compile_ms,
        "seconds": seconds,
    }


def _bench_serve_trial(params: Dict[str, Any], rng: np.random.Generator) -> Dict[str, Any]:
    # End-to-end service throughput: an in-process DecodeServer on a
    # loopback socket, one multiplexed client firing `requests` concurrent
    # decode requests.  window_ms=0 is the no-coalescing baseline (solo
    # decodes); real windows let the micro-batcher fuse, so the rps ratio
    # measures what batch fusion buys through the full socket + frame +
    # executor path, not just the kernel.  Wall clocks are hardware- and
    # scheduler-bound, so CI treats this section as informational.
    import asyncio

    window_ms = params["window_ms"]
    requests, num_cells, r = params["requests"], params["num_cells"], params["r"]
    load, seed = params["load"], params["seed"]

    async def _run_once() -> Dict[str, Any]:
        from repro.serve.client import run_load
        from repro.serve.server import DecodeServer

        server = DecodeServer(
            port=0,
            batch_window_ms=window_ms,
            max_batch_size=params["max_batch"],
        )
        await server.start()
        try:
            summary = await run_load(
                "127.0.0.1",
                server.port,
                requests=requests,
                num_cells=num_cells,
                r=r,
                load=load,
                seed=seed,
                verify=False,
            )
        finally:
            await server.stop()
        return summary

    best: Optional[Dict[str, Any]] = None
    for _ in range(max(1, params["repeats"])):
        summary = asyncio.run(_run_once())
        if best is None or summary["elapsed_s"] < best["elapsed_s"]:
            best = summary
    assert best is not None
    return {
        "section": "serve",
        "engine": "serve",
        "kernel": "numpy",
        "n": int(num_cells),
        "r": r,
        "load": load,
        "seed": seed,
        "batch": int(requests),
        "window_ms": float(window_ms),
        "requests_per_s": best["requests_per_s"],
        "latency_ms": best["latency_ms"],
        "mean_batch_size": best["server_stats"]["mean_batch_size"],
        "seconds": best["elapsed_s"],
    }


def _bench_memory_trial(params: Dict[str, Any], rng: np.random.Generator) -> Dict[str, Any]:
    # Footprint of the columnar state per id layout.  ``state_bytes`` is the
    # deterministic acceptance metric: the summed nbytes of every column of a
    # fully-attached PeelState (mutable + shared-immutable + CSR incidence),
    # i.e. the working set one peel trial keeps live.  The tracemalloc peak
    # and the arena counter are taken over a *warm* peel — after the first
    # trial has populated the thread-local arena and the graph's cached
    # columns — so they measure steady-state per-round temporary traffic,
    # which the arena is supposed to drive to zero new arrays.  ru_maxrss is
    # the process high-water mark (monotone across the whole bench run):
    # context only, never compared.
    import resource
    import tracemalloc

    from repro.engine import peel
    from repro.hypergraph import random_hypergraph
    from repro.kernels import PeelState, default_arena

    mode, kernel = params["mode"], params["kernel"]
    n, c, r, k, seed = params["n"], params["c"], params["r"], params["k"], params["seed"]
    wide = mode == "wide"
    compile_ms = _warmup_kernel(kernel)
    graph = random_hypergraph(n, c, r, seed=seed)
    state = PeelState.from_graph(graph, wide_ids=wide, attach_incidence=True)
    state_bytes = int(sum(arr.nbytes for arr in (
        state.edges, state.degrees,
        state.vertex_alive, state.edge_alive,
        state.vertex_peel_round, state.edge_peel_round,
        state.incidence_ptr, state.incidence_edges,
    )))
    del state

    def run() -> None:
        peel(graph, "parallel", k=k, kernel=kernel, wide_ids=wide)

    run()  # warm: arena buffers, incidence/compact caches, kernel dispatch
    arena = default_arena()
    allocations_before = arena.allocations
    tracemalloc.start()
    run()
    _, traced_peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    arena_allocations_steady = arena.allocations - allocations_before
    seconds = _best_time(run, params["repeats"])
    return {
        "section": "memory",
        "engine": mode,
        "kernel": kernel,
        "n": n,
        "c": c,
        "r": r,
        "k": k,
        "seed": seed,
        "compile_ms": compile_ms,
        "state_bytes": state_bytes,
        "steady_peel_traced_bytes": int(traced_peak),
        "arena_allocations_steady": int(arena_allocations_steady),
        "ru_maxrss_kb": int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss),
        "seconds": seconds,
    }


def _bench_incremental_trial(params: Dict[str, Any], rng: np.random.Generator) -> Dict[str, Any]:
    # Incremental decode vs from-scratch on identical churned tables: both
    # modes replay the same deterministic churn schedule against the same
    # bootstrap table; the churn application (and the incremental mode's
    # bootstrap decode) runs off the clock, only the (re-)decode is timed.
    # The two modes recover bit-identical key sets, so the seconds ratio
    # isolates what the resident session buys.
    from repro.apps.sparse_recovery import random_distinct_keys
    from repro.iblt import IBLT

    mode, kernel = params["mode"], params["kernel"]
    num_cells, r, load = params["num_cells"], params["r"], params["load"]
    churn, seed, n = params["churn"], params["seed"], params["n"]
    compile_ms = _warmup_kernel(kernel)
    num_keys = int(load * num_cells)
    churn_count = max(1, min(num_keys, int(churn * num_keys)))
    repeats = max(1, params["repeats"])
    pool = random_distinct_keys(num_keys + repeats * churn_count, seed=seed)
    keys = pool[:num_keys]
    table = IBLT(num_cells, r, seed=seed)
    table.insert(keys)
    decode_kwargs: Dict[str, Any] = {"decoder": "flat", "signed": True}
    if kernel is not None:
        decode_kwargs["kernel"] = kernel
    bootstrap = table.decode(incremental=True, **decode_kwargs) if mode == "incremental" else None
    current = keys.copy()
    churn_rng = np.random.default_rng(derive_seed(seed, "bench", "incremental-churn", n))
    best = float("inf")
    last: Any = None
    for i in range(repeats):
        drop_idx = churn_rng.choice(current.size, size=churn_count, replace=False)
        deleted = current[drop_idx]
        inserted = pool[num_keys + i * churn_count : num_keys + (i + 1) * churn_count]
        table.delete(deleted)
        table.insert(inserted)
        current = np.concatenate([np.delete(current, drop_idx), inserted])
        start = time.perf_counter()
        if mode == "incremental":
            last = table.decode(incremental=True, **decode_kwargs)
        else:
            last = table.decode(**decode_kwargs)
        best = min(best, time.perf_counter() - start)
    record: Dict[str, Any] = {
        "section": "incremental",
        "engine": mode,
        "kernel": kernel,
        "n": int(n),
        "num_cells": int(num_cells),
        "r": r,
        "load": load,
        "churn": float(churn),
        "seed": seed,
        "success": bool(last.success),
        "compile_ms": compile_ms,
    }
    if mode == "incremental":
        record["bootstrap_rounds"] = int(bootstrap.rounds)
        record["rounds_incremental"] = int(last.rounds_incremental)
        record["cells_scanned"] = int(last.cells_scanned)
    else:
        record["rounds"] = int(last.rounds)
    record["seconds"] = best
    return record


_TRIALS = {
    "peel": _bench_peel_trial,
    "peel_many": _bench_peel_many_trial,
    "iblt_decode": _bench_iblt_trial,
    "batched": _bench_batched_trial,
    "serve": _bench_serve_trial,
    "memory": _bench_memory_trial,
    "incremental": _bench_incremental_trial,
}


def _bench_dispatch_trial(params: Dict[str, Any], rng: np.random.Generator) -> Dict[str, Any]:
    # Module-level dispatcher: one trial function for the whole matrix.
    return _TRIALS[params["section"]](params, rng)


def _bench_aggregate(params: Dict[str, Any], results: List[Dict[str, Any]]) -> Dict[str, Any]:
    return results[0]


def bench_spec(
    *,
    sizes: Sequence[int] = DEFAULT_SIZES,
    kernels: Optional[Sequence[str]] = None,
    c: float = 0.7,
    r: int = 4,
    iblt_r: int = 3,
    k: int = 2,
    load: float = 0.7,
    seed: int = 1,
    repeats: int = 3,
    batch: int = 4,
    batched_batches: Sequence[int] = BATCHED_BATCH_SIZES,
    serve_windows_ms: Sequence[float] = SERVE_WINDOWS_MS,
    serve_requests: int = SERVE_REQUESTS,
    memory_sizes: Sequence[int] = MEMORY_SIZES,
    incremental_churns: Sequence[float] = INCREMENTAL_CHURNS,
) -> SweepSpec:
    """Declare the benchmark matrix as a sweep (one single-trial cell each).

    Cell order matches the historical record order: the ``peel`` section
    (size × engine × kernel), then ``peel_many`` (kernel), then
    ``iblt_decode`` (size × decoder × kernel, serial baseline first), then
    ``batched`` (batch size ×
    {per-graph loop, fused lockstep} × kernel on identical batches of
    ``n=1000`` graphs at ``c=0.75``), then ``serve`` (end-to-end decode
    service throughput at each batch-window setting), then ``memory``
    (columnar-state footprint per id layout: compact 32-bit vs wide int64
    on the reference numpy backend), then ``incremental`` (size × churn
    ratio × {from-scratch re-decode, incremental checkpoint} on identical
    churn schedules, numpy backend).
    """
    from repro.kernels import ready_kernels

    # ready_kernels (not available_kernels): a declared compiled backend
    # whose toolchain turns out broken must drop out of the sweep with its
    # cached KernelUnavailableError, not crash the whole benchmark run.
    kernel_names = tuple(kernels) if kernels is not None else ready_kernels()
    cells: List[CellSpec] = []
    common = {"c": c, "r": r, "k": k, "seed": seed, "repeats": repeats}
    for n in sizes:
        for engine in _PEEL_ENGINES:
            for kernel in kernel_names:
                cells.append(
                    CellSpec(
                        key=f"peel/n={n}/{engine}/{kernel}",
                        params={"section": "peel", "engine": engine, "kernel": kernel,
                                "n": int(n), **common},
                        seed=derive_seed(seed, "bench", "peel", engine, kernel, n),
                    )
                )
    n_many = min(sizes)  # the batch section measures dispatch, not graph scale
    for kernel in kernel_names:
        cells.append(
            CellSpec(
                key=f"peel_many/{kernel}",
                params={"section": "peel_many", "kernel": kernel, "n": int(n_many),
                        "batch": int(batch), **common},
                seed=derive_seed(seed, "bench", "peel_many", kernel),
            )
        )
    for n in sizes:
        num_cells = _subtable_cells(n, iblt_r)
        iblt_common = {
            "section": "iblt_decode", "num_cells": int(num_cells), "r": iblt_r,
            "load": load, "seed": seed, "repeats": repeats,
        }
        # Keys use the *requested* size n: distinct sizes that round to the
        # same cell count must not collide into duplicate cell keys.
        cells.append(
            CellSpec(
                key=f"iblt/n={n}/serial",
                params={**iblt_common, "decoder": "serial", "kernel": None},
                seed=derive_seed(seed, "bench", "iblt", "serial", n),
            )
        )
        for decoder in _PARALLEL_DECODERS:
            for kernel in kernel_names:
                cells.append(
                    CellSpec(
                        key=f"iblt/n={n}/{decoder}/{kernel}",
                        params={**iblt_common, "decoder": decoder, "kernel": kernel},
                        seed=derive_seed(seed, "bench", "iblt", decoder, kernel, n),
                    )
                )
    batched_common = {
        "section": "batched", "n": int(BATCHED_GRAPH_SIZE), "c": BATCHED_DENSITY,
        "r": r, "k": k, "seed": seed, "repeats": repeats,
    }
    for b in batched_batches:
        for mode in ("loop", "batched"):
            for kernel in kernel_names:
                cells.append(
                    CellSpec(
                        key=f"batched/B={b}/{mode}/{kernel}",
                        params={**batched_common, "mode": mode, "kernel": kernel,
                                "batch": int(b)},
                        seed=derive_seed(seed, "bench", "batched", mode, kernel, b),
                    )
                )
    for window_ms in serve_windows_ms:
        cells.append(
            CellSpec(
                key=f"serve/window={window_ms}ms",
                params={
                    "section": "serve", "window_ms": float(window_ms),
                    "requests": int(serve_requests), "num_cells": int(SERVE_NUM_CELLS),
                    "r": iblt_r, "load": load, "max_batch": int(SERVE_MAX_BATCH),
                    "seed": seed, "repeats": repeats,
                },
                seed=derive_seed(seed, "bench", "serve", f"{float(window_ms)}"),
            )
        )
    for n in memory_sizes:
        # The numpy backend only: footprints are layout properties of the
        # state, not of the backend, and one backend keeps the section's
        # compact/wide comparison apples-to-apples everywhere.
        for mode in ("compact", "wide"):
            cells.append(
                CellSpec(
                    key=f"memory/n={n}/{mode}",
                    params={"section": "memory", "mode": mode, "kernel": "numpy",
                            "n": int(n), **common},
                    seed=derive_seed(seed, "bench", "memory", mode, n),
                )
            )
    for n in sizes:
        num_cells = _subtable_cells(n, iblt_r)
        for churn in incremental_churns:
            # The numpy backend only: the incremental re-peel is
            # decoder-independent, so one backend keeps the
            # scratch-vs-incremental ratio apples-to-apples.
            for mode in ("scratch", "incremental"):
                cells.append(
                    CellSpec(
                        key=f"incremental/n={n}/churn={churn:g}/{mode}",
                        params={"section": "incremental", "mode": mode,
                                "kernel": "numpy", "n": int(n),
                                "num_cells": int(num_cells), "r": iblt_r,
                                "load": load, "churn": float(churn),
                                "seed": seed, "repeats": repeats},
                        seed=derive_seed(
                            seed, "bench", "incremental", mode, f"{float(churn)}", n
                        ),
                    )
                )
    return SweepSpec(
        name="bench",
        cells=tuple(cells),
        meta={
            "kernels": list(kernel_names),
            "sizes": [int(n) for n in sizes],
            "batched_batches": [int(b) for b in batched_batches],
            "serve_windows_ms": [float(w) for w in serve_windows_ms],
            "serve_requests": int(serve_requests),
            "memory_sizes": [int(n) for n in memory_sizes],
            "incremental_churns": [float(x) for x in incremental_churns],
        },
    )


def run_benchmarks(
    *,
    sizes: Sequence[int] = DEFAULT_SIZES,
    kernels: Optional[Sequence[str]] = None,
    c: float = 0.7,
    r: int = 4,
    iblt_r: int = 3,
    k: int = 2,
    load: float = 0.7,
    seed: int = 1,
    repeats: int = 3,
    batch: int = 4,
    batched_batches: Sequence[int] = BATCHED_BATCH_SIZES,
    serve_windows_ms: Sequence[float] = SERVE_WINDOWS_MS,
    serve_requests: int = SERVE_REQUESTS,
    memory_sizes: Sequence[int] = MEMORY_SIZES,
    incremental_churns: Sequence[float] = INCREMENTAL_CHURNS,
    artifact: Optional[Union[str, Path]] = None,
    resume: bool = False,
    progress: Optional[Callable[[SweepProgress], None]] = None,
) -> Dict[str, Any]:
    """Run the full benchmark matrix and return the JSON-ready payload.

    Parameters
    ----------
    sizes:
        Vertex / cell counts to benchmark at (each engine × kernel runs at
        every size).
    kernels:
        Kernel-backend names to sweep; ``None`` means every *ready* backend
        (:func:`repro.kernels.ready_kernels` — declared backends whose
        toolchain fails to load are skipped, not fatal).
    c, r, k:
        Hypergraph density, edge size and peeling threshold of the k-core
        workloads.
    iblt_r, load:
        Hashes per key and table load of the IBLT decode workload.
    seed:
        Base RNG seed (workloads are identical across kernels by design).
    repeats:
        Timed runs per combination; the best is reported.
    batch:
        Batch size of the ``peel_many`` section.
    batched_batches:
        Batch sizes of the ``batched`` section (per-graph loop vs fused
        lockstep ``peel_many`` on identical batches of small graphs).
    serve_windows_ms, serve_requests:
        Batch-window settings and concurrent-request count of the
        ``serve`` section (end-to-end decode-service throughput over a
        loopback socket; hardware-bound, so CI gates it informationally).
    memory_sizes:
        Graph sizes of the ``memory`` section (columnar-state footprint,
        compact 32-bit ids vs wide int64; byte figures are deterministic
        but the wall clock is not, so CI gates it informationally).
    incremental_churns:
        Churn ratios of the ``incremental`` section (from-scratch re-decode
        vs incremental checkpoint on identical churn schedules; paired
        single-host ratios are the signal, so CI gates it informationally).
    artifact, resume:
        Optional sweep-artifact path for per-cell checkpointing; with
        ``resume=True`` a compatible artifact's timings are reused and only
        missing cells are re-timed.
    progress:
        Per-cell progress callback (see :class:`repro.sweeps.SweepProgress`).
    """
    spec = bench_spec(
        sizes=sizes, kernels=kernels, c=c, r=r, iblt_r=iblt_r, k=k, load=load,
        seed=seed, repeats=repeats, batch=batch,
        batched_batches=batched_batches,
        serve_windows_ms=serve_windows_ms, serve_requests=serve_requests,
        memory_sizes=memory_sizes, incremental_churns=incremental_churns,
    )
    # Always serial: parallel timing cells would contend for the same cores.
    results = run_sweep(
        spec, _bench_dispatch_trial, _bench_aggregate,
        out=artifact, resume=resume, progress=progress,
    )
    return {
        "meta": {
            "version": __version__,
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
            "kernels": list(spec.meta["kernels"]),
            "sizes": list(spec.meta["sizes"]),
            "batched_batches": list(spec.meta["batched_batches"]),
            "serve_windows_ms": list(spec.meta["serve_windows_ms"]),
            "serve_requests": spec.meta["serve_requests"],
            "memory_sizes": list(spec.meta["memory_sizes"]),
            "incremental_churns": list(spec.meta["incremental_churns"]),
            "repeats": repeats,
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        },
        "results": results,
    }


def write_results(payload: Dict[str, Any], path: Path) -> None:
    """Write the benchmark payload as indented JSON to ``path``."""
    path.write_text(json.dumps(payload, indent=2, sort_keys=False) + "\n")


def format_results(payload: Dict[str, Any]) -> str:
    """Render the benchmark payload as an aligned text table."""
    table = Table(
        columns=("section", "workload", "kernel", "size", "seconds"),
        title=f"kernel benchmarks ({payload['meta']['timestamp']})",
    )
    for record in payload["results"]:
        workload = record.get("engine") or record.get("decoder")
        if record["section"] == "batched":
            workload = f"{workload}[B={record['batch']}]"
        if record["section"] == "serve":
            workload = f"{workload}[win={record['window_ms']:g}ms]"
        if record["section"] == "memory":
            workload = f"{workload}[{record['state_bytes'] / 1e6:.1f}MB]"
        if record["section"] == "incremental":
            workload = f"{workload}[churn={record['churn']:g}]"
        size = record.get("n", record.get("num_cells"))
        table.add_row(
            record["section"],
            workload,
            record["kernel"] or "-",
            size,
            f"{record['seconds']:.4f}",
        )
    return table.render()


def _record_key(record: Dict[str, Any]) -> Tuple[str, str, str, int, Any, Any, Any, Any]:
    """Identity of one benchmark record across runs.

    Includes the seed, batch, serve batch window and churn ratio so runs
    of *different* workloads (other random graphs, other batch sizes,
    other latency budgets, other churn schedules) never silently compare
    as if they were the same measurement.
    """
    return (
        record["section"],
        str(record.get("engine") or record.get("decoder")),
        str(record.get("kernel")),
        int(record.get("n", record.get("num_cells", 0))),
        record.get("seed"),
        record.get("batch"),
        record.get("window_ms"),
        record.get("churn"),
    )


def _key_str(key: Tuple) -> Tuple[str, ...]:
    return tuple(map(str, key))


def _index_records(payload: Dict[str, Any]) -> Tuple[Dict[Tuple, Dict[str, Any]], List[Tuple]]:
    """Index records by identity; also report keys that collide."""
    by_key: Dict[Tuple, Dict[str, Any]] = {}
    collisions: List[Tuple] = []
    for record in payload["results"]:
        key = _record_key(record)
        if key in by_key:
            collisions.append(key)
        by_key[key] = record
    return by_key, collisions


def compare_payloads(
    current: Dict[str, Any],
    baseline: Dict[str, Any],
    *,
    tolerance: float = DEFAULT_TOLERANCE,
    informational_sections: Sequence[str] = (),
) -> Tuple[str, int]:
    """Diff two benchmark payloads per (section, workload, kernel, size).

    Returns ``(report, num_regressions)`` where a regression is any
    comparable entry whose current time exceeds the baseline by more than
    ``tolerance`` (a fraction: 0.25 means 25% slower).  Entries present in
    only one payload are listed but never counted as regressions.

    Sections named in ``informational_sections`` are compared and reported
    but their regressions never count toward the returned total (they are
    flagged ``regression (info)``).  CI uses this for sections whose
    committed baseline is hardware-bound — e.g. ``serve`` numbers are
    loopback scheduler timings of the host that recorded them, noise on a
    different runner.
    """
    if tolerance < 0:
        raise ValueError(f"tolerance must be non-negative, got {tolerance}")
    informational = set(informational_sections)
    base_by_key, base_collisions = _index_records(baseline)
    cur_by_key, cur_collisions = _index_records(current)
    table = Table(
        columns=("section", "workload", "kernel", "size", "baseline", "current", "delta", ""),
        title=(
            f"benchmark comparison vs baseline "
            f"({baseline['meta'].get('timestamp', 'unknown')})"
        ),
    )
    regressions = 0
    informational_regressions = 0
    compared = 0
    for key, record in cur_by_key.items():
        base = base_by_key.get(key)
        if base is None:
            continue
        compared += 1
        delta = record["seconds"] / base["seconds"] - 1.0 if base["seconds"] else float("inf")
        section, workload, kernel, size = key[:4]
        flag = ""
        if delta > tolerance:
            if section in informational:
                flag = "regression (info)"
                informational_regressions += 1
            else:
                flag = "REGRESSION"
                regressions += 1
        elif delta < -tolerance:
            flag = "improved"
        if section == "batched" and key[5] is not None:
            workload = f"{workload}[B={key[5]}]"
        if section == "serve" and key[6] is not None:
            workload = f"{workload}[win={key[6]:g}ms]"
        if section == "incremental" and key[7] is not None:
            workload = f"{workload}[churn={key[7]:g}]"
        table.add_row(
            section, workload, kernel if kernel != "None" else "-", size,
            f"{base['seconds']:.4f}", f"{record['seconds']:.4f}", f"{delta:+.1%}", flag,
        )
    lines = [table.render()]
    for label, collisions in (("current", cur_collisions), ("baseline", base_collisions)):
        if collisions:
            lines.append(
                f"warning: {len(collisions)} duplicate record identit"
                f"{'ies' if len(collisions) != 1 else 'y'} in the {label} payload "
                f"(only the last of each was compared): "
                + ", ".join("/".join(map(str, key[:4])) for key in collisions)
            )
    # Keys mix ints and Nones (seed/batch), so sort by string form.
    only_current = sorted(set(cur_by_key) - set(base_by_key), key=_key_str)
    only_baseline = sorted(set(base_by_key) - set(cur_by_key), key=_key_str)
    if only_current:
        lines.append(f"not in baseline ({len(only_current)}): "
                     + ", ".join("/".join(map(str, key)) for key in only_current))
    if only_baseline:
        lines.append(f"only in baseline ({len(only_baseline)}): "
                     + ", ".join("/".join(map(str, key)) for key in only_baseline))
    if compared == 0:
        lines.append(
            "no comparable entries between the two payloads "
            "(different sizes/kernels?); nothing gated"
        )
    summary = (
        f"{compared} compared, {regressions} regression(s) past "
        f"{tolerance:.0%} tolerance"
    )
    if informational_regressions:
        summary += (
            f" (+{informational_regressions} informational in "
            + ", ".join(sorted(informational))
            + ", not gated)"
        )
    lines.append(summary)
    return "\n".join(lines), regressions


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Stand-alone entry point (``python benchmarks/bench_kernels.py``)."""
    parser = argparse.ArgumentParser(
        description="Benchmark peeling engines and IBLT decoders across kernel backends."
    )
    add_bench_arguments(parser)
    args = parser.parse_args(argv)
    report, code = run_bench_command(args)
    print(report)
    return code


def add_bench_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach the benchmark flags (shared with the ``repro bench`` sub-command)."""
    parser.add_argument(
        "--sizes",
        type=int,
        nargs="+",
        default=list(DEFAULT_SIZES),
        help="problem sizes to benchmark (default: %(default)s)",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="seconds-long smoke run (small sizes, one repeat); used by CI",
    )
    parser.add_argument(
        "--kernel",
        dest="kernels",
        action="append",
        default=None,
        metavar="NAME",
        help="kernel backend to include (repeatable; default: every ready backend)",
    )
    parser.add_argument(
        "--kernels",
        dest="kernels_csv",
        default=None,
        metavar="NAMES",
        help=(
            "comma-separated kernel backends to include, e.g. "
            "'numpy,cffi' (combines with --kernel)"
        ),
    )
    parser.add_argument(
        "--batched-batches",
        type=int,
        nargs="+",
        default=list(BATCHED_BATCH_SIZES),
        help=(
            "batch sizes of the batched section (per-graph loop vs fused "
            f"lockstep peel_many over n={BATCHED_GRAPH_SIZE} graphs at "
            f"c={BATCHED_DENSITY}; default: %(default)s)"
        ),
    )
    parser.add_argument(
        "--serve-windows-ms",
        type=float,
        nargs="+",
        default=list(SERVE_WINDOWS_MS),
        help=(
            "batch-window settings of the serve section (end-to-end decode "
            "service throughput; 0 disables time-based coalescing; "
            "default: %(default)s)"
        ),
    )
    parser.add_argument(
        "--serve-requests",
        type=int,
        default=SERVE_REQUESTS,
        help="concurrent requests per serve cell (default: %(default)s)",
    )
    parser.add_argument(
        "--memory-sizes",
        type=int,
        nargs="+",
        default=list(MEMORY_SIZES),
        help=(
            "graph sizes of the memory section (columnar-state footprint, "
            "compact 32-bit ids vs wide int64; default: %(default)s)"
        ),
    )
    parser.add_argument(
        "--incremental-churns",
        type=float,
        nargs="+",
        default=list(INCREMENTAL_CHURNS),
        help=(
            "churn ratios of the incremental section (from-scratch re-decode "
            "vs incremental checkpoint on identical churn schedules; "
            "default: %(default)s)"
        ),
    )
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--out",
        type=Path,
        default=Path("BENCH_kernels.json"),
        help="output JSON path (default: %(default)s)",
    )
    parser.add_argument(
        "--compare",
        type=Path,
        default=None,
        metavar="BASELINE.json",
        help=(
            "prior benchmark JSON to diff against; exits non-zero when any "
            "comparable entry regressed past --tolerance"
        ),
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=DEFAULT_TOLERANCE,
        help=(
            "slowdown fraction tolerated by --compare before failing "
            "(default: %(default)s, i.e. 25%% slower)"
        ),
    )
    parser.add_argument(
        "--informational-section",
        dest="informational_sections",
        action="append",
        default=None,
        metavar="SECTION",
        help=(
            "bench section whose --compare regressions are reported but "
            "never fail the run (repeatable); use for sections whose "
            "baseline timings are hardware-bound, e.g. serve numbers "
            "committed from a different host"
        ),
    )
    parser.add_argument(
        "--progress",
        action="store_true",
        help="print per-cell progress to stderr while benchmarking",
    )


def run_bench_command(args: argparse.Namespace) -> Tuple[str, int]:
    """Execute a parsed benchmark invocation.

    Returns ``(printable report, exit code)``; the exit code is non-zero
    only when ``--compare`` found regressions past the tolerance.
    """
    sizes: Sequence[int] = QUICK_SIZES if args.quick else args.sizes
    batched_batches: Sequence[int] = (
        QUICK_BATCHED_BATCH_SIZES if args.quick else args.batched_batches
    )
    serve_windows: Sequence[float] = (
        QUICK_SERVE_WINDOWS_MS if args.quick else args.serve_windows_ms
    )
    serve_requests = QUICK_SERVE_REQUESTS if args.quick else args.serve_requests
    memory_sizes: Sequence[int] = QUICK_MEMORY_SIZES if args.quick else args.memory_sizes
    incremental_churns: Sequence[float] = (
        QUICK_INCREMENTAL_CHURNS if args.quick else args.incremental_churns
    )
    repeats = 1 if args.quick else args.repeats
    kernels: Optional[List[str]] = list(args.kernels or [])
    csv = getattr(args, "kernels_csv", None)
    if csv:
        kernels.extend(name.strip() for name in csv.split(",") if name.strip())
    payload = run_benchmarks(
        sizes=sizes,
        kernels=kernels or None,
        seed=args.seed,
        repeats=repeats,
        batched_batches=batched_batches,
        serve_windows_ms=serve_windows,
        serve_requests=serve_requests,
        memory_sizes=memory_sizes,
        incremental_churns=incremental_churns,
        progress=print_progress if getattr(args, "progress", False) else None,
    )
    write_results(payload, args.out)
    report = format_results(payload)
    report += f"\n\nwrote {len(payload['results'])} timings to {args.out}"
    code = 0
    if getattr(args, "compare", None) is not None:
        baseline = json.loads(Path(args.compare).read_text())
        comparison, regressions = compare_payloads(
            payload,
            baseline,
            tolerance=args.tolerance,
            informational_sections=getattr(args, "informational_sections", None) or (),
        )
        report += "\n\n" + comparison
        code = 1 if regressions else 0
    return report, code
