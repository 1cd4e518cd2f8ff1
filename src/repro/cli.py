"""Command-line interface: reproduce any table or figure from a terminal.

Examples
--------
::

    python -m repro table1 --sizes 10000 20000 --densities 0.7 0.85 --trials 10
    python -m repro table2 --n 100000 --c 0.7
    python -m repro table3            # IBLT, r=3
    python -m repro table4            # IBLT, r=4
    python -m repro table5
    python -m repro table6
    python -m repro figure1
    python -m repro thresholds --k 2 --r 4
    python -m repro peel --n 100000 --c 0.7 --r 4 --k 2 --engine subtable
    python -m repro peel --n 100000 --kernel numpy
    python -m repro peel --n 100000 --incremental --churn 0.01
    python -m repro decode --num-cells 30000 --decoder flat
    python -m repro decode --incremental --churn 0.01
    python -m repro table1 --backend processes --workers 4
    python -m repro table1 --backend batched   # fuse same-cell trials
    python -m repro table1 --out table1.json --progress
    python -m repro table1 --out table1.json --resume   # skip finished cells
    python -m repro table3 --decoder flat
    python -m repro bench --quick
    python -m repro bench --compare BENCH_kernels.json --tolerance 0.5
    python -m repro serve --port 8641 --batch-window-ms 2
    python -m repro decode-client --port 8641 --requests 64 --expect-mean-batch-gt 1

Every sub-command prints the same layout the paper's tables use; the
defaults are the scaled-down settings documented in EXPERIMENTS.md.
Engines, IBLT decoders, kernel backends and execution backends are all
selected by their registry names (``--engine``, ``--decoder``, ``--kernel``,
``--backend``), so anything registered through :mod:`repro.engine`,
:mod:`repro.iblt`, :mod:`repro.kernels` or :mod:`repro.parallel` is
reachable from the command line.

Every experiment sub-command is one declarative sweep (:mod:`repro.sweeps`)
run by a single generic driver, so they all share ``--out`` (JSON sweep
artifact, checkpointed per cell), ``--resume`` (reuse completed cells from a
compatible artifact) and ``--progress`` (per-cell reporting on stderr).
``repro bench`` runs the kernel benchmark harness (:mod:`repro.bench`),
writes ``BENCH_kernels.json``, and can gate regressions against a prior run
via ``--compare``/``--tolerance``.  ``repro serve`` runs the long-lived
asyncio decode service (:mod:`repro.serve`) that coalesces concurrent
requests into fused ``decode_many`` batches, and ``repro decode-client``
load-drives one and verifies every response against a local decode.
"""

from __future__ import annotations

import argparse
import sys
from typing import Any, Callable, List, Optional, Sequence, Tuple, Union

from repro.analysis import peeling_threshold
from repro.analysis.rounds import predict_rounds
from repro.bench import add_bench_arguments, run_bench_command
from repro.engine import available_engines
from repro.iblt import available_decoders
from repro.kernels import available_kernels
from repro.parallel.backend import available_backends, get_backend
from repro.sweeps import (
    AggregateFn,
    BatchTrialFn,
    SweepSpec,
    TrialFn,
    print_progress,
    run_sweep,
)

__all__ = ["build_parser", "main"]

# One sweep sub-command = spec + trial + aggregate + renderer, optionally
# followed by a cell-level batch trial (used by --backend batched); the
# generic driver (_run_sweep_command) supplies scheduling, artifacts and
# progress.
_RenderFn = Callable[[List[Any], argparse.Namespace], str]
SweepCommandParts = Union[
    Tuple[SweepSpec, TrialFn, AggregateFn, _RenderFn],
    Tuple[SweepSpec, TrialFn, AggregateFn, _RenderFn, BatchTrialFn],
]


def _add_backend_flags(parser: argparse.ArgumentParser) -> None:
    """Attach trial-dispatch flags shared by every trial-running sub-command."""
    parser.add_argument(
        "--backend",
        choices=available_backends(),
        default="serial",
        help="execution backend for independent trials (default: serial)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker count for pool backends (default: backend-specific)",
    )


def _add_sweep_flags(parser: argparse.ArgumentParser) -> None:
    """Attach the flags every sweep-driven sub-command shares."""
    _add_backend_flags(parser)
    parser.add_argument(
        "--out",
        default=None,
        metavar="ARTIFACT.json",
        help=(
            "write a JSON sweep artifact here, checkpointed after every "
            "completed cell"
        ),
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help=(
            "reuse completed cells from the artifact at --out when its spec "
            "fingerprint matches; only missing cells are run"
        ),
    )
    parser.add_argument(
        "--progress",
        action="store_true",
        help="print per-cell progress to stderr",
    )


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce the evaluation of 'Parallel Peeling Algorithms' (SPAA 2014).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    t1 = sub.add_parser("table1", help="parallel peeling failures and rounds vs n")
    t1.add_argument("--sizes", type=int, nargs="+", default=[10_000, 20_000, 40_000])
    t1.add_argument("--densities", type=float, nargs="+", default=[0.7, 0.75, 0.8, 0.85])
    t1.add_argument("--trials", type=int, default=10)
    t1.add_argument("--r", type=int, default=4)
    t1.add_argument("--k", type=int, default=2)
    t1.add_argument("--seed", type=int, default=1)
    _add_sweep_flags(t1)

    t2 = sub.add_parser("table2", help="recurrence prediction vs experiment")
    t2.add_argument("--n", type=int, default=100_000)
    t2.add_argument("--c", type=float, default=0.7)
    t2.add_argument("--rounds", type=int, default=16)
    t2.add_argument("--trials", type=int, default=5)
    t2.add_argument("--seed", type=int, default=1)
    _add_sweep_flags(t2)

    parallel_decoders = tuple(n for n in available_decoders() if n != "serial")
    for name, default_r in (("table3", 3), ("table4", 4)):
        t = sub.add_parser(name, help=f"IBLT recovery/insertion with r={default_r}")
        t.add_argument("--num-cells", type=int, default=30_000)
        t.add_argument("--loads", type=float, nargs="+", default=[0.75, 0.83])
        t.add_argument("--threads", type=int, default=4096)
        t.add_argument(
            "--decoder",
            choices=parallel_decoders,
            default="subtable",
            help="parallel decoder to benchmark against serial recovery (default: subtable)",
        )
        t.add_argument("--seed", type=int, default=1)
        t.set_defaults(iblt_r=default_r)
        _add_sweep_flags(t)

    t5 = sub.add_parser("table5", help="subtable peeling subrounds vs n")
    t5.add_argument("--sizes", type=int, nargs="+", default=[10_000, 20_000, 40_000])
    t5.add_argument("--densities", type=float, nargs="+", default=[0.7, 0.75])
    t5.add_argument("--trials", type=int, default=10)
    t5.add_argument("--seed", type=int, default=1)
    _add_sweep_flags(t5)

    t6 = sub.add_parser("table6", help="subtable recurrence vs experiment")
    t6.add_argument("--n", type=int, default=100_000)
    t6.add_argument("--c", type=float, default=0.7)
    t6.add_argument("--rounds", type=int, default=7)
    t6.add_argument("--trials", type=int, default=5)
    t6.add_argument("--seed", type=int, default=1)
    _add_sweep_flags(t6)

    f1 = sub.add_parser("figure1", help="beta evolution near the threshold")
    f1.add_argument("--densities", type=float, nargs="+", default=[0.77, 0.772])
    f1.add_argument("--k", type=int, default=2)
    f1.add_argument("--r", type=int, default=4)
    _add_sweep_flags(f1)

    th = sub.add_parser("thresholds", help="print c*_{k,r} and round predictions")
    th.add_argument("--k", type=int, default=2)
    th.add_argument("--r", type=int, default=4)
    th.add_argument("--n", type=int, default=1_000_000)

    peel = sub.add_parser("peel", help="peel one random hypergraph and report rounds")
    peel.add_argument("--n", type=int, default=100_000)
    peel.add_argument("--c", type=float, default=0.7)
    peel.add_argument("--r", type=int, default=4)
    peel.add_argument("--k", type=int, default=2)
    peel.add_argument(
        "--engine",
        choices=available_engines(),
        default=None,
        help="peeling engine (default: parallel)",
    )
    peel.add_argument(
        "--mode",
        choices=available_engines(),
        default=None,
        help="deprecated alias for --engine",
    )
    peel.add_argument(
        "--kernel",
        choices=available_kernels(),
        default=None,
        help="kernel backend for the round primitives (default: numpy)",
    )
    peel.add_argument("--seed", type=int, default=1)
    peel.add_argument(
        "--incremental",
        action="store_true",
        help=(
            "after the full peel, drop a --churn fraction of edges from the "
            "resident state, resume from the dirty frontier, and verify the "
            "resumed result against a from-scratch peel of the mutated graph "
            "(requires a resumable engine: parallel or sequential)"
        ),
    )
    peel.add_argument(
        "--churn",
        type=float,
        default=0.01,
        help="edge fraction dropped before the resume (default: %(default)s)",
    )

    decode = sub.add_parser(
        "decode",
        help="decode one random IBLT and report rounds",
        description=(
            "Build one IBLT from random distinct keys and decode it with any "
            "registered decoder.  --incremental bootstraps a resident decode "
            "session, churns a --churn fraction of the keys, re-decodes "
            "incrementally (re-peeling only the dirty neighbourhood) and "
            "verifies the checkpoint against the true key set and a "
            "from-scratch decode of the mutated table: success must mean "
            "the true keys, and a from-scratch success must imply a "
            "checkpoint success.  Exits non-zero on any violation."
        ),
    )
    decode.add_argument("--num-cells", type=int, default=30_000,
                        help="cells in the table, rounded up to a multiple of --r")
    decode.add_argument("--r", type=int, default=3)
    decode.add_argument("--load", type=float, default=0.75,
                        help="keys inserted as a fraction of the cell count")
    decode.add_argument(
        "--decoder",
        choices=available_decoders(),
        default="serial",
        help="IBLT decoder (default: serial)",
    )
    decode.add_argument(
        "--kernel",
        choices=available_kernels(),
        default=None,
        help="kernel backend forwarded to parallel decoders (default: numpy)",
    )
    decode.add_argument("--seed", type=int, default=1)
    decode.add_argument(
        "--incremental",
        action="store_true",
        help="bootstrap a decode session, churn keys, checkpoint incrementally, verify",
    )
    decode.add_argument(
        "--churn",
        type=float,
        default=0.01,
        help="key fraction replaced between bootstrap and checkpoint (default: %(default)s)",
    )

    serve = sub.add_parser(
        "serve",
        help="run the async IBLT-decode service with micro-batching",
        description=(
            "Long-lived asyncio TCP server speaking the repro.serve frame "
            "protocol: concurrent decode requests are coalesced by "
            "(num_cells, r, layout, seed, signed) and flushed into fused "
            "IBLT.decode_many batches when --max-batch requests are waiting "
            "or the --batch-window-ms latency budget expires.  SIGINT/SIGTERM "
            "drain gracefully and print the metrics snapshot as JSON."
        ),
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8641,
                       help="listening port; 0 binds an ephemeral port (default: %(default)s)")
    serve.add_argument("--batch-window-ms", type=float, default=2.0,
                       help=("latency budget: how long the first request of a batch "
                             "waits for peers before flushing (default: %(default)s)"))
    serve.add_argument("--max-batch", type=int, default=256,
                       help="flush a batch as soon as it holds this many requests")
    serve.add_argument("--max-pending", type=int, default=1024,
                       help="admitted-but-unanswered request bound (backpressure)")
    serve.add_argument("--executor-workers", type=int, default=1,
                       help="decode executor threads (default: 1, serial decodes)")
    serve.add_argument("--kernel", choices=available_kernels(), default=None,
                       help="kernel backend for the batched decoder (default: numpy)")
    serve.add_argument("--port-file", default=None, metavar="PATH",
                       help="write the bound port here once listening (for --port 0 scripts)")

    client = sub.add_parser(
        "decode-client",
        help="load-drive a running decode service and verify the results",
        description=(
            "Build a fleet of random same-geometry IBLTs, fire them at a "
            "repro serve instance concurrently, check every response "
            "bit-for-bit against a local decode(decoder='flat'), and print a "
            "JSON summary (throughput, latency percentiles, server stats)."
        ),
    )
    client.add_argument("--host", default="127.0.0.1")
    client.add_argument("--port", type=int, required=True)
    client.add_argument("--requests", type=int, default=32)
    client.add_argument("--connections", type=int, default=1,
                        help="TCP connections to spread the requests over")
    client.add_argument("--num-cells", type=int, default=240)
    client.add_argument("--r", type=int, default=3)
    client.add_argument("--load", type=float, default=0.6,
                        help=("keys inserted per table as a fraction of --num-cells; "
                              "the default stays comfortably under the r=3 peeling "
                              "threshold so decodes succeed (default: %(default)s)"))
    client.add_argument("--seed", type=int, default=1)
    client.add_argument("--no-verify", dest="verify", action="store_false",
                        help="skip the local flat-decode comparison (pure load mode)")
    client.add_argument("--expect-mean-batch-gt", type=float, default=None, metavar="X",
                        help=("exit non-zero unless the server's mean batch size "
                              "exceeds X (CI uses this to prove fusion engaged)"))

    bench = sub.add_parser(
        "bench",
        help="benchmark engines and decoders across kernel backends",
        description=(
            "Time peel/peel_many/IBLT decode for every engine × kernel "
            "combination and write the results to a JSON file "
            "(BENCH_kernels.json by default).  --compare diffs against a "
            "prior run and fails on regressions past --tolerance."
        ),
    )
    add_bench_arguments(bench)

    return parser


# --------------------------------------------------------------------- #
# The generic sweep driver and its per-command spec builders
# --------------------------------------------------------------------- #

def _build_table1(args: argparse.Namespace) -> SweepCommandParts:
    from repro.experiments import table1 as mod

    spec = mod.table1_spec(
        sizes=args.sizes, densities=args.densities, r=args.r, k=args.k,
        trials=args.trials, seed=args.seed,
    )
    return (
        spec,
        mod._table1_trial,
        mod._table1_aggregate,
        lambda rows, a: mod.format_table1(rows),
        mod._table1_batch_trial,
    )


def _build_table2(args: argparse.Namespace) -> SweepCommandParts:
    from repro.experiments import table2 as mod

    spec = mod.table2_spec(
        n=args.n, c=args.c, rounds=args.rounds, trials=args.trials, seed=args.seed
    )
    return (
        spec,
        mod._table2_trial,
        mod._table2_aggregate,
        lambda rows, a: mod.format_table2(rows[0], c=a.c),
    )


def _build_table34(args: argparse.Namespace) -> SweepCommandParts:
    from repro.experiments import table34 as mod
    from repro.parallel import ParallelMachine

    spec = mod.table34_spec(
        args.iblt_r,
        loads=tuple(args.loads),
        num_cells=args.num_cells,
        machine=ParallelMachine(num_threads=args.threads),
        decoder=args.decoder,
        seed=args.seed,
    )
    return spec, mod._table34_trial, mod._table34_aggregate, lambda rows, a: mod.format_table34(rows)


def _build_table5(args: argparse.Namespace) -> SweepCommandParts:
    from repro.experiments import table5 as mod

    spec = mod.table5_spec(
        sizes=args.sizes, densities=args.densities, trials=args.trials, seed=args.seed
    )
    return spec, mod._table5_trial, mod._table5_aggregate, lambda rows, a: mod.format_table5(rows)


def _build_table6(args: argparse.Namespace) -> SweepCommandParts:
    from repro.experiments import table6 as mod

    spec = mod.table6_spec(
        n=args.n, c=args.c, rounds=args.rounds, trials=args.trials, seed=args.seed
    )
    return (
        spec,
        mod._table6_trial,
        mod._table6_aggregate,
        lambda rows, a: mod.format_table6(rows[0], c=a.c),
    )


def _build_figure1(args: argparse.Namespace) -> SweepCommandParts:
    from repro.experiments import figure1 as mod

    spec = mod.figure1_spec(tuple(args.densities), k=args.k, r=args.r)
    return (
        spec,
        mod._figure1_trial,
        mod._figure1_aggregate,
        lambda rows, a: mod.format_figure1({s.c: s for s in rows}, k=a.k, r=a.r),
    )


_SWEEP_BUILDERS = {
    "table1": _build_table1,
    "table2": _build_table2,
    "table3": _build_table34,
    "table4": _build_table34,
    "table5": _build_table5,
    "table6": _build_table6,
    "figure1": _build_figure1,
}


def _run_sweep_command(args: argparse.Namespace) -> str:
    """Generic driver behind every experiment sub-command."""
    if args.resume and args.out is None:
        raise SystemExit("--resume requires --out (the artifact to resume from)")
    parts = _SWEEP_BUILDERS[args.command](args)
    spec, trial, aggregate, render = parts[:4]
    batch_trial = parts[4] if len(parts) > 4 else None
    with get_backend(args.backend, max_workers=args.workers) as backend:
        rows = run_sweep(
            spec,
            trial,
            aggregate,
            batch_trial=batch_trial,
            backend=backend,
            out=args.out,
            resume=args.resume,
            progress=print_progress if args.progress else None,
        )
    return render(rows, args)


def _run_thresholds(args: argparse.Namespace) -> str:
    c_star = peeling_threshold(args.k, args.r)
    lines = [f"c*_{{{args.k},{args.r}}} = {c_star:.6f}"]
    for c in (0.9 * c_star, 0.99 * c_star, 1.01 * c_star, 1.1 * c_star):
        prediction = predict_rounds(args.n, c, args.k, args.r)
        lines.append(
            f"  c = {c:.4f} ({prediction.regime:>8}): predicted rounds at n={args.n}: "
            f"{prediction.rounds:.0f}"
        )
    return "\n".join(lines)


def _run_peel(args: argparse.Namespace) -> Union[str, Tuple[str, int]]:
    from repro.engine import peel
    from repro.hypergraph import partitioned_hypergraph, random_hypergraph

    engine = args.engine or args.mode or "parallel"
    if engine == "subtable":
        n = args.n + (-args.n) % args.r
        graph = partitioned_hypergraph(n, args.c, args.r, seed=args.seed)
    else:
        graph = random_hypergraph(args.n, args.c, args.r, seed=args.seed)
    if args.incremental:
        return _run_peel_incremental(args, engine, graph)
    result = peel(graph, engine, k=args.k, kernel=args.kernel)
    lines = [result.summary()]
    prediction = predict_rounds(graph.num_vertices, args.c, args.k, args.r)
    lines.append(
        f"recurrence prediction: {prediction.rounds:.0f} rounds ({prediction.regime} threshold "
        f"c* = {prediction.threshold:.4f})"
    )
    return "\n".join(lines)


def _run_peel_incremental(args, engine, graph) -> Tuple[str, int]:
    """The --incremental flow of ``repro peel``: peel, churn edges, resume, verify."""
    import numpy as np

    from repro.engine import peel, peel_resumable, resume
    from repro.hypergraph import hypergraph_from_edges
    from repro.kernels import drop_edges, get_kernel

    if engine not in ("parallel", "sequential"):
        raise SystemExit(
            f"--incremental requires a resumable engine (parallel or sequential), got {engine!r}"
        )
    result, state = peel_resumable(graph, engine, k=args.k, kernel=args.kernel)
    lines = [result.summary()]
    m = graph.num_edges
    drop_count = max(1, min(m, int(args.churn * m)))
    rng = np.random.default_rng(args.seed + 1)
    dropped = np.sort(rng.choice(m, size=drop_count, replace=False)).astype(np.int64)
    dirty = drop_edges(get_kernel(args.kernel), state, dropped)
    resumed = resume(state, dirty, engine, k=args.k, kernel=args.kernel)
    lines.append(
        f"churned {drop_count} of {m} edges ({drop_count / m:.2%}), "
        f"{dirty.size} dirty vertices"
    )
    lines.append("resumed: " + resumed.summary())
    keep = np.setdiff1d(np.arange(m, dtype=np.int64), dropped)
    mutated = hypergraph_from_edges(graph.num_vertices, graph.edges[keep])
    scratch = peel(mutated, engine, k=args.k, kernel=args.kernel)
    ok = bool(
        resumed.core_size == scratch.core_size
        and np.array_equal(resumed.core_vertex_mask, scratch.core_vertex_mask)
        and np.array_equal(resumed.core_edge_mask[keep], scratch.core_edge_mask)
    )
    lines.append(
        "verified: resumed core matches a from-scratch peel of the mutated graph"
        if ok
        else "MISMATCH: resumed core differs from a from-scratch peel of the mutated graph"
    )
    return "\n".join(lines), 0 if ok else 1


def _run_decode(args: argparse.Namespace) -> Union[str, Tuple[str, int]]:
    import numpy as np

    from repro.apps.sparse_recovery import random_distinct_keys
    from repro.iblt import IBLT

    num_cells = args.num_cells + (-args.num_cells) % args.r
    num_keys = max(1, int(args.load * num_cells))
    churn = max(1, min(num_keys, int(args.churn * num_keys)))
    pool = random_distinct_keys(num_keys + churn, seed=args.seed)
    keys = pool[:num_keys]
    table = IBLT(num_cells, args.r, layout="subtables", seed=args.seed)
    table.insert(keys)
    options = {} if args.kernel is None else {"kernel": args.kernel}
    if not args.incremental:
        result = table.decode(decoder=args.decoder, signed=True, **options)
        return (
            f"IBLT decode ({args.decoder}): {num_keys} keys in {num_cells} cells: "
            f"success={result.success} rounds={result.rounds} "
            f"recovered={np.asarray(result.recovered).size}"
        )
    bootstrap = table.decode(decoder=args.decoder, signed=True, incremental=True, **options)
    lines = [
        f"bootstrap decode ({args.decoder}): {num_keys} keys in {num_cells} cells: "
        f"success={bootstrap.success} rounds={bootstrap.rounds}"
    ]
    rng = np.random.default_rng(args.seed + 1)
    deleted = rng.choice(keys, size=churn, replace=False).astype(np.uint64)
    inserted = pool[num_keys:]
    table.delete(deleted)
    table.insert(inserted)
    incr = table.decode(decoder=args.decoder, signed=True, incremental=True, **options)
    lines.append(
        f"incremental checkpoint after churn of {churn} deletes + {inserted.size} inserts "
        f"({args.churn:.2%}): success={incr.success} "
        f"resumed_from_round={incr.resumed_from_round} "
        f"rounds_incremental={incr.rounds_incremental} cells_scanned={incr.cells_scanned}"
    )
    scratch = IBLT.from_bytes(table.to_bytes()).decode(
        decoder=args.decoder, signed=True, **options
    )

    def contents(result) -> Tuple[np.ndarray, np.ndarray]:
        return (
            np.sort(np.asarray(result.recovered, dtype=np.uint64)),
            np.sort(np.asarray(result.removed, dtype=np.uint64)),
        )

    def same(a, b) -> bool:
        return all(np.array_equal(x, y) for x, y in zip(a, b))

    truth = (
        np.sort(np.concatenate([np.setdiff1d(keys, deleted), inserted])),
        np.empty(0, dtype=np.uint64),
    )
    ok = bool(
        (not incr.success or same(contents(incr), truth))
        and (not scratch.success or (incr.success and same(contents(scratch), truth)))
        and (incr.success or same(contents(incr), contents(scratch)))
    )
    lines.append(
        "verified: checkpoint honours the decode contract (success means the true "
        "keys; a from-scratch success implies a checkpoint success)"
        if ok
        else "MISMATCH: checkpoint breaks the decode contract against the true keys "
        "and a from-scratch decode of the mutated table"
    )
    return "\n".join(lines), 0 if ok else 1


def _run_serve(args: argparse.Namespace) -> str:
    import asyncio
    import json

    from repro.serve.server import DecodeServer, run_server

    server = DecodeServer(
        host=args.host,
        port=args.port,
        batch_window_ms=args.batch_window_ms,
        max_batch_size=args.max_batch,
        max_pending=args.max_pending,
        executor_workers=args.executor_workers,
        kernel=args.kernel,
    )

    def announce(line: str) -> None:
        print(line, file=sys.stderr, flush=True)

    snapshot = asyncio.run(
        run_server(server, port_file=args.port_file, announce=announce)
    )
    return json.dumps(snapshot, indent=2)


def _run_decode_client(args: argparse.Namespace) -> Tuple[str, int]:
    import asyncio
    import json

    from repro.serve.client import run_load

    if args.requests < 1:
        raise SystemExit("--requests must be >= 1")
    summary = asyncio.run(
        run_load(
            args.host,
            args.port,
            requests=args.requests,
            connections=args.connections,
            num_cells=args.num_cells,
            r=args.r,
            load=args.load,
            seed=args.seed,
            verify=args.verify,
        )
    )
    code = 0
    problems = []
    # decode_failures (tables whose 2-core was non-empty) are a property of
    # the workload, not the service: with --verify on, a failure that is
    # bit-identical to the local flat decode is correct service behaviour,
    # so only mismatches gate the exit code.
    if summary["mismatches"]:
        problems.append(
            f"{len(summary['mismatches'])} response(s) differ from the local flat decode"
        )
    if args.expect_mean_batch_gt is not None:
        mean_batch = summary.get("server_stats", {}).get("mean_batch_size", 0.0)
        if not mean_batch > args.expect_mean_batch_gt:
            problems.append(
                f"server mean batch size {mean_batch:.2f} is not > "
                f"{args.expect_mean_batch_gt} (fusion did not engage)"
            )
    if problems:
        summary["problems"] = problems
        code = 1
    return json.dumps(summary, indent=2), code


_DISPATCH = {
    **{name: _run_sweep_command for name in _SWEEP_BUILDERS},
    "thresholds": _run_thresholds,
    "peel": _run_peel,
    "decode": _run_decode,
    "bench": run_bench_command,
    "serve": _run_serve,
    "decode-client": _run_decode_client,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    result = _DISPATCH[args.command](args)
    output, code = result if isinstance(result, tuple) else (result, 0)
    print(output)
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
