"""kcore-cold: one paper-scale Table 1 trial per op, on a never-peeled graph.

An op is ``random_hypergraph(1_000_000, 0.7, 4)`` followed by
``peel(graph, "parallel", k=2, kernel="numpy")``.  Below the threshold
(c*_{2,4} ~ 0.772) the peel needs about 13 rounds, so the op's time is
mostly outside the round loop: graph generation and the first state build
of the fresh graph.  The first peel of a graph costs several times the
second, which is why no op ever peels a graph twice.
"""

from __future__ import annotations

import os
import time

import numpy as np

from harness import OpOutcome, Report, closed_loop, counter_window_means, op_seed
from harness import sequential_report

NAME = "kcore-cold"
N, C, R, K = 1_000_000, 0.7, 4, 2
WARMUP = 1
COUNTER_OPS = 4
SETUP_REPEATS = 3


def _verify(graph, result) -> bool:
    """The peel succeeded and what survives is a genuine k-core."""
    from repro.core.results import UNPEELED

    surviving = result.vertex_peel_round == UNPEELED
    live_edges = graph.edges[result.edge_peel_round == UNPEELED]
    degree = np.bincount(live_edges.ravel(), minlength=graph.num_vertices)
    return bool(
        result.success
        and surviving[live_edges].all()
        and (degree[surviving] >= K).all()
    )


def _op(seed: int):
    from repro import peel, random_hypergraph
    from repro.kernels import PeelState, default_arena

    def op(index: int, traced: bool) -> OpOutcome:
        graph_seed = op_seed(seed, NAME, index)
        layers = {}
        started = time.perf_counter()
        graph = random_hypergraph(N, C, R, seed=graph_seed)
        if traced:
            generated = time.perf_counter()
            PeelState.from_graph(graph, arena=default_arena())
            built = time.perf_counter()
        result = peel(graph, "parallel", k=K, kernel="numpy")
        elapsed = time.perf_counter() - started
        if traced:
            layers = {
                "hypergraph.generate_ms": 1e3 * (generated - started),
                "kernels.state_build_ms": 1e3 * (built - generated),
                "engine.peel_warm_ms": 1e3 * (started + elapsed - built),
            }
        counters = [result.num_rounds, sum(s.work for s in result.round_stats)]
        return OpOutcome(elapsed, _verify(graph, result), counters, layers)

    return op


def _setup_unit(seed: int, repeat: int) -> float:
    """First trial in a fresh worker process forked from this one.

    Covers the kernel lookup, a cold round arena and one generate-and-peel.
    A forked child keeps the trial's memory out of this process's peak.
    """
    from repro import peel, random_hypergraph
    from repro.kernels import get_kernel

    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:  # child
        code = 1
        try:
            os.close(read_fd)
            started = time.perf_counter()
            get_kernel("numpy")
            graph = random_hypergraph(N, C, R, seed=op_seed(seed, NAME + "/setup", repeat))
            peel(graph, "parallel", k=K, kernel="numpy")
            os.write(write_fd, repr(time.perf_counter() - started).encode())
            code = 0
        finally:
            os._exit(code)
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as pipe:
        text = pipe.read().decode()
    _pid, status = os.waitpid(pid, 0)
    if status != 0 or not text:
        raise RuntimeError("set-up trial failed in the forked worker")
    return float(text)


def run(seed: int, seconds: float, trace: bool) -> Report:
    setup = [_setup_unit(seed, r) for r in range(SETUP_REPEATS)]
    loop = closed_loop(
        _op(seed), seconds=seconds, warmup=WARMUP, counter_ops=COUNTER_OPS, trace=trace
    )
    rounds, inspections = counter_window_means(loop.counters, COUNTER_OPS)
    return sequential_report(
        loop,
        setup_s=setup,
        per_layer={"kernels.rounds": rounds, "kernels.vertex_inspections": inspections},
        traced_layers=("hypergraph.generate_ms", "kernels.state_build_ms", "engine.peel_warm_ms"),
        trace=trace,
    )
