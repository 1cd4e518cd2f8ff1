"""Bit-for-bit parity of the kernel-layer engines with the pre-kernel code.

The fingerprints below were captured from the pre-refactor engine and
decoder implementations (the inline-NumPy code this repo shipped before the
``repro.kernels`` layer existed) on fixed seeded inputs.  Every engine ×
decoder must keep reproducing them exactly — round counts, subround counts,
per-round work, conflict depths and the full peel-round arrays — on every
registered kernel backend, which is what makes kernels swappable: Tables 1–6
cannot move when the backend does.

The digests are the first 16 hex chars of the SHA-256 of the raw array bytes
(int64/uint64 little-endian on all supported platforms), so any change to
any entry of any accounting array fails loudly.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.engine import peel
from repro.hypergraph import partitioned_hypergraph, random_hypergraph
from repro.iblt import IBLT
from repro.kernels import KernelUnavailableError, available_kernels, get_kernel


def _kernel_or_skip(name):
    """Resolve a declared backend, or skip naming the load failure.

    ``available_kernels()`` lists *declared* backends, including compiled
    tiers whose toolchain has not been probed yet.  On a machine where the
    toolchain is present but broken, the parity case must surface as an
    explicit skip carrying the backend's load error — never a silent pass
    (the backend would go untested) and never an unrelated hard error.
    """
    try:
        get_kernel(name)
    except KernelUnavailableError as exc:
        pytest.skip(f"kernel backend {name!r} unavailable: {exc}")
    return name

PEEL_CASES = [
    # (engine, update, n, c, r, k, seed)
    ("parallel", "full", 4000, 0.7, 4, 2, 11),
    ("parallel", "full", 4000, 0.85, 4, 2, 12),
    ("parallel", "full", 3000, 0.8, 3, 2, 13),
    ("parallel", "frontier", 4000, 0.7, 4, 2, 11),
    ("parallel", "frontier", 4000, 0.85, 4, 2, 12),
    ("parallel", "frontier", 3000, 0.8, 3, 2, 13),
    ("sequential", None, 4000, 0.7, 4, 2, 11),
    ("sequential", None, 4000, 0.85, 4, 2, 12),
    ("sequential", None, 3000, 0.8, 3, 2, 13),
    ("subtable", None, 4000, 0.7, 4, 2, 21),
    ("subtable", None, 3000, 0.75, 3, 2, 22),
]

IBLT_CASES = [
    # (decoder, num_cells, r, load, seed)
    ("subtable", 3000, 3, 0.75, 31),
    ("subtable", 4000, 4, 0.7, 32),
    ("flat", 3000, 3, 0.75, 31),
    ("flat", 4000, 4, 0.7, 32),
]

# Captured from the pre-kernel implementations; do not regenerate casually —
# a mismatch means the refactored inner loop changed observable behaviour.
GOLDEN = {
    "iblt-flat/m3000/r3/l0.75/s31": {
        "cells_scanned": 60000,
        "conflict_depths": "f9671ce2e611b544",
        "conflict_len": 19,
        "num_recovered": 2250,
        "recovered": "76df19d0dd72a97e",
        "rounds": 19,
        "stats_digest": "10ff73400fd35a95",
        "stats_len": 20,
        "subrounds": 19,
        "success": True,
    },
    "iblt-flat/m4000/r4/l0.7/s32": {
        "cells_scanned": 52000,
        "conflict_depths": "002d35b42fee5597",
        "conflict_len": 12,
        "num_recovered": 2800,
        "recovered": "8fc5afcf9e181fb3",
        "rounds": 12,
        "stats_digest": "069fd0f2a97b3fe7",
        "stats_len": 13,
        "subrounds": 12,
        "success": True,
    },
    "iblt-subtable/m3000/r3/l0.75/s31": {
        "cells_scanned": 30000,
        "conflict_depths": "f81d5bfadff8bd74",
        "conflict_len": 30,
        "num_recovered": 2250,
        "recovered": "76df19d0dd72a97e",
        "rounds": 9,
        "stats_digest": "392025c47a963920",
        "stats_len": 30,
        "subrounds": 26,
        "success": True,
    },
    "iblt-subtable/m4000/r4/l0.7/s32": {
        "cells_scanned": 28000,
        "conflict_depths": "411592a373875f7a",
        "conflict_len": 28,
        "num_recovered": 2800,
        "recovered": "8fc5afcf9e181fb3",
        "rounds": 6,
        "stats_digest": "84d32878e5ecb598",
        "stats_len": 28,
        "subrounds": 24,
        "success": True,
    },
    "parallel-frontier/n3000/c0.8/r3/k2/s13": {
        "core_size": 0,
        "edge_peel_round": "d6e1bec3f0bb2ab4",
        "num_rounds": 30,
        "num_subrounds": 30,
        "peel_order": "e3b0c44298fc1c14",
        "stats_digest": "dde80b3eb6fca24c",
        "stats_len": 30,
        "success": True,
        "total_work": 7131,
        "vertex_peel_round": "609c644bedc57d4f",
    },
    "parallel-frontier/n4000/c0.7/r4/k2/s11": {
        "core_size": 0,
        "edge_peel_round": "fad70d44f01404d6",
        "num_rounds": 13,
        "num_subrounds": 13,
        "peel_order": "e3b0c44298fc1c14",
        "stats_digest": "1f5f342fa6025f8a",
        "stats_len": 13,
        "success": True,
        "total_work": 10533,
        "vertex_peel_round": "78749d615d515ff1",
    },
    "parallel-frontier/n4000/c0.85/r4/k2/s12": {
        "core_size": 2630,
        "edge_peel_round": "3ec072ceec0e9947",
        "num_rounds": 10,
        "num_subrounds": 10,
        "peel_order": "e3b0c44298fc1c14",
        "stats_digest": "7cdbc61edde4173b",
        "stats_len": 10,
        "success": False,
        "total_work": 5995,
        "vertex_peel_round": "3c66cfb157be2ca6",
    },
    "parallel/n3000/c0.8/r3/k2/s13": {
        "core_size": 0,
        "edge_peel_round": "d6e1bec3f0bb2ab4",
        "num_rounds": 30,
        "num_subrounds": 30,
        "peel_order": "e3b0c44298fc1c14",
        "stats_digest": "099bfae4ec19885c",
        "stats_len": 30,
        "success": True,
        "total_work": 29365,
        "vertex_peel_round": "609c644bedc57d4f",
    },
    "parallel/n4000/c0.7/r4/k2/s11": {
        "core_size": 0,
        "edge_peel_round": "fad70d44f01404d6",
        "num_rounds": 13,
        "num_subrounds": 13,
        "peel_order": "e3b0c44298fc1c14",
        "stats_digest": "bb8a6cbb9d100e5c",
        "stats_len": 13,
        "success": True,
        "total_work": 23375,
        "vertex_peel_round": "78749d615d515ff1",
    },
    "parallel/n4000/c0.85/r4/k2/s12": {
        "core_size": 2630,
        "edge_peel_round": "3ec072ceec0e9947",
        "num_rounds": 10,
        "num_subrounds": 10,
        "peel_order": "e3b0c44298fc1c14",
        "stats_digest": "7589d2e33e502649",
        "stats_len": 10,
        "success": False,
        "total_work": 32101,
        "vertex_peel_round": "3c66cfb157be2ca6",
    },
    "sequential/n3000/c0.8/r3/k2/s13": {
        "core_size": 0,
        "edge_peel_round": "c7e07d55dbe3244b",
        "num_rounds": 1,
        "num_subrounds": 1,
        "peel_order": "6c41a773ba587e73",
        "stats_digest": "c63333698ae67b58",
        "stats_len": 1,
        "success": True,
        "total_work": 3335,
        "vertex_peel_round": "b506178d246c6160",
    },
    "sequential/n4000/c0.7/r4/k2/s11": {
        "core_size": 0,
        "edge_peel_round": "36e249c550ea51b1",
        "num_rounds": 1,
        "num_subrounds": 1,
        "peel_order": "af2d3aa5403153d4",
        "stats_digest": "75fe1945035ad93b",
        "stats_len": 1,
        "success": True,
        "total_work": 4965,
        "vertex_peel_round": "71870b393a2928fb",
    },
    "sequential/n4000/c0.85/r4/k2/s12": {
        "core_size": 2630,
        "edge_peel_round": "fafd9f15f866b50f",
        "num_rounds": 1,
        "num_subrounds": 1,
        "peel_order": "b0ff5665d52bb829",
        "stats_digest": "d19e34d88bf80d7d",
        "stats_len": 1,
        "success": False,
        "total_work": 989,
        "vertex_peel_round": "fe5032bfde438944",
    },
    "subtable/n3000/c0.75/r3/k2/s22": {
        "core_size": 0,
        "edge_peel_round": "70ba38553ac0b32c",
        "num_rounds": 9,
        "num_subrounds": 26,
        "peel_order": "e3b0c44298fc1c14",
        "stats_digest": "f7e3133ec9618335",
        "stats_len": 26,
        "success": True,
        "total_work": 9409,
        "vertex_peel_round": "86f2e2163f63712e",
    },
    "subtable/n4000/c0.7/r4/k2/s21": {
        "core_size": 0,
        "edge_peel_round": "b552c14f0c44c9f9",
        "num_rounds": 7,
        "num_subrounds": 27,
        "peel_order": "e3b0c44298fc1c14",
        "stats_digest": "8d73312efb51ea3d",
        "stats_len": 27,
        "success": True,
        "total_work": 13842,
        "vertex_peel_round": "76e20e6b5261f0d0",
    },
}


def _digest(arr: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(arr).tobytes()).hexdigest()[:16]


def _stats_digest(round_stats) -> str:
    return _digest(
        np.asarray(
            [
                (
                    s.round_index,
                    s.vertices_peeled,
                    s.edges_peeled,
                    s.vertices_remaining,
                    s.edges_remaining,
                    s.work,
                    -1 if s.subtable is None else s.subtable,
                )
                for s in round_stats
            ],
            dtype=np.int64,
        )
    )


def _peel_fingerprint(result) -> dict:
    return {
        "num_rounds": result.num_rounds,
        "num_subrounds": result.num_subrounds,
        "success": bool(result.success),
        "total_work": result.total_work,
        "core_size": result.core_size,
        "vertex_peel_round": _digest(result.vertex_peel_round),
        "edge_peel_round": _digest(result.edge_peel_round),
        "stats_len": len(result.round_stats),
        "stats_digest": _stats_digest(result.round_stats),
        "peel_order": _digest(result.peel_order),
    }


def _peel_case_key(engine, update, n, c, r, k, seed) -> str:
    name = "parallel-frontier" if (engine, update) == ("parallel", "frontier") else engine
    return f"{name}/n{n}/c{c}/r{r}/k{k}/s{seed}"


def _iblt_table(num_cells: int, r: int, load: float, seed: int) -> IBLT:
    table = IBLT(num_cells, r, seed=seed)
    num_keys = int(load * num_cells)
    keys = np.arange(1, num_keys + 1, dtype=np.uint64) * np.uint64(2654435761)
    table.insert(keys)
    return table


@pytest.mark.parametrize("kernel", available_kernels())
@pytest.mark.parametrize("engine,update,n,c,r,k,seed", PEEL_CASES)
def test_engine_accounting_matches_pre_kernel_golden(kernel, engine, update, n, c, r, k, seed):
    kernel = _kernel_or_skip(kernel)
    if engine == "subtable":
        graph = partitioned_hypergraph(n, c, r, seed=seed)
    else:
        graph = random_hypergraph(n, c, r, seed=seed)
    opts = {"update": update} if update is not None else {}
    result = peel(graph, engine, k=k, kernel=kernel, **opts)
    expected = GOLDEN[_peel_case_key(engine, update, n, c, r, k, seed)]
    assert _peel_fingerprint(result) == expected


@pytest.mark.parametrize("kernel", available_kernels())
@pytest.mark.parametrize("decoder,num_cells,r,load,seed", IBLT_CASES)
def test_decoder_accounting_matches_pre_kernel_golden(kernel, decoder, num_cells, r, load, seed):
    kernel = _kernel_or_skip(kernel)
    table = _iblt_table(num_cells, r, load, seed)
    result = table.decode(decoder=decoder, kernel=kernel)
    fingerprint = {
        "rounds": result.rounds,
        "subrounds": result.subrounds,
        "success": bool(result.success),
        "num_recovered": result.num_recovered,
        "recovered": _digest(np.sort(result.recovered)),
        "cells_scanned": result.decode.cells_scanned,
        "conflict_depths": _digest(np.asarray(result.conflict_depths, dtype=np.int64)),
        "conflict_len": len(result.conflict_depths),
        "stats_len": len(result.round_stats),
        "stats_digest": _stats_digest(result.round_stats),
    }
    assert fingerprint == GOLDEN[f"iblt-{decoder}/m{num_cells}/r{r}/l{load}/s{seed}"]


# The batched lockstep engine stacks many graphs into one block-diagonal
# state; peeling a golden-pinned graph inside a batch (surrounded by decoy
# graphs) must still reproduce the per-graph golden fingerprint exactly —
# rounds, peel-round arrays, per-round work, everything.

BATCHED_PEEL_CASES = [case for case in PEEL_CASES if case[0] == "parallel"]


@pytest.mark.parametrize("kernel", available_kernels())
@pytest.mark.parametrize("engine,update,n,c,r,k,seed", BATCHED_PEEL_CASES)
def test_batched_peel_many_matches_parallel_golden(kernel, engine, update, n, c, r, k, seed):
    from repro.engine import peel_many

    kernel = _kernel_or_skip(kernel)
    graph = random_hypergraph(n, c, r, seed=seed)
    decoys = [random_hypergraph(500, 0.75, r, seed=seed + 1000 + i) for i in range(2)]
    batch = [decoys[0], graph, decoys[1]]
    results = peel_many(
        batch, "parallel", k=k, update=update, kernel=kernel, backend="batched"
    )
    expected = GOLDEN[_peel_case_key(engine, update, n, c, r, k, seed)]
    assert _peel_fingerprint(results[1]) == expected
    # The decoys must equal their own per-graph runs, too.
    for decoy, result in zip(decoys, (results[0], results[2])):
        solo = peel(decoy, "parallel", k=k, update=update, kernel=kernel)
        assert _peel_fingerprint(result) == _peel_fingerprint(solo)


@pytest.mark.parametrize("kernel", available_kernels())
def test_serial_iblt_decode_agrees_with_parallel_decoders(kernel):
    kernel = _kernel_or_skip(kernel)
    table = _iblt_table(3000, 3, 0.75, 31)
    serial = table.decode(decoder="serial")
    for decoder in ("flat", "subtable"):
        parallel = table.decode(decoder=decoder, kernel=kernel)
        assert parallel.success == serial.success
        assert np.array_equal(np.sort(parallel.recovered), np.sort(serial.recovered))


# Cross-kernel parity on shapes the golden corpus does not cover: edges with
# duplicate endpoints (a vertex hit twice by one edge — degrees count it
# twice, and one edge death must decrement it twice) and a CI-sized graph.
# These pin every non-reference backend against a fresh numpy run, so the
# compiled fused paths (which take the CSR-incidence route instead of the
# edge-matrix scan) are exercised on exactly the inputs where that route
# could diverge.

_NON_REFERENCE_KERNELS = [name for name in available_kernels() if name != "numpy"]


def _duplicate_endpoint_graph():
    from repro.hypergraph import hypergraph_from_edges

    rng = np.random.default_rng(97)
    n = 1200
    edges = rng.integers(0, n, size=(900, 3), dtype=np.int64)
    # Force duplicate endpoints: every 5th edge repeats its first vertex,
    # every 11th collapses to a single vertex appearing three times.
    edges[::5, 1] = edges[::5, 0]
    edges[::11, 1] = edges[::11, 0]
    edges[::11, 2] = edges[::11, 0]
    return hypergraph_from_edges(n, edges, allow_duplicate_vertices=True)


@pytest.mark.parametrize("kernel", _NON_REFERENCE_KERNELS)
@pytest.mark.parametrize("engine,update", [
    ("parallel", "full"),
    ("parallel", "frontier"),
    ("sequential", None),
])
def test_duplicate_endpoint_edges_match_numpy(kernel, engine, update):
    kernel = _kernel_or_skip(kernel)
    graph = _duplicate_endpoint_graph()
    opts = {"update": update} if update is not None else {}
    reference = peel(graph, engine, k=2, kernel="numpy", **opts)
    result = peel(graph, engine, k=2, kernel=kernel, **opts)
    assert _peel_fingerprint(result) == _peel_fingerprint(reference)


@pytest.mark.parametrize("kernel", _NON_REFERENCE_KERNELS)
@pytest.mark.parametrize("update", ["full", "frontier"])
def test_large_graph_parity_vs_numpy(kernel, update):
    # CI-scale sanity: n=1e5 at a Table 1 density, both schedule modes.
    kernel = _kernel_or_skip(kernel)
    graph = random_hypergraph(100_000, 0.7, 3, seed=5)
    reference = peel(graph, "parallel", k=2, update=update, kernel="numpy")
    result = peel(graph, "parallel", k=2, update=update, kernel=kernel)
    assert _peel_fingerprint(result) == _peel_fingerprint(reference)
