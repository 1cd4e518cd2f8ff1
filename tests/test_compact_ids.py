"""Compact columnar ids, arena buffer reuse and cross-trial CSR sharing.

Three properties of the compact-state work are pinned here:

1. **Bit-identity** — peeling with the compact 32-bit id layout produces
   results byte-for-byte equal to the wide ``int64`` layout, on every
   registered kernel backend, every engine schedule, the batched lockstep
   engine, and the awkward shapes (duplicate-endpoint
   edges, a CI-scale graph).  Result arrays are always widened back to
   ``int64`` so the golden fingerprints of ``test_kernel_parity.py`` keep
   hashing the same bytes.
2. **Dtype policy** — ``PeelState.from_graph`` picks ``uint32`` edge ids
   and signed ``int32`` degree/round columns whenever the graph fits
   (``Hypergraph.supports_compact_ids``), and ``wide_ids=True`` is the
   escape hatch back to ``int64``.
3. **Allocation behaviour** — a :class:`RoundArena` makes repeat trials
   reuse buffers (zero new arena allocations in steady state — the
   regression test for the per-round ``np.arange``/``zeros`` temporaries
   the batched engine used to allocate), and compact states share the
   graph's cached immutable columns instead of copying them per trial.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.engine import peel
from repro.hypergraph import (
    hypergraph_from_edges,
    partitioned_hypergraph,
    random_hypergraph,
)
from repro.kernels import (
    BatchedPeelState,
    KernelUnavailableError,
    PeelState,
    RoundArena,
    available_kernels,
    batched_peel,
    get_kernel,
)


def _kernel_or_skip(name):
    try:
        get_kernel(name)
    except KernelUnavailableError as exc:
        pytest.skip(f"kernel backend {name!r} unavailable: {exc}")
    return name


def _digest(arr: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(arr).tobytes()).hexdigest()[:16]


def _fingerprint(result) -> tuple:
    """Everything observable about a PeelingResult, hashed bit-exactly."""
    stats = tuple(
        (
            s.round_index,
            s.vertices_peeled,
            s.edges_peeled,
            s.vertices_remaining,
            s.edges_remaining,
            s.work,
            -1 if s.subtable is None else s.subtable,
        )
        for s in result.round_stats
    )
    return (
        result.num_rounds,
        result.num_subrounds,
        bool(result.success),
        result.total_work,
        _digest(result.vertex_peel_round),
        _digest(result.edge_peel_round),
        _digest(result.peel_order),
        stats,
    )


# --------------------------------------------------------------------- #
# dtype policy
# --------------------------------------------------------------------- #
def test_from_graph_selects_compact_dtypes_by_default():
    graph = random_hypergraph(2000, 0.7, 3, seed=1)
    assert graph.supports_compact_ids
    state = PeelState.from_graph(graph, attach_incidence=True)
    assert state.edges.dtype == np.uint32
    assert state.degrees.dtype == np.int32
    assert state.vertex_peel_round.dtype == np.int32
    assert state.edge_peel_round.dtype == np.int32
    assert state.incidence_ptr.dtype == np.int32
    assert state.incidence_edges.dtype == np.uint32


def test_wide_ids_escape_hatch_keeps_int64():
    graph = random_hypergraph(2000, 0.7, 3, seed=1)
    state = PeelState.from_graph(graph, wide_ids=True, attach_incidence=True)
    for arr in (
        state.edges,
        state.degrees,
        state.vertex_peel_round,
        state.edge_peel_round,
        state.incidence_ptr,
        state.incidence_edges,
    ):
        assert arr.dtype == np.int64


@pytest.mark.parametrize("wide_ids", [False, True], ids=["compact", "wide"])
def test_result_peel_rounds_always_widen_to_int64(wide_ids):
    graph = random_hypergraph(1500, 0.7, 3, seed=2)
    result = peel(graph, "parallel", k=2, wide_ids=wide_ids)
    assert result.vertex_peel_round.dtype == np.int64
    assert result.edge_peel_round.dtype == np.int64
    # The result arrays must be owned copies, never views of reusable
    # arena scratch: a later peel on the same thread must not rewrite them.
    before = result.vertex_peel_round.copy()
    peel(random_hypergraph(1500, 0.8, 3, seed=3), "parallel", k=2)
    assert np.array_equal(result.vertex_peel_round, before)


def test_degrees_into_fills_any_compatible_dtype():
    graph = random_hypergraph(800, 0.7, 3, seed=4)
    out64 = np.empty(graph.num_vertices, dtype=np.int64)
    out32 = np.empty(graph.num_vertices, dtype=np.int32)
    assert graph.degrees_into(out64) is out64
    graph.degrees_into(out32)
    assert np.array_equal(out64, graph.degrees())
    assert np.array_equal(out32, graph.degrees())
    with pytest.raises(ValueError):
        graph.degrees_into(np.empty(graph.num_vertices + 1, dtype=np.int64))


# --------------------------------------------------------------------- #
# compact vs wide bit-identity, every kernel x every engine schedule
# --------------------------------------------------------------------- #
ENGINE_CASES = [
    ("parallel", {"update": "full"}),
    ("parallel", {"update": "frontier"}),
    ("sequential", {}),
    ("subtable", {}),
]


@pytest.mark.parametrize("kernel", available_kernels())
@pytest.mark.parametrize(
    "engine,opts", ENGINE_CASES, ids=[f"{e}-{o.get('update', 'na')}" for e, o in ENGINE_CASES]
)
def test_compact_and_wide_runs_are_bit_identical(kernel, engine, opts):
    kernel = _kernel_or_skip(kernel)
    if engine == "subtable":
        graph = partitioned_hypergraph(3000, 0.75, 3, seed=22)
    else:
        graph = random_hypergraph(3000, 0.8, 3, seed=13)
    wide = peel(graph, engine, k=2, kernel=kernel, wide_ids=True, **opts)
    compact = peel(graph, engine, k=2, kernel=kernel, **opts)
    assert _fingerprint(compact) == _fingerprint(wide)


def _duplicate_endpoint_graph():
    rng = np.random.default_rng(97)
    n = 1200
    edges = rng.integers(0, n, size=(900, 3), dtype=np.int64)
    edges[::5, 1] = edges[::5, 0]
    edges[::11, 1] = edges[::11, 0]
    edges[::11, 2] = edges[::11, 0]
    return hypergraph_from_edges(n, edges, allow_duplicate_vertices=True)


@pytest.mark.parametrize("kernel", available_kernels())
def test_duplicate_endpoint_edges_compact_matches_wide(kernel):
    kernel = _kernel_or_skip(kernel)
    graph = _duplicate_endpoint_graph()
    wide = peel(graph, "parallel", k=2, kernel=kernel, wide_ids=True)
    compact = peel(graph, "parallel", k=2, kernel=kernel)
    assert _fingerprint(compact) == _fingerprint(wide)


@pytest.mark.parametrize("kernel", available_kernels())
def test_large_graph_compact_matches_wide(kernel):
    kernel = _kernel_or_skip(kernel)
    graph = random_hypergraph(100_000, 0.7, 3, seed=5)
    wide = peel(graph, "parallel", k=2, kernel=kernel, wide_ids=True)
    compact = peel(graph, "parallel", k=2, kernel=kernel)
    assert _fingerprint(compact) == _fingerprint(wide)


@pytest.mark.parametrize("kernel", available_kernels())
def test_batched_compact_matches_wide(kernel):
    kernel = get_kernel(_kernel_or_skip(kernel))
    graphs = [random_hypergraph(700, 0.75, 3, seed=40 + i) for i in range(4)]
    wide = batched_peel(kernel, graphs, 2, wide_ids=True)
    compact = batched_peel(kernel, graphs, 2)
    for w, c in zip(wide, compact):
        assert _fingerprint(c) == _fingerprint(w)


# --------------------------------------------------------------------- #
# cross-trial CSR sharing
# --------------------------------------------------------------------- #
def test_compact_states_share_the_graphs_cached_columns():
    graph = random_hypergraph(2000, 0.7, 3, seed=6)
    s1 = PeelState.from_graph(graph, attach_incidence=True)
    s2 = PeelState.from_graph(graph, attach_incidence=True)
    # The immutable columns are one cached copy on the graph, not one per
    # trial; only the mutable working arrays are per-state.
    assert np.shares_memory(s1.edges, s2.edges)
    assert np.shares_memory(s1.incidence_ptr, s2.incidence_ptr)
    assert np.shares_memory(s1.incidence_edges, s2.incidence_edges)
    assert not np.shares_memory(s1.degrees, s2.degrees)
    assert not np.shares_memory(s1.vertex_peel_round, s2.vertex_peel_round)


def test_wide_states_share_the_graphs_arrays_too():
    graph = random_hypergraph(2000, 0.7, 3, seed=6)
    s1 = PeelState.from_graph(graph, wide_ids=True, attach_incidence=True)
    s2 = PeelState.from_graph(graph, wide_ids=True, attach_incidence=True)
    assert np.shares_memory(s1.edges, s2.edges)
    assert np.shares_memory(s1.incidence_edges, s2.incidence_edges)


def test_compact_columns_are_read_only_views():
    graph = random_hypergraph(500, 0.7, 3, seed=7)
    state = PeelState.from_graph(graph, attach_incidence=True)
    with pytest.raises((ValueError, RuntimeError)):
        state.edges[0, 0] = 1


# --------------------------------------------------------------------- #
# arena buffer reuse
# --------------------------------------------------------------------- #
def test_arena_take_reuses_and_grows():
    arena = RoundArena()
    a = arena.take("x", 100, np.int64)
    assert arena.allocations == 1
    b = arena.take("x", 80, np.int64)
    assert np.shares_memory(a, b)
    assert arena.allocations == 1  # smaller request: same buffer
    c = arena.take("x", 150, np.int64)
    assert arena.allocations == 2  # grow (doubling) counts as one allocation
    assert c.size == 150
    # Same name, different dtype: a distinct buffer, no reinterpretation.
    d = arena.take("x", 100, np.int32)
    assert d.dtype == np.int32
    assert arena.allocations == 3


def test_arena_flag_contract_all_false_in_all_false_out():
    arena = RoundArena()
    flag = arena.flag("f", 64)
    assert not flag.any()
    flag[[3, 9]] = True
    flag[[3, 9]] = False  # caller restores before the next borrow
    again = arena.flag("f", 64)
    assert np.shares_memory(flag, again)
    assert not again.any()


def test_arena_arange_is_a_cached_identity():
    arena = RoundArena()
    idx = arena.arange("i", 10)
    assert np.array_equal(idx, np.arange(10))
    allocations = arena.allocations
    longer = arena.arange("i", 10)
    assert np.shares_memory(idx, longer)
    assert arena.allocations == allocations


def test_batched_stacking_reuses_arena_buffers_across_same_shape_batches():
    arena = RoundArena()
    graphs = [random_hypergraph(500, 0.7, 3, seed=50 + i) for i in range(4)]
    b1 = BatchedPeelState.from_graphs(graphs, arena=arena)
    after_first = arena.allocations
    assert after_first > 0
    b2 = BatchedPeelState.from_graphs(graphs, arena=arena)
    assert arena.allocations == after_first
    assert np.shares_memory(b1.state.edges, b2.state.edges)
    assert np.shares_memory(b1.incidence_ptr, b2.incidence_ptr)


def test_batched_peel_steady_state_allocates_zero_new_arrays():
    """Regression: the lockstep loop used to allocate an ``arange(total_v)``
    and fresh ``zeros`` flag arrays every round; with an arena, a repeat
    sweep over the same shape must allocate nothing new at all."""
    kernel = get_kernel("numpy")
    graphs = [random_hypergraph(400, 0.75, 3, seed=60 + i) for i in range(8)]
    arena = RoundArena()
    first = batched_peel(kernel, graphs, 2, arena=arena)
    warm = arena.allocations
    assert warm > 0
    second = batched_peel(kernel, graphs, 2, arena=arena)
    assert arena.allocations == warm, "steady-state trial allocated new arena buffers"
    for a, b in zip(first, second):
        assert _fingerprint(a) == _fingerprint(b)


def test_engine_repeat_trials_reuse_the_thread_local_arena():
    graph = random_hypergraph(2000, 0.75, 3, seed=8)
    from repro.kernels import default_arena

    peel(graph, "parallel", k=2)  # warm the thread-local arena
    arena = default_arena()
    warm = arena.allocations
    result = peel(graph, "parallel", k=2)
    assert arena.allocations == warm, "steady-state peel allocated new arena buffers"
    solo = peel(graph, "parallel", k=2, wide_ids=True)
    assert _fingerprint(result) == _fingerprint(solo)


def test_memory_bench_trial_records_compact_savings():
    """The bench ``memory`` section must show the acceptance numbers: the
    compact layout's fully-attached working set is well under the wide one
    (asymptotically ~2x; >= 1.5x is the gate) and a warm peel allocates
    zero new arena buffers in steady state."""
    from repro.bench import _bench_memory_trial

    records = {}
    for mode in ("compact", "wide"):
        records[mode] = _bench_memory_trial(
            {"section": "memory", "mode": mode, "kernel": "numpy",
             "n": 20_000, "c": 0.7, "r": 4, "k": 2, "seed": 1, "repeats": 1},
            np.random.default_rng(0),
        )
    ratio = records["wide"]["state_bytes"] / records["compact"]["state_bytes"]
    assert ratio >= 1.5
    for record in records.values():
        assert record["arena_allocations_steady"] == 0
        assert record["steady_peel_traced_bytes"] > 0
        assert record["seconds"] > 0.0


def test_compact_first_access_never_materializes_the_wide_csr():
    """Regression: the compact cache used to be narrowed from a freshly
    built int64 CSR, leaving *both* layouts resident — ~1.5x the pre-compact
    per-graph footprint and a measurable cache-pressure slowdown on large
    batched sweeps.  A compact-only workload must build the 32-bit CSR
    directly, and both build orders must agree bit-for-bit."""
    g1 = random_hypergraph(3000, 0.7, 4, seed=7)
    g2 = random_hypergraph(3000, 0.7, 4, seed=7)
    c1 = (g1.compact_edges, g1.compact_incidence_ptr,
          g1.compact_incidence_edges, g1.compact_degrees_view)
    assert g1._incidence_edges is None, "compact-first access built the wide CSR"
    _ = g2.incidence_ptr  # wide first, compact narrowed from it
    c2 = (g2.compact_edges, g2.compact_incidence_ptr,
          g2.compact_incidence_edges, g2.compact_degrees_view)
    for direct, narrowed in zip(c1, c2):
        assert direct.dtype == narrowed.dtype
        assert np.array_equal(direct, narrowed)
    # The wide CSR stays available on demand and matches the other order.
    assert np.array_equal(g1.incidence_edges, g2.incidence_edges)
    assert np.array_equal(g1.degrees_view, g2.degrees_view)
