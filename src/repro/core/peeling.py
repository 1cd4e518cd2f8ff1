"""Sequential and round-synchronous parallel peeling engines.

The peeling process repeatedly removes vertices with degree less than ``k``
together with their incident edges; what remains is the k-core.  The paper's
subject is the *parallel* (round-synchronous) schedule: in each round every
vertex of degree ``< k`` is removed simultaneously.  Both schedules reach the
same k-core (it is order-independent); they differ only in round structure
and work, which is exactly what the experiments measure.

Implementation notes
--------------------
Both engines are thin *schedules* over the shared kernel layer
(:mod:`repro.kernels`): they own the loop structure and statistics while
every state mutation — removable selection, edge death, degree scatter —
runs through a :class:`~repro.kernels.base.PeelingKernel` backend selected
by the ``kernel=`` option (``"numpy"`` reference backend by default; the
compiled ``"cffi"`` tier when cffi and a C compiler are present).
Compiled backends additionally fuse the whole subround into one pass (see
:meth:`~repro.kernels.base.PeelingKernel.fused_subround`); the parallel
engine attaches the CSR incidence to the peel state so that fused path can
find dying edges in work proportional to the removals.  All backends are
bit-exact, so swapping one changes wall-clock time and nothing else.
"""

from __future__ import annotations

from typing import List, Literal, Optional, Tuple, Union

import numpy as np

from repro.core.results import PeelingResult, RoundStats
from repro.hypergraph.hypergraph import Hypergraph
from repro.kernels import PeelingKernel, PeelState, get_kernel, peel_subround
from repro.kernels.arena import default_arena
from repro.kernels.rounds import reseed_frontier
from repro.utils.validation import check_positive_int

__all__ = ["ParallelPeeler", "SequentialPeeler"]

UpdateMode = Literal["full", "frontier"]

KernelLike = Union[str, PeelingKernel, None]


class ParallelPeeler:
    """Round-synchronous parallel peeling (the process analyzed in Section 3).

    Parameters
    ----------
    k:
        Degree threshold; vertices of degree ``< k`` are removed each round.
    update:
        ``"full"`` re-examines every live vertex each round (this is what the
        paper's GPU implementation does — one thread per cell per round);
        ``"frontier"`` only re-examines vertices that lost an incident edge
        in the previous round.  Both produce identical results; they differ
        only in the recorded *work* (used by the cost model and the
        work-ablation benchmark).
    max_rounds:
        Safety cap on the number of rounds (defaults to ``4 * n + 16`` at run
        time, far above the theoretical maximum).
    track_stats:
        Record per-round :class:`~repro.core.results.RoundStats` (default
        True; disable for the tightest inner-loop benchmarks).
    kernel:
        Kernel backend supplying the round primitives: a registered name
        (see :func:`repro.kernels.available_kernels`) or a ready
        :class:`~repro.kernels.base.PeelingKernel` instance; ``None`` selects
        the default (``"numpy"``).
    wide_ids:
        Force the wide ``int64`` working layout; by default the state is
        compact (32-bit ids) whenever the graph fits, which halves the
        per-round memory traffic.  Results are bit-identical either way.
    """

    def __init__(
        self,
        k: int,
        *,
        update: UpdateMode = "full",
        max_rounds: Optional[int] = None,
        track_stats: bool = True,
        kernel: KernelLike = None,
        wide_ids: bool = False,
    ) -> None:
        self.k = check_positive_int(k, "k")
        if update not in ("full", "frontier"):
            raise ValueError(f"update must be 'full' or 'frontier', got {update!r}")
        self.update: UpdateMode = update
        if max_rounds is not None:
            max_rounds = check_positive_int(max_rounds, "max_rounds")
        self.max_rounds = max_rounds
        self.track_stats = bool(track_stats)
        self.kernel = get_kernel(kernel)
        self.wide_ids = bool(wide_ids)

    def peel(self, graph: Hypergraph) -> PeelingResult:
        """Run the parallel peeling process on ``graph``.

        Returns
        -------
        PeelingResult
            ``num_rounds`` counts rounds that removed at least one vertex,
            matching the "Rounds" column of Table 1.
        """
        k = self.k
        kernel = self.kernel
        frontier_mode = self.update == "frontier"
        n = graph.num_vertices
        # Fused backends find dying edges through the CSR incidence (work
        # proportional to the removals instead of an O(m·r) edge scan); the
        # graph caches these arrays across runs.  The NumPy reference path
        # never reads them, so it never pays for them.  The thread-local
        # arena backs the mutable arrays, so repeat trials on one worker
        # reuse the same buffers instead of reallocating the working set.
        state = PeelState.from_graph(
            graph,
            wide_ids=self.wide_ids,
            arena=default_arena(),
            attach_incidence=getattr(kernel, "fused_subround", None) is not None,
        )
        # Frontier mode starts by examining everything once; full mode passes
        # candidates=None so the kernel scans every live vertex each round.
        if frontier_mode:
            state.frontier = default_arena().arange("engine/frontier", n)
        stats: List[RoundStats] = []
        rounds = self._run_rounds(state, frontier_mode=frontier_mode, stats=stats)

        vertex_rounds, edge_rounds = state.result_peel_rounds()
        return PeelingResult(
            k=k,
            mode="parallel",
            num_rounds=rounds,
            num_subrounds=rounds,
            success=state.done,
            vertex_peel_round=vertex_rounds,
            edge_peel_round=edge_rounds,
            round_stats=stats,
        )

    def _run_rounds(
        self,
        state: PeelState,
        *,
        frontier_mode: bool,
        stats: List[RoundStats],
    ) -> int:
        """Drive ``state`` to its fixed point, starting after any completed rounds.

        The shared round loop behind both :meth:`peel` (``rounds_completed ==
        0``) and :meth:`resume` (a checkpointed fixed point with a reseeded
        frontier).  Round indices are absolute: a resumed run stamps rounds
        ``rounds_completed + 1, ...`` so the peel-round arrays of an
        incremental run line up with the process history.  Returns the last
        productive (absolute) round and records it on the state.
        """
        k = self.k
        kernel = self.kernel
        start = state.rounds_completed
        limit = (
            self.max_rounds
            if self.max_rounds is not None
            else 4 * max(state.num_vertices, 1) + 16
        )
        rounds = start

        for round_index in range(start + 1, start + limit + 1):
            outcome = peel_subround(
                kernel,
                state,
                k,
                round_index,
                candidates=state.frontier if frontier_mode else None,
                collect_touched=frontier_mode,
                arena=state.arena,
            )
            if outcome.num_removed == 0:
                break
            rounds = round_index
            if frontier_mode:
                kernel.refresh_frontier(state, outcome.touched)
            if self.track_stats:
                stats.append(
                    RoundStats(
                        round_index=round_index,
                        vertices_peeled=outcome.num_removed,
                        edges_peeled=outcome.num_dying,
                        vertices_remaining=state.vertices_remaining,
                        edges_remaining=state.edges_remaining,
                        work=outcome.examined,
                    )
                )
        else:  # pragma: no cover - loop exhausted without fixed point
            raise RuntimeError(
                f"parallel peeling did not reach a fixed point within {limit} rounds"
            )

        state.rounds_completed = rounds
        return rounds

    def peel_resumable(self, graph: Hypergraph) -> Tuple[PeelingResult, PeelState]:
        """Peel ``graph`` and keep the fixed-point state resident for :meth:`resume`.

        Unlike :meth:`peel`, the working arrays are *owned* (no arena): the
        thread-local arena buffers would be recycled by the next peel on this
        thread, and a resumable state must outlive arbitrary later work.  The
        returned result is identical to :meth:`peel`'s (the parity tests pin
        this); its peel-round arrays are copies, so later ``resume`` calls
        mutating the state never retroactively change a returned result.
        """
        frontier_mode = self.update == "frontier"
        state = PeelState.from_graph(
            graph,
            wide_ids=self.wide_ids,
            arena=None,
            attach_incidence=getattr(self.kernel, "fused_subround", None) is not None,
        )
        if frontier_mode:
            state.frontier = np.arange(graph.num_vertices, dtype=np.int64)
        stats: List[RoundStats] = []
        rounds = self._run_rounds(state, frontier_mode=frontier_mode, stats=stats)
        vertex_rounds, edge_rounds = state.result_peel_rounds(force_copy=True)
        result = PeelingResult(
            k=self.k,
            mode="parallel",
            num_rounds=rounds,
            num_subrounds=rounds,
            success=state.done,
            vertex_peel_round=vertex_rounds,
            edge_peel_round=edge_rounds,
            round_stats=stats,
        )
        return result, state

    def resume(self, state: PeelState, dirty: np.ndarray) -> PeelingResult:
        """Continue peeling a checkpointed fixed point after churn.

        ``state`` is a resident state from :meth:`peel_resumable` (or a
        ``PeelState.resume``-restored checkpoint) whose graph was mutated by
        dropping edges (:func:`repro.kernels.rounds.drop_edges`); ``dirty``
        lists the vertices whose degree those mutations changed.  Only those
        vertices can have become newly removable — the fixed point is
        monotone everywhere else — so the resumed run always uses the
        frontier schedule seeded from ``dirty``
        (:func:`~repro.kernels.rounds.reseed_frontier`), regardless of the
        configured ``update`` mode: the whole point is churn-proportional
        work.  Round stamps continue after ``resumed_from_round``, and the
        surviving core is identical to a from-scratch peel of the mutated
        graph (order-independence of peeling; the resume tests pin this).
        """
        reseed_frontier(self.kernel, state, dirty)
        start = state.rounds_completed
        stats: List[RoundStats] = []
        rounds = self._run_rounds(state, frontier_mode=True, stats=stats)
        vertex_rounds, edge_rounds = state.result_peel_rounds(force_copy=True)
        return PeelingResult(
            k=self.k,
            mode="parallel",
            num_rounds=rounds,
            num_subrounds=rounds - start,
            success=state.done,
            vertex_peel_round=vertex_rounds,
            edge_peel_round=edge_rounds,
            round_stats=stats,
            resumed_from_round=start,
        )


class SequentialPeeler:
    """Greedy one-vertex-at-a-time peeling (the serial baseline).

    This is the classical linear-time algorithm: keep a worklist of vertices
    with degree ``< k``; repeatedly pop one, remove it and its incident
    edges, and push any neighbour whose degree drops below ``k``.  It reaches
    the same k-core as :class:`ParallelPeeler` but its "rounds" have no
    meaning — instead it reports the order in which edges were peeled, which
    the IBLT and erasure-code decoders rely on.  The worklist loop itself is
    a kernel primitive (:meth:`~repro.kernels.base.PeelingKernel.sequential_peel`),
    so JIT backends compile it.
    """

    def __init__(
        self,
        k: int,
        *,
        track_stats: bool = True,
        kernel: KernelLike = None,
        wide_ids: bool = False,
    ) -> None:
        self.k = check_positive_int(k, "k")
        self.track_stats = bool(track_stats)
        self.kernel = get_kernel(kernel)
        self.wide_ids = bool(wide_ids)

    def peel(self, graph: Hypergraph) -> PeelingResult:
        """Run sequential peeling on ``graph``."""
        state = PeelState.from_graph(
            graph,
            wide_ids=self.wide_ids,
            arena=default_arena(),
            attach_incidence=True,
        )
        peel_order, work, step = self.kernel.sequential_peel(
            state, self.k, state.incidence_ptr, state.incidence_edges
        )

        stats: List[RoundStats] = []
        if self.track_stats:
            stats.append(
                RoundStats(
                    round_index=1,
                    vertices_peeled=state.num_vertices - state.vertices_remaining,
                    edges_peeled=state.num_edges - state.edges_remaining,
                    vertices_remaining=state.vertices_remaining,
                    edges_remaining=state.edges_remaining,
                    work=work,
                )
            )
        num_rounds = 1 if step else 0
        vertex_rounds, edge_rounds = state.result_peel_rounds()
        return PeelingResult(
            k=self.k,
            mode="sequential",
            num_rounds=num_rounds,
            num_subrounds=num_rounds,
            success=state.done,
            vertex_peel_round=vertex_rounds,
            edge_peel_round=edge_rounds,
            round_stats=stats,
            peel_order=peel_order,
        )

    def peel_resumable(self, graph: Hypergraph) -> Tuple[PeelingResult, PeelState]:
        """Peel ``graph`` keeping the fixed-point state resident for :meth:`resume`.

        The state owns its buffers (no arena — it must outlive later peels on
        this thread) and records the worklist *step* counter in
        ``rounds_completed``, so a resumed run continues stamping the
        per-vertex/edge removal steps where this run stopped.
        """
        state = PeelState.from_graph(
            graph,
            wide_ids=self.wide_ids,
            arena=None,
            attach_incidence=True,
        )
        peel_order, work, step = self.kernel.sequential_peel(
            state, self.k, state.incidence_ptr, state.incidence_edges
        )
        state.rounds_completed = step

        stats: List[RoundStats] = []
        if self.track_stats:
            stats.append(
                RoundStats(
                    round_index=1,
                    vertices_peeled=state.num_vertices - state.vertices_remaining,
                    edges_peeled=state.num_edges - state.edges_remaining,
                    vertices_remaining=state.vertices_remaining,
                    edges_remaining=state.edges_remaining,
                    work=work,
                )
            )
        num_rounds = 1 if step else 0
        vertex_rounds, edge_rounds = state.result_peel_rounds(force_copy=True)
        result = PeelingResult(
            k=self.k,
            mode="sequential",
            num_rounds=num_rounds,
            num_subrounds=num_rounds,
            success=state.done,
            vertex_peel_round=vertex_rounds,
            edge_peel_round=edge_rounds,
            round_stats=stats,
            peel_order=peel_order,
        )
        return result, state

    def resume(self, state: PeelState, dirty: np.ndarray) -> PeelingResult:
        """Continue the greedy worklist from a checkpointed fixed point.

        Seeds the worklist with the live members of ``dirty`` (the vertices
        whose degree the churn changed — only they can have dropped below
        ``k``) and continues the per-vertex/edge step stamps from
        ``state.rounds_completed``.  The surviving core equals a from-scratch
        sequential peel of the mutated graph, and ``peel_order`` lists only
        the *incrementally* removed edges.  Requires the CSR incidence the
        resumable state attaches; the loop mirrors the kernel's
        ``sequential_peel`` worklist exactly, in plain Python — incremental
        work is churn-sized, so a compiled inner loop buys nothing here.
        """
        k = self.k
        edges = state.edges
        degrees = state.degrees
        vertex_alive = state.vertex_alive
        edge_alive = state.edge_alive
        vertex_peel_round = state.vertex_peel_round
        edge_peel_round = state.edge_peel_round
        incidence_ptr = state.incidence_ptr
        incidence_edges = state.incidence_edges
        if incidence_ptr is None or incidence_edges is None:
            raise ValueError(
                "sequential resume requires a state with the CSR incidence attached"
                " (use SequentialPeeler.peel_resumable to create one)"
            )
        dirty = np.unique(np.asarray(dirty, dtype=np.int64))
        worklist = [int(v) for v in dirty if vertex_alive[v] and degrees[v] < k]
        start_step = state.rounds_completed
        step = start_step
        work = 0
        peel_order: List[int] = []
        while worklist:
            v = worklist.pop()
            work += 1
            if not vertex_alive[v] or degrees[v] >= k:
                continue
            step += 1
            vertex_alive[v] = False
            vertex_peel_round[v] = step
            for e in incidence_edges[incidence_ptr[v]: incidence_ptr[v + 1]]:
                e = int(e)
                if not edge_alive[e]:
                    continue
                edge_alive[e] = False
                edge_peel_round[e] = step
                peel_order.append(e)
                for u in edges[e]:
                    u = int(u)
                    degrees[u] -= 1
                    if vertex_alive[u] and degrees[u] < k:
                        worklist.append(u)
        state.vertices_remaining = int(vertex_alive.sum())
        state.edges_remaining = int(edge_alive.sum())
        state.rounds_completed = step

        resumed_from = 1 if start_step else 0
        num_rounds = 1 if step else 0
        stats: List[RoundStats] = []
        if self.track_stats:
            stats.append(
                RoundStats(
                    round_index=resumed_from + 1,
                    vertices_peeled=step - start_step,
                    edges_peeled=len(peel_order),
                    vertices_remaining=state.vertices_remaining,
                    edges_remaining=state.edges_remaining,
                    work=work,
                )
            )
        vertex_rounds, edge_rounds = state.result_peel_rounds(force_copy=True)
        return PeelingResult(
            k=k,
            mode="sequential",
            num_rounds=max(num_rounds, resumed_from),
            num_subrounds=1 if step > start_step else 0,
            success=state.done,
            vertex_peel_round=vertex_rounds,
            edge_peel_round=edge_rounds,
            round_stats=stats,
            peel_order=np.asarray(peel_order, dtype=np.int64),
            resumed_from_round=resumed_from,
        )

