"""Columnar peeling state shared by every round-synchronous engine.

A :class:`PeelState` is the struct-of-arrays working set of one peeling run:
alive masks for vertices and edges, the mutable degree vector, the per-round
peel arrays that end up in :class:`~repro.core.results.PeelingResult`, and
(for frontier schedules) the candidate set to examine next round.  Engines
own the loop structure — what counts as a round, which statistics to record —
while every state mutation goes through a
:class:`~repro.kernels.base.PeelingKernel` backend, so the same engine code
runs on plain NumPy or on a compiled backend without change.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.core.results import UNPEELED
from repro.hypergraph.hypergraph import Hypergraph
from repro.kernels.arena import RoundArena

__all__ = ["PeelCheckpoint", "PeelState"]


@dataclass(frozen=True)
class PeelCheckpoint:
    """Owning snapshot of a :class:`PeelState` at a fixed point (or any round).

    Every mutable column is copied out of the (possibly arena-backed) state,
    so a checkpoint survives arena reuse and later resumed rounds: restoring
    it with :meth:`PeelState.resume` rewinds the state bit-for-bit to the
    captured round.  The immutable ``edges`` / incidence arrays are *not*
    captured — they belong to the graph and never change.
    """

    degrees: np.ndarray
    vertex_alive: np.ndarray
    edge_alive: np.ndarray
    vertex_peel_round: np.ndarray
    edge_peel_round: np.ndarray
    vertices_remaining: int
    edges_remaining: int
    rounds_completed: int
    frontier: Optional[np.ndarray] = None


@dataclass
class PeelState:
    """Struct-of-arrays state of an in-progress peeling process.

    Attributes
    ----------
    edges:
        The ``(m, r)`` edge array of the hypergraph being peeled (borrowed,
        never mutated).
    degrees:
        Mutable degree vector of shape ``(n,)``; kernels scatter-decrement it
        as edges die.
    vertex_alive / edge_alive:
        Boolean alive masks of shapes ``(n,)`` and ``(m,)``.
    vertex_peel_round / edge_peel_round:
        Per-vertex / per-edge (1-based) round of removal, ``UNPEELED`` while
        alive; these arrays are handed to the result object unchanged.
    vertices_remaining / edges_remaining:
        Live counts, maintained incrementally so engines never re-scan the
        masks for bookkeeping.
    frontier:
        Candidate vertices to examine next round (frontier schedules only);
        ``None`` means "examine everything".
    incidence_ptr / incidence_edges:
        Optional CSR vertex→edge index of the graph being peeled (the
        arrays :attr:`repro.hypergraph.Hypergraph.incidence_ptr` /
        ``incidence_edges`` already cache).  ``None`` by default — only
        engines targeting a compiled backend's fused round primitive attach
        them (see :meth:`~repro.kernels.base.PeelingKernel.fused_subround`),
        so the reference NumPy path never pays for an index it does not
        read.
    arena:
        The :class:`~repro.kernels.arena.RoundArena` backing the mutable
        arrays, or ``None`` when they are owned.  Arena-backed arrays alias
        the pool's reusable buffers, so anything that must outlive this
        state (the result peel-round arrays) goes through
        :meth:`result_peel_rounds`, which copies exactly when needed.
    rounds_completed:
        Rounds executed on this state so far.  0 for a fresh state; a state
        restored via :meth:`resume` (or kept resident between
        :meth:`checkpoint` calls) carries the round it stopped at, so a
        resumed engine continues stamping peel rounds where the previous
        fixed point left off instead of restarting at round 1.

    Dtypes
    ------
    By default the state is *compact* whenever the graph fits 32-bit ids
    (see :attr:`~repro.hypergraph.Hypergraph.supports_compact_ids`):
    ``edges`` / ``incidence_edges`` are ``uint32`` and ``degrees`` /
    ``incidence_ptr`` / the peel-round arrays are ``int32`` (signed, since
    ``UNPEELED`` is ``-1``) — half the memory bandwidth per round of the
    wide ``int64`` layout.  ``wide_ids=True`` is the escape hatch back to
    int64 everywhere; results are bit-identical either way (the parity
    suite pins compact vs wide on every backend), because index arrays
    *returned* by kernels and results stay int64 at the boundary.
    """

    edges: np.ndarray
    degrees: np.ndarray
    vertex_alive: np.ndarray
    edge_alive: np.ndarray
    vertex_peel_round: np.ndarray
    edge_peel_round: np.ndarray
    vertices_remaining: int
    edges_remaining: int
    frontier: Optional[np.ndarray] = field(default=None)
    incidence_ptr: Optional[np.ndarray] = field(default=None)
    incidence_edges: Optional[np.ndarray] = field(default=None)
    arena: Optional[RoundArena] = field(default=None, repr=False)
    rounds_completed: int = 0

    @classmethod
    def from_graph(
        cls,
        graph: Hypergraph,
        *,
        wide_ids: bool = False,
        arena: Optional[RoundArena] = None,
        attach_incidence: bool = False,
    ) -> "PeelState":
        """Initial state for peeling ``graph``: everything alive, true degrees.

        Parameters
        ----------
        wide_ids:
            Force the wide ``int64`` layout even when the graph fits compact
            32-bit ids (the compact layout is the default whenever it fits).
        arena:
            Optional scratch arena to back the mutable arrays (alive masks,
            degrees, peel rounds) with reused buffers instead of fresh
            allocations.  At most one arena-backed state may be live per
            arena at a time — engines create one state per ``peel`` call,
            which satisfies this by construction.
        attach_incidence:
            Attach the graph's (dtype-matching) CSR incidence index, for
            engines that target a fused kernel round or the sequential
            worklist.
        """
        n = graph.num_vertices
        m = graph.num_edges
        compact = not wide_ids and graph.supports_compact_ids
        round_dtype = np.int32 if compact else np.int64
        if arena is not None:
            degrees = arena.take("state/degrees", n, round_dtype)
            vertex_alive = arena.full("state/vertex_alive", n, bool, True)
            edge_alive = arena.full("state/edge_alive", m, bool, True)
            vertex_peel_round = arena.full("state/vertex_round", n, round_dtype, UNPEELED)
            edge_peel_round = arena.full("state/edge_round", m, round_dtype, UNPEELED)
        else:
            degrees = np.empty(n, dtype=round_dtype)
            vertex_alive = np.ones(n, dtype=bool)
            edge_alive = np.ones(m, dtype=bool)
            vertex_peel_round = np.full(n, UNPEELED, dtype=round_dtype)
            edge_peel_round = np.full(m, UNPEELED, dtype=round_dtype)
        graph.degrees_into(degrees)
        state = cls(
            edges=graph.compact_edges if compact else graph.edges,
            degrees=degrees,
            vertex_alive=vertex_alive,
            edge_alive=edge_alive,
            vertex_peel_round=vertex_peel_round,
            edge_peel_round=edge_peel_round,
            vertices_remaining=n,
            edges_remaining=m,
            arena=arena,
        )
        if attach_incidence:
            if compact:
                state.incidence_ptr = graph.compact_incidence_ptr
                state.incidence_edges = graph.compact_incidence_edges
            else:
                state.incidence_ptr = graph.incidence_ptr
                state.incidence_edges = graph.incidence_edges
        return state

    def checkpoint(self) -> PeelCheckpoint:
        """Snapshot the mutable columns so this round can be returned to.

        The copies own their memory, so checkpoints taken from arena-backed
        states stay valid after the arena recycles the buffers for the next
        trial.  The frontier (when present) is widened to the int64 boundary
        dtype like every other index array that crosses the kernel boundary.
        """
        return PeelCheckpoint(
            degrees=self.degrees.copy(),
            vertex_alive=self.vertex_alive.copy(),
            edge_alive=self.edge_alive.copy(),
            vertex_peel_round=self.vertex_peel_round.copy(),
            edge_peel_round=self.edge_peel_round.copy(),
            vertices_remaining=int(self.vertices_remaining),
            edges_remaining=int(self.edges_remaining),
            rounds_completed=int(self.rounds_completed),
            frontier=None
            if self.frontier is None
            else self.frontier.astype(np.int64, copy=True),
        )

    def resume(self, checkpoint: PeelCheckpoint) -> "PeelState":
        """Restore the mutable columns from ``checkpoint``, in place.

        Copies back *into* the existing buffers (arena-backed or owned), so
        the state object keeps aliasing whatever storage it was built on.
        Shapes must match the checkpointed run; a checkpoint taken from a
        different graph raises ``ValueError`` instead of silently writing
        garbage.  Returns ``self`` for chaining.
        """
        if (
            checkpoint.degrees.shape != self.degrees.shape
            or checkpoint.edge_alive.shape != self.edge_alive.shape
        ):
            raise ValueError(
                "checkpoint shapes "
                f"(n={checkpoint.degrees.shape[0]}, m={checkpoint.edge_alive.shape[0]}) "
                f"do not match this state (n={self.num_vertices}, m={self.num_edges})"
            )
        np.copyto(self.degrees, checkpoint.degrees, casting="same_kind")
        np.copyto(self.vertex_alive, checkpoint.vertex_alive)
        np.copyto(self.edge_alive, checkpoint.edge_alive)
        np.copyto(self.vertex_peel_round, checkpoint.vertex_peel_round, casting="same_kind")
        np.copyto(self.edge_peel_round, checkpoint.edge_peel_round, casting="same_kind")
        self.vertices_remaining = checkpoint.vertices_remaining
        self.edges_remaining = checkpoint.edges_remaining
        self.rounds_completed = checkpoint.rounds_completed
        self.frontier = (
            None if checkpoint.frontier is None else checkpoint.frontier.copy()
        )
        return self

    def result_peel_rounds(self, *, force_copy: bool = False) -> tuple:
        """``(vertex_peel_round, edge_peel_round)`` safe to hand to results.

        Results are int64 regardless of the working layout (the golden
        fingerprints hash raw bytes, so the boundary dtype is pinned), and
        must not alias arena buffers that the next trial will overwrite.
        Copies happen exactly when one of those forces them — the wide,
        owned state hands its arrays over untouched like it always did.
        Resumable engines pass ``force_copy=True`` because their owned state
        outlives the result and keeps mutating across later ``resume`` calls.
        """
        vertex_rounds = self.vertex_peel_round
        edge_rounds = self.edge_peel_round
        if vertex_rounds.dtype != np.int64 or self.arena is not None or force_copy:
            return (
                vertex_rounds.astype(np.int64),
                edge_rounds.astype(np.int64),
            )
        return vertex_rounds, edge_rounds

    @property
    def num_vertices(self) -> int:
        """Total vertex count ``n`` (alive or not)."""
        return int(self.degrees.shape[0])

    @property
    def num_edges(self) -> int:
        """Total edge count ``m`` (alive or not)."""
        return int(self.edge_alive.shape[0])

    @property
    def done(self) -> bool:
        """True once no edges remain (the k-core is empty)."""
        return self.edges_remaining == 0
