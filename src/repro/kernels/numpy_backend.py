"""Reference kernel backend: vectorized NumPy round primitives.

This backend is the ground truth the parity suite pins every other backend
against.  The primitives are the exact operations the pre-kernel engines ran
inline — boolean-mask selection, ``any(axis=1)`` edge death detection and
``np.ufunc.at`` scatter updates — so refactoring the engines onto the kernel
layer changed neither their results nor their accounting.

Dtype contract: every primitive is layout-generic.  A :class:`PeelState`
arrives either *wide* (``int64`` throughout) or *compact* (``uint32`` edge
ids, signed ``int32`` degrees / peel rounds, so the ``UNPEELED`` sentinel
and in-place ``-=`` with promoted intermediates still work — NumPy's
``same_kind`` in-place casting rejects ``int64``-into-``uint32`` but
accepts it into ``int32``).  Indexing, boolean masking, ``bincount`` and
setitem round-stamping are all dtype-polymorphic, so a single code path
serves both layouts bit-identically; compiled backends instead dispatch to
per-dtype specializations and must preserve the same semantics.
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple

import numpy as np

from repro.kernels.base import EdgeEffect
from repro.kernels.state import PeelState

__all__ = ["NumpyKernel"]


class NumpyKernel:
    """Pure-NumPy implementation of the :class:`~repro.kernels.base.PeelingKernel` protocol."""

    name = "numpy"

    def warmup(self) -> None:
        """No-op: the reference backend has no compile step to front-load.

        Compiled backends override this to force their one-time
        shared-library build on tiny inputs, so benchmarks can exclude (and
        report) the compile cost separately from the timed repetitions.
        """

    # ------------------------------------------------------------------ #
    # round primitives
    # ------------------------------------------------------------------ #
    def find_removable(
        self, state: PeelState, k: int, *, candidates: Optional[np.ndarray] = None
    ) -> Tuple[np.ndarray, Optional[np.ndarray], int]:
        degrees = state.degrees
        alive = state.vertex_alive
        if candidates is None:
            # The live count is maintained incrementally and always equals
            # alive.sum() here, so the full scan's work term is free.
            examined = state.vertices_remaining
            mask = alive & (degrees < k)
            return np.flatnonzero(mask), mask, examined
        live = candidates[alive[candidates]] if candidates.size else candidates
        removable = live[degrees[live] < k]
        return removable, None, int(live.size)

    def make_mask(self, size: int, indices: np.ndarray) -> np.ndarray:
        mask = np.zeros(size, dtype=bool)
        mask[indices] = True
        return mask

    def kill_vertices(self, state: PeelState, removable: np.ndarray, round_index: int) -> None:
        state.vertex_alive[removable] = False
        state.vertex_peel_round[removable] = round_index
        state.vertices_remaining -= int(removable.size)

    def find_dying_edges(self, state: PeelState, removable_mask: np.ndarray) -> np.ndarray:
        if state.num_edges == 0:
            return np.empty(0, dtype=np.int64)
        # Column-wise OR accumulation instead of mask[edges].any(axis=1):
        # boolean OR is order-free so the result is bit-identical, but this
        # skips both the (m, r) gather materialization and the axis-1
        # reduce over tiny rows, and ``take`` stays on the fast path for
        # the compact uint32 ids where fancy indexing pays an index
        # conversion per round.
        edges = state.edges
        dying_mask = removable_mask.take(edges[:, 0])
        for j in range(1, edges.shape[1]):
            dying_mask |= removable_mask.take(edges[:, j])
        dying_mask &= state.edge_alive
        return np.flatnonzero(dying_mask)

    def kill_edges(
        self,
        state: PeelState,
        dying: np.ndarray,
        round_index: int,
        *,
        collect_touched: bool = False,
        edge_effect: Optional[EdgeEffect] = None,
    ) -> Optional[np.ndarray]:
        state.edge_alive[dying] = False
        state.edge_peel_round[dying] = round_index
        state.edges_remaining -= int(dying.size)
        endpoints = state.edges[dying].reshape(-1)
        self.scatter_degree_updates(state.degrees, endpoints)
        if edge_effect is not None:
            edge_effect(dying)
        return self.unique(endpoints) if collect_touched else None

    def refresh_frontier(self, state: PeelState, touched: Optional[np.ndarray]) -> None:
        if touched is None:
            touched = np.empty(0, dtype=np.int64)
        state.frontier = touched[state.vertex_alive[touched]] if touched.size else touched

    def reseed_frontier(self, state: PeelState, dirty: np.ndarray) -> np.ndarray:
        # Resume primitive: install the (deduplicated, live) degree-changed
        # vertices as the frontier so a resumed schedule starts from the
        # churn instead of re-scanning the fixed point.
        dirty = np.unique(np.asarray(dirty, dtype=np.int64))
        state.frontier = dirty[state.vertex_alive[dirty]] if dirty.size else dirty
        return state.frontier

    # ------------------------------------------------------------------ #
    # scatter primitives
    # ------------------------------------------------------------------ #
    def scatter_degree_updates(
        self, degrees: np.ndarray, endpoints: np.ndarray, amount: int = 1
    ) -> None:
        # ``np.subtract.at`` serializes one element at a time; once the
        # scatter is dense relative to the target, a counting pass is an
        # order of magnitude faster and arithmetically identical.  The
        # sparse case keeps the direct scatter — a bincount there would
        # allocate and scan far more than the update touches.  Both
        # branches hand the target's own dtype to the ufunc: a python-int
        # amount (or bincount's int64 counts) against compact int32
        # degrees would otherwise force the casting slow path, ~25x on
        # the scatter.
        if endpoints.size * 4 >= degrees.size:
            counts = np.bincount(endpoints, minlength=degrees.size)
            degrees -= (amount * counts).astype(degrees.dtype, copy=False)
        else:
            np.subtract.at(degrees, endpoints, degrees.dtype.type(amount))

    def scatter_sub(self, target: np.ndarray, indices: np.ndarray, values: np.ndarray) -> None:
        np.subtract.at(target, indices, values)

    def scatter_xor(self, target: np.ndarray, indices: np.ndarray, values: np.ndarray) -> None:
        np.bitwise_xor.at(target, indices, values)

    def unique(self, values: np.ndarray) -> np.ndarray:
        return np.unique(values)

    # ------------------------------------------------------------------ #
    # IBLT cell selection
    # ------------------------------------------------------------------ #
    def pure_cells(
        self,
        count: np.ndarray,
        key_sum: np.ndarray,
        check_sum: np.ndarray,
        checksum_fn: Callable[[np.ndarray], np.ndarray],
        *,
        signed: bool,
        start: int = 0,
        stop: Optional[int] = None,
    ) -> np.ndarray:
        counts = count[start:stop]
        candidate = np.abs(counts) == 1 if signed else counts == 1
        idx = np.flatnonzero(candidate)
        if idx.size == 0:
            return idx
        keys = key_sum[start + idx]
        ok = (checksum_fn(keys) == check_sum[start + idx]) & (keys != 0)
        return start + idx[ok]

    # ------------------------------------------------------------------ #
    # sequential schedule
    # ------------------------------------------------------------------ #
    def sequential_peel(
        self,
        state: PeelState,
        k: int,
        incidence_ptr: np.ndarray,
        incidence_edges: np.ndarray,
    ) -> Tuple[np.ndarray, int, int]:
        edges = state.edges
        degrees = state.degrees
        vertex_alive = state.vertex_alive
        edge_alive = state.edge_alive
        vertex_peel_round = state.vertex_peel_round
        edge_peel_round = state.edge_peel_round
        peel_order = []
        work = 0
        worklist = list(np.flatnonzero(degrees < k))
        step = 0
        while worklist:
            v = int(worklist.pop())
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
        return np.asarray(peel_order, dtype=np.int64), work, step
