"""The kernel-backend protocol: the vectorized primitives of one peel round.

Every round-synchronous schedule in the paper — parallel k-core peeling,
subtable peeling, flat and subtable IBLT recovery — is the same process:
*select* removable vertices (cells), *kill* their incident edges (keys), and
*scatter* the degree (count) updates back, optionally with a payload side
effect per killed edge (the IBLT decoders XOR the recovered key and its
checksum out of the key's other cells).  A :class:`PeelingKernel` supplies
exactly those primitives, so the engines contain only schedule logic and a
backend (NumPy, or compiled C when a compiler is present) can be
swapped under all of them at once via the kernel registry.

Backends other than the reference NumPy implementation must be *bit-exact*:
the parity suite pins round counts, work and conflict accounting of every
engine across kernels.
"""

from __future__ import annotations

from typing import Callable, Optional, Protocol, Tuple, runtime_checkable

import numpy as np

from repro.kernels.state import PeelState

__all__ = ["PeelingKernel", "EdgeEffect"]


EdgeEffect = Callable[[np.ndarray], None]
"""Per-round side-effect hook: called with the indices of the edges killed
this (sub)round, after degrees have been scattered.  ``None`` for pure k-core
peeling; payload-carrying processes (erasure symbols, XOR clauses) hook their
removal here."""


@runtime_checkable
class PeelingKernel(Protocol):
    """Backend of vectorized round primitives shared by all peeling engines.

    Optional fused hooks
    --------------------
    Compiled backends may additionally provide any of the following; they
    are *not* part of the runtime-checkable protocol (a plain-NumPy backend
    must stay a valid kernel without them) and are discovered by
    ``getattr`` at dispatch time:

    ``fused_subround(state, k, round_index, *, candidates=None,
    collect_touched=False, edge_effect=None) -> Optional[SubroundOutcome]``
        One compiled pass replacing the whole select → kill-vertices →
        kill-edges → scatter sequence of
        :func:`~repro.kernels.rounds.peel_subround`.  Must be bit-exact
        with the three-call reference path (same removable/dying sets,
        same stamps, same accounting) and may return ``None`` to decline a
        configuration it does not implement (e.g. a state without the CSR
        incidence attached), in which case the caller falls back to the
        primitive-by-primitive path.

    ``fused_remove_hyperedges(cells, counts, deltas, payloads) -> bool``
        One compiled pass replacing the per-column scatter loop of
        :func:`~repro.kernels.rounds.remove_hyperedges` (the IBLT XOR
        removal).  Returns ``True`` when it handled the request, ``False``
        to decline (unexpected payload shape/dtypes) and fall back.

    ``warmup() -> None``
        Force any one-time JIT / shared-library compilation on tiny inputs
        so benchmark harnesses can pay (and report) the compile cost
        outside the timed region.

    ``reseed_frontier(state, dirty) -> np.ndarray``
        Resume primitive: replace ``state.frontier`` with the deduplicated
        live members of ``dirty`` (the vertices whose degree changed under
        churn) and return the new frontier, so a resumed schedule examines
        churn-proportional work.  Backends without the hook decline to the
        generic NumPy fallback in :func:`~repro.kernels.rounds.reseed_frontier`
        — the same decline-to-generic contract as the fused hooks.
    """

    name: str

    # ------------------------------------------------------------------ #
    # round primitives over PeelState
    # ------------------------------------------------------------------ #
    def find_removable(
        self, state: PeelState, k: int, *, candidates: Optional[np.ndarray] = None
    ) -> Tuple[np.ndarray, Optional[np.ndarray], int]:
        """Select the vertices to peel this (sub)round.

        With ``candidates=None`` every live vertex is examined (full scan);
        otherwise only the live members of ``candidates``.  Returns
        ``(removable, removable_mask, examined)`` where ``removable_mask`` is
        a boolean mask over all vertices (``None`` when the candidate path
        did not need to build one) and ``examined`` is the number of vertex
        inspections performed — the work term of the cost model.
        """
        ...

    def make_mask(self, size: int, indices: np.ndarray) -> np.ndarray:
        """Boolean mask of length ``size`` with ``indices`` set True."""
        ...

    def kill_vertices(self, state: PeelState, removable: np.ndarray, round_index: int) -> None:
        """Mark ``removable`` dead and stamp their peel round."""
        ...

    def find_dying_edges(self, state: PeelState, removable_mask: np.ndarray) -> np.ndarray:
        """Indices of live edges with at least one endpoint in ``removable_mask``."""
        ...

    def kill_edges(
        self,
        state: PeelState,
        dying: np.ndarray,
        round_index: int,
        *,
        collect_touched: bool = False,
        edge_effect: Optional[EdgeEffect] = None,
    ) -> Optional[np.ndarray]:
        """Kill ``dying`` edges, scatter degree updates, apply the edge effect.

        Returns the unique endpoints of the killed edges when
        ``collect_touched`` (the frontier schedule's candidate seed), else
        ``None`` so non-frontier schedules skip the dedup entirely.
        """
        ...

    def refresh_frontier(self, state: PeelState, touched: Optional[np.ndarray]) -> None:
        """Replace ``state.frontier`` with the live members of ``touched``."""
        ...

    # ------------------------------------------------------------------ #
    # scatter primitives (the inner loop of edge removal)
    # ------------------------------------------------------------------ #
    def scatter_degree_updates(
        self, degrees: np.ndarray, endpoints: np.ndarray, amount: int = 1
    ) -> None:
        """Unbuffered ``degrees[endpoints] -= amount`` with repeat-safe semantics."""
        ...

    def scatter_sub(self, target: np.ndarray, indices: np.ndarray, values: np.ndarray) -> None:
        """Unbuffered ``target[indices] -= values`` (per-index values)."""
        ...

    def scatter_xor(self, target: np.ndarray, indices: np.ndarray, values: np.ndarray) -> None:
        """Unbuffered ``target[indices] ^= values`` (per-index values)."""
        ...

    def unique(self, values: np.ndarray) -> np.ndarray:
        """Sorted unique values (deduplicates killed-edge endpoints into
        frontier seeds)."""
        ...

    # ------------------------------------------------------------------ #
    # IBLT cell selection (find_removable's analogue on cell arrays)
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
        """Absolute indices of pure cells within ``[start, stop)``.

        A cell is pure when its count is ``+1`` (or ``±1`` if ``signed``),
        its key field is non-zero and ``checksum_fn`` of the key field
        matches the checksum field.
        """
        ...

    # ------------------------------------------------------------------ #
    # sequential schedule (the worklist baseline)
    # ------------------------------------------------------------------ #
    def sequential_peel(
        self,
        state: PeelState,
        k: int,
        incidence_ptr: np.ndarray,
        incidence_edges: np.ndarray,
    ) -> Tuple[np.ndarray, int, int]:
        """Greedy one-vertex-at-a-time peeling to the fixed point.

        Mutates ``state`` in place and returns ``(peel_order, work, steps)``:
        the edge indices in removal order, the number of worklist pops, and
        the number of vertices actually removed.
        """
        ...
