"""Resumable IBLT decoding: keep the fixed point resident, re-peel the churn.

A from-scratch decode peels the *whole* table to its fixed point.  But the
fixed point is monotone: after inserting or deleting a few keys, only cells
whose contents changed can become newly pure, so re-peeling should cost
rounds proportional to the churn, not to the table size.  This module is
that observation as code.

An :class:`IncrementalDecodeSession` is created by
``IBLT.decode(incremental=True)`` and holds three things:

* the **residual** cell arrays — the table minus everything recovered so
  far.  By linearity of the IBLT (cell fields are sums/XORs of per-key
  contributions), the residual after any mutation batch equals the residual
  before it plus the batch's cell deltas, so the session keeps it current
  by mirroring every ``insert``/``delete`` (and, on the serve path, raw
  cell-wise deltas between two shipped tables) without ever re-touching
  clean cells.
* the **net sign** of every key recovered so far (``+1`` recovered,
  ``-1`` removed).  A churn batch that deletes a previously-recovered key
  shows up in the residual as ``-1`` copies of it; the re-peel recovers it
  with sign ``-1`` and the signs cancel — exactly matching a from-scratch
  decode of the mutated table, which never saw the key at all.
* the **dirty cell set** accumulated since the last checkpoint — the only
  places a new pure cell can appear.

``checkpoint()`` then runs the candidate-seeded peeling loop: test only the
dirty cells for purity, extract and remove the discovered keys through the
shared :func:`~repro.kernels.rounds.remove_hyperedges` scatter core, and
take the touched cells as the next candidate set.  The loop is
decoder-independent — the decoder choice (serial / flat / batched) governs
only the bootstrap decode, so incremental results are trivially identical
across decoders.

The contract, pinned by the churn property tests: a checkpoint that
reports ``success`` holds exactly the table's true contents; whenever a
from-scratch decode of the mutated table succeeds, the checkpoint succeeds
with the identical result; a failed checkpoint is re-bootstrapped by
``IBLT`` and so reports the from-scratch partial result.  A checkpoint can
succeed where a from-scratch decode fails: when the session recovered a key
before a second key with the very same cells arrived, the table alone holds
a genuine 2-core that only the session's history resolves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.kernels import get_kernel, remove_hyperedges
from repro.kernels.base import PeelingKernel

__all__ = ["IncrementalDecodeResult", "IncrementalDecodeSession"]


@dataclass(frozen=True)
class IncrementalDecodeResult:
    """Outcome of one incremental decode checkpoint.

    Attributes
    ----------
    recovered / removed:
        The *cumulative* net contents of the table at this checkpoint, in
        canonical (ascending) key order: keys with positive net sign in
        ``recovered``, negative in ``removed``.  On success, the true
        contents; identical, as sets-with-multiplicity, to what a
        from-scratch decode of the mutated table returns whenever that
        decode succeeds too.
    success:
        True when the residual is fully drained (every cell zero) — the
        same criterion as a from-scratch decode's ``success``.
    rounds:
        Absolute peeling rounds across the session's life
        (``resumed_from_round + rounds_incremental``).
    resumed_from_round:
        Rounds already accounted for before this checkpoint (0 for the
        bootstrap decode).
    rounds_incremental:
        Productive re-peel rounds this checkpoint executed — the quantity
        that scales with the churn, not with the table size.
    cells_scanned:
        Cell inspections performed by this checkpoint's re-peel (candidate
        purity tests; the bootstrap decode's own scan is not re-counted).
    """

    recovered: np.ndarray
    removed: np.ndarray
    success: bool
    rounds: int
    resumed_from_round: int
    rounds_incremental: int
    cells_scanned: int

    @property
    def num_recovered(self) -> int:
        """Total keys recovered, regardless of sign."""
        return int(self.recovered.size + self.removed.size)


class IncrementalDecodeSession:
    """Resident post-decode state of an evolving IBLT (see module docstring).

    Built by ``IBLT.decode(incremental=True)``; not constructed directly by
    applications.  The session aliases nothing from the source table — the
    residual arrays are owned copies — so the table may keep mutating (the
    session mirrors each mutation) without invalidating the checkpoint.
    """

    def __init__(
        self,
        table,
        result,
        *,
        signed: bool,
        kernel: Optional[PeelingKernel] = None,
    ) -> None:
        self.hasher = table.hasher
        self.r = table.r
        self.num_cells = table.num_cells
        self.signed = bool(signed)
        self.kernel = kernel if kernel is not None else get_kernel(None)
        # Residual = table − encode(net recovered), built by linearity from
        # the bootstrap result instead of relying on any decoder's in-place
        # semantics: scatter the recovered keys back *out* (and the removed
        # keys back *in*), leaving exactly the undecodable 2-core.
        self.count = table.count.copy()
        self.key_sum = table.key_sum.copy()
        self.check_sum = table.check_sum.copy()
        # Net signs live in sorted parallel arrays (keys ascending, values
        # the nonzero net sign) rather than a dict: checkpoints merge their
        # few churn-sized deltas in with searchsorted, and the canonical
        # output is a vectorized repeat — never a Python loop over every
        # recovered key, which would make each checkpoint O(n).
        self._net_keys = np.empty(0, dtype=np.uint64)
        self._net_vals = np.empty(0, dtype=np.int64)
        self._dirty: List[np.ndarray] = []
        self.rounds = int(result.rounds)
        recovered = np.asarray(result.recovered, dtype=np.uint64)
        removed = np.asarray(result.removed, dtype=np.uint64)
        for keys, sign in ((recovered, 1), (removed, -1)):
            if keys.size:
                self._scatter(keys, -sign)
        all_keys = np.concatenate([recovered, removed])
        if all_keys.size:
            signs = np.concatenate(
                [
                    np.ones(recovered.size, dtype=np.int64),
                    -np.ones(removed.size, dtype=np.int64),
                ]
            )
            uniq, inverse = np.unique(all_keys, return_inverse=True)
            nets = np.zeros(uniq.size, dtype=np.int64)
            np.add.at(nets, inverse, signs)
            keep = nets != 0
            self._net_keys = uniq[keep]
            self._net_vals = nets[keep]

    # ------------------------------------------------------------------ #
    # residual maintenance (the linearity hooks)
    # ------------------------------------------------------------------ #
    def _scatter(self, keys: np.ndarray, delta: int) -> None:
        cells = self.hasher.cell_indices(keys)
        checks = self.hasher.checksums(keys)
        for j in range(self.r):
            column = cells[:, j]
            np.add.at(self.count, column, delta)
            np.bitwise_xor.at(self.key_sum, column, keys)
            np.bitwise_xor.at(self.check_sum, column, checks)

    def mirror(self, keys: np.ndarray, delta: int, cells: np.ndarray, checks: np.ndarray) -> None:
        """Apply one ``insert``/``delete`` batch to the residual.

        Called from ``IBLT._apply`` with the cell/checksum arrays it already
        computed, so mirroring costs one extra scatter, not a re-hash.  The
        touched cells become dirty candidates for the next checkpoint.
        """
        for j in range(self.r):
            column = cells[:, j]
            np.add.at(self.count, column, delta)
            np.bitwise_xor.at(self.key_sum, column, keys)
            np.bitwise_xor.at(self.check_sum, column, checks)
        self._dirty.append(cells.reshape(-1).astype(np.int64, copy=False))

    def apply_cell_delta(
        self,
        cells: np.ndarray,
        d_count: np.ndarray,
        d_key: np.ndarray,
        d_check: np.ndarray,
    ) -> None:
        """Apply a raw cell-wise delta (``T_new − T_old``) to the residual.

        The serve-layer session path: when a client re-ships a whole evolved
        table, the difference of the two byte images *is* the mutation batch
        (linearity again), so the server needs neither the keys nor the
        hashes — just the changed cells.  ``cells`` must list each cell at
        most once.
        """
        self.count[cells] += d_count
        self.key_sum[cells] ^= d_key
        self.check_sum[cells] ^= d_check
        self._dirty.append(np.asarray(cells, dtype=np.int64))

    def residual_is_empty(self) -> bool:
        """True when every residual cell is zero (the table fully decoded)."""
        return bool(
            not self.count.any() and not self.key_sum.any() and not self.check_sum.any()
        )

    # ------------------------------------------------------------------ #
    # the incremental re-peel
    # ------------------------------------------------------------------ #
    def _pure_among(self, candidates: np.ndarray) -> np.ndarray:
        counts = self.count[candidates]
        mask = np.abs(counts) == 1 if self.signed else counts == 1
        idx = candidates[mask]
        if idx.size == 0:
            return idx
        keys = self.key_sum[idx]
        ok = (self.hasher.checksums(keys) == self.check_sum[idx]) & (keys != 0)
        return idx[ok]

    def checkpoint(self) -> IncrementalDecodeResult:
        """Re-peel from the dirty cells and report the cumulative contents.

        Runs the round-synchronous peeling loop seeded with the cells the
        churn touched: each round tests only the current candidates for
        purity, removes the discovered keys through the kernel scatter core,
        and takes the cells those removals touched as the next candidates.
        Work is proportional to the churn's peeling cascade; the clean bulk
        of the table is never examined.

        A checkpoint that ends with a non-empty residual (``success=False``)
        may have stalled on a genuine 2-core *or* on a spurious-pure cell (a
        duplicate-endpoint key XOR-cancels out of its cell's ``key_sum``,
        letting stale contents masquerade as pure); ``IBLT`` treats either as
        grounds to discard the session and re-bootstrap from scratch.
        """
        resumed_from = self.rounds
        if self._dirty:
            candidates = np.unique(np.concatenate(self._dirty))
            self._dirty.clear()
        else:
            candidates = np.empty(0, dtype=np.int64)
        rounds_incremental = 0
        cells_scanned = 0
        delta: Dict[int, int] = {}
        while candidates.size:
            cells_scanned += int(candidates.size)
            pure = self._pure_among(candidates)
            if pure.size == 0:
                break
            keys = self.key_sum[pure]
            signs = self.count[pure].astype(np.int64, copy=False)
            # Two pure cells may hold the same key; remove it once (the
            # second cell stops being pure the moment the first removal
            # lands, exactly as in the sequential worklist).
            keys, first = np.unique(keys, return_index=True)
            signs = signs[first]
            cells = self.hasher.cell_indices(keys)
            checks = self.hasher.checksums(keys)
            remove_hyperedges(
                self.kernel,
                cells,
                self.count,
                signs,
                payloads=((self.key_sum, keys), (self.check_sum, checks)),
            )
            rounds_incremental += 1
            # The round's discoveries are churn-sized, so a scratch dict is
            # cheap; the merge into the sorted net-sign arrays happens once
            # per checkpoint, below.
            for key, sign in zip(keys.tolist(), signs.tolist()):
                delta[key] = delta.get(key, 0) + sign
            candidates = np.unique(cells)
        if delta:
            self._apply_net_deltas(delta)
        self.rounds = resumed_from + rounds_incremental
        recovered, removed = self._net_contents()
        return IncrementalDecodeResult(
            recovered=recovered,
            removed=removed,
            success=self.residual_is_empty(),
            rounds=self.rounds,
            resumed_from_round=resumed_from,
            rounds_incremental=rounds_incremental,
            cells_scanned=cells_scanned,
        )

    def _apply_net_deltas(self, delta: Dict[int, int]) -> None:
        """Merge one checkpoint's sign deltas into the sorted net-sign arrays."""
        keys = np.fromiter(delta.keys(), dtype=np.uint64, count=len(delta))
        vals = np.fromiter(delta.values(), dtype=np.int64, count=len(delta))
        order = np.argsort(keys)
        keys, vals = keys[order], vals[order]
        idx = np.searchsorted(self._net_keys, keys)
        match = np.zeros(keys.size, dtype=bool)
        in_range = idx < self._net_keys.size
        match[in_range] = self._net_keys[idx[in_range]] == keys[in_range]
        self._net_vals[idx[match]] += vals[match]
        fresh = ~match & (vals != 0)
        if fresh.any():
            self._net_keys = np.insert(self._net_keys, idx[fresh], keys[fresh])
            self._net_vals = np.insert(self._net_vals, idx[fresh], vals[fresh])
        nonzero = self._net_vals != 0
        if not nonzero.all():
            self._net_keys = self._net_keys[nonzero]
            self._net_vals = self._net_vals[nonzero]

    def _net_contents(self) -> tuple:
        """Canonical (sorted, multiplicity-respecting) recovered/removed arrays."""
        pos = self._net_vals > 0
        neg = ~pos
        return (
            np.repeat(self._net_keys[pos], self._net_vals[pos]),
            np.repeat(self._net_keys[neg], -self._net_vals[neg]),
        )
