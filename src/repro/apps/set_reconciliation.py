"""Set reconciliation with IBLT difference digests (Eppstein et al. style).

Two parties hold sets ``A`` and ``B`` that differ in only ``d`` elements.
Each builds an IBLT of size ``O(d)`` over its own set with a shared hash
family; one party ships its table to the other, who computes the cell-wise
difference and lists it.  Keys recovered with positive sign are in ``A\\B``,
keys recovered with negative sign are in ``B\\A``.  The listing step is the
signed peeling process, so everything the paper proves about parallel peeling
rounds applies to reconciliation latency as well.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Set, Tuple

import numpy as np

from repro.iblt.iblt import IBLT
from repro.utils.rng import SeedLike
from repro.utils.validation import check_nonnegative_int, check_positive_int

__all__ = [
    "ReconciliationResult",
    "SetReconciler",
    "StreamingReconciliationResult",
    "StreamingSetReconciler",
    "random_set_pair",
]


def random_set_pair(
    common: int,
    only_a: int,
    only_b: int,
    *,
    seed: SeedLike = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Generate two overlapping key sets with the requested difference sizes.

    Returns
    -------
    (a, b):
        Arrays of distinct uint64 keys with ``|a ∩ b| = common``,
        ``|a \\ b| = only_a`` and ``|b \\ a| = only_b``.
    """
    from repro.apps.sparse_recovery import random_distinct_keys

    common = check_nonnegative_int(common, "common")
    only_a = check_nonnegative_int(only_a, "only_a")
    only_b = check_nonnegative_int(only_b, "only_b")
    keys = random_distinct_keys(common + only_a + only_b, seed)
    shared = keys[:common]
    a_only = keys[common: common + only_a]
    b_only = keys[common + only_a:]
    return np.concatenate([shared, a_only]), np.concatenate([shared, b_only])


@dataclass(frozen=True)
class ReconciliationResult:
    """Outcome of a set-reconciliation round trip.

    Attributes
    ----------
    a_minus_b, b_minus_a:
        Recovered difference sets.
    success:
        True when both recovered differences match the ground truth exactly
        (or, when no ground truth was supplied, when the difference digest
        decoded completely).
    rounds, subrounds:
        Decoder rounds (latency proxy).
    bytes_exchanged:
        Size of the transmitted digest in bytes (3 fields × 8 bytes × cells),
        the communication cost reconciliation is designed to minimize.
    """

    a_minus_b: np.ndarray
    b_minus_a: np.ndarray
    success: bool
    rounds: int
    subrounds: int
    bytes_exchanged: int


class SetReconciler:
    """Reconcile two key sets through IBLT difference digests.

    Parameters
    ----------
    num_cells:
        Digest size; must comfortably exceed the expected difference ``d``
        divided by the peeling threshold (≈ ``1.3 d`` for r=3, k=2).
    r:
        Hash functions per key.
    seed:
        Shared hash-family seed (both parties must agree on it).
    """

    def __init__(self, num_cells: int, r: int = 3, *, seed: int = 0) -> None:
        self.num_cells = check_positive_int(num_cells, "num_cells")
        self.r = check_positive_int(r, "r")
        self.seed = int(seed)

    def digest(self, keys: Sequence[int] | np.ndarray) -> IBLT:
        """Build this party's IBLT digest of ``keys``."""
        table = IBLT(self.num_cells, self.r, layout="subtables", seed=self.seed)
        arr = np.asarray(keys, dtype=np.uint64)
        if arr.size:
            table.insert(arr)
        return table

    def reconcile(
        self,
        set_a: Sequence[int] | np.ndarray,
        set_b: Sequence[int] | np.ndarray,
        *,
        decoder: str = "parallel",
    ) -> ReconciliationResult:
        """Full round trip: digest both sets, subtract, decode, verify.

        ``decoder`` is any registered decoder name (see
        :func:`repro.iblt.available_decoders`); the registry also resolves
        the historical alias ``"parallel"`` (→ ``"subtable"``).  The
        ground-truth difference is computed locally (we hold both sets in
        this simulation) purely to grade the result.
        """
        a = np.asarray(set_a, dtype=np.uint64)
        b = np.asarray(set_b, dtype=np.uint64)
        difference = self.digest(a).subtract(self.digest(b))
        outcome = difference.decode(decoder=decoder)
        return self._grade(outcome, a, b)

    def reconcile_many(
        self,
        pairs: Sequence[Tuple[Sequence[int] | np.ndarray, Sequence[int] | np.ndarray]],
        *,
        decoder: str = "batched",
    ) -> List[ReconciliationResult]:
        """Reconcile many ``(set_a, set_b)`` pairs, in input order.

        Every pair's difference digest is built with this reconciler's
        shared hash family, so with the default ``decoder="batched"`` all
        digests are listed in one lockstep pass
        (:func:`repro.iblt.decode_many`) — the serving shape where one host
        reconciles against a fleet of peers at once.

        Note the default *schedule* differs from :meth:`reconcile`: the
        batched decoder runs the flat schedule, so its ``rounds`` /
        ``subrounds`` compare with ``decoder="flat"``, not with the
        single-pair default (``"parallel"`` → subtable, whose rounds count
        differently).  Recovered sets and ``success`` are identical across
        decoders; pass an explicit ``decoder=`` to match round statistics
        between the two entry points.
        """
        key_pairs = [
            (np.asarray(a, dtype=np.uint64), np.asarray(b, dtype=np.uint64))
            for a, b in pairs
        ]
        digests = [self.digest(a).subtract(self.digest(b)) for a, b in key_pairs]
        outcomes = IBLT.decode_many(digests, decoder=decoder)
        return [
            self._grade(outcome, a, b)
            for outcome, (a, b) in zip(outcomes, key_pairs)
        ]

    # ------------------------------------------------------------------ #
    # the wire path: reconciliation through the decode service
    # ------------------------------------------------------------------ #
    def digest_payload(self, keys: Sequence[int] | np.ndarray) -> bytes:
        """Serialize this party's digest of ``keys`` — the bytes the peer ships."""
        return self.digest(keys).to_bytes()

    async def reconcile_via_service(
        self,
        local_keys: Sequence[int] | np.ndarray,
        peer_digest: bytes,
        *,
        client,
    ) -> ReconciliationResult:
        """Reconcile against a peer's serialized digest via the decode service.

        The real deployment shape: the peer ships
        :meth:`digest_payload` bytes across the reconciliation link, we
        deserialize, subtract our own digest and hand the *difference
        table* to a :class:`repro.serve.client.DecodeClient` — where it is
        coalesced with whatever other digests are in flight and listed in
        one fused batch.  Keys recovered with positive sign are ours-only
        (``a_minus_b``), negative sign the peer's (``b_minus_a``).

        Unlike :meth:`reconcile`, no ground truth exists here (we never see
        the peer's set), so ``success`` reports only that the difference
        digest decoded completely.  ``bytes_exchanged`` counts the peer's
        digest payload — the reconciliation link's cost, not the local
        service round trip.
        """
        peer_table = IBLT.from_bytes(peer_digest)
        if (
            peer_table.num_cells != self.num_cells
            or peer_table.r != self.r
            or peer_table.hasher.seed != self.seed
        ):
            raise ValueError(
                "peer digest does not match this reconciler's hash family: got "
                f"(num_cells={peer_table.num_cells}, r={peer_table.r}, "
                f"seed={peer_table.hasher.seed}), expected (num_cells={self.num_cells}, "
                f"r={self.r}, seed={self.seed})"
            )
        difference = self.digest(local_keys).subtract(peer_table)
        outcome = await client.decode(difference, signed=True)
        return ReconciliationResult(
            a_minus_b=outcome.recovered,
            b_minus_a=outcome.removed,
            success=outcome.success,
            rounds=outcome.rounds,
            subrounds=outcome.rounds,
            bytes_exchanged=len(peer_digest),
        )

    def streaming(
        self,
        local_keys: Sequence[int] | np.ndarray,
        remote_digest: "IBLT | bytes",
        *,
        decoder: str = "serial",
        kernel=None,
    ) -> "StreamingSetReconciler":
        """Open a streaming reconciliation against a peer's (fixed) digest.

        The returned :class:`StreamingSetReconciler` consumes a live
        insert/delete stream on the *local* set and re-reconciles at each
        ``checkpoint()`` via incremental decode — only the churn is
        re-peeled, not the whole difference digest.
        """
        return StreamingSetReconciler(
            self,
            local_keys,
            remote_digest,
            decoder=decoder,
            kernel=kernel,
        )

    def _grade(self, outcome, a: np.ndarray, b: np.ndarray) -> ReconciliationResult:
        # The ground-truth difference is computed locally (we hold both
        # sets in this simulation) purely to grade the result.
        recovered_pos, recovered_neg = outcome.recovered, outcome.removed
        truth_a_minus_b: Set[int] = set(map(int, a)) - set(map(int, b))
        truth_b_minus_a: Set[int] = set(map(int, b)) - set(map(int, a))
        got_a_minus_b = set(map(int, recovered_pos))
        got_b_minus_a = set(map(int, recovered_neg))
        success = (
            outcome.success
            and got_a_minus_b == truth_a_minus_b
            and got_b_minus_a == truth_b_minus_a
        )
        return ReconciliationResult(
            a_minus_b=recovered_pos,
            b_minus_a=recovered_neg,
            success=success,
            rounds=outcome.rounds,
            subrounds=outcome.subrounds,
            bytes_exchanged=3 * 8 * self.num_cells,
        )


@dataclass(frozen=True)
class StreamingReconciliationResult:
    """Outcome of one :meth:`StreamingSetReconciler.checkpoint`.

    ``a_minus_b`` / ``b_minus_a`` are the *current* difference sets (local
    minus remote and vice versa), canonical (ascending) like every
    incremental decode result.  ``resumed_from_round`` /
    ``rounds_incremental`` expose the incremental-decode accounting: after
    the bootstrap checkpoint, ``rounds_incremental`` scales with the
    mutation batch, not with the digest size.
    """

    a_minus_b: np.ndarray
    b_minus_a: np.ndarray
    success: bool
    rounds: int
    resumed_from_round: int
    rounds_incremental: int
    bytes_exchanged: int


class StreamingSetReconciler:
    """Reconcile a *live* local set against a fixed peer digest, incrementally.

    The streaming deployment shape: the peer shipped its digest once; the
    local set keeps mutating.  Because the difference digest is linear
    (``diff = digest(local) − digest(remote)``), every local insert/delete
    applies directly to the resident difference table, and each
    :meth:`checkpoint` re-lists it via ``decode(incremental=True)`` — so a
    checkpoint after a small mutation batch costs rounds proportional to
    that batch.  A successful checkpoint is the true set difference, and
    a checkpoint succeeds whenever re-reconciling from scratch would (the
    streaming tests and the CI console smoke pin this).

    Parameters
    ----------
    reconciler:
        The shared-hash-family :class:`SetReconciler` (geometry + seed).
    local_keys:
        The local set's initial contents.
    remote_digest:
        The peer's digest — an :class:`~repro.iblt.iblt.IBLT` or its
        :meth:`~repro.iblt.iblt.IBLT.to_bytes` payload.
    decoder:
        Decoder for the bootstrap decode (checkpoints after the first use
        the shared incremental re-peel regardless).
    kernel:
        Optional kernel backend forwarded to the decoder and the
        incremental re-peel.
    """

    def __init__(
        self,
        reconciler: SetReconciler,
        local_keys: Sequence[int] | np.ndarray,
        remote_digest: "IBLT | bytes",
        *,
        decoder: str = "serial",
        kernel=None,
    ) -> None:
        if isinstance(remote_digest, (bytes, bytearray, memoryview)):
            remote_digest = IBLT.from_bytes(bytes(remote_digest))
        if (
            remote_digest.num_cells != reconciler.num_cells
            or remote_digest.r != reconciler.r
            or remote_digest.hasher.seed != reconciler.seed
        ):
            raise ValueError(
                "remote digest does not match this reconciler's hash family: got "
                f"(num_cells={remote_digest.num_cells}, r={remote_digest.r}, "
                f"seed={remote_digest.hasher.seed}), expected "
                f"(num_cells={reconciler.num_cells}, r={reconciler.r}, "
                f"seed={reconciler.seed})"
            )
        self.reconciler = reconciler
        self.decoder = decoder
        self._decode_options = {} if kernel is None else {"kernel": kernel}
        self.diff = reconciler.digest(local_keys).subtract(remote_digest)
        self.mutations_applied = 0

    def apply(
        self,
        inserts: Sequence[int] | np.ndarray = (),
        deletes: Sequence[int] | np.ndarray = (),
    ) -> None:
        """Apply one local mutation batch (keys added / removed from the set).

        Deletes of keys the local set never held are legal — they show up
        with negative sign, exactly as a from-scratch digest of the mutated
        set would encode them.
        """
        inserts = np.asarray(inserts, dtype=np.uint64)
        deletes = np.asarray(deletes, dtype=np.uint64)
        if inserts.size:
            self.diff.insert(inserts)
        if deletes.size:
            self.diff.delete(deletes)
        self.mutations_applied += int(inserts.size + deletes.size)

    def checkpoint(self) -> StreamingReconciliationResult:
        """List the current difference; incremental after the first call."""
        outcome = self.diff.decode(
            incremental=True,
            signed=True,
            decoder=self.decoder,
            **self._decode_options,
        )
        return StreamingReconciliationResult(
            a_minus_b=outcome.recovered,
            b_minus_a=outcome.removed,
            success=outcome.success,
            rounds=outcome.rounds,
            resumed_from_round=outcome.resumed_from_round,
            rounds_incremental=outcome.rounds_incremental,
            bytes_exchanged=3 * 8 * self.reconciler.num_cells,
        )
