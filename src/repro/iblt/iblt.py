"""Invertible Bloom Lookup Tables (Goodrich–Mitzenmacher) with serial recovery.

An IBLT stores a multiset of 64-bit keys in ``m`` cells; each key is hashed
into ``r`` cells and XORed into their ``key_sum`` and ``check_sum`` fields
while a ``count`` field tracks how many keys occupy the cell.  Insertion and
deletion are the same operation with opposite count signs, so the structure
also supports the "signed" regime used for set reconciliation, where counts
may go negative.

Recovery ("listing") repeatedly finds *pure* cells — cells holding exactly
one key (count ±1 and matching checksum) — extracts the key and removes it
from its other cells, which is precisely the peeling process on the
hypergraph whose vertices are cells and whose edges are keys.  Recovery
succeeds iff the 2-core of that hypergraph is empty.

This module implements the table and the classical *serial* recovery; the
round-synchronous parallel recovery of Section 6 lives in
:mod:`repro.iblt.parallel_decode`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from repro.iblt.hashing import KeyHasher, Layout
from repro.utils.validation import check_positive_int

__all__ = ["IBLT", "IBLTDecodeResult"]


@dataclass(frozen=True)
class IBLTDecodeResult:
    """Outcome of an IBLT recovery.

    Attributes
    ----------
    recovered:
        Keys recovered with positive sign (items inserted more often than
        deleted).
    removed:
        Keys recovered with negative sign (net-deleted items; only non-empty
        in the signed/set-reconciliation regime).
    success:
        True when the table fully decoded (every cell zeroed out).
    rounds:
        Parallel rounds used (1 for serial recovery: the notion of a round is
        meaningless there, but keeping the field uniform simplifies the
        harness).
    subrounds:
        Subrounds used (subtable decoder only; equals ``rounds`` otherwise).
    cells_scanned:
        Total number of cell inspections performed (work).
    """

    recovered: np.ndarray
    removed: np.ndarray
    success: bool
    rounds: int
    subrounds: int
    cells_scanned: int

    @property
    def num_recovered(self) -> int:
        """Total keys recovered, regardless of sign."""
        return int(self.recovered.size + self.removed.size)


class IBLT:
    """An Invertible Bloom Lookup Table.

    Parameters
    ----------
    num_cells:
        Number of cells ``m``.  For the subtable layout (default) this must
        be divisible by ``r``.
    r:
        Number of hash functions / cells per key (``>= 2``).
    layout:
        ``"subtables"`` (one hash per subtable, the paper's GPU layout) or
        ``"flat"`` (all hashes over the whole table).
    seed:
        Seed for the hash family.

    Notes
    -----
    Keys must be non-zero unsigned 64-bit integers (zero is indistinguishable
    from an empty key field).
    """

    def __init__(
        self,
        num_cells: int,
        r: int = 3,
        *,
        layout: Layout = "subtables",
        seed: int = 0,
    ) -> None:
        self.num_cells = check_positive_int(num_cells, "num_cells")
        self.r = check_positive_int(r, "r")
        self.hasher = KeyHasher(num_cells=self.num_cells, r=self.r, layout=layout, seed=int(seed))
        self.layout = layout
        self.count = np.zeros(self.num_cells, dtype=np.int64)
        self.key_sum = np.zeros(self.num_cells, dtype=np.uint64)
        self.check_sum = np.zeros(self.num_cells, dtype=np.uint64)
        self._net_items = 0
        self._session = None  # resident IncrementalDecodeSession, if any

    # ------------------------------------------------------------------ #
    # construction / basic properties
    # ------------------------------------------------------------------ #
    @property
    def load(self) -> float:
        """Net number of stored items divided by the number of cells."""
        return self._net_items / self.num_cells

    @property
    def net_items(self) -> int:
        """Net insertions minus deletions applied so far."""
        return self._net_items

    def copy(self) -> "IBLT":
        """Deep copy of the table (same hasher, copied cell arrays)."""
        clone = IBLT(self.num_cells, self.r, layout=self.layout, seed=self.hasher.seed)
        clone.count = self.count.copy()
        clone.key_sum = self.key_sum.copy()
        clone.check_sum = self.check_sum.copy()
        clone._net_items = self._net_items
        return clone

    @staticmethod
    def _as_keys(keys: Sequence[int] | np.ndarray) -> np.ndarray:
        arr = np.atleast_1d(np.asarray(keys, dtype=np.uint64))
        if arr.ndim != 1:
            raise ValueError(f"keys must be one-dimensional, got shape {arr.shape}")
        if (arr == 0).any():
            raise ValueError("keys must be non-zero (0 is reserved for empty cells)")
        return arr

    # ------------------------------------------------------------------ #
    # updates
    # ------------------------------------------------------------------ #
    def _apply(self, keys: np.ndarray, delta: int) -> None:
        cells = self.hasher.cell_indices(keys)
        checks = self.hasher.checksums(keys)
        for j in range(self.r):
            column = cells[:, j]
            np.add.at(self.count, column, delta)
            np.bitwise_xor.at(self.key_sum, column, keys)
            np.bitwise_xor.at(self.check_sum, column, checks)
        if self._session is not None:
            # Keep the resident decode session's residual current (same
            # scatter on its arrays) and mark the touched cells dirty, so
            # the next incremental checkpoint re-peels only from here.
            self._session.mirror(keys, delta, cells, checks)

    def insert(self, keys: Sequence[int] | np.ndarray) -> None:
        """Insert one key or a batch of keys."""
        arr = self._as_keys(keys)
        if arr.size == 0:
            return
        self._apply(arr, +1)
        self._net_items += int(arr.size)

    def delete(self, keys: Sequence[int] | np.ndarray) -> None:
        """Delete one key or a batch of keys (the mirror of :meth:`insert`)."""
        arr = self._as_keys(keys)
        if arr.size == 0:
            return
        self._apply(arr, -1)
        self._net_items -= int(arr.size)

    def subtract(self, other: "IBLT") -> "IBLT":
        """Return the cell-wise difference ``self − other``.

        Both tables must share the same geometry and seed.  The result
        encodes the symmetric difference of the two underlying key sets; this
        is the difference digest used for set reconciliation.
        """
        if (
            self.num_cells != other.num_cells
            or self.r != other.r
            or self.layout != other.layout
            or self.hasher.seed != other.hasher.seed
        ):
            raise ValueError("IBLTs must share geometry, layout and seed to be subtracted")
        result = IBLT(self.num_cells, self.r, layout=self.layout, seed=self.hasher.seed)
        result.count = self.count - other.count
        result.key_sum = self.key_sum ^ other.key_sum
        result.check_sum = self.check_sum ^ other.check_sum
        result._net_items = self._net_items - other._net_items
        return result

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    def is_empty(self) -> bool:
        """True when every cell is zeroed (nothing left to recover)."""
        return bool(
            not self.count.any() and not self.key_sum.any() and not self.check_sum.any()
        )

    def pure_cell_mask(self, *, signed: bool = True) -> np.ndarray:
        """Boolean mask of the cells currently *pure* (holding exactly one key).

        A cell is pure when ``count == +1`` (or ``−1`` if ``signed``) and the
        checksum of its key field matches its checksum field.
        """
        if signed:
            candidate = np.abs(self.count) == 1
        else:
            candidate = self.count == 1
        if not candidate.any():
            return candidate
        mask = candidate.copy()
        idx = np.flatnonzero(candidate)
        expected = self.hasher.checksums(self.key_sum[idx])
        ok = (expected == self.check_sum[idx]) & (self.key_sum[idx] != 0)
        mask[idx] = ok
        return mask

    def get(self, key: int) -> Optional[int]:
        """Look up ``key``; returns its net count if determinable, else None.

        Returns 0 if some cell proves the key absent, the count if some pure
        cell contains the key, and None if every cell is ambiguous.
        """
        arr = self._as_keys([key])
        cells = self.hasher.cell_indices(arr)[0]
        check = int(self.hasher.checksums(arr)[0])
        for cell in cells:
            cell = int(cell)
            if self.count[cell] == 0 and self.key_sum[cell] == 0 and self.check_sum[cell] == 0:
                return 0
            if abs(int(self.count[cell])) == 1 and int(self.key_sum[cell]) == int(arr[0]) and int(
                self.check_sum[cell]
            ) == check:
                return int(self.count[cell])
        return None

    # ------------------------------------------------------------------ #
    # serial recovery (the baseline of Tables 3 and 4)
    # ------------------------------------------------------------------ #
    def decode(
        self,
        *,
        decoder: str = "serial",
        signed: bool = True,
        in_place: bool = False,
        incremental: bool = False,
        **options,
    ):
        """Recover the table's contents with a name-selected decoder.

        Parameters
        ----------
        decoder:
            Registered decoder name (``"serial"``, ``"flat"`` or
            ``"subtable"``; see :func:`repro.iblt.available_decoders`).
            ``"serial"`` is the classical worklist recovery; the other two
            are the round-synchronous decoders of Section 6.
        signed:
            Also treat ``count == −1`` cells as pure (needed for difference
            digests).  Defaults to True; with only insertions the behaviour
            is identical to unsigned decoding.
        in_place:
            Operate directly on this table (leaving it empty on success);
            by default a scratch copy is consumed instead.  Mutually
            exclusive with ``incremental`` (which must keep the table
            intact), and discards any resident session — an in-place drain
            happens behind the session's back.
        incremental:
            Keep the post-decode state resident.  The first incremental
            decode runs the named decoder from scratch and installs an
            :class:`~repro.iblt.incremental.IncrementalDecodeSession`; later
            ``insert``/``delete`` churn is mirrored into the session, and
            each subsequent ``decode(incremental=True)`` checkpoint re-peels
            only from the churn-touched cells — rounds proportional to the
            churn.  A successful checkpoint is the table's true contents,
            and a checkpoint succeeds whenever a from-scratch decode of the
            mutated table does (see :mod:`repro.iblt.incremental`).
            Incremental results are canonical (keys sorted ascending) and
            identical for every decoder name, since the decoder only
            governs the bootstrap.
        **options:
            Decoder-specific extras forwarded to the decoder constructor
            (e.g. ``max_rounds``, ``track_conflicts`` or ``kernel`` — the
            kernel-backend name — for the parallel decoders).

        Returns
        -------
        IBLTDecodeResult
            For ``decoder="serial"``.
        ParallelDecodeResult
            For the parallel decoders (it exposes the same
            ``recovered``/``removed``/``success``/``rounds``/``subrounds``
            surface plus per-round stats and conflict depths).
        IncrementalDecodeResult
            With ``incremental=True`` (every checkpoint, including the
            bootstrap).
        """
        from repro.iblt.registry import get_decoder  # local import avoids a cycle

        if incremental:
            if in_place:
                raise ValueError(
                    "incremental decode keeps the table resident; in_place is not supported"
                )
            return self._decode_incremental(decoder, signed=signed, **options)
        if in_place:
            self.discard_session()
        factory = get_decoder(decoder)
        return factory(signed=signed, **options).decode(self, in_place=in_place)

    def _decode_incremental(self, decoder: str, *, signed: bool, **options):
        """Bootstrap or checkpoint the resident incremental decode session."""
        from repro.iblt.incremental import (  # local import avoids a cycle
            IncrementalDecodeResult,
            IncrementalDecodeSession,
        )
        from repro.kernels import get_kernel

        if self._session is not None:
            if self._session.signed != bool(signed):
                raise ValueError(
                    f"resident session was started with signed={self._session.signed}; "
                    "discard_session() before switching regimes"
                )
            result = self._session.checkpoint()
            if result.success:
                return result
            # A stalled re-peel cannot tell a genuine 2-core from the rare
            # spurious-pure hazard: a key hashing two endpoints into the
            # same cell cancels itself out of that cell's key_sum, so the
            # residual can present a stale cell as pure with the wrong
            # sign and poison the cascade — a shape a from-scratch decode
            # of the mutated table never sees.  Rebuilding the session
            # from scratch returns exactly what a from-scratch decode
            # would, partial result included.
            self.discard_session()
        from repro.iblt.registry import get_decoder

        factory = get_decoder(decoder)
        result = factory(signed=signed, **options).decode(self, in_place=False)
        self._session = IncrementalDecodeSession(
            self,
            result,
            signed=signed,
            kernel=get_kernel(options.get("kernel")),
        )
        recovered, removed = self._session._net_contents()
        return IncrementalDecodeResult(
            recovered=recovered,
            removed=removed,
            success=bool(result.success),
            rounds=int(result.rounds),
            resumed_from_round=0,
            rounds_incremental=int(result.rounds),
            cells_scanned=int(getattr(result, "cells_scanned", 0)),
        )

    def discard_session(self) -> None:
        """Drop the resident incremental decode session, if any.

        The next ``decode(incremental=True)`` bootstraps a fresh one from
        scratch.  Called automatically by in-place decodes, whose drain the
        session cannot observe.
        """
        self._session = None

    @staticmethod
    def decode_many(
        tables: Sequence["IBLT"],
        *,
        decoder: str = "batched",
        signed: bool = True,
        **options,
    ):
        """Decode a batch of tables, in input order.

        With ``decoder="batched"`` (the default) every table is decoded in
        one lockstep pass — one pure-cell scan and one removal scatter per
        round for the whole batch — which requires the tables to share
        geometry, layout and hash seed, and returns results identical to
        decoding each table with the ``"flat"`` decoder.  Any other
        registered decoder name decodes the tables one by one with that
        decoder.  See :func:`repro.iblt.batched_decode.decode_many`.
        """
        from repro.iblt.batched_decode import decode_many  # local import avoids a cycle

        return decode_many(tables, decoder=decoder, signed=signed, **options)

    def _decode_serial(self, *, signed: bool = True, in_place: bool = False) -> IBLTDecodeResult:
        """Worklist recovery: repeatedly extract pure cells until none remain."""
        table = self if in_place else self.copy()
        recovered: List[int] = []
        removed: List[int] = []
        cells_scanned = table.num_cells  # the initial full scan
        worklist = list(np.flatnonzero(table.pure_cell_mask(signed=signed)))
        while worklist:
            cell = int(worklist.pop())
            cells_scanned += 1
            sign = int(table.count[cell])
            if abs(sign) != 1:
                continue
            key = np.uint64(table.key_sum[cell])
            if key == 0 or table.hasher.checksums(key) != table.check_sum[cell]:
                continue
            if sign > 0:
                recovered.append(int(key))
            else:
                removed.append(int(key))
            key_arr = np.asarray([key], dtype=np.uint64)
            target_cells = table.hasher.cell_indices(key_arr)[0]
            check = table.hasher.checksums(key_arr)[0]
            for target in target_cells:
                target = int(target)
                table.count[target] -= sign
                table.key_sum[target] ^= key
                table.check_sum[target] ^= check
                cells_scanned += 1
                if abs(int(table.count[target])) == 1:
                    worklist.append(target)
        success = table.is_empty()
        return IBLTDecodeResult(
            recovered=np.asarray(recovered, dtype=np.uint64),
            removed=np.asarray(removed, dtype=np.uint64),
            success=success,
            rounds=1,
            subrounds=1,
            cells_scanned=cells_scanned,
        )

    # ------------------------------------------------------------------ #
    # serialization (what actually crosses the wire in set reconciliation)
    # ------------------------------------------------------------------ #
    _MAGIC = b"IBLT1\x00"
    _FORMAT_VERSION = 1
    #: Every format version this build can parse.  A payload carrying any
    #: other version byte — e.g. from a future build — is rejected up front
    #: with a ValueError naming this list, never half-parsed.
    _SUPPORTED_VERSIONS = (1,)
    _HEADER_BYTES = len(_MAGIC) + 1 + 5 * 8  # magic + version byte + 5 i64 fields

    def to_bytes(self) -> bytes:
        """Serialize the table to a compact byte string.

        The encoding is a fixed header (magic, a format-version byte,
        geometry, layout, seed, net item count) followed by the three cell
        arrays in little-endian order; 24 bytes per cell plus a 47-byte
        header.  This is the payload a set-reconciliation protocol ships
        across the link, and the decode-request body of the
        :mod:`repro.serve` service.
        """
        header = np.array(
            [
                self.num_cells,
                self.r,
                1 if self.layout == "subtables" else 0,
                self.hasher.seed,
                self._net_items,
            ],
            dtype="<i8",
        )
        return b"".join(
            [
                self._MAGIC,
                bytes([self._FORMAT_VERSION]),
                header.tobytes(),
                self.count.astype("<i8").tobytes(),
                self.key_sum.astype("<u8").tobytes(),
                self.check_sum.astype("<u8").tobytes(),
            ]
        )

    @classmethod
    def from_bytes(cls, payload: bytes) -> "IBLT":
        """Reconstruct a table serialized with :meth:`to_bytes`.

        The payload is validated before any array is materialized — this
        format is parsed from untrusted sockets by :mod:`repro.serve`, so a
        short, oversized or hostile payload must raise a clear
        ``ValueError`` rather than a low-level numpy buffer error.
        """
        payload = bytes(payload)
        magic_len = len(cls._MAGIC)
        if len(payload) < magic_len or payload[:magic_len] != cls._MAGIC:
            raise ValueError("not an IBLT payload (bad magic)")
        if len(payload) < cls._HEADER_BYTES:
            raise ValueError(
                f"truncated IBLT payload: {len(payload)} bytes is shorter than "
                f"the {cls._HEADER_BYTES}-byte header"
            )
        version = payload[magic_len]
        if version not in cls._SUPPORTED_VERSIONS:
            supported = ", ".join(str(v) for v in cls._SUPPORTED_VERSIONS)
            raise ValueError(
                f"unsupported IBLT format version {version}; this build supports "
                f"version(s) {supported} — the payload likely comes from a newer build"
            )
        header = np.frombuffer(payload, dtype="<i8", count=5, offset=magic_len + 1)
        num_cells, r, layout_flag, seed, net_items = (int(x) for x in header)
        if num_cells < 1:
            raise ValueError(f"invalid IBLT header: num_cells must be >= 1, got {num_cells}")
        if r < 2:
            raise ValueError(f"invalid IBLT header: r must be >= 2, got {r}")
        if layout_flag not in (0, 1):
            raise ValueError(
                f"invalid IBLT header: layout flag must be 0 (flat) or 1 (subtables), "
                f"got {layout_flag}"
            )
        layout: Layout = "subtables" if layout_flag else "flat"
        if layout == "subtables" and num_cells % r != 0:
            raise ValueError(
                f"invalid IBLT header: num_cells ({num_cells}) must be divisible "
                f"by r ({r}) for the subtable layout"
            )
        expected = cls._HEADER_BYTES + 3 * 8 * num_cells
        if len(payload) < expected:
            raise ValueError(
                f"truncated IBLT payload: expected {expected} bytes for "
                f"num_cells={num_cells}, got {len(payload)}"
            )
        if len(payload) > expected:
            raise ValueError(
                f"oversized IBLT payload: expected {expected} bytes for "
                f"num_cells={num_cells}, got {len(payload)}"
            )
        table = cls(num_cells, r, layout=layout, seed=seed)
        offset = cls._HEADER_BYTES
        table.count = np.frombuffer(payload, dtype="<i8", count=num_cells, offset=offset).astype(np.int64)
        offset += 8 * num_cells
        table.key_sum = np.frombuffer(payload, dtype="<u8", count=num_cells, offset=offset).astype(np.uint64)
        offset += 8 * num_cells
        table.check_sum = np.frombuffer(payload, dtype="<u8", count=num_cells, offset=offset).astype(np.uint64)
        table._net_items = net_items
        return table

    def __repr__(self) -> str:  # pragma: no cover - debugging convenience
        return (
            f"IBLT(num_cells={self.num_cells}, r={self.r}, layout={self.layout!r}, "
            f"net_items={self._net_items})"
        )
