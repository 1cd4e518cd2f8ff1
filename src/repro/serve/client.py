"""Asyncio client of the decode service.

:class:`DecodeClient` multiplexes any number of in-flight requests over
one TCP connection: every request gets a fresh id, a background reader
task dispatches response frames to per-request futures, and
:meth:`DecodeClient.decode_many` therefore returns results in *input
order* no matter which batches the server fused them into.  Firing many
``decode`` calls concurrently over one connection is exactly the traffic
shape the server's micro-batcher coalesces.

The module also carries the ``repro decode-client`` load driver
(:func:`run_load`): it builds a fleet of random same-geometry tables,
fires them concurrently over one or more connections, verifies every
response against a local ``IBLT.decode(decoder="flat")`` and reports
throughput, client-side latency percentiles and the server's stats frame.
"""

from __future__ import annotations

import asyncio
import json
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from repro.iblt.iblt import IBLT
from repro.serve import protocol
from repro.serve.protocol import RemoteDecodeError, RemoteDecodeResult

__all__ = ["DecodeClient", "run_load"]


class DecodeClient:
    """One multiplexed connection to a :class:`~repro.serve.server.DecodeServer`.

    Use as an async context manager::

        async with await DecodeClient.connect("127.0.0.1", 8641) as client:
            result = await client.decode(table)
    """

    def __init__(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        *,
        max_frame_bytes: int = protocol.DEFAULT_MAX_FRAME_BYTES,
    ) -> None:
        self._reader = reader
        self._writer = writer
        self._max_frame_bytes = max_frame_bytes
        self._pending: Dict[int, asyncio.Future] = {}
        self._next_id = 1
        self._write_lock = asyncio.Lock()
        self._reader_task = asyncio.ensure_future(self._read_loop())
        self._closed = False

    @classmethod
    async def connect(
        cls,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        max_frame_bytes: int = protocol.DEFAULT_MAX_FRAME_BYTES,
    ) -> "DecodeClient":
        reader, writer = await asyncio.open_connection(host, port)
        return cls(reader, writer, max_frame_bytes=max_frame_bytes)

    async def __aenter__(self) -> "DecodeClient":
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

    # ------------------------------------------------------------------ #
    # requests
    # ------------------------------------------------------------------ #
    async def decode(
        self, table: IBLT, *, signed: bool = True, session: bool = False
    ) -> RemoteDecodeResult:
        """Decode one table on the server; raises :class:`RemoteDecodeError`
        if the server answered with an error frame.

        ``session=True`` asks the server to keep the decode state resident
        on this connection: ship the same (mutated) table again with the
        flag set and the server re-peels only what changed since the last
        shipment.  A successful answer is the table's true contents, and
        the answer succeeds whenever a from-scratch decode would.
        Session requests are answered in shipment order.
        """
        payload = protocol.encode_decode_request(table, signed=signed, session=session)
        return await self._request(protocol.FRAME_DECODE_REQUEST, payload)

    async def decode_many(
        self, tables: Sequence[IBLT], *, signed: bool = True
    ) -> List[RemoteDecodeResult]:
        """Fire all tables concurrently; results stream back in input order.

        All requests are in flight at once (the server is free to fuse
        them); the returned list matches the input order regardless of the
        server's completion order.
        """
        return list(
            await asyncio.gather(*(self.decode(t, signed=signed) for t in tables))
        )

    async def stats(self) -> Dict[str, Any]:
        """Fetch the server's metrics snapshot."""
        return await self._request(protocol.FRAME_STATS_REQUEST, b"")

    async def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._reader_task.cancel()
        try:
            await self._reader_task
        except (asyncio.CancelledError, Exception):  # noqa: BLE001 - teardown
            pass
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass
        self._fail_pending(ConnectionError("client closed"))

    # ------------------------------------------------------------------ #
    # plumbing
    # ------------------------------------------------------------------ #
    async def _request(self, frame_type: int, payload: bytes):
        if self._closed:
            raise ConnectionError("client is closed")
        loop = asyncio.get_running_loop()
        request_id = self._next_id
        self._next_id = (self._next_id % 0xFFFFFFFF) + 1
        future: asyncio.Future = loop.create_future()
        self._pending[request_id] = future
        try:
            async with self._write_lock:
                self._writer.write(protocol.encode_frame(frame_type, request_id, payload))
                await self._writer.drain()
            return await future
        finally:
            self._pending.pop(request_id, None)

    async def _read_loop(self) -> None:
        try:
            while True:
                frame_type, request_id, payload = await protocol.read_frame(
                    self._reader, max_frame_bytes=self._max_frame_bytes
                )
                future = self._pending.get(request_id)
                if frame_type == protocol.FRAME_ERROR and request_id == 0:
                    # Connection-level protocol error: everything dies.
                    raise protocol.FrameError(payload.decode(errors="replace"))
                if future is None or future.done():
                    continue  # response to a request we gave up on
                if frame_type == protocol.FRAME_DECODE_RESULT:
                    future.set_result(protocol.decode_decode_result(payload))
                elif frame_type == protocol.FRAME_STATS_RESULT:
                    future.set_result(json.loads(payload.decode()))
                elif frame_type == protocol.FRAME_ERROR:
                    future.set_exception(
                        RemoteDecodeError(payload.decode(errors="replace"))
                    )
                else:
                    future.set_exception(
                        protocol.FrameError(f"unexpected frame type {frame_type}")
                    )
        except asyncio.CancelledError:
            raise
        except asyncio.IncompleteReadError:
            self._fail_pending(ConnectionError("server closed the connection"))
        except Exception as exc:  # noqa: BLE001 - fail every waiter, then stop
            self._fail_pending(exc)

    def _fail_pending(self, exc: Exception) -> None:
        for future in self._pending.values():
            if not future.done():
                future.set_exception(exc)


# --------------------------------------------------------------------- #
# the load driver behind `repro decode-client`
# --------------------------------------------------------------------- #

def _build_workload(
    *,
    requests: int,
    num_cells: int,
    r: int,
    load: float,
    seed: int,
) -> List[IBLT]:
    """Deterministic fleet of same-geometry tables with distinct key sets."""
    from repro.apps.sparse_recovery import random_distinct_keys

    tables: List[IBLT] = []
    num_keys = max(1, int(load * num_cells))
    for index in range(requests):
        table = IBLT(num_cells, r, layout="subtables", seed=seed)
        table.insert(random_distinct_keys(num_keys, seed=seed + 1 + index))
        tables.append(table)
    return tables


async def run_load(
    host: str,
    port: int,
    *,
    requests: int = 32,
    connections: int = 1,
    num_cells: int = 240,
    r: int = 3,
    load: float = 0.7,
    seed: int = 1,
    signed: bool = True,
    verify: bool = True,
    fetch_stats: bool = True,
) -> Dict[str, Any]:
    """Fire ``requests`` concurrent decodes and summarize the run.

    Returns a JSON-ready summary with throughput, client-side latency
    percentiles, verification mismatches (every response compared
    bit-for-bit against a local ``decode(decoder="flat")``) and, when
    ``fetch_stats``, the server's own metrics snapshot.
    """
    tables = _build_workload(
        requests=requests, num_cells=num_cells, r=r, load=load, seed=seed
    )
    expected = (
        [t.decode(decoder="flat", signed=signed) for t in tables] if verify else None
    )
    clients = [
        await DecodeClient.connect(host, port) for _ in range(max(1, connections))
    ]
    loop = asyncio.get_running_loop()
    latencies = [0.0] * len(tables)

    async def one(index: int, table: IBLT) -> RemoteDecodeResult:
        client = clients[index % len(clients)]
        started = loop.time()
        result = await client.decode(table, signed=signed)
        latencies[index] = loop.time() - started
        return result

    started = loop.time()
    try:
        results = await asyncio.gather(
            *(one(i, t) for i, t in enumerate(tables))
        )
        elapsed = loop.time() - started
        server_stats = await clients[0].stats() if fetch_stats else None
    finally:
        for client in clients:
            await client.close()

    mismatches: List[int] = []
    failures: List[int] = []
    if expected is not None:
        for index, (got, want) in enumerate(zip(results, expected)):
            if not np.array_equal(got.recovered, want.recovered) or not np.array_equal(
                got.removed, want.removed
            ) or got.success != want.success:
                mismatches.append(index)
    for index, got in enumerate(results):
        if not got.success:
            failures.append(index)

    lat_ms = np.asarray(latencies, dtype=np.float64) * 1e3
    p50, p95, p99 = np.percentile(lat_ms, (50.0, 95.0, 99.0))
    summary: Dict[str, Any] = {
        "requests": requests,
        "connections": max(1, connections),
        "num_cells": num_cells,
        "r": r,
        "load": load,
        "elapsed_s": elapsed,
        "requests_per_s": requests / elapsed if elapsed > 0 else float("inf"),
        "latency_ms": {"p50": float(p50), "p95": float(p95), "p99": float(p99)},
        "decode_failures": failures,
        "verified": expected is not None,
        "mismatches": mismatches,
    }
    if server_stats is not None:
        summary["server_stats"] = server_stats
    return summary
