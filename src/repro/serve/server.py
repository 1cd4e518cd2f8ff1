"""The asyncio TCP front door: ``repro serve``.

One :class:`DecodeServer` owns a listening socket, a
:class:`~repro.serve.batcher.MicroBatcher`, a single-thread decode
executor and a :class:`~repro.serve.metrics.ServeMetrics` instance.  Each
connection runs a read loop that admits frames one at a time (acquiring a
batcher slot *before* spawning the request task, so backpressure reaches
the socket) and fans requests out as tasks — which is exactly what lets
one connection's concurrent requests coalesce into a fused batch.

Error isolation: a malformed *request* (hostile table bytes, bad flags)
fails that request with an ``ERROR`` frame and the connection keeps
serving; an unframeable *stream* (bad length prefix, oversized frame,
unknown frame type) closes that connection — never the server.

Session requests (flags bit 1) take a different path from the batcher:
each connection keeps the latest shipment of every table geometry it has
sent plus that table's resident
:class:`~repro.iblt.incremental.IncrementalDecodeSession`; a repeated
shipment is diffed cell-by-cell against the resident copy, the delta is
applied to the session, and only the dirty neighbourhood is re-peeled.
Session requests are answered *in shipment order* (the read loop awaits
them inline rather than spawning a task — an old shipment applied after
a newer one would corrupt the resident state), with the numpy work still
offloaded to the decode executor.

Graceful shutdown (:meth:`DecodeServer.stop`, wired to SIGINT/SIGTERM by
:func:`run_server`): stop accepting, let in-flight requests finish,
drain the batcher, close connections, and dump the metrics snapshot.
"""

from __future__ import annotations

import asyncio
import json
import signal
import sys
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Dict, Optional, Set, Tuple

import numpy as np

from repro.iblt.iblt import IBLT
from repro.serve import protocol
from repro.serve.batcher import MicroBatcher
from repro.serve.metrics import ServeMetrics

__all__ = ["DecodeServer", "run_server"]


class DecodeServer:
    """Long-lived IBLT-decode service with micro-batching.

    Parameters
    ----------
    host, port:
        Listening address; ``port=0`` binds an ephemeral port (read it
        back from :attr:`port` after :meth:`start`).
    batch_window_ms:
        Latency budget of the coalescer in milliseconds (see
        :class:`MicroBatcher`).
    max_batch_size:
        Flush a group as soon as it holds this many requests.
    max_pending:
        Backpressure bound on admitted-but-unanswered requests.
    max_frame_bytes:
        Reject frames longer than this before allocating.
    executor_workers:
        Decode-executor threads (default 1: decodes stay serial, the
        event loop stays responsive).
    decoder, kernel:
        Batch decoder registry name (default ``"batched"``) and optional
        kernel backend forwarded to it.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        batch_window_ms: float = 2.0,
        max_batch_size: int = 256,
        max_pending: int = 1024,
        max_frame_bytes: int = protocol.DEFAULT_MAX_FRAME_BYTES,
        executor_workers: int = 1,
        decoder: str = "batched",
        kernel: Optional[str] = None,
    ) -> None:
        self.host = host
        self._requested_port = int(port)
        self.max_frame_bytes = int(max_frame_bytes)
        self.metrics = ServeMetrics()
        self._executor = ThreadPoolExecutor(
            max_workers=max(1, int(executor_workers)), thread_name_prefix="repro-decode"
        )
        self.batcher = MicroBatcher(
            self._executor,
            batch_window=float(batch_window_ms) / 1e3,
            max_batch_size=max_batch_size,
            max_pending=max_pending,
            metrics=self.metrics,
            decoder=decoder,
            kernel=kernel,
        )
        self._decoder = decoder
        self._decode_options: Dict[str, Any] = {} if kernel is None else {"kernel": kernel}
        self._server: Optional[asyncio.AbstractServer] = None
        self._connections: Set[asyncio.Task] = set()
        self._admission: Optional[asyncio.Semaphore] = None  # created in start()
        self._max_pending = int(max_pending)
        self._stopping = False

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    async def start(self) -> None:
        """Bind and start accepting connections."""
        if self._server is not None:
            raise RuntimeError("server already started")
        self._admission = asyncio.Semaphore(self._max_pending)
        self._server = await asyncio.start_server(
            self._on_connection, self.host, self._requested_port
        )

    @property
    def port(self) -> int:
        """The bound port (meaningful after :meth:`start`)."""
        if self._server is None or not self._server.sockets:
            raise RuntimeError("server is not listening")
        return int(self._server.sockets[0].getsockname()[1])

    async def serve_forever(self) -> None:
        if self._server is None:
            raise RuntimeError("call start() first")
        await self._server.serve_forever()

    async def stop(self) -> None:
        """Graceful drain: finish what was admitted, then tear down."""
        self._stopping = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        # Connections notice `_stopping` and exit their read loops after
        # answering everything admitted; give them a bounded head start,
        # then cancel stragglers (idle keep-alive connections).
        await self.batcher.drain()
        if self._connections:
            done, pending = await asyncio.wait(list(self._connections), timeout=1.0)
            for task in pending:
                task.cancel()
            if pending:
                await asyncio.wait(list(pending))
        self._executor.shutdown(wait=True)

    def metrics_snapshot(self) -> Dict[str, Any]:
        return self.metrics.snapshot()

    # ------------------------------------------------------------------ #
    # per-connection machinery
    # ------------------------------------------------------------------ #
    def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.ensure_future(self._serve_connection(reader, writer))
        self._connections.add(task)
        task.add_done_callback(self._connections.discard)

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        write_lock = asyncio.Lock()  # responses interleave; frames must not
        requests: Set[asyncio.Task] = set()
        # Resident incremental state, one entry per table geometry this
        # connection has shipped with the session flag.  The keyed value is
        # the latest shipment of that table, carrying its decode session.
        sessions: Dict[Tuple[int, int, str, int, bool], IBLT] = {}
        try:
            while not self._stopping:
                try:
                    frame_type, request_id, payload = await protocol.read_frame(
                        reader, max_frame_bytes=self.max_frame_bytes
                    )
                except asyncio.IncompleteReadError:
                    break  # clean EOF between frames
                except protocol.FrameError as exc:
                    self.metrics.observe_error()
                    await self._send(
                        writer, write_lock, protocol.FRAME_ERROR, 0, str(exc).encode()
                    )
                    break  # the stream is unframeable; this connection is done
                if frame_type == protocol.FRAME_DECODE_REQUEST:
                    # Admission control *before* spawning the request task:
                    # with max_pending requests unanswered this read loop
                    # suspends, stops pulling frames, and TCP flow control
                    # pushes the backpressure to the client.
                    await self._admission.acquire()
                    self.metrics.observe_request()
                    if payload and payload[0] & 2:
                        # Session requests mutate per-connection resident
                        # state, so they must apply in shipment order:
                        # answer inline instead of spawning a task.  The
                        # numpy work still runs on the decode executor.
                        try:
                            await self._handle_session_decode(
                                writer, write_lock, request_id, payload, sessions
                            )
                        finally:
                            self._admission.release()
                        continue
                    task = asyncio.ensure_future(
                        self._handle_decode(writer, write_lock, request_id, payload)
                    )
                    requests.add(task)
                    task.add_done_callback(requests.discard)
                    task.add_done_callback(lambda _t: self._admission.release())
                elif frame_type == protocol.FRAME_STATS_REQUEST:
                    body = json.dumps(self.metrics_snapshot()).encode()
                    await self._send(
                        writer, write_lock, protocol.FRAME_STATS_RESULT, request_id, body
                    )
                else:
                    self.metrics.observe_error()
                    await self._send(
                        writer,
                        write_lock,
                        protocol.FRAME_ERROR,
                        request_id,
                        f"unexpected frame type {frame_type} from a client".encode(),
                    )
            if requests:
                await asyncio.wait(list(requests))
        except (ConnectionResetError, BrokenPipeError):
            pass  # the peer vanished; nothing left to answer
        finally:
            for task in requests:
                task.cancel()
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _handle_decode(
        self,
        writer: asyncio.StreamWriter,
        write_lock: asyncio.Lock,
        request_id: int,
        payload: bytes,
    ) -> None:
        """One request: parse → coalesce → decode → answer.

        Any failure is scoped to this request: the client gets an ``ERROR``
        frame with its id and the connection keeps serving.
        """
        try:
            table, signed, _session = protocol.decode_decode_request(payload)
            result = await self.batcher.submit(table, signed=signed)
            body = protocol.encode_decode_result(result)
            await self._send(
                writer, write_lock, protocol.FRAME_DECODE_RESULT, request_id, body
            )
            self.metrics.observe_response()
        except asyncio.CancelledError:
            raise
        except Exception as exc:  # noqa: BLE001 - isolation boundary
            self.metrics.observe_error()
            try:
                await self._send(
                    writer, write_lock, protocol.FRAME_ERROR, request_id, str(exc).encode()
                )
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _handle_session_decode(
        self,
        writer: asyncio.StreamWriter,
        write_lock: asyncio.Lock,
        request_id: int,
        payload: bytes,
        sessions: Dict[Tuple[int, int, str, int, bool], IBLT],
    ) -> None:
        """One session request: diff against the resident table, re-peel.

        The first shipment of a geometry bootstraps a resident
        :class:`~repro.iblt.incremental.IncrementalDecodeSession`; every
        later shipment of the same geometry is reduced to the cells whose
        ``count``/``key_sum``/``check_sum`` differ from the resident copy,
        applied as a cell delta, and answered by an incremental checkpoint
        that re-peels only the dirty neighbourhood.  A successful answer is
        exactly the shipped table's true contents; whenever a from-scratch
        decode of the shipped table succeeds, so does the answer.  It may
        also succeed where that decode fails, since the resident session
        remembers keys it recovered before a colliding key arrived.
        """
        try:
            table, signed, _session = protocol.decode_decode_request(payload)
            key = (table.num_cells, table.r, table.layout, table.hasher.seed, signed)
            resident = sessions.get(key)
            loop = asyncio.get_running_loop()
            if resident is None:
                result = await loop.run_in_executor(
                    self._executor, self._session_bootstrap, table, signed
                )
                sessions[key] = table
                self.metrics.observe_session(bootstrap=True)
            else:
                result = await loop.run_in_executor(
                    self._executor, self._session_checkpoint, resident, table, signed
                )
                self.metrics.observe_session(bootstrap=False)
            body = protocol.encode_decode_result(result)
            await self._send(
                writer, write_lock, protocol.FRAME_DECODE_RESULT, request_id, body
            )
            self.metrics.observe_response()
        except asyncio.CancelledError:
            raise
        except Exception as exc:  # noqa: BLE001 - isolation boundary
            self.metrics.observe_error()
            try:
                await self._send(
                    writer, write_lock, protocol.FRAME_ERROR, request_id, str(exc).encode()
                )
            except (ConnectionResetError, BrokenPipeError):
                pass

    def _session_bootstrap(self, table: IBLT, signed: bool):
        """Executor half of a first session shipment: full decode, state kept."""
        return table.decode(
            decoder=self._decoder,
            signed=signed,
            incremental=True,
            **self._decode_options,
        )

    def _session_checkpoint(self, resident: IBLT, shipped: IBLT, signed: bool):
        """Executor half of a repeat shipment: cell diff → delta → re-peel."""
        dirty = np.flatnonzero(
            (shipped.count != resident.count)
            | (shipped.key_sum != resident.key_sum)
            | (shipped.check_sum != resident.check_sum)
        )
        if dirty.size:
            resident._session.apply_cell_delta(
                dirty,
                shipped.count[dirty] - resident.count[dirty],
                shipped.key_sum[dirty] ^ resident.key_sum[dirty],
                shipped.check_sum[dirty] ^ resident.check_sum[dirty],
            )
            resident.count[dirty] = shipped.count[dirty]
            resident.key_sum[dirty] = shipped.key_sum[dirty]
            resident.check_sum[dirty] = shipped.check_sum[dirty]
        return resident.decode(
            decoder=self._decoder,
            signed=signed,
            incremental=True,
            **self._decode_options,
        )

    @staticmethod
    async def _send(
        writer: asyncio.StreamWriter,
        write_lock: asyncio.Lock,
        frame_type: int,
        request_id: int,
        payload: bytes,
    ) -> None:
        async with write_lock:
            writer.write(protocol.encode_frame(frame_type, request_id, payload))
            await writer.drain()


async def run_server(
    server: DecodeServer,
    *,
    port_file: Optional[str] = None,
    announce=None,
) -> Dict[str, Any]:
    """Start ``server``, run until SIGINT/SIGTERM, drain, return the metrics.

    ``port_file`` (used by the CI smoke and any script that binds port 0)
    receives the bound port as text once the socket is listening.
    ``announce`` is called with a human-readable listening line.
    """
    await server.start()
    if announce is not None:
        announce(f"repro serve listening on {server.host}:{server.port}")
    if port_file:
        with open(port_file, "w") as handle:
            handle.write(str(server.port))
    loop = asyncio.get_running_loop()
    stop_event = asyncio.Event()
    installed = []
    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            loop.add_signal_handler(signum, stop_event.set)
            installed.append(signum)
        except (NotImplementedError, RuntimeError):  # pragma: no cover - win/embedded
            pass
    try:
        await stop_event.wait()
    finally:
        for signum in installed:
            loop.remove_signal_handler(signum)
        await server.stop()
    return server.metrics_snapshot()


def main(argv=None) -> int:  # pragma: no cover - thin CLI shim
    """Stand-alone entry point mirroring ``repro serve``."""
    from repro.cli import main as cli_main

    return cli_main(["serve", *(argv or sys.argv[1:])])
