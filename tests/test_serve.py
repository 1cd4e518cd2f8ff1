"""Tests for the decode service: protocol, coalescer, server/client, wire apps.

The asyncio pieces run inside ``asyncio.run`` from plain sync tests (the
suite has no pytest-asyncio dependency).  The coalescer correctness pins
are the ones the service's whole value rests on: requests with different
batch keys are never fused, and every per-request result is bit-identical
to a direct ``IBLT.decode(decoder="flat")``.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from repro.apps.set_reconciliation import SetReconciler, random_set_pair
from repro.apps.sparse_recovery import random_distinct_keys
from repro.iblt import IBLT
from repro.serve import protocol
from repro.serve.batcher import MicroBatcher, batch_key
from repro.serve.client import DecodeClient, run_load
from repro.serve.metrics import ServeMetrics
from repro.serve.server import DecodeServer


def make_table(num_cells=120, r=3, *, seed=7, keys_seed=1, num_keys=50, layout="subtables"):
    table = IBLT(num_cells, r, layout=layout, seed=seed)
    table.insert(random_distinct_keys(num_keys, seed=keys_seed))
    return table


def results_identical(got, want) -> bool:
    return (
        got.success == want.success
        and got.rounds == want.rounds
        and np.array_equal(got.recovered, want.recovered)
        and np.array_equal(got.removed, want.removed)
    )


# --------------------------------------------------------------------- #
# protocol
# --------------------------------------------------------------------- #
class TestProtocol:
    def _feed(self, data: bytes) -> asyncio.StreamReader:
        reader = asyncio.StreamReader()
        reader.feed_data(data)
        reader.feed_eof()
        return reader

    def test_frame_roundtrip(self):
        async def run():
            frame = protocol.encode_frame(protocol.FRAME_DECODE_REQUEST, 42, b"hello")
            return await protocol.read_frame(self._feed(frame))

        frame_type, request_id, payload = asyncio.run(run())
        assert (frame_type, request_id, payload) == (
            protocol.FRAME_DECODE_REQUEST, 42, b"hello",
        )

    def test_oversized_frame_rejected_before_read(self):
        async def run():
            frame = protocol.encode_frame(protocol.FRAME_DECODE_REQUEST, 1, b"x" * 100)
            await protocol.read_frame(self._feed(frame), max_frame_bytes=16)

        with pytest.raises(protocol.FrameError, match="exceeds"):
            asyncio.run(run())

    def test_unknown_frame_type_rejected(self):
        async def run():
            frame = protocol.encode_frame(99, 1, b"")
            await protocol.read_frame(self._feed(frame))

        with pytest.raises(protocol.FrameError, match="unknown frame type"):
            asyncio.run(run())

    def test_mid_frame_eof_is_frame_error(self):
        async def run():
            frame = protocol.encode_frame(protocol.FRAME_DECODE_REQUEST, 1, b"payload")
            await protocol.read_frame(self._feed(frame[:-3]))

        with pytest.raises(protocol.FrameError, match="mid-frame"):
            asyncio.run(run())

    def test_decode_request_roundtrip(self):
        table = make_table()
        payload = protocol.encode_decode_request(table, signed=False)
        parsed, signed, session = protocol.decode_decode_request(payload)
        assert signed is False
        assert session is False
        assert np.array_equal(parsed.count, table.count)
        assert np.array_equal(parsed.key_sum, table.key_sum)

    def test_decode_request_session_flag_roundtrip(self):
        table = make_table()
        for want_signed in (False, True):
            payload = protocol.encode_decode_request(table, signed=want_signed, session=True)
            parsed, signed, session = protocol.decode_decode_request(payload)
            assert signed is want_signed
            assert session is True
            assert np.array_equal(parsed.count, table.count)

    def test_decode_request_bad_flags(self):
        with pytest.raises(ValueError, match="flags"):
            protocol.decode_decode_request(bytes([9]) + make_table().to_bytes())

    def test_decode_request_hostile_table(self):
        with pytest.raises(ValueError, match="magic"):
            protocol.decode_decode_request(bytes([1]) + b"garbage")

    def test_result_roundtrip(self):
        table = make_table()
        want = table.decode(decoder="flat")
        got = protocol.decode_decode_result(protocol.encode_decode_result(want))
        assert results_identical(got, want)

    def test_result_truncated(self):
        with pytest.raises(ValueError, match="truncated decode result"):
            protocol.decode_decode_result(b"\x01")

    def test_result_length_mismatch(self):
        table = make_table()
        payload = protocol.encode_decode_result(table.decode(decoder="flat"))
        with pytest.raises(ValueError, match="length mismatch"):
            protocol.decode_decode_result(payload[:-4])


# --------------------------------------------------------------------- #
# the micro-batching coalescer
# --------------------------------------------------------------------- #
class _RecordingBatcher(MicroBatcher):
    """MicroBatcher that records every executor batch it flushes."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.flushed_batches = []

    def _decode_batch(self, tables, signed):
        self.flushed_batches.append(list(tables))
        return super()._decode_batch(tables, signed)


class TestMicroBatcher:
    def _run(self, coro):
        return asyncio.run(coro)

    def test_mixed_geometry_never_fused(self):
        """Requests with different batch keys must land in different batches."""

        async def run():
            with ThreadPoolExecutor(max_workers=1) as pool:
                batcher = _RecordingBatcher(pool, batch_window=0.05, max_batch_size=64)
                tables = (
                    [make_table(num_cells=120, r=3, seed=7, keys_seed=i) for i in range(3)]
                    + [make_table(num_cells=240, r=3, seed=7, keys_seed=i) for i in range(3)]
                    + [make_table(num_cells=120, r=4, seed=7, keys_seed=i) for i in range(3)]
                    + [make_table(num_cells=120, r=3, seed=8, keys_seed=i) for i in range(3)]
                    + [make_table(num_cells=120, r=3, seed=7, layout="flat", keys_seed=i)
                       for i in range(3)]
                )
                jobs = [batcher.submit(t) for t in tables]
                # One unsigned request on the first geometry: signed is part
                # of the batch key, so it must not fuse with the signed ones.
                jobs.append(batcher.submit(make_table(num_cells=120, r=3, seed=7), signed=False))
                await asyncio.gather(*jobs)
                return batcher.flushed_batches

        batches = self._run(run())
        assert sum(len(b) for b in batches) == 16
        for batch in batches:
            keys = {batch_key(t, signed=True) for t in batch}
            # identical geometry/layout/seed within every flushed batch
            assert len({k[:4] for k in keys}) == 1
        # five signed geometry groups of 3, plus the lone unsigned request
        sizes = sorted(len(b) for b in batches)
        assert sizes == [1, 3, 3, 3, 3, 3]

    def test_results_bit_identical_to_flat_decode(self):
        tables = [make_table(keys_seed=i, num_keys=40 + i) for i in range(8)]
        # include a table loaded past the threshold so a failing decode is
        # also compared field for field
        tables.append(make_table(keys_seed=99, num_keys=118))
        expected = [t.decode(decoder="flat") for t in tables]

        async def run():
            with ThreadPoolExecutor(max_workers=1) as pool:
                batcher = MicroBatcher(pool, batch_window=0.02, max_batch_size=64)
                return await asyncio.gather(*(batcher.submit(t) for t in tables))

        results = self._run(run())
        for got, want in zip(results, expected):
            assert results_identical(got, want)
            assert [s.vertices_peeled for s in got.round_stats] == [
                s.vertices_peeled for s in want.round_stats
            ]

    def test_latency_budget_flushes_single_request(self):
        """A lone request must not wait for peers that never come."""

        async def run():
            with ThreadPoolExecutor(max_workers=1) as pool:
                batcher = MicroBatcher(pool, batch_window=0.05, max_batch_size=1024)
                loop = asyncio.get_running_loop()
                started = loop.time()
                result = await asyncio.wait_for(batcher.submit(make_table()), timeout=5.0)
                return result, loop.time() - started, batcher.metrics

        result, elapsed, metrics = self._run(run())
        assert result.success
        assert elapsed < 2.0  # flushed by the window, not a larger timeout
        assert metrics.batch_size_histogram == {1: 1}
        assert metrics.window_flushes == 1 and metrics.size_flushes == 0

    def test_max_batch_size_flushes_without_window(self):
        """Hitting the size trigger must flush immediately even with a huge window."""

        async def run():
            with ThreadPoolExecutor(max_workers=1) as pool:
                batcher = MicroBatcher(pool, batch_window=30.0, max_batch_size=4)
                tables = [make_table(keys_seed=i) for i in range(4)]
                return (
                    await asyncio.wait_for(
                        asyncio.gather(*(batcher.submit(t) for t in tables)), timeout=5.0
                    ),
                    batcher.metrics,
                )

        results, metrics = self._run(run())
        assert all(r.success for r in results)
        assert metrics.batch_size_histogram == {4: 1}
        assert metrics.size_flushes == 1

    def test_zero_window_decodes_solo(self):
        async def run():
            with ThreadPoolExecutor(max_workers=1) as pool:
                batcher = MicroBatcher(pool, batch_window=0.0, max_batch_size=64)
                result = await batcher.submit(make_table())
                return result, batcher.metrics

        result, metrics = self._run(run())
        assert result.success
        assert metrics.solo_batches == 1

    def test_drain_flushes_waiting_requests(self):
        async def run():
            with ThreadPoolExecutor(max_workers=1) as pool:
                batcher = MicroBatcher(pool, batch_window=60.0, max_batch_size=64)
                job = asyncio.ensure_future(batcher.submit(make_table()))
                await asyncio.sleep(0)  # let submit enqueue
                assert batcher.num_waiting == 1
                await batcher.drain()
                return await asyncio.wait_for(job, timeout=5.0), batcher.metrics

        result, metrics = self._run(run())
        assert result.success
        assert metrics.drain_flushes == 1


# --------------------------------------------------------------------- #
# server + client over a real socket
# --------------------------------------------------------------------- #
class TestServerClient:
    def test_concurrent_requests_fuse_and_map_back(self):
        """32 concurrent requests over one connection: all fused, each result
        routed to the request that sent its table."""
        tables = [make_table(keys_seed=i, num_keys=30 + i) for i in range(32)]
        expected = [t.decode(decoder="flat") for t in tables]

        async def run():
            server = DecodeServer(port=0, batch_window_ms=50.0, max_batch_size=64)
            await server.start()
            try:
                async with await DecodeClient.connect("127.0.0.1", server.port) as client:
                    results = await client.decode_many(tables)
                    stats = await client.stats()
            finally:
                await server.stop()
            return results, stats

        results, stats = asyncio.run(run())
        for got, want in zip(results, expected):
            assert results_identical(got, want)
        assert stats["mean_batch_size"] > 1
        assert stats["responses_sent"] == 32

    def test_session_checkpoints_match_from_scratch(self):
        """A session-flagged connection ships an evolving table; every answer
        must recover the true key set, succeed wherever a from-scratch
        decode of the shipped table succeeds, and cost exactly one
        server-side bootstrap."""
        rng = np.random.default_rng(11)
        keys = random_distinct_keys(90, seed=3)
        table = make_table(num_cells=240, r=3, seed=7, num_keys=0)
        table.insert(keys)

        async def run():
            server = DecodeServer(port=0, batch_window_ms=1.0)
            await server.start()
            answers, expected, truth = [], [], []
            try:
                async with await DecodeClient.connect("127.0.0.1", server.port) as client:
                    current = keys
                    for step in range(4):
                        if step:  # churn before every re-shipment
                            drop = rng.choice(current.size, size=4, replace=False)
                            fresh = random_distinct_keys(5, seed=100 + step)
                            table.delete(current[drop])
                            table.insert(fresh)
                            current = np.concatenate([np.delete(current, drop), fresh])
                        answers.append(await client.decode(table, session=True))
                        expected.append(
                            IBLT.from_bytes(table.to_bytes()).decode(decoder="flat")
                        )
                        truth.append(sorted(map(int, current)))
                    stats = await client.stats()
            finally:
                await server.stop()
            return answers, expected, truth, stats

        answers, expected, truth, stats = asyncio.run(run())
        for got, want, live in zip(answers, expected, truth):
            assert want.success and got.success
            assert sorted(map(int, got.recovered)) == live
            assert sorted(map(int, want.recovered)) == live
            assert list(got.removed) == list(want.removed) == []
        assert stats["session_requests"] == 4
        assert stats["session_bootstraps"] == 1

    def test_sessions_are_per_connection(self):
        """The resident state is connection-scoped: a second client shipping
        the same geometry bootstraps its own session."""
        table = make_table(num_cells=240, r=3, seed=7, num_keys=40)

        async def run():
            server = DecodeServer(port=0, batch_window_ms=1.0)
            await server.start()
            try:
                async with await DecodeClient.connect("127.0.0.1", server.port) as a:
                    async with await DecodeClient.connect("127.0.0.1", server.port) as b:
                        first = await a.decode(table, session=True)
                        second = await b.decode(table, session=True)
                        stats = await a.stats()
            finally:
                await server.stop()
            return first, second, stats

        first, second, stats = asyncio.run(run())
        assert first.success and second.success
        assert sorted(map(int, first.recovered)) == sorted(map(int, second.recovered))
        assert stats["session_bootstraps"] == 2

    def test_concurrent_connections_isolate_results(self):
        """Three clients with distinct workloads sharing one server: every
        result returns to the connection that asked for it."""
        workloads = [
            [make_table(keys_seed=100 * c + i, num_keys=25 + i) for i in range(8)]
            for c in range(3)
        ]
        expected = [[t.decode(decoder="flat") for t in tables] for tables in workloads]

        async def run():
            server = DecodeServer(port=0, batch_window_ms=50.0, max_batch_size=256)
            await server.start()
            try:
                clients = [
                    await DecodeClient.connect("127.0.0.1", server.port) for _ in range(3)
                ]
                try:
                    all_results = await asyncio.gather(
                        *(client.decode_many(tables)
                          for client, tables in zip(clients, workloads))
                    )
                    stats = await clients[0].stats()
                finally:
                    for client in clients:
                        await client.close()
            finally:
                await server.stop()
            return all_results, stats

        all_results, stats = asyncio.run(run())
        for results, wants in zip(all_results, expected):
            for got, want in zip(results, wants):
                assert results_identical(got, want)
        # same geometry + seed across connections: cross-connection fusion
        assert stats["mean_batch_size"] > 1

    def test_malformed_request_fails_only_that_request(self):
        table = make_table()
        want = table.decode(decoder="flat")

        async def run():
            server = DecodeServer(port=0, batch_window_ms=1.0)
            await server.start()
            try:
                async with await DecodeClient.connect("127.0.0.1", server.port) as client:
                    bad = client._request(
                        protocol.FRAME_DECODE_REQUEST, bytes([1]) + b"not an iblt"
                    )
                    with pytest.raises(protocol.RemoteDecodeError, match="magic"):
                        await bad
                    # the connection and the server both survive
                    good = await client.decode(table)
                    stats = await client.stats()
            finally:
                await server.stop()
            return good, stats

        good, stats = asyncio.run(run())
        assert results_identical(good, want)
        assert stats["errors"] == 1 and stats["responses_sent"] == 1

    def test_unframeable_stream_closes_connection_not_server(self):
        async def run():
            server = DecodeServer(port=0, batch_window_ms=1.0, max_frame_bytes=64 * 1024)
            await server.start()
            try:
                reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
                writer.write(b"\xff\xff\xff\xff garbage that is not a frame")
                await writer.drain()
                frame_type, request_id, payload = await protocol.read_frame(reader)
                assert frame_type == protocol.FRAME_ERROR and request_id == 0
                assert await reader.read() == b""  # server closed this connection
                writer.close()
                await writer.wait_closed()
                # ... but still serves new connections
                table = make_table()
                async with await DecodeClient.connect("127.0.0.1", server.port) as client:
                    return await client.decode(table), table.decode(decoder="flat")
            finally:
                await server.stop()

        got, want = asyncio.run(run())
        assert results_identical(got, want)

    def test_signed_flag_respected_end_to_end(self):
        # A difference digest with net-deleted keys: unsigned decoding cannot
        # list the negative side, signed decoding can.
        a = random_distinct_keys(40, seed=21)
        b = np.concatenate([a[:30], random_distinct_keys(10, seed=22)])
        digest_a, digest_b = IBLT(120, 3, seed=5), IBLT(120, 3, seed=5)
        digest_a.insert(a)
        digest_b.insert(b)
        diff = digest_a.subtract(digest_b)
        want_signed = diff.decode(decoder="flat", signed=True)
        want_unsigned = diff.decode(decoder="flat", signed=False)

        async def run():
            server = DecodeServer(port=0, batch_window_ms=1.0)
            await server.start()
            try:
                async with await DecodeClient.connect("127.0.0.1", server.port) as client:
                    got_signed = await client.decode(diff, signed=True)
                    got_unsigned = await client.decode(diff, signed=False)
            finally:
                await server.stop()
            return got_signed, got_unsigned

        got_signed, got_unsigned = asyncio.run(run())
        assert results_identical(got_signed, want_signed)
        assert got_signed.success and got_signed.removed.size == 10
        assert results_identical(got_unsigned, want_unsigned)
        assert not got_unsigned.success

    def test_run_load_verifies_against_local_decode(self):
        async def run():
            server = DecodeServer(port=0, batch_window_ms=10.0)
            await server.start()
            try:
                return await run_load(
                    "127.0.0.1", server.port,
                    requests=12, connections=2, num_cells=120, r=3, load=0.5, seed=3,
                )
            finally:
                await server.stop()

        summary = asyncio.run(run())
        assert summary["mismatches"] == []
        assert summary["requests"] == 12
        assert summary["server_stats"]["responses_sent"] == 12
        assert set(summary["latency_ms"]) == {"p50", "p95", "p99"}

    def test_graceful_stop_answers_admitted_requests(self):
        tables = [make_table(keys_seed=i) for i in range(6)]
        expected = [t.decode(decoder="flat") for t in tables]

        async def run():
            server = DecodeServer(port=0, batch_window_ms=60_000.0, max_batch_size=1024)
            await server.start()
            client = await DecodeClient.connect("127.0.0.1", server.port)
            try:
                jobs = [asyncio.ensure_future(client.decode(t)) for t in tables]
                # wait until the server has admitted everything into the batcher
                for _ in range(200):
                    if server.batcher.num_waiting == len(tables):
                        break
                    await asyncio.sleep(0.01)
                # stop() drains: the hour-long window must not matter
                stop = asyncio.ensure_future(server.stop())
                results = await asyncio.wait_for(asyncio.gather(*jobs), timeout=10.0)
                await asyncio.wait_for(stop, timeout=10.0)
                return results
            finally:
                await client.close()

        results = asyncio.run(run())
        for got, want in zip(results, expected):
            assert results_identical(got, want)


# --------------------------------------------------------------------- #
# metrics
# --------------------------------------------------------------------- #
class TestServeMetrics:
    def test_snapshot_shape_and_percentiles(self):
        metrics = ServeMetrics()
        for latency in (0.001, 0.002, 0.003, 0.004):
            metrics.observe_latency(latency)
        metrics.observe_batch(3, trigger="window")
        metrics.observe_batch(1, trigger="size")
        snap = metrics.snapshot()
        assert snap["batches_flushed"] == 2
        assert snap["fused_batches"] == 1 and snap["solo_batches"] == 1
        assert snap["mean_batch_size"] == 2.0
        assert snap["batch_size_histogram"] == {"1": 1, "3": 1}
        assert 1.0 <= snap["latency_ms"]["p50"] <= 4.0
        assert snap["latency_ms"]["p99"] <= 4.0
        json.dumps(snap)  # JSON-ready by contract

    def test_empty_metrics_are_json_safe(self):
        snap = ServeMetrics().snapshot()
        assert snap["mean_batch_size"] == 0.0
        assert snap["latency_ms"] == {"p50": 0.0, "p95": 0.0, "p99": 0.0}
        json.dumps(snap)


# --------------------------------------------------------------------- #
# the first app over the service: set reconciliation
# --------------------------------------------------------------------- #
class TestReconcileViaService:
    def test_loopback_reconciliation(self):
        a, b = random_set_pair(400, 12, 9, seed=31)
        reconciler = SetReconciler(180, 3, seed=17)
        peer_payload = SetReconciler(180, 3, seed=17).digest_payload(b)

        async def run():
            server = DecodeServer(port=0, batch_window_ms=5.0)
            await server.start()
            try:
                async with await DecodeClient.connect("127.0.0.1", server.port) as client:
                    return await reconciler.reconcile_via_service(
                        a, peer_payload, client=client
                    )
            finally:
                await server.stop()

        result = asyncio.run(run())
        assert result.success
        assert sorted(map(int, result.a_minus_b)) == sorted(
            set(map(int, a)) - set(map(int, b))
        )
        assert sorted(map(int, result.b_minus_a)) == sorted(
            set(map(int, b)) - set(map(int, a))
        )
        assert result.bytes_exchanged == len(peer_payload)

    def test_many_peers_fuse_into_one_batch(self):
        """One host reconciling against a fleet of peers through the service:
        the difference digests share a hash family, so they fuse."""
        reconciler = SetReconciler(180, 3, seed=23)
        pairs = [random_set_pair(300, 5 + i, 4, seed=40 + i) for i in range(8)]
        payloads = [reconciler.digest_payload(b) for _, b in pairs]

        async def run():
            server = DecodeServer(port=0, batch_window_ms=50.0)
            await server.start()
            try:
                async with await DecodeClient.connect("127.0.0.1", server.port) as client:
                    results = await asyncio.gather(*(
                        reconciler.reconcile_via_service(a, payload, client=client)
                        for (a, _), payload in zip(pairs, payloads)
                    ))
                    stats = await client.stats()
            finally:
                await server.stop()
            return results, stats

        results, stats = asyncio.run(run())
        assert all(r.success for r in results)
        for result, (a, b) in zip(results, pairs):
            assert sorted(map(int, result.a_minus_b)) == sorted(
                set(map(int, a)) - set(map(int, b))
            )
        assert stats["mean_batch_size"] > 1

    def test_geometry_mismatch_rejected(self):
        reconciler = SetReconciler(180, 3, seed=23)
        peer_payload = SetReconciler(240, 3, seed=23).digest_payload([1, 2, 3])

        async def run():
            await reconciler.reconcile_via_service([1, 2], peer_payload, client=None)

        with pytest.raises(ValueError, match="hash family"):
            asyncio.run(run())


# --------------------------------------------------------------------- #
# console integration: `repro serve` + `repro decode-client`
# --------------------------------------------------------------------- #
class TestConsoleIntegration:
    def test_serve_and_decode_client_subprocess(self, tmp_path: Path):
        """The CI smoke in miniature: ephemeral-port server as a subprocess,
        the client CLI in-process, SIGINT drain with a clean exit."""
        if sys.platform.startswith("win"):
            pytest.skip("POSIX signals required")
        from repro.cli import main as cli_main

        port_file = tmp_path / "serve.port"
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--port", "0", "--batch-window-ms", "20",
                "--port-file", str(port_file),
            ],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        try:
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline and not port_file.exists():
                if proc.poll() is not None:
                    raise AssertionError(f"server died early: {proc.stderr.read()}")
                time.sleep(0.05)
            port = int(port_file.read_text())
            code = cli_main([
                "decode-client", "--port", str(port), "--requests", "16",
                "--num-cells", "120", "--load", "0.5",
                "--expect-mean-batch-gt", "1",
            ])
            assert code == 0
        finally:
            proc.send_signal(signal.SIGINT)
            stdout, stderr = proc.communicate(timeout=30)
        assert proc.returncode == 0, stderr
        snapshot = json.loads(stdout)  # the graceful-shutdown metrics dump
        assert snapshot["responses_sent"] == 16
        assert snapshot["mean_batch_size"] > 1
