"""serve-recon: set reconciliation through a forked ``DecodeServer``.

The server runs in a child forked from this already-imported process (so
start-up is not an interpreter spawn) and sends its port back over a pipe;
it keeps the default 2 ms batch window.  The client keeps ``IN_FLIGHT``
requests outstanding over ``CONNECTIONS`` connections, cycling through 64
prebuilt ``SetReconciler(1200, 4)`` difference digests (4,000 shared keys,
350 on each side).  With 32 requests in flight the micro-batcher actually
fuses batches, which is the path this workload exists to measure.

The digests use r=4, not r=3: with r=3 two of the 700 differing keys land
in the same three cells of a 1200-cell digest in about one digest in 256
(seed 1 has one), and such a digest cannot be decoded by any decoder.  With
r=4 none of 3,840 digests (seeds 0-59) failed.

Requests run in epochs of ``EPOCH`` requests.  Responses are kept during an
epoch and checked against the known a\\b and b\\a after it, off the clock.
Throughput is the median of the epochs' rates and the p50 the median of
their p50s, so one epoch disturbed by the host moves neither; the tail is
taken over all untraced requests.
"""

from __future__ import annotations

import asyncio
import contextlib
import gc
import os
import select
import signal
import time
from typing import Dict, List, Tuple

import numpy as np

from harness import Calibration, Report, latency_summary, median, op_rng, op_seed, peak_rss_mb
from harness import timed_attribute

NAME = "serve-recon"
TABLES, CELLS, R = 64, 1200, 4
SHARED, ONLY_EACH = 4000, 350
IN_FLIGHT, CONNECTIONS = 32, 2
EPOCH = 1024
WARMUP_REQUESTS = 256
SETUP_REPEATS = 3
DECODE_MANY_REPEATS = 20
CHILD_TIMEOUT_S = 20.0


def _requests(seed: int):
    """The 64 difference digests and, for each, the expected (a\\b, b\\a)."""
    from repro import SetReconciler

    reconciler = SetReconciler(CELLS, R, seed=op_seed(seed, NAME + "/hash", 0))
    tables, expected = [], []
    for index in range(TABLES):
        rng = op_rng(seed, NAME, index)
        total = SHARED + 2 * ONLY_EACH
        keys = np.unique(rng.integers(1, 1 << 63, size=2 * total, dtype=np.uint64))
        keys = rng.permutation(keys)[:total]
        if keys.size < total:
            raise RuntimeError("key draw produced too few distinct keys")
        shared = keys[:SHARED]
        only_a = keys[SHARED: SHARED + ONLY_EACH]
        only_b = keys[SHARED + ONLY_EACH:]
        a = np.concatenate([shared, only_a])
        b = np.concatenate([shared, only_b])
        tables.append(reconciler.digest(a).subtract(reconciler.digest(b)))
        expected.append((np.sort(only_a), np.sort(only_b)))
    return tables, expected


def _matches(result, want: Tuple[np.ndarray, np.ndarray]) -> bool:
    return bool(
        result is not None
        and result.success
        and np.array_equal(np.sort(result.recovered), want[0])
        and np.array_equal(np.sort(result.removed), want[1])
    )


def _serve_in_child(port_fd: int) -> None:
    """Child body: serve until SIGTERM, then drain and exit."""
    from repro.serve import DecodeServer

    async def main() -> None:
        server = DecodeServer("127.0.0.1", 0, kernel="numpy")
        await server.start()
        stop = asyncio.Event()
        asyncio.get_running_loop().add_signal_handler(signal.SIGTERM, stop.set)
        os.write(port_fd, str(server.port).encode())
        os.close(port_fd)
        await stop.wait()
        await server.stop()

    asyncio.run(main())


class ForkedServer:
    """A decode server in a forked child; :meth:`stop` returns its peak RSS (KiB).

    ``cpus`` pins the child, so that client and server each keep one core.
    """

    def __init__(self, cpus) -> None:
        read_fd, write_fd = os.pipe()
        self.pid = os.fork()
        if self.pid == 0:  # child
            code = 1
            try:
                os.close(read_fd)
                os.sched_setaffinity(0, cpus)
                _serve_in_child(write_fd)
                code = 0
            finally:
                os._exit(code)
        os.close(write_fd)
        try:
            ready, _, _ = select.select([read_fd], [], [], CHILD_TIMEOUT_S)
            text = os.read(read_fd, 32).decode() if ready else ""
        finally:
            os.close(read_fd)
        if not text:
            self.stop()
            raise RuntimeError("decode server did not report its port")
        self.port = int(text)

    def stop(self) -> int:
        """SIGTERM the child, wait for it (SIGKILL after a timeout), return ru_maxrss."""
        os.kill(self.pid, signal.SIGTERM)
        deadline = time.monotonic() + CHILD_TIMEOUT_S
        while time.monotonic() < deadline:
            pid, _status, usage = os.wait4(self.pid, os.WNOHANG)
            if pid:
                return usage.ru_maxrss
            time.sleep(0.01)
        os.kill(self.pid, signal.SIGKILL)
        _pid, _status, usage = os.wait4(self.pid, 0)
        return usage.ru_maxrss


async def _connect(port: int):
    from repro.serve import DecodeClient

    return [await DecodeClient.connect("127.0.0.1", port) for _ in range(CONNECTIONS)]


async def _first_request(port: int, table) -> None:
    clients = await _connect(port)
    try:
        await clients[0].decode(table)
    finally:
        for client in clients:
            await client.close()


def _setup_unit(seed: int, server_cpus):
    """Build the digests, fork the server, answer one request; returns (server, ...)."""
    started = time.perf_counter()
    tables, expected = _requests(seed)
    server = ForkedServer(server_cpus)
    try:
        asyncio.run(_first_request(server.port, tables[0]))
    except BaseException:
        server.stop()
        raise
    return server, tables, expected, time.perf_counter() - started


async def _epoch(clients, tables, first: int, count: int, latencies: List[float]):
    """Send requests ``first .. first+count-1`` with IN_FLIGHT outstanding."""
    from repro.serve import RemoteDecodeError

    results: Dict[int, object] = {}
    cursor = first
    end = first + count

    async def worker(slot: int) -> None:
        nonlocal cursor
        client = clients[slot % len(clients)]
        while cursor < end:
            index = cursor
            cursor += 1
            sent = time.perf_counter()
            try:
                results[index] = await client.decode(tables[index % TABLES])
            except RemoteDecodeError:
                results[index] = None
            latencies.append(time.perf_counter() - sent)

    # Collector pauses in this client would read as server latency.
    gc.collect()
    gc.disable()
    try:
        started = time.perf_counter()
        await asyncio.gather(*(worker(slot) for slot in range(IN_FLIGHT)))
        return results, time.perf_counter() - started
    finally:
        gc.enable()


def _stats_delta(before: dict, after: dict) -> Dict[str, float]:
    """Batching counters of the measured window, from two stats frames."""
    batches = after["batches_flushed"] - before["batches_flushed"]
    fused = after["fused_requests"] - before["fused_requests"]
    solo = after["solo_requests"] - before["solo_requests"]
    window = after["flush_triggers"]["window"] - before["flush_triggers"]["window"]
    return {
        "serve.mean_batch_size": (fused + solo) / batches,
        "serve.fused_share": fused / (fused + solo),
        "serve.window_flush_share": window / batches,
        "serve.errors": after["errors"] - before["errors"],
    }


async def _measure(port: int, tables, expected, seconds: float, trace: bool):
    """Warm up, then run epochs for ``seconds``; in a traced run every other
    epoch times ``IBLT.to_bytes``.  Returns a dict of raw measurements."""
    from repro import IBLT

    clients = await _connect(port)
    try:
        encode: List[float] = []
        epochs: List[dict] = []
        calibration = Calibration(interval=0.0)
        attempted = failed = 0
        first_seen: Dict[int, List[float]] = {}

        warm, _ = await _epoch(clients, tables, 0, WARMUP_REQUESTS, [])
        warm_failed = sum(not _matches(r, expected[i % TABLES]) for i, r in warm.items())
        before = await clients[0].stats()
        cursor = WARMUP_REQUESTS
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline or (trace and len(epochs) < 2):
            traced = trace and len(epochs) % 2 == 1
            latencies: List[float] = []
            with contextlib.ExitStack() as stack:
                if traced:
                    stack.enter_context(timed_attribute(IBLT, "to_bytes", encode))
                results, wall = await _epoch(clients, tables, cursor, EPOCH, latencies)
            epochs.append({"traced": traced, "rate": EPOCH / wall, "latencies": latencies})
            for index, result in results.items():
                attempted += 1
                ok = _matches(result, expected[index % TABLES])
                failed += 0 if ok else 1
                if ok and index % TABLES not in first_seen:
                    first_seen[index % TABLES] = [
                        result.rounds, result.recovered.size, result.removed.size
                    ]
            cursor += EPOCH
            calibration.maybe_sample()
        after = await clients[0].stats()
    finally:
        for client in clients:
            await client.close()
    return {
        "epochs": epochs,
        "encode": encode,
        "attempted": attempted,
        "failed": failed,
        "warm_failed": warm_failed,
        "counters": first_seen,
        "stats": after,
        "stats_delta": _stats_delta(before, after),
        "calibration_ms": calibration.median_ms(),
    }


def _decode_many_ms(tables, size: int) -> float:
    from repro import IBLT

    timings = []
    for _ in range(DECODE_MANY_REPEATS):
        started = time.perf_counter()
        IBLT.decode_many(tables[:size], decoder="batched", kernel="numpy")
        timings.append(time.perf_counter() - started)
    return 1e3 * median(timings)


def run(seed: int, seconds: float, trace: bool) -> Report:
    cpus = sorted(os.sched_getaffinity(0))
    server_cpus = set(cpus)
    if len(cpus) >= 2:
        os.sched_setaffinity(0, {cpus[0]})
        server_cpus = {cpus[1]}
    setup = []
    server = None
    for _ in range(SETUP_REPEATS):
        if server is not None:
            server.stop()
        server, tables, expected, elapsed = _setup_unit(seed, server_cpus)
        setup.append(elapsed)
    try:
        measured = asyncio.run(_measure(server.port, tables, expected, seconds, trace))
    finally:
        child_rss_kb = server.stop()

    plain = [e for e in measured["epochs"] if not e["traced"]]
    pooled = latency_summary([t for e in plain for t in e["latencies"]])
    rate = median([e["rate"] for e in plain])
    stats = measured["stats"]
    per_layer = dict(measured["stats_delta"])
    if trace:
        traced = [e for e in measured["epochs"] if e["traced"]]
        client_p50 = latency_summary([t for e in traced for t in e["latencies"]])["p50"]
        per_layer.update({
            "serve.server_latency_ms.p50": stats["latency_ms"]["p50"],
            "serve.server_latency_ms.p99": stats["latency_ms"]["p99"],
            "serve.client_overhead_ms.p50": client_p50 - stats["latency_ms"]["p50"],
            "iblt.encode_ms": 1e3 * median(measured["encode"]),
            "iblt.decode_many_ms.b8": _decode_many_ms(tables, 8),
            "iblt.decode_many_ms.b32": _decode_many_ms(tables, 32),
            "trace.overhead_pct": 100.0 * (rate / median([e["rate"] for e in traced]) - 1.0),
        })
    problems = []
    if measured["warm_failed"]:
        problems.append(f"{measured['warm_failed']} warm-up request(s) failed verification")
    return Report(
        attempted=measured["attempted"],
        failed=measured["failed"],
        end_to_end={
            "setup_s": median(setup),
            "throughput_per_s": rate,
            "latency_ms.p50": median([latency_summary(e["latencies"])["p50"] for e in plain]),
            "latency_ms.tail": pooled["tail"],
            "peak_rss_mb": peak_rss_mb(child_rss_kb),
        },
        per_layer=per_layer,
        counters=measured["counters"],
        details={
            "latency": pooled,
            "setup_runs_s": setup,
            "epoch_requests_per_s": [round(e["rate"], 1) for e in measured["epochs"]],
            "calibration_ms": measured["calibration_ms"],
            "server_stats": stats,
        },
        problems=problems,
    )
