"""Shared machinery of the benchmark: seeds, the closed loop, statistics,
the exact-counter ledger, call wrapping for the traced run, and host facts.

Every workload module builds on :func:`closed_loop` (one operation at a
time, one process) except ``serve_recon``, whose client keeps many requests
in flight and therefore runs its own loop.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import platform
import resource
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Sequence

import numpy as np

STATE_DIR = Path(__file__).resolve().parent / ".state"
"""Where exact counters of earlier runs are kept, per (program, workload, seed)."""


def op_seed(seed: int, workload: str, index: int) -> int:
    """Integer seed of one operation: a pure function of (seed, workload, index)."""
    tag = sum(ord(ch) << (8 * (i % 4)) for i, ch in enumerate(workload))
    return int(np.random.SeedSequence([seed, tag, index]).generate_state(1, np.uint64)[0] >> 1)


def op_rng(seed: int, workload: str, index: int) -> np.random.Generator:
    """Generator for the inputs of one operation (see :func:`op_seed`)."""
    return np.random.default_rng(op_seed(seed, workload, index))


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def tail_percentile(count: int) -> float:
    """Highest percentile with at least ten samples beyond it, within [p50, p95].

    Above p95 a single burst of host interference, a few ops long, decides
    the value.
    """
    return min(95.0, max(50.0, 100.0 * (1.0 - 10.0 / count))) if count else 50.0


def latency_summary(seconds: Sequence[float]) -> Dict[str, float]:
    """p50 and tail latency in ms, plus which percentile the tail is."""
    samples = np.asarray(seconds, dtype=np.float64) * 1e3
    q = tail_percentile(samples.size)
    return {
        "p50": float(np.percentile(samples, 50.0)),
        "tail": float(np.percentile(samples, q)),
        "tail_percentile": q,
        "samples": int(samples.size),
    }


def peak_rss_mb(child_maxrss_kb: int = 0) -> float:
    """Peak resident set of this process plus a waited child's, in MiB.

    ``ru_maxrss`` is in KiB on Linux.  Pages shared with a forked child are
    counted in both peaks.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return (own + child_maxrss_kb) / 1024.0


def host_fingerprint() -> Dict[str, object]:
    """nproc, CPU model, Python/numpy versions and the kernels that resolve."""
    from repro.kernels import ready_kernels

    model = platform.processor() or "unknown"
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "ready_kernels": list(ready_kernels()),
        "kernel": "numpy",
    }


class Calibration:
    """A fixed numpy + interpreter task timed between ops, off the clock.

    Its median tells how fast the host ran during this run, so a reader can
    tell a slower program from a slower host.  Sampled at most every
    ``interval`` seconds.
    """

    def __init__(self, interval: float = 0.2) -> None:
        self.input = np.random.default_rng(12345).integers(0, 1 << 20, size=1 << 17)
        self.interval = interval
        self.samples: List[float] = []
        self._last = float("-inf")

    def maybe_sample(self) -> None:
        if time.perf_counter() - self._last < self.interval:
            return
        started = time.perf_counter()
        order = np.argsort(self.input, kind="stable")
        np.bincount(self.input[order] & 0xFFFF)
        total = 0
        for value in range(10_000):
            total += value & 7
        self._last = time.perf_counter()
        self.samples.append(1e3 * (self._last - started))

    def median_ms(self) -> float:
        return median(self.samples)


@contextlib.contextmanager
def timed_attribute(owner: object, name: str, sink: List[float]):
    """Replace ``owner.name`` by a wrapper appending each call's seconds to ``sink``.

    The traced run uses this to time the public calls a layer makes into the
    next one without editing the program.  The original is restored on exit.
    """
    original = getattr(owner, name)

    def wrapper(*args, **kwargs):
        started = time.perf_counter()
        try:
            return original(*args, **kwargs)
        finally:
            sink.append(time.perf_counter() - started)

    setattr(owner, name, wrapper)
    try:
        yield
    finally:
        setattr(owner, name, original)


@dataclass
class OpOutcome:
    """What one operation reports back to the loop.

    ``elapsed`` is the timed part only; ``counters`` are exact values that
    must repeat for the same (seed, index); ``layers`` holds the traced
    per-layer timings in ms (empty for an untraced op).
    """

    elapsed: float
    ok: bool
    counters: List[float]
    layers: Dict[str, float] = field(default_factory=dict)


@dataclass
class LoopResult:
    """Latencies of untraced ops, traced outcomes, and every op's counters.

    ``attempted`` and ``failed`` count measured ops; a warm-up op that fails
    verification is counted in ``warmup_failed``.
    """

    latencies: List[float] = field(default_factory=list)
    traced: List[OpOutcome] = field(default_factory=list)
    calibration: Calibration = field(default_factory=Calibration)
    counters: Dict[int, List[float]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    warmup_failed: int = 0


def closed_loop(
    op: Callable[[int, bool], OpOutcome],
    *,
    seconds: float,
    warmup: int,
    counter_ops: int,
    trace: bool,
) -> LoopResult:
    """Run ``warmup`` ops, then ops until ``seconds`` of wall time have passed.

    Ops are numbered from 0 (warm-up first) and never repeat an index.  The
    loop also runs until every op below ``counter_ops`` is done, so the
    exact-counter window is the same in every run.  With ``trace`` the
    measured ops alternate untraced/traced, so the traced run can report
    its own overhead.  Latencies are those of untraced ops only.
    """
    result = LoopResult()
    for index in range(warmup):
        outcome = op(index, False)
        result.counters[index] = outcome.counters
        result.warmup_failed += 0 if outcome.ok else 1
    index = warmup
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or index < counter_ops:
        traced = trace and (index - warmup) % 2 == 1
        outcome = op(index, traced)
        result.counters[index] = outcome.counters
        result.attempted += 1
        result.failed += 0 if outcome.ok else 1
        if traced:
            result.traced.append(outcome)
        else:
            result.latencies.append(outcome.elapsed)
        result.calibration.maybe_sample()
        index += 1
    return result


def counter_window_means(counters: Dict[int, List[float]], counter_ops: int) -> List[float]:
    """Per-counter mean over ops ``0 .. counter_ops-1`` (identical across runs)."""
    rows = np.asarray([counters[i] for i in range(counter_ops)], dtype=np.float64)
    return [float(v) for v in rows.mean(axis=0)]


def chunked_throughput(latencies: Sequence[float], chunks: int = 10) -> float:
    """Ops per timed second, as the median over ``chunks`` consecutive slices of ops.

    The median keeps a burst of host interference inside one chunk from
    moving the run's figure.
    """
    parts = [p for p in np.array_split(np.asarray(latencies), chunks) if p.size]
    return median([p.size / p.sum() for p in parts])


def trace_overhead_pct(loop: LoopResult) -> float:
    """Median traced op time over median untraced op time, minus one, in %."""
    traced = median([o.elapsed for o in loop.traced])
    return 100.0 * (traced / median(loop.latencies) - 1.0)


def source_digest(src: Path) -> str:
    """Short digest of the program's Python sources under ``src``."""
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def check_ledger(
    src: Path, workload: str, seed: int, counters: Dict[int, List[float]]
) -> List[int]:
    """Compare exact counters with earlier runs of the same program, workload and seed.

    Returns the op indices whose counters differ from a stored run, then
    stores the union so later runs are checked against every op seen.  The
    ledger is keyed by :func:`source_digest`, so a changed program starts a
    fresh one.
    """
    STATE_DIR.mkdir(exist_ok=True)
    path = STATE_DIR / f"{workload}-seed{seed}-{source_digest(src)}.json"
    stored: Dict[str, List[float]] = {}
    if path.exists():
        with open(path) as handle:
            stored = json.load(handle)
    fresh = {str(k): [float(x) for x in v] for k, v in counters.items()}
    mismatched = sorted(int(k) for k, v in fresh.items() if k in stored and stored[k] != v)
    stored.update({k: v for k, v in fresh.items() if k not in stored})
    tmp = path.with_suffix(f".tmp{os.getpid()}")
    with open(tmp, "w") as handle:
        json.dump(stored, handle)
    os.replace(tmp, path)
    return mismatched


@dataclass
class Report:
    """Everything one run produces, before it is rendered as the result line."""

    attempted: int
    failed: int
    end_to_end: Dict[str, float]
    per_layer: Dict[str, float]
    counters: Dict[int, List[float]]
    details: Dict[str, object] = field(default_factory=dict)
    problems: List[str] = field(default_factory=list)


def sequential_report(
    loop: LoopResult,
    *,
    setup_s: Sequence[float],
    per_layer: Dict[str, float],
    traced_layers: Sequence[str],
    trace: bool,
) -> Report:
    """Report of a :func:`closed_loop` workload.

    Throughput counts only the timed part of each op (see
    :func:`chunked_throughput`).  ``traced_layers`` name the per-op layer
    timings (already in ms) whose medians the traced run reports, next to
    its overhead.
    """
    latency = latency_summary(loop.latencies)
    per_layer = dict(per_layer)
    if trace:
        for name in traced_layers:
            per_layer[name] = median([o.layers[name] for o in loop.traced])
        per_layer["trace.overhead_pct"] = trace_overhead_pct(loop)
    problems = []
    if loop.warmup_failed:
        problems.append(f"{loop.warmup_failed} warm-up op(s) failed verification")
    return Report(
        attempted=loop.attempted,
        failed=loop.failed,
        end_to_end={
            "setup_s": median(setup_s),
            "throughput_per_s": chunked_throughput(loop.latencies),
            "latency_ms.p50": latency["p50"],
            "latency_ms.tail": latency["tail"],
            "peak_rss_mb": peak_rss_mb(),
        },
        per_layer=per_layer,
        counters=loop.counters,
        details={
            "latency": latency,
            "setup_runs_s": list(setup_s),
            "calibration_ms": loop.calibration.median_ms(),
        },
        problems=problems,
    )
