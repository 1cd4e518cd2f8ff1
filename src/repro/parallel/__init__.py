"""Simulated parallel execution substrate (the GPU stand-in).

The paper evaluates its IBLT implementation on an NVIDIA Tesla C2070 GPU.
No GPU (and no CUDA) is available to this reproduction, so this subpackage
provides the closest synthetic equivalent exercising the same code paths:

* :class:`~repro.parallel.machine.ParallelMachine` — a synchronous work/depth
  cost model.  Each round of a peeling run has *work* (cells examined, items
  inserted, atomic XORs issued) and the machine converts it into simulated
  time given a thread count, per-operation costs, kernel-launch overhead and
  atomic-conflict serialization (t threads hitting one cell take t serial
  steps — exactly the caveat Section 6 discusses).
* :class:`~repro.parallel.atomics.AtomicConflictTracker` — counts, per round,
  the worst-case number of conflicting atomic XORs on one cell.
* :mod:`~repro.parallel.backend` — real execution backends (serial,
  thread-pool and process-pool) behind one name-selectable interface, used
  to distribute independent trials; CPython's GIL prevents intra-trial
  thread speedup, which EXPERIMENTS.md flags, so the cost model is the
  primary instrument for Tables 3–4 while the process pool scales
  multi-trial workloads with cores.
"""

from repro.parallel.machine import CostModel, ParallelMachine, SimulatedTiming
from repro.parallel.atomics import AtomicConflictTracker, atomic_xor_depth
from repro.parallel.backend import (
    ExecutionBackend,
    ProcessPoolBackend,
    SerialBackend,
    ThreadPoolBackend,
    available_backends,
    get_backend,
    register_backend,
    unregister_backend,
)

__all__ = [
    "CostModel",
    "ParallelMachine",
    "SimulatedTiming",
    "AtomicConflictTracker",
    "atomic_xor_depth",
    "ExecutionBackend",
    "SerialBackend",
    "ThreadPoolBackend",
    "ProcessPoolBackend",
    "register_backend",
    "unregister_backend",
    "get_backend",
    "available_backends",
]
