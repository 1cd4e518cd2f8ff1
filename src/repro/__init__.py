"""repro — parallel peeling algorithms on random hypergraphs.

A production-oriented reproduction of *Parallel Peeling Algorithms*
(Jiang, Mitzenmacher, Thaler; SPAA 2014).  The package provides:

* random r-uniform hypergraph models (:mod:`repro.hypergraph`),
* sequential, round-synchronous parallel and subtable peeling engines
  (:mod:`repro.core`) behind one registry-backed front door
  (:mod:`repro.engine`): :func:`peel`, :func:`peel_many` and
  :class:`PeelingConfig` select engines by name and dispatch batches over
  serial/thread/process execution backends,
* a shared kernel layer under every engine and decoder
  (:mod:`repro.kernels`): columnar :class:`PeelState` plus swappable
  vectorized round primitives (``kernel="numpy"`` always; ``"cffi"`` when
  a C compiler is present), benchmarked by ``repro bench`` (:mod:`repro.bench`),
* the paper's analytical machinery — thresholds, survival recurrences,
  round-complexity predictions (:mod:`repro.analysis`),
* Invertible Bloom Lookup Tables with name-selectable serial and parallel
  recovery — ``IBLT.decode(decoder="serial"|"flat"|"subtable")``
  (:mod:`repro.iblt`) — and applications built on them (:mod:`repro.apps`),
* a simulated parallel machine standing in for the paper's GPU
  (:mod:`repro.parallel`),
* a declarative sweep layer (:mod:`repro.sweeps`): grid specs with
  cell-keyed seeds, grid-level scheduling over execution backends, and
  resumable JSON artifacts,
* an experiment harness reproducing every table and figure of the paper's
  evaluation (:mod:`repro.experiments`), declared as sweeps.

Quickstart
----------
>>> from repro import random_hypergraph, peel, peeling_threshold
>>> graph = random_hypergraph(10_000, 0.7, 4, seed=1)
>>> result = peel(graph, "parallel", k=2)
>>> result.success
True
>>> round(peeling_threshold(2, 4), 3)
0.772

Batches of independent graphs go through :func:`peel_many`, which scales
with cores via the ``"threads"`` or ``"processes"`` backends:

>>> from repro import peel_many
>>> graphs = [random_hypergraph(10_000, 0.7, 4, seed=s) for s in range(4)]
>>> [r.success for r in peel_many(graphs, "parallel", k=2, backend="serial")]
[True, True, True, True]
"""

from repro._version import __version__

# Hypergraph substrate
from repro.hypergraph import (
    Hypergraph,
    random_hypergraph,
    binomial_hypergraph,
    partitioned_hypergraph,
    hypergraph_from_edges,
    kcore,
    has_empty_kcore,
)

# Peeling engines (concrete classes) and results
from repro.core import (
    ParallelPeeler,
    SequentialPeeler,
    SubtablePeeler,
    PeelingResult,
)

# Front-door API: engine registry, config, peel/peel_many
from repro.engine import (
    PeelingEngine,
    PeelingConfig,
    peel,
    peel_many,
    register_engine,
    get_engine,
    available_engines,
)

# Kernel layer: columnar peel state + swappable round-primitive backends
from repro.kernels import (
    PeelState,
    PeelingKernel,
    register_kernel,
    get_kernel,
    available_kernels,
)

# Analysis
from repro.analysis import (
    peeling_threshold,
    iterate_recurrence,
    predicted_survivors,
    iterate_subtable_recurrence,
    rounds_below_threshold,
    rounds_above_threshold,
    rounds_with_subtables,
    fibonacci_growth_rate,
    predict_rounds,
)

# IBLT + applications
from repro.iblt import (
    IBLT,
    SubtableParallelDecoder,
    FlatParallelDecoder,
    register_decoder,
    get_decoder,
    available_decoders,
)
from repro.apps import (
    SparseRecovery,
    SetReconciler,
    PeelingErasureCode,
    XorSatSolver,
    random_xorsat,
)

# Parallel substrate
from repro.parallel import (
    ParallelMachine,
    CostModel,
    ProcessPoolBackend,
    get_backend,
    available_backends,
)

# Declarative sweep layer (spec → scheduler → artifact)
from repro.sweeps import (
    SweepSpec,
    CellSpec,
    SweepArtifact,
    SweepSpecMismatch,
    run_sweep,
)

__all__ = [
    "__version__",
    "Hypergraph",
    "random_hypergraph",
    "binomial_hypergraph",
    "partitioned_hypergraph",
    "hypergraph_from_edges",
    "kcore",
    "has_empty_kcore",
    "ParallelPeeler",
    "SequentialPeeler",
    "SubtablePeeler",
    "PeelingResult",
    "PeelingEngine",
    "PeelingConfig",
    "peel",
    "peel_many",
    "register_engine",
    "get_engine",
    "available_engines",
    "PeelState",
    "PeelingKernel",
    "register_kernel",
    "get_kernel",
    "available_kernels",
    "peeling_threshold",
    "iterate_recurrence",
    "predicted_survivors",
    "iterate_subtable_recurrence",
    "rounds_below_threshold",
    "rounds_above_threshold",
    "rounds_with_subtables",
    "fibonacci_growth_rate",
    "predict_rounds",
    "IBLT",
    "SubtableParallelDecoder",
    "FlatParallelDecoder",
    "register_decoder",
    "get_decoder",
    "available_decoders",
    "SparseRecovery",
    "SetReconciler",
    "PeelingErasureCode",
    "XorSatSolver",
    "random_xorsat",
    "ParallelMachine",
    "CostModel",
    "ProcessPoolBackend",
    "get_backend",
    "available_backends",
    "SweepSpec",
    "CellSpec",
    "SweepArtifact",
    "SweepSpecMismatch",
    "run_sweep",
]
