"""Unified peeling-kernel layer: columnar state + swappable round primitives.

The paper's unifying observation is that k-core peeling, IBLT listing and
erasure decoding are *one* round-synchronous process with different per-edge
side effects.  This package is that observation as code:

* :class:`~repro.kernels.state.PeelState` — the struct-of-arrays working set
  (alive masks, degrees, peel-round arrays, frontier) every engine shares.
* :class:`~repro.kernels.arena.RoundArena` — a grow-only scratch-buffer
  pool (one per worker thread via
  :func:`~repro.kernels.arena.default_arena`) that backs the mutable state
  arrays and per-round flags, so repeated trials reuse memory instead of
  reallocating the working set every peel.
* :class:`~repro.kernels.base.PeelingKernel` — the backend protocol of
  vectorized round primitives (``find_removable``, ``kill_edges``,
  ``scatter_degree_updates``, frontier maintenance, ``pure_cells``), plus
  the optional fused hooks compiled backends add on top.
* :func:`~repro.kernels.rounds.peel_subround` /
  :func:`~repro.kernels.rounds.remove_hyperedges` — the shared inner loop,
  parameterized by an :data:`~repro.kernels.base.EdgeEffect` hook so pure
  k-core peeling and XOR-payload IBLT removal are the same code path.
* the kernel registry — ``"numpy"`` always; the compiled tier ``"cffi"``
  (system-cc-compiled C) is *declared lazily* whenever cffi and a C
  compiler look present, and pays its compile cost only on the first
  ``get_kernel`` call.  A declared backend whose load fails raises
  :class:`~repro.kernels.registry.KernelUnavailableError` naming the cause
  — a broken toolchain can never poison ``import repro``.  Select with
  ``kernel=`` on any engine/decoder, :class:`repro.PeelingConfig`, or the
  CLI's ``--kernel``.
"""

import importlib.util
import shutil

from repro.kernels.arena import RoundArena, default_arena
from repro.kernels.base import EdgeEffect, PeelingKernel
from repro.kernels.batched import BatchedPeelCheckpoint, BatchedPeelState, batched_peel
from repro.kernels.numpy_backend import NumpyKernel
from repro.kernels.registry import (
    DEFAULT_KERNEL,
    KernelFactory,
    KernelUnavailableError,
    available_kernels,
    get_kernel,
    ready_kernels,
    register_kernel,
    register_lazy_kernel,
    unregister_kernel,
)
from repro.kernels.rounds import (
    SubroundOutcome,
    drop_edges,
    peel_subround,
    remove_hyperedges,
    reseed_frontier,
)
from repro.kernels.state import PeelCheckpoint, PeelState


def _load_cffi_kernel() -> KernelFactory:
    """Lazy loader for the ``"cffi"`` backend (compiles the C library)."""
    from repro.kernels.cffi_backend import CffiKernel, ensure_library

    ensure_library()
    return CffiKernel


# Registration tolerates re-imports (e.g. importlib.reload): never re-declare
# a name that is already present.  The gate here is a *cheap* presence check
# (is cffi findable / is a C compiler on PATH) — the heavy work, and
# any failure it produces, is deferred to the first get_kernel() lookup.
if "numpy" not in available_kernels():
    register_kernel("numpy", NumpyKernel)
if (
    "cffi" not in available_kernels()
    and importlib.util.find_spec("cffi") is not None
    and any(shutil.which(cc) for cc in ("cc", "gcc", "clang"))
):
    register_lazy_kernel("cffi", _load_cffi_kernel)


def __getattr__(name: str):
    """Expose the compiled backend class without importing it eagerly."""
    if name == "CffiKernel":
        from repro.kernels.cffi_backend import CffiKernel

        return CffiKernel
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "PeelState",
    "PeelCheckpoint",
    "RoundArena",
    "default_arena",
    "BatchedPeelCheckpoint",
    "BatchedPeelState",
    "batched_peel",
    "PeelingKernel",
    "EdgeEffect",
    "NumpyKernel",
    "CffiKernel",
    "SubroundOutcome",
    "drop_edges",
    "peel_subround",
    "remove_hyperedges",
    "reseed_frontier",
    "DEFAULT_KERNEL",
    "KernelFactory",
    "KernelUnavailableError",
    "register_kernel",
    "register_lazy_kernel",
    "unregister_kernel",
    "get_kernel",
    "available_kernels",
    "ready_kernels",
]
