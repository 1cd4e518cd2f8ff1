"""C kernel backend: fused peel rounds compiled on demand with the system cc.

This is the compiled tier next to the NumPy reference.  It carries no
package dependency beyond :mod:`cffi` (ABI mode — no ``ffi.compile`` build
isolation, no setuptools): the C source below is written into a build
directory, compiled once with the system C compiler into a hash-named shared
library, and ``dlopen``-ed.  Recompiles happen only when the source or flag
set changes; repeat runs reuse the cached ``.so``.

The build is one portable serial binary (no OpenMP: threading the
vertex-kill stamp measured no faster than one thread), so the backend
works on any machine with *a* C compiler.

Like every backend, this one must stay bit-exact with the NumPy reference:
the fused subround reproduces the reference path's removable order
(ascending full scan / stable candidate order), dying-edge order
(ascending), stamp values and degree arithmetic, and the parity suite pins
it against the golden fingerprints.  Everything the C tier does not
implement (``pure_cells``, the sequential worklist, frontier maintenance)
is inherited from :class:`~repro.kernels.numpy_backend.NumpyKernel`.

The :mod:`repro.kernels` package declares this backend lazily as
``"cffi"``; the loader runs :func:`ensure_library` so a missing compiler or
a failed build surfaces as a clear
:class:`~repro.kernels.registry.KernelUnavailableError` instead of an
import-time crash.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import subprocess
import tempfile
from pathlib import Path
from typing import Any, Optional, Sequence, Tuple

import numpy as np

from repro.kernels.base import EdgeEffect
from repro.kernels.numpy_backend import NumpyKernel
from repro.kernels.rounds import SubroundOutcome
from repro.kernels.state import PeelState

__all__ = ["CffiKernel", "ensure_library"]

_EMPTY = np.empty(0, dtype=np.int64)

_CDEF = """
int repro_fused_subround(
    const int64_t *edges, int64_t m, int64_t r,
    const int64_t *inc_ptr, const int64_t *inc_edges,
    int64_t *degrees, int64_t n,
    uint8_t *vertex_alive, uint8_t *edge_alive,
    int64_t *vertex_round, int64_t *edge_round,
    const int64_t *candidates, int64_t num_candidates, int64_t use_candidates,
    int64_t k, int64_t round_index,
    int64_t *removable_out, int64_t *dying_out, int64_t *stats_out);
int repro_fused_subround_u32(
    const uint32_t *edges, int64_t m, int64_t r,
    const int32_t *inc_ptr, const uint32_t *inc_edges,
    int32_t *degrees, int64_t n,
    uint8_t *vertex_alive, uint8_t *edge_alive,
    int32_t *vertex_round, int32_t *edge_round,
    const int64_t *candidates, int64_t num_candidates, int64_t use_candidates,
    int64_t k, int64_t round_index,
    int64_t *removable_out, int64_t *dying_out, int64_t *stats_out);
void repro_remove_hyperedges(
    const int64_t *cells, int64_t b, int64_t r,
    int64_t *counts, const int64_t *deltas,
    uint64_t *key_sum, const uint64_t *keys,
    uint64_t *check_sum, const uint64_t *checks);
void repro_scatter_sub_i64(
    int64_t *target, const int64_t *indices, const int64_t *values,
    int64_t count);
void repro_scatter_xor_u64(
    uint64_t *target, const int64_t *indices, const uint64_t *values,
    int64_t count);
void repro_scatter_sub_scalar_i64(
    int64_t *target, const int64_t *indices, int64_t count, int64_t amount);
void repro_scatter_sub_scalar_i32(
    int32_t *target, const uint32_t *indices, int64_t count, int64_t amount);
"""

_SOURCE = """
#include <stdint.h>
#include <stdlib.h>

/* One fused find/kill/scatter subround; see peel_subround for semantics.
 * Buffers removable_out (>= scan size), dying_out (>= m) and stats_out
 * ([num_removable, num_dying, examined]) are caller-allocated.  Returns
 * nonzero (before mutating anything) if the scratch allocation fails.
 *
 * The body is an X-macro instantiated once per id layout: the wide int64
 * layout and the compact layout (uint32 edge ids, int32 CSR pointers /
 * degrees / peel rounds).  Candidates and the output index buffers stay
 * int64 in both so the Python wrapper marshals one shape of scratch.
 * Phase notes (identical in both instantiations):
 *   1. removable selection — ascending full scan / stable candidate order,
 *      matching the reference backend;
 *   2. vertex kills — stamp each removable vertex dead with the round;
 *   3. dying edges via the CSR incidence — marking costs work proportional
 *      to the removals, the compaction scan yields the ascending edge
 *      order of the reference flatnonzero;
 *   4. edge kills + degree scatter — subtraction commutes, so any order is
 *      bit-identical to the reference scatter.
 * Stamped round indices are bounded by the removals (every stamping round
 * removed a vertex), so they always fit ROUND_T. */
#define DEFINE_FUSED_SUBROUND(NAME, EDGE_T, PTR_T, DEG_T, ROUND_T) \\
int NAME( \\
    const EDGE_T *edges, int64_t m, int64_t r, \\
    const PTR_T *inc_ptr, const EDGE_T *inc_edges, \\
    DEG_T *degrees, int64_t n, \\
    uint8_t *vertex_alive, uint8_t *edge_alive, \\
    ROUND_T *vertex_round, ROUND_T *edge_round, \\
    const int64_t *candidates, int64_t num_candidates, int64_t use_candidates, \\
    int64_t k, int64_t round_index, \\
    int64_t *removable_out, int64_t *dying_out, int64_t *stats_out) \\
{ \\
    uint8_t *mark = (uint8_t *)calloc((size_t)m, 1); \\
    if (mark == NULL) { \\
        return 1; \\
    } \\
    int64_t total = use_candidates ? num_candidates : n; \\
    int64_t num_removable = 0; \\
    int64_t examined = 0; \\
    for (int64_t i = 0; i < total; i++) { \\
        int64_t v = use_candidates ? candidates[i] : i; \\
        if (!vertex_alive[v]) { \\
            continue; \\
        } \\
        examined++; \\
        if (degrees[v] < k) { \\
            removable_out[num_removable++] = v; \\
        } \\
    } \\
    stats_out[0] = num_removable; \\
    stats_out[1] = 0; \\
    stats_out[2] = examined; \\
    if (num_removable == 0) { \\
        free(mark); \\
        return 0; \\
    } \\
    for (int64_t i = 0; i < num_removable; i++) { \\
        int64_t v = removable_out[i]; \\
        vertex_alive[v] = 0; \\
        vertex_round[v] = (ROUND_T)round_index; \\
    } \\
    for (int64_t i = 0; i < num_removable; i++) { \\
        int64_t v = removable_out[i]; \\
        for (int64_t idx = inc_ptr[v]; idx < inc_ptr[v + 1]; idx++) { \\
            int64_t e = (int64_t)inc_edges[idx]; \\
            if (edge_alive[e]) { \\
                mark[e] = 1; \\
            } \\
        } \\
    } \\
    int64_t num_dying = 0; \\
    for (int64_t e = 0; e < m; e++) { \\
        if (mark[e]) { \\
            dying_out[num_dying++] = e; \\
        } \\
    } \\
    free(mark); \\
    stats_out[1] = num_dying; \\
    for (int64_t i = 0; i < num_dying; i++) { \\
        int64_t e = dying_out[i]; \\
        edge_alive[e] = 0; \\
        edge_round[e] = (ROUND_T)round_index; \\
        const EDGE_T *row = edges + e * r; \\
        for (int64_t j = 0; j < r; j++) { \\
            degrees[row[j]]--; \\
        } \\
    } \\
    return 0; \\
}

DEFINE_FUSED_SUBROUND(repro_fused_subround, int64_t, int64_t, int64_t, int64_t)
DEFINE_FUSED_SUBROUND(repro_fused_subround_u32, uint32_t, int32_t, int32_t, int32_t)

/* Fused IBLT removal: count deltas plus key/checksum XOR, one pass over the
 * (b, r) cell matrix.  Subtraction and XOR commute, so the row-major order
 * matches the reference path's column-major scatters bit for bit. */
void repro_remove_hyperedges(
    const int64_t *cells, int64_t b, int64_t r,
    int64_t *counts, const int64_t *deltas,
    uint64_t *key_sum, const uint64_t *keys,
    uint64_t *check_sum, const uint64_t *checks)
{
    for (int64_t i = 0; i < b; i++) {
        int64_t delta = deltas[i];
        uint64_t key = keys[i];
        uint64_t check = checks[i];
        const int64_t *row = cells + i * r;
        for (int64_t j = 0; j < r; j++) {
            int64_t c = row[j];
            counts[c] -= delta;
            key_sum[c] ^= key;
            check_sum[c] ^= check;
        }
    }
}

void repro_scatter_sub_i64(
    int64_t *target, const int64_t *indices, const int64_t *values,
    int64_t count)
{
    for (int64_t i = 0; i < count; i++) {
        target[indices[i]] -= values[i];
    }
}

void repro_scatter_xor_u64(
    uint64_t *target, const int64_t *indices, const uint64_t *values,
    int64_t count)
{
    for (int64_t i = 0; i < count; i++) {
        target[indices[i]] ^= values[i];
    }
}

void repro_scatter_sub_scalar_i64(
    int64_t *target, const int64_t *indices, int64_t count, int64_t amount)
{
    for (int64_t i = 0; i < count; i++) {
        target[indices[i]] -= amount;
    }
}

/* Compact-layout flavour of the scalar degree scatter: int32 degrees
 * indexed by uint32 endpoint ids (the batched lockstep engine's hot
 * update when the stacked state is compact). */
void repro_scatter_sub_scalar_i32(
    int32_t *target, const uint32_t *indices, int64_t count, int64_t amount)
{
    int32_t a = (int32_t)amount;
    for (int64_t i = 0; i < count; i++) {
        target[indices[i]] -= a;
    }
}
"""

_FLAGS = ["-O3", "-fPIC", "-shared"]

_FFI: Any = None
_LIB: Any = None
_LIB_PATH: Optional[Path] = None


def _build_dir() -> Path:
    """Build directory for the compiled library (override: REPRO_CBUILD_DIR)."""
    override = os.environ.get("REPRO_CBUILD_DIR")
    if override:
        return Path(override)
    root = Path(__file__).resolve().parents[3]
    return root / "_cbuild"


def _find_compiler() -> str:
    for candidate in ("cc", "gcc", "clang"):
        path = shutil.which(candidate)
        if path:
            return path
    raise RuntimeError("no C compiler found (tried cc, gcc, clang)")


def _compile_library(build_dir: Path, compiler: str) -> Path:
    """Compile (or reuse) the shared library; returns its path."""
    digest = hashlib.sha256(
        ("\n".join([_SOURCE, _CDEF, " ".join(_FLAGS), compiler])).encode()
    ).hexdigest()[:16]
    build_dir.mkdir(parents=True, exist_ok=True)
    target = build_dir / f"repro_kernel_{digest}.so"
    if target.exists():
        return target
    source_path = build_dir / f"repro_kernel_{digest}.c"
    source_path.write_text(_SOURCE)
    tmp = target.with_suffix(f".tmp{os.getpid()}")
    cmd = [compiler, *_FLAGS, str(source_path), "-o", str(tmp)]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode != 0:
        tmp.unlink(missing_ok=True)
        raise RuntimeError(
            f"C kernel backend failed to compile:\n[{' '.join(cmd)}] "
            f"{proc.stderr.strip()[:500]}"
        )
    os.replace(tmp, target)  # atomic: concurrent builders converge
    return target


def _self_test(ffi: Any, lib: Any) -> None:
    """Smoke-test the fresh library against hand-computed expectations.

    Every array whose pointer crosses into C is bound to a local for the
    duration of the call — ``arr.ctypes.data`` of a temporary would dangle
    by the time C dereferences it.
    """
    target = np.array([10, 20, 30], dtype=np.int64)
    idx = np.array([0, 2, 0], dtype=np.int64)
    vals = np.array([1, 2, 3], dtype=np.int64)
    lib.repro_scatter_sub_i64(
        ffi.cast("int64_t *", target.ctypes.data),
        ffi.cast("const int64_t *", idx.ctypes.data),
        ffi.cast("const int64_t *", vals.ctypes.data),
        3,
    )
    if not np.array_equal(target, [6, 20, 28]):
        raise RuntimeError(f"C scatter_sub self-test mismatch: {target.tolist()}")
    xt = np.array([0, 0], dtype=np.uint64)
    xidx = np.array([1, 1], dtype=np.int64)
    xvals = np.array([5, 3], dtype=np.uint64)
    lib.repro_scatter_xor_u64(
        ffi.cast("uint64_t *", xt.ctypes.data),
        ffi.cast("const int64_t *", xidx.ctypes.data),
        ffi.cast("const uint64_t *", xvals.ctypes.data),
        2,
    )
    if not np.array_equal(xt, [0, 6]):
        raise RuntimeError(f"C scatter_xor self-test mismatch: {xt.tolist()}")
    t32 = np.array([10, 20, 30], dtype=np.int32)
    i32 = np.array([0, 2, 0], dtype=np.uint32)
    lib.repro_scatter_sub_scalar_i32(
        ffi.cast("int32_t *", t32.ctypes.data),
        ffi.cast("const uint32_t *", i32.ctypes.data),
        3,
        2,
    )
    if not np.array_equal(t32, [6, 20, 28]):
        raise RuntimeError(
            f"C scatter_sub_scalar_i32 self-test mismatch: {t32.tolist()}"
        )


def ensure_library(force: bool = False) -> Path:
    """Compile (or reuse) and load the C library; returns its path.

    Raises on a missing cffi module, a missing compiler, a failed compile
    or a failed self-test — the lazy-registry loader converts any of those
    into a :class:`~repro.kernels.registry.KernelUnavailableError`.
    """
    global _FFI, _LIB, _LIB_PATH
    if _LIB is not None and not force:
        return _LIB_PATH  # type: ignore[return-value]
    import cffi  # deferred: optional dependency

    compiler = _find_compiler()
    try:
        path = _compile_library(_build_dir(), compiler)
    except OSError:
        # Unwritable default build dir (read-only checkout): fall back to tmp.
        path = _compile_library(
            Path(tempfile.gettempdir()) / "repro_cbuild", compiler
        )
    ffi = cffi.FFI()
    ffi.cdef(_CDEF)
    lib = ffi.dlopen(str(path))
    _self_test(ffi, lib)
    _FFI, _LIB, _LIB_PATH = ffi, lib, path
    return path


def _c_i64(arr: np.ndarray) -> bool:
    return arr.dtype == np.int64 and arr.flags.c_contiguous


def _c_arr(arr: np.ndarray, dtype) -> bool:
    return arr.dtype == dtype and arr.flags.c_contiguous


class CffiKernel(NumpyKernel):
    """cc-compiled kernel backend (bit-exact with :class:`NumpyKernel`)."""

    name = "cffi"

    def __init__(self) -> None:
        ensure_library()

    # ------------------------------------------------------------------ #
    # fused hooks
    # ------------------------------------------------------------------ #
    def fused_subround(
        self,
        state: PeelState,
        k: int,
        round_index: int,
        *,
        candidates: Optional[np.ndarray] = None,
        collect_touched: bool = False,
        edge_effect: Optional[EdgeEffect] = None,
    ) -> Optional[SubroundOutcome]:
        """One compiled pass for the whole subround; ``None`` declines.

        Declines (falling back to the primitive-by-primitive path) when the
        state has no CSR incidence attached, is edgeless, or carries
        unexpected dtypes/layouts.  Two compiled flavours cover the two id
        layouts — all-wide (int64 throughout) dispatches to
        ``repro_fused_subround``, all-compact (uint32 edge ids, int32
        pointers/degrees/rounds) to ``repro_fused_subround_u32``; a state
        mixing layouts declines.
        """
        if state.incidence_ptr is None or state.incidence_edges is None:
            return None
        if state.num_edges == 0:
            return None
        edges = state.edges
        degrees = state.degrees
        inc_ptr = state.incidence_ptr
        inc_edges = state.incidence_edges
        vertex_round = state.vertex_peel_round
        edge_round = state.edge_peel_round
        ffi, lib = _FFI, _LIB
        if (
            _c_i64(edges)
            and _c_i64(degrees)
            and _c_i64(inc_ptr)
            and _c_i64(inc_edges)
            and _c_i64(vertex_round)
            and _c_i64(edge_round)
        ):
            fn = lib.repro_fused_subround
            edge_t, ptr_t, word_t = "int64_t", "int64_t", "int64_t"
        elif (
            _c_arr(edges, np.uint32)
            and _c_arr(degrees, np.int32)
            and _c_arr(inc_ptr, np.int32)
            and _c_arr(inc_edges, np.uint32)
            and _c_arr(vertex_round, np.int32)
            and _c_arr(edge_round, np.int32)
        ):
            fn = lib.repro_fused_subround_u32
            edge_t, ptr_t, word_t = "uint32_t", "int32_t", "int32_t"
        else:
            return None
        use_candidates = candidates is not None
        examined_full = state.vertices_remaining
        cand = (
            np.ascontiguousarray(candidates, dtype=np.int64)
            if use_candidates
            else _EMPTY
        )
        scan = cand.shape[0] if use_candidates else state.num_vertices
        # The index scratch is int64 in both layouts; the arena (when the
        # engine supplied one) recycles it across rounds and trials.  Both
        # slices handed back in the outcome are .copy()'d, so reuse is safe.
        if state.arena is not None:
            removable_out = state.arena.take("cffi/removable", scan, np.int64)
            dying_out = state.arena.take("cffi/dying", state.num_edges, np.int64)
        else:
            removable_out = np.empty(scan, dtype=np.int64)
            dying_out = np.empty(state.num_edges, dtype=np.int64)
        stats = np.zeros(3, dtype=np.int64)
        status = fn(
            ffi.cast(f"const {edge_t} *", edges.ctypes.data),
            state.num_edges,
            edges.shape[1],
            ffi.cast(f"const {ptr_t} *", inc_ptr.ctypes.data),
            ffi.cast(f"const {edge_t} *", inc_edges.ctypes.data),
            ffi.cast(f"{word_t} *", degrees.ctypes.data),
            state.num_vertices,
            ffi.cast("uint8_t *", state.vertex_alive.ctypes.data),
            ffi.cast("uint8_t *", state.edge_alive.ctypes.data),
            ffi.cast(f"{word_t} *", vertex_round.ctypes.data),
            ffi.cast(f"{word_t} *", edge_round.ctypes.data),
            ffi.cast("const int64_t *", cand.ctypes.data),
            cand.shape[0],
            1 if use_candidates else 0,
            k,
            round_index,
            ffi.cast("int64_t *", removable_out.ctypes.data),
            ffi.cast("int64_t *", dying_out.ctypes.data),
            ffi.cast("int64_t *", stats.ctypes.data),
        )
        if status != 0:
            return None  # scratch allocation failed; nothing was mutated
        num_removable, num_dying, examined_cand = (int(x) for x in stats)
        examined = examined_cand if use_candidates else examined_full
        removable = removable_out[:num_removable].copy()
        if num_removable == 0:
            return SubroundOutcome(removable, 0, _EMPTY, examined)
        dying = dying_out[:num_dying].copy()
        state.vertices_remaining -= num_removable
        state.edges_remaining -= num_dying
        touched = _EMPTY
        if num_dying:
            if edge_effect is not None:
                edge_effect(dying)
            if collect_touched:
                touched = self.unique(state.edges[dying].reshape(-1))
        return SubroundOutcome(removable, num_dying, touched, examined)

    def fused_remove_hyperedges(
        self,
        cells: np.ndarray,
        counts: np.ndarray,
        deltas: np.ndarray,
        payloads: Sequence[Tuple[np.ndarray, np.ndarray]],
    ) -> bool:
        """Compiled IBLT removal (count + key/checksum XOR); False declines."""
        if len(payloads) != 2 or counts.dtype != np.int64 or deltas.dtype != np.int64:
            return False
        (key_sum, keys), (check_sum, checks) = payloads
        for target, values in ((key_sum, keys), (check_sum, checks)):
            if target.dtype != np.uint64 or values.dtype != np.uint64:
                return False
        if not (counts.flags.c_contiguous and key_sum.flags.c_contiguous
                and check_sum.flags.c_contiguous):
            return False
        ffi, lib = _FFI, _LIB
        # Bind every (possibly copied) array to a local: a temporary's
        # ctypes.data pointer would dangle before C dereferences it.
        cells = np.ascontiguousarray(cells, dtype=np.int64)
        deltas = np.ascontiguousarray(deltas)
        keys = np.ascontiguousarray(keys, dtype=np.uint64)
        checks = np.ascontiguousarray(checks, dtype=np.uint64)
        lib.repro_remove_hyperedges(
            ffi.cast("const int64_t *", cells.ctypes.data),
            cells.shape[0],
            cells.shape[1],
            ffi.cast("int64_t *", counts.ctypes.data),
            ffi.cast("const int64_t *", deltas.ctypes.data),
            ffi.cast("uint64_t *", key_sum.ctypes.data),
            ffi.cast("const uint64_t *", keys.ctypes.data),
            ffi.cast("uint64_t *", check_sum.ctypes.data),
            ffi.cast("const uint64_t *", checks.ctypes.data),
        )
        return True

    # ------------------------------------------------------------------ #
    # primitive overrides
    # ------------------------------------------------------------------ #
    def scatter_degree_updates(
        self, degrees: np.ndarray, endpoints: np.ndarray, amount: int = 1
    ) -> None:
        if _c_i64(degrees):
            endpoints = np.ascontiguousarray(endpoints, dtype=np.int64)
            _LIB.repro_scatter_sub_scalar_i64(
                _FFI.cast("int64_t *", degrees.ctypes.data),
                _FFI.cast("const int64_t *", endpoints.ctypes.data),
                endpoints.shape[0],
                amount,
            )
            return
        if _c_arr(degrees, np.int32):
            endpoints = np.ascontiguousarray(endpoints, dtype=np.uint32)
            _LIB.repro_scatter_sub_scalar_i32(
                _FFI.cast("int32_t *", degrees.ctypes.data),
                _FFI.cast("const uint32_t *", endpoints.ctypes.data),
                endpoints.shape[0],
                amount,
            )
            return
        super().scatter_degree_updates(degrees, endpoints, amount)

    def scatter_sub(self, target: np.ndarray, indices: np.ndarray, values: np.ndarray) -> None:
        if not (_c_i64(target) and values.dtype == np.int64):
            super().scatter_sub(target, indices, values)
            return
        indices = np.ascontiguousarray(indices, dtype=np.int64)
        values = np.ascontiguousarray(values)
        _LIB.repro_scatter_sub_i64(
            _FFI.cast("int64_t *", target.ctypes.data),
            _FFI.cast("const int64_t *", indices.ctypes.data),
            _FFI.cast("const int64_t *", values.ctypes.data),
            indices.shape[0],
        )

    def scatter_xor(self, target: np.ndarray, indices: np.ndarray, values: np.ndarray) -> None:
        if not (
            target.dtype == np.uint64
            and target.flags.c_contiguous
            and values.dtype == np.uint64
        ):
            super().scatter_xor(target, indices, values)
            return
        indices = np.ascontiguousarray(indices, dtype=np.int64)
        values = np.ascontiguousarray(values)
        _LIB.repro_scatter_xor_u64(
            _FFI.cast("uint64_t *", target.ctypes.data),
            _FFI.cast("const int64_t *", indices.ctypes.data),
            _FFI.cast("const uint64_t *", values.ctypes.data),
            indices.shape[0],
        )

    # ------------------------------------------------------------------ #
    # warm-up
    # ------------------------------------------------------------------ #
    def warmup(self) -> None:
        """Compile/load the library; run a toy fused subround per id layout."""
        ensure_library()
        layouts = (
            (np.int64, np.int64, np.int64),  # edges, ptr, rounds/degrees
            (np.uint32, np.int32, np.int32),
        )
        for edge_dtype, ptr_dtype, word_dtype in layouts:
            state = PeelState(
                edges=np.array([[0, 1]], dtype=edge_dtype),
                degrees=np.array([1, 1], dtype=word_dtype),
                vertex_alive=np.ones(2, dtype=bool),
                edge_alive=np.ones(1, dtype=bool),
                vertex_peel_round=np.full(2, -1, dtype=word_dtype),
                edge_peel_round=np.full(1, -1, dtype=word_dtype),
                vertices_remaining=2,
                edges_remaining=1,
                incidence_ptr=np.array([0, 1, 2], dtype=ptr_dtype),
                incidence_edges=np.array([0, 0], dtype=edge_dtype),
            )
            outcome = self.fused_subround(state, 2, 1)
            if outcome is None or outcome.num_removed != 2 or outcome.num_dying != 1:
                raise RuntimeError(
                    "cffi kernel warm-up subround returned wrong outcome "
                    f"for the {np.dtype(edge_dtype).name} edge layout"
                )
