"""The kernel-backend registry: select round primitives by name.

Mirrors the engine / decoder / backend registries built on
:class:`repro.utils.registry.Registry`.  ``"numpy"`` (the reference backend)
is always present; compiled backends (``"cffi"``) are *declared lazily*
(see :mod:`repro.kernels`): their names appear in :func:`available_kernels`
whenever the toolchain looks present, but the heavy work — invoking the C
compiler and loading the library — happens only on the first
:func:`get_kernel` call.  A backend whose lazy load fails raises
:class:`KernelUnavailableError` naming the failure at *every* lookup (the
failure is cached, the traceback is not re-paid), instead of poisoning
package import the way an eager build at registration time would.

Engines and decoders accept either a registered name or a ready kernel
instance via :func:`get_kernel`, so a custom backend can be injected without
registering it globally.
"""

from __future__ import annotations

from typing import Callable, Dict, Tuple, Union

from repro.kernels.base import PeelingKernel
from repro.utils.registry import Registry

__all__ = [
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

DEFAULT_KERNEL = "numpy"
"""Kernel used when the caller does not name one (the reference backend)."""

KernelFactory = Callable[[], PeelingKernel]
"""A zero-argument callable (usually the backend class) building a kernel."""

KernelLoader = Callable[[], KernelFactory]
"""A zero-argument callable performing a backend's one-time heavy setup
(import, JIT/C compilation) and returning its factory.  Raising any
exception marks the backend unavailable; the error message is cached and
re-raised as :class:`KernelUnavailableError` on every later lookup."""


class KernelUnavailableError(RuntimeError):
    """A declared kernel backend failed its one-time load (import/compile).

    The message names the backend and the underlying failure, so
    ``get_kernel("cffi")`` with a present-but-broken C toolchain tells the
    caller exactly which step blew up instead of surfacing an opaque
    registry miss — and the package import itself never pays (or propagates)
    the broken dependency.
    """


_KERNELS: Registry[KernelFactory] = Registry("kernel")
#: Declared-but-not-yet-loaded backends: name -> loader.
_LAZY: Dict[str, KernelLoader] = {}
#: Backends whose loader already failed: name -> cached error message.
_BROKEN: Dict[str, str] = {}


def register_kernel(name: str, factory: KernelFactory, *, overwrite: bool = False) -> None:
    """Register a kernel backend factory under ``name``.

    Parameters
    ----------
    name:
        Registry key; the string callers pass as ``kernel=`` (and the CLI's
        ``--kernel``).
    factory:
        Backend class or zero-argument callable returning an object
        satisfying :class:`~repro.kernels.base.PeelingKernel`.
    overwrite:
        Allow replacing an existing entry (default False).
    """
    if overwrite:
        _LAZY.pop(name, None)
        _BROKEN.pop(name, None)
    elif name in _LAZY:
        raise ValueError(
            f"kernel {name!r} is already registered (lazily); "
            "pass overwrite=True to replace it"
        )
    _KERNELS.register(name, factory, overwrite=overwrite)


def register_lazy_kernel(name: str, loader: KernelLoader, *, overwrite: bool = False) -> None:
    """Declare a backend whose import/compile cost is deferred to first use.

    ``loader`` runs at most once, on the first :func:`get_kernel` lookup of
    ``name``; on success its returned factory is promoted into the eager
    registry, on failure the error is cached and every subsequent lookup
    raises :class:`KernelUnavailableError` with the original cause's message.
    """
    if not isinstance(name, str) or not name:
        raise TypeError(f"kernel name must be a non-empty string, got {name!r}")
    if not callable(loader):
        raise TypeError(f"kernel loader must be callable, got {loader!r}")
    taken = name in _LAZY or name in _KERNELS.names()
    if taken and not overwrite:
        raise ValueError(
            f"kernel {name!r} is already registered; pass overwrite=True to replace it"
        )
    if overwrite and name in _KERNELS.names():
        _KERNELS.unregister(name)
    _BROKEN.pop(name, None)
    _LAZY[name] = loader


def unregister_kernel(name: str) -> None:
    """Remove ``name`` from the registry (mainly for tests); unknown names raise."""
    known = False
    if name in _LAZY:
        del _LAZY[name]
        known = True
    if _BROKEN.pop(name, None) is not None:
        known = True
    if name in _KERNELS.names():
        _KERNELS.unregister(name)
        known = True
    if not known:
        # Re-raise the registry's own unknown-name error for a uniform message.
        _KERNELS.unregister(name)


def _load_lazy(name: str) -> KernelFactory:
    """Run (or replay the outcome of) ``name``'s one-time loader."""
    if name in _BROKEN:
        raise KernelUnavailableError(_BROKEN[name])
    loader = _LAZY.pop(name)
    try:
        factory = loader()
    except Exception as exc:  # noqa: BLE001 - any load failure must be named
        message = (
            f"kernel backend {name!r} is registered but failed to load: "
            f"{type(exc).__name__}: {exc}"
        )
        _BROKEN[name] = message
        raise KernelUnavailableError(message) from exc
    _KERNELS.register(name, factory, overwrite=True)
    return factory


def get_kernel(kernel: Union[str, PeelingKernel, None] = None) -> PeelingKernel:
    """Resolve ``kernel`` to a backend instance.

    Accepts a registered name, an already-built kernel instance (returned
    as-is), or ``None`` for the default backend.  Unknown names raise
    ``ValueError`` listing the registered names; declared backends whose
    lazy load failed raise :class:`KernelUnavailableError` naming the cause.
    """
    if kernel is None:
        kernel = DEFAULT_KERNEL
    if isinstance(kernel, str):
        if kernel in _LAZY or kernel in _BROKEN:
            return _load_lazy(kernel)()
        return _KERNELS.get(kernel)()
    if isinstance(kernel, PeelingKernel):
        return kernel
    raise TypeError(
        f"kernel must be a registered name or a PeelingKernel instance, got {kernel!r}"
    )


def available_kernels() -> Tuple[str, ...]:
    """Sorted names of every *declared* kernel backend.

    Includes lazily-declared compiled backends that have not been probed
    yet; resolving one of those may still raise
    :class:`KernelUnavailableError` (use :func:`ready_kernels` for the
    probed subset).  Backends whose load already failed are excluded.
    """
    names = set(_KERNELS.names()) | set(_LAZY)
    return tuple(sorted(names))


def ready_kernels() -> Tuple[str, ...]:
    """Sorted names of every backend that actually resolves right now.

    Probes lazily-declared backends (paying their one-time import/compile
    cost) and silently drops the ones that fail — callers that sweep "every
    kernel" (the benchmark harness) want the working set, not a crash on
    the first broken optional dependency.
    """
    ready = []
    for name in available_kernels():
        try:
            get_kernel(name)
        except KernelUnavailableError:
            continue
        ready.append(name)
    return tuple(ready)
