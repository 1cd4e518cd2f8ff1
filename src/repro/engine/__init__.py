"""Unified engine subsystem: registry, config and the ``peel`` front door.

This package is the stable public surface over the peeling engines:

* :class:`~repro.engine.registry.PeelingEngine` — the protocol every engine
  satisfies, plus :func:`register_engine` / :func:`get_engine` /
  :func:`available_engines`.
* :class:`~repro.engine.config.PeelingConfig` — frozen, dict-round-trippable
  run configuration for reproducible experiment manifests.
* :func:`~repro.engine.api.peel` / :func:`~repro.engine.api.peel_many` —
  string-selectable single-graph and batched peeling, the latter dispatched
  through the execution backends of :mod:`repro.parallel.backend`.

Importing this package registers the four built-in engines under the names
``"sequential"``, ``"parallel"``, ``"subtable"`` and ``"batched"``
(lockstep batch peeling; via ``peel`` it runs a batch of one, its real
face is ``peel_many(graphs, "parallel", backend="batched")``).
"""

from repro.engine.registry import (
    EngineFactory,
    PeelingEngine,
    available_engines,
    get_engine,
    register_engine,
    unregister_engine,
)
from repro.engine.config import DEFAULT_ENGINE, PeelingConfig
from repro.engine.api import peel, peel_many, peel_resumable, resume

from repro.core.peeling import ParallelPeeler, SequentialPeeler
from repro.core.subtable import SubtablePeeler
from repro.engine.batched import BatchedPeeler

for _name, _factory in (
    ("sequential", SequentialPeeler),
    ("parallel", ParallelPeeler),
    ("subtable", SubtablePeeler),
    ("batched", BatchedPeeler),
):
    if _name not in available_engines():  # tolerate re-imports (e.g. importlib.reload)
        register_engine(_name, _factory)
del _name, _factory

__all__ = [
    "PeelingEngine",
    "EngineFactory",
    "register_engine",
    "unregister_engine",
    "get_engine",
    "available_engines",
    "PeelingConfig",
    "DEFAULT_ENGINE",
    "BatchedPeeler",
    "peel",
    "peel_many",
    "peel_resumable",
    "resume",
]
