"""Peeling engines — the paper's primary contribution.

* :class:`~repro.core.peeling.ParallelPeeler` — round-synchronous parallel
  peeling (Sections 3–4): each round removes every vertex of degree ``< k``.
* :class:`~repro.core.peeling.SequentialPeeler` — the classical greedy
  one-at-a-time baseline.
* :class:`~repro.core.subtable.SubtablePeeler` — the Appendix B variant used
  by the GPU IBLT implementation: ``r`` serial subrounds per round, one per
  subtable.

The engines are registered in the :mod:`repro.engine` registry under the
names ``"sequential"``, ``"parallel"`` and ``"subtable"``; run them through
:func:`repro.peel` (the registry-backed API in :mod:`repro.engine`).
"""

from repro.core.peeling import ParallelPeeler, SequentialPeeler
from repro.core.subtable import SubtablePeeler
from repro.core.results import PeelingResult, RoundStats, UNPEELED

__all__ = [
    "ParallelPeeler",
    "SequentialPeeler",
    "SubtablePeeler",
    "PeelingResult",
    "RoundStats",
    "UNPEELED",
]
