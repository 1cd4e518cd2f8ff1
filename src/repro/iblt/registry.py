"""Name-selectable IBLT decoders, mirroring the peeling-engine registry.

The serial worklist decoder, the flat round-synchronous decoder and the
paper's subtable decoder are interchangeable schedules of the same recovery
process — exactly like the peeling engines.  This registry gives them the
same string-selectable front door, used by
:meth:`repro.iblt.iblt.IBLT.decode` via its ``decoder=`` argument:

========= =====================================================
name      decoder
========= =====================================================
serial    :class:`SerialDecoder` (the classical worklist recovery)
flat      :class:`~repro.iblt.parallel_decode.FlatParallelDecoder`
subtable  :class:`~repro.iblt.parallel_decode.SubtableParallelDecoder`
batched   :class:`~repro.iblt.batched_decode.BatchedFlatDecoder` (flat
          schedule over a whole batch of tables in lockstep; the batch
          face is :func:`repro.iblt.decode_many`)
========= =====================================================

The historical spellings ``"parallel"`` (→ ``"subtable"``) and
``"flat-parallel"`` (→ ``"flat"``) resolve as aliases everywhere a decoder
name is accepted, but are not listed by :func:`available_decoders`.

Every decoder factory is called as ``factory(signed=..., **options)`` and
the resulting object exposes ``decode(iblt, *, in_place=False)``.

Incremental decoding (``IBLT.decode(incremental=True)``) goes through this
registry only for its *bootstrap* decode; every later checkpoint runs the
shared decoder-independent re-peel of
:class:`~repro.iblt.incremental.IncrementalDecodeSession`, so incremental
results are identical for every decoder name by construction.
"""

from __future__ import annotations

from typing import Callable, Tuple

from repro.iblt.batched_decode import BatchedFlatDecoder
from repro.iblt.iblt import IBLT, IBLTDecodeResult
from repro.iblt.parallel_decode import FlatParallelDecoder, SubtableParallelDecoder
from repro.utils.registry import Registry

__all__ = [
    "SerialDecoder",
    "register_decoder",
    "unregister_decoder",
    "get_decoder",
    "available_decoders",
]


class SerialDecoder:
    """Adapter giving the classical serial recovery the decoder interface.

    Parameters
    ----------
    signed:
        Treat ``count == −1`` cells as pure as well (difference digests).
    kernel:
        Accepted for interface uniformity with the parallel decoders (so
        callers can pass ``kernel=`` regardless of the decoder name, e.g.
        through ``decode(incremental=True)``); the worklist recovery runs
        in pure Python and ignores it.
    """

    def __init__(self, *, signed: bool = True, kernel=None) -> None:
        self.signed = bool(signed)

    def decode(self, iblt: IBLT, *, in_place: bool = False) -> IBLTDecodeResult:
        """Run the worklist recovery of :meth:`IBLT.decode` on ``iblt``."""
        return iblt._decode_serial(signed=self.signed, in_place=in_place)


DecoderFactory = Callable[..., object]

_DECODERS: Registry[DecoderFactory] = Registry("decoder")
_DECODERS.register("serial", SerialDecoder)
_DECODERS.register("flat", FlatParallelDecoder)
_DECODERS.register("subtable", SubtableParallelDecoder)
_DECODERS.register("batched", BatchedFlatDecoder)
_DECODERS.register_alias("parallel", "subtable")
_DECODERS.register_alias("flat-parallel", "flat")


def register_decoder(name: str, factory: DecoderFactory, *, overwrite: bool = False) -> None:
    """Register a decoder factory under ``name`` (see module docstring)."""
    _DECODERS.register(name, factory, overwrite=overwrite)


def unregister_decoder(name: str) -> None:
    """Remove ``name`` from the registry (mainly for tests); unknown names raise."""
    _DECODERS.unregister(name)


def get_decoder(name: str) -> DecoderFactory:
    """Look up a decoder factory by name or alias; unknown names raise ``ValueError``."""
    return _DECODERS.get(name)


def available_decoders() -> Tuple[str, ...]:
    """Sorted primary names of every registered decoder (aliases excluded)."""
    return _DECODERS.names()
