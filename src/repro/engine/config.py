"""Reproducible peeling-run configuration.

A :class:`PeelingConfig` is the serializable description of a peeling run:
which engine, which threshold ``k``, and the engine-specific knobs.  It
round-trips through plain dicts (:meth:`PeelingConfig.to_dict` /
:meth:`PeelingConfig.from_dict`), so an experiment manifest can record
exactly how every result was produced and rebuild the identical engine
later — on this machine or a worker process.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field, replace
from typing import Any, Dict, Mapping, Optional

from repro.engine.registry import PeelingEngine, get_engine
from repro.utils.validation import check_positive_int

__all__ = ["PeelingConfig", "DEFAULT_ENGINE"]

DEFAULT_ENGINE = "parallel"
"""Engine used when the caller does not name one (the paper's main subject)."""

#: Config fields forwarded to every engine constructor that accepts them.
_SHARED_FIELDS = ("update", "max_rounds", "track_stats", "kernel")


@dataclass(frozen=True)
class PeelingConfig:
    """Frozen description of one peeling run.

    Attributes
    ----------
    engine:
        Registered engine name (see :func:`repro.engine.available_engines`).
    k:
        Degree threshold; vertices of degree ``< k`` are peeled.
    update:
        Work-accounting mode for engines that support it (``"full"`` or
        ``"frontier"`` for the parallel engine); silently ignored by engines
        whose constructor does not take it.
    max_rounds:
        Safety cap on rounds for engines that take one.
    track_stats:
        Record per-round :class:`~repro.core.results.RoundStats`.
    kernel:
        Kernel-backend name (see :func:`repro.kernels.available_kernels`)
        for engines built on the shared kernel layer; ``None`` selects the
        default backend (``"numpy"``).  Kept as a name (not an instance) so
        configs stay JSON-serializable.
    options:
        Engine-specific extras forwarded verbatim to the engine constructor.
        Unknown keys raise ``TypeError`` at :meth:`build` time.
    """

    engine: str = DEFAULT_ENGINE
    k: int = 2
    update: str = "full"
    max_rounds: Optional[int] = None
    track_stats: bool = True
    kernel: Optional[str] = None
    options: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        check_positive_int(self.k, "k")
        if not isinstance(self.engine, str) or not self.engine:
            raise TypeError(f"engine must be a non-empty string, got {self.engine!r}")
        if self.max_rounds is not None:
            check_positive_int(self.max_rounds, "max_rounds")
        if self.kernel is not None and (not isinstance(self.kernel, str) or not self.kernel):
            raise TypeError(
                f"kernel must be None or a non-empty string, got {self.kernel!r}"
            )
        # Detach from the caller's mapping so the frozen config stays frozen.
        object.__setattr__(self, "options", dict(self.options))

    # ------------------------------------------------------------------ #
    # construction helpers
    # ------------------------------------------------------------------ #
    @classmethod
    def from_options(cls, engine: str = DEFAULT_ENGINE, **opts: Any) -> "PeelingConfig":
        """Split keyword options into config fields and engine extras.

        This is what :func:`repro.engine.peel` does with its ``**opts``:
        ``k``, ``update``, ``max_rounds``, ``track_stats`` and ``kernel``
        populate the corresponding fields; everything else lands in
        :attr:`options`.
        """
        known = {name: opts.pop(name) for name in ("k", *_SHARED_FIELDS) if name in opts}
        return cls(engine=engine, options=opts, **known)

    def replace(self, **changes: Any) -> "PeelingConfig":
        """Return a copy with ``changes`` applied (``dataclasses.replace``)."""
        return replace(self, **changes)

    # ------------------------------------------------------------------ #
    # dict round-trip (experiment manifests)
    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict form, suitable for JSON manifests."""
        return {
            "engine": self.engine,
            "k": self.k,
            "update": self.update,
            "max_rounds": self.max_rounds,
            "track_stats": self.track_stats,
            "kernel": self.kernel,
            "options": dict(self.options),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "PeelingConfig":
        """Rebuild a config saved with :meth:`to_dict`; unknown keys raise."""
        payload = dict(data)
        fields = ("engine", "k", "update", "max_rounds", "track_stats", "kernel", "options")
        unknown = [key for key in payload if key not in fields]
        if unknown:
            raise ValueError(
                f"unknown PeelingConfig keys {sorted(unknown)}; expected a subset of {list(fields)}"
            )
        return cls(**payload)

    # ------------------------------------------------------------------ #
    # engine construction
    # ------------------------------------------------------------------ #
    def build(self) -> PeelingEngine:
        """Instantiate the configured engine via the registry.

        Shared fields (``update``, ``max_rounds``, ``track_stats``,
        ``kernel``) are passed only to engines whose constructor accepts
        them; entries in
        :attr:`options` the constructor does not accept raise ``TypeError``
        naming the offending keys.
        """
        factory = get_engine(self.engine)
        try:
            params = inspect.signature(factory).parameters
        except (TypeError, ValueError):  # uninspectable factory: pass everything
            return factory(self.k, **{f: getattr(self, f) for f in _SHARED_FIELDS}, **self.options)
        has_varkw = any(p.kind is inspect.Parameter.VAR_KEYWORD for p in params.values())
        kwargs: Dict[str, Any] = {}
        for name in _SHARED_FIELDS:
            if name in params:
                kwargs[name] = getattr(self, name)
        if not has_varkw:
            rejected = sorted(key for key in self.options if key not in params)
            if rejected:
                raise TypeError(
                    f"engine {self.engine!r} does not accept option(s) {rejected}; "
                    f"its constructor takes {sorted(params)}"
                )
        kwargs.update(self.options)
        return factory(self.k, **kwargs)
