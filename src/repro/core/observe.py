"""The core's one observer plane.

The pipeline, the LSQ and the schedulers publish telemetry through one
nullable reference, ``pipe.observe``: ``None`` when no observer is
attached (one branch per site), else an :class:`Observers` fan-out.
Observers must not depend on their order in the list: each reads only
simulator state, never another observer's.
"""

from __future__ import annotations

from typing import Optional, Sequence, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from .pipeline import Pipeline
    from .stats import SimResult


class Observer:
    """Base class: every notification is a no-op; override what you use."""

    __slots__ = ()

    def on_event(self, cycle: int, seq: int, stage: str,
                 cause: str = "") -> None:
        """A per-µop lifecycle event (see :mod:`repro.telemetry.tracer`)."""

    def on_count(self, name: str, n: int = 1) -> None:
        """An event the core does not count itself happened ``n`` times."""

    def on_dispatch_block(self, reason: str) -> None:
        """Dispatch hit backpressure this cycle (iq/rob/lq/sq full)."""

    def on_recovery(self, resume_cycle: int,
                    squashed: Optional[int] = None) -> None:
        """Fetch stalls until ``resume_cycle``; ``squashed`` µops were
        squashed (``None`` for a branch-mispredict redirect)."""

    def on_cycle(self, pipe: "Pipeline", committed: bool) -> None:
        """End of a cycle's stages, before the clock advances."""

    def on_tick(self, pipe: "Pipeline") -> None:
        """The clock just advanced."""

    def on_finalize(self, pipe: "Pipeline", result: "SimResult") -> None:
        """The run finished; put this observer's output on ``result``."""


_HOOKS = ("on_event", "on_count", "on_dispatch_block", "on_recovery",
          "on_cycle", "on_tick", "on_finalize")


def _noop(*args, **kwargs) -> None:
    pass


def _fan_out(methods):
    if len(methods) <= 1:
        return methods[0] if methods else _noop

    def call(*args, **kwargs) -> None:
        for method in methods:
            method(*args, **kwargs)

    return call


class Observers:
    """Binds each hook once to the observers that override it: a no-op
    for none, the one method directly for one, a loop for several."""

    __slots__ = _HOOKS

    def __init__(self, observers: Sequence[Observer]):
        for hook in _HOOKS:
            base = getattr(Observer, hook)
            setattr(self, hook, _fan_out([
                getattr(observer, hook) for observer in observers
                if getattr(type(observer), hook, base) is not base
            ]))
