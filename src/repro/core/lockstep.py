"""Lock-step multi-config simulation over one shared trace.

Design-space sweeps (the paper's Figure 11/12 matrices, CG-OoO-style
comparisons) run *many configurations over the same instruction
stream*.  Simulating them one after another re-pays the per-run fixed
costs — trace decode, cache warm-up of the interpreter state — once per
configuration.  :func:`run_lockstep` instead builds N pipelines over
one already-decoded :class:`~repro.workloads.trace.Trace` and advances
them round-robin, one cycle each, in a single pass.

Because each :class:`~repro.core.pipeline.Pipeline` owns all of its
architectural state (in-flight ops, ROB, scheduler, memory hierarchy) and
only *reads* the shared trace, interleaving cycles cannot change any
simulation outcome: every pipeline executes exactly the cycles it would
have executed under ``run()``, in the same order.  Results are
therefore bit-identical to per-config serial runs — pinned by
``tests/test_lockstep.py`` against the golden-stats matrix.

Failures are isolated per pipeline: a configuration that trips the
forward-progress watchdog gets its :class:`DeadlockError` recorded in
its result slot while its siblings keep stepping.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Union

from ..workloads.trace import Trace
from .config import CoreConfig
from .pipeline import Pipeline
from .stats import SimResult

#: per-slot outcome: a result, or the exception that stopped that config
LockstepOutcome = Union[SimResult, Exception]


def run_lockstep(
    trace: Trace,
    configs: Sequence[CoreConfig],
    max_cycles: int = 50_000_000,
    pipeline_factory: Optional[Callable[[Trace, CoreConfig], Pipeline]] = None,
) -> List[LockstepOutcome]:
    """Simulate every config over ``trace`` in one interleaved pass.

    Args:
        trace: The shared (already decoded) µop stream.
        configs: One :class:`CoreConfig` per simulation to run.
        max_cycles: Per-pipeline cycle ceiling (as in ``Pipeline.run``).
        pipeline_factory: Optional ``f(trace, config) -> Pipeline`` for
            callers that need telemetry hooks attached; the default
            (:func:`repro.core.sampling.build_simulation`) builds a
            bare :class:`Pipeline`, or a
            :class:`~repro.core.sampling.SampledSimulation` when the
            config enables sampling — both speak the same
            ``begin/step/finalize`` protocol, so full and sampled
            configs can share one lock-step pass over the trace.

    Returns:
        One entry per config, in order: the :class:`SimResult`, or the
        exception (typically :class:`~repro.core.pipeline.DeadlockError`)
        that terminated that configuration.  ``KeyboardInterrupt`` and
        other :class:`BaseException` are *not* captured — they abort the
        whole pass.
    """
    if pipeline_factory is None:
        from .sampling import build_simulation

        pipeline_factory = build_simulation
    pipelines: List[Optional[Pipeline]] = []
    outcomes: List[Optional[LockstepOutcome]] = [None] * len(configs)
    for index, config in enumerate(configs):
        try:
            pipeline = pipeline_factory(trace, config)
            pipeline.begin(max_cycles)
        except Exception as exc:  # bad config: fail that slot only
            outcomes[index] = exc
            pipelines.append(None)
        else:
            pipelines.append(pipeline)

    active = [index for index, p in enumerate(pipelines) if p is not None]
    while active:
        still_running = []
        for index in active:
            pipeline = pipelines[index]
            try:
                if pipeline.step():
                    still_running.append(index)
                else:
                    outcomes[index] = pipeline.finalize()
            except Exception as exc:  # watchdog / invariant failure
                outcomes[index] = exc
        active = still_running
    return outcomes  # type: ignore[return-value]  # every slot is filled
