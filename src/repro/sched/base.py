"""Scheduler interface.

A scheduler owns the scheduling window between dispatch and issue.  The
pipeline calls:

* :meth:`can_accept` / :meth:`insert` at dispatch (in program order);
* :meth:`select` once per cycle — the scheduler picks ready micro-ops,
  acquiring issue ports through ``core.try_grant``, and returns them;
* :meth:`on_wakeup` when a physical register becomes ready (used for
  energy accounting of wakeup broadcasts);
* :meth:`on_op_ready` when a specific op's *last* outstanding dependence
  resolves (event-driven wakeup; lets windowed schedulers maintain
  their ready-set incrementally instead of re-polling every entry);
* :meth:`flush_from` on a squash.

Schedulers record their energy-relevant activity into ``core.energy``
(a Counter) using these event names:

=================  ======================================================
``wakeup_cam``     CAM tag comparisons performed by wakeup broadcasts
``select_input``   prefix-sum select-logic inputs examined
``iq_write``       scheduling-window entry writes (dispatch, copies)
``iq_read``        payload reads at issue
``pscb_read``      physical-register scoreboard reads (Ballerino/CES)
``pscb_write``     scoreboard updates
``steer``          steering-mux operations
=================  ======================================================
"""

from __future__ import annotations

from typing import Dict, Iterable, List, TYPE_CHECKING

from ..core.ifop import InFlightOp

if TYPE_CHECKING:  # pragma: no cover
    from ..core.pipeline import Pipeline


class SchedulerBase:
    """Common plumbing for all scheduling-window implementations."""

    kind = "base"

    def __init__(self, core: "Pipeline"):
        self.core = core
        self.energy = core.energy
        # getattr: unit tests drive schedulers with stripped-down fake cores
        self.observe = getattr(core, "observe", None)

    # -- telemetry -----------------------------------------------------
    def trace_steer(self, ifop: InFlightOp, cause: str) -> None:
        """Publish a ``steer`` event for this op (no-op when tracing is off).

        ``cause`` names the movement, e.g. ``dc->piq3.0`` or ``pass->q2``.
        """
        if self.observe is not None:
            self.observe.on_event(self.core.cycle, ifop.seq, "steer", cause)

    # -- dispatch ------------------------------------------------------
    def can_accept(self, ifop: InFlightOp) -> bool:
        raise NotImplementedError

    def insert(self, ifop: InFlightOp, cycle: int) -> None:
        raise NotImplementedError

    # -- issue ---------------------------------------------------------
    def select(self, cycle: int) -> List[InFlightOp]:
        raise NotImplementedError

    def on_wakeup(self, preg: int, cycle: int) -> None:
        """A physical register became ready (energy accounting hook)."""

    def on_op_ready(self, ifop: InFlightOp, cycle: int) -> None:
        """``ifop`` transitioned to fully ready (event-driven wakeup).

        Fired by the pipeline's :class:`~repro.core.wakeup.
        WakeupScoreboard` for every op whose last outstanding source (or
        MDP dependence) just resolved — wherever the op currently sits.
        Schedulers that keep an incremental ready-set override this; the
        default (head-polling FIFO designs, whose per-head check is
        already O(1)) ignores it.  Implementations must tolerate ops
        that are not (or no longer) resident in their window.
        """

    def on_complete(self, ifop: InFlightOp, cycle: int) -> None:
        """An op finished execution (training hook, e.g. delay trackers)."""

    # -- recovery ------------------------------------------------------
    def flush_from(self, seq: int) -> None:
        raise NotImplementedError

    # -- debug invariants (repro.verify) -------------------------------
    def check_invariants(self) -> None:
        """Assert window-shape invariants (FIFO order, capacity, ...).

        Called once per cycle by :func:`repro.verify.invariants.
        check_pipeline` when the pipeline runs with ``check_invariants``
        set.  The default is a no-op; window implementations override it
        with structure-specific assertions.
        """

    # -- reporting -----------------------------------------------------
    def occupancy(self) -> int:
        raise NotImplementedError

    def queue_occupancy(self) -> Dict[str, int]:
        """Instantaneous per-queue depths for the interval sampler.

        Partitioned designs override this with one entry per internal
        queue (``siq``/``piq0``/...); the default reports the whole
        window as a single queue.
        """
        return {"window": self.occupancy()}

    def extra_stats(self) -> Dict[str, float]:
        return {}
