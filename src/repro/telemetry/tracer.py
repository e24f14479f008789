"""Cycle-level pipeline event bus.

The pipeline, the schedulers, and the load/store unit publish per-µop
lifecycle events through the core's one observer plane
(:mod:`repro.core.observe`); :class:`Tracer` is the observer that keeps
them.  Every publisher guards on the *nullable* ``observe`` reference,
so the instrumentation costs one attribute load and a branch when no
observer is attached.

Event taxonomy
--------------

Lifecycle stages (each µop visits them in this order, cycle-stamped):

=============  ========================================================
``fetch``      fetched into the front end (decode/alloc queue)
``rename``     renamed; physical registers assigned
``dispatch``   entered the ROB and the scheduling window
``steer``      moved between queues inside the scheduler (cause tells
               where and why; may occur zero or more times)
``issue``      selected for execution; issue port granted
``execute``    began executing (AGU access for memory ops; the cause
               carries the servicing cache level or forwarding source)
``writeback``  result produced; destination register marked ready
``commit``     retired in order from the ROB head
=============  ========================================================

Auxiliary events:

=============  ========================================================
``wakeup``     a destination physical register became ready (cause
               ``p<preg>``)
``forward``    store-to-load forwarding hit in the SQ (emitted by the
               load/store unit; cause ``from:<store seq>``)
``violation``  memory-order violation detected (emitted by the LSU;
               cause names the offending load)
``squash``     the µop was squashed from the window (cause tags the
               trigger, e.g. ``mem_order``)
=============  ========================================================

A squashed-and-refetched µop re-emits its lifecycle under the same
sequence number; exporters split attempts at each ``fetch`` event.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, TYPE_CHECKING

from ..core.observe import Observer

if TYPE_CHECKING:  # pragma: no cover
    from ..core.pipeline import Pipeline
    from ..core.stats import SimResult

#: Canonical per-µop lifecycle order (used by exporters and tests).
LIFECYCLE = (
    "fetch", "rename", "dispatch", "issue", "execute", "writeback", "commit",
)

#: Events that annotate rather than advance the lifecycle.
AUX_STAGES = ("steer", "wakeup", "forward", "violation", "squash")

#: Rank of each lifecycle stage, for ordering checks.
LIFECYCLE_RANK: Dict[str, int] = {name: i for i, name in enumerate(LIFECYCLE)}


class TraceEvent(NamedTuple):
    """One cycle-stamped pipeline event for one µop."""

    cycle: int
    seq: int
    stage: str
    cause: str = ""


class OpInfo(NamedTuple):
    """Static facts about a traced µop, captured at first fetch."""

    seq: int
    pc: int
    opcode: str


class Tracer(Observer):
    """Append-only event log plus a µop fact table.

    Events arrive through :meth:`on_event` in simulation order
    (cycle-major, pipeline-phase minor).  At the end of the run the
    tracer fills :attr:`ops` from the trace for every µop it saw, so
    exporters can label rows (a µop's seq is its trace index).
    """

    __slots__ = ("events", "ops")

    def __init__(self) -> None:
        self.events: List[TraceEvent] = []
        self.ops: Dict[int, OpInfo] = {}

    # -- observing -----------------------------------------------------
    def on_event(self, cycle: int, seq: int, stage: str,
                 cause: str = "") -> None:
        self.events.append(TraceEvent(cycle, seq, stage, cause))

    def on_finalize(self, pipe: "Pipeline", result: "SimResult") -> None:
        trace = pipe.trace
        for seq in self.seqs():
            op = trace[seq]
            self.ops[seq] = OpInfo(seq, op.pc, op.opcode.name)

    # -- querying ------------------------------------------------------
    def __len__(self) -> int:
        return len(self.events)

    def seqs(self) -> List[int]:
        """Sequence numbers seen, ascending."""
        return sorted({event.seq for event in self.events})

    def events_for(self, seq: int) -> List[TraceEvent]:
        """All events for one µop, in emission (time) order."""
        return [event for event in self.events if event.seq == seq]

    def stage_counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for event in self.events:
            counts[event.stage] = counts.get(event.stage, 0) + 1
        return counts

    def attempts_for(self, seq: int) -> List[List[TraceEvent]]:
        """Events for one µop split into fetch attempts.

        A squashed-and-refetched µop re-enters at ``fetch``; each sublist
        is one attempt (the last one is the attempt that committed, if
        the µop committed at all).
        """
        attempts: List[List[TraceEvent]] = []
        for event in self.events_for(seq):
            if event.stage == "fetch" or not attempts:
                attempts.append([])
            attempts[-1].append(event)
        return attempts
