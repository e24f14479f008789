"""In-flight micro-op bookkeeping shared by the pipeline and schedulers."""

from __future__ import annotations

from typing import Optional, Tuple

from ..isa.instruction import DynOp


class InFlightOp:
    """Mutable per-attempt state of one dynamic micro-op in the pipeline.

    A fresh object is created each time the op is fetched, so a squashed
    and re-fetched op never aliases a stale reference: the event queue,
    the wakeup scoreboard and the OoO ready-set all detect staleness by
    object identity.

    Timestamps follow the paper's Figure 3c stages: decode (fetch into the
    front end), dispatch (into the scheduler), ready (last operand became
    available), issue, complete, commit.
    """

    __slots__ = (
        "seq",
        "op",
        "is_load",
        "is_store",
        "is_branch",
        "dest_preg",
        "src_pregs",
        "prev_dest_preg",
        "dest_arch",
        "port",
        "mdp_dep_seq",
        "klass",
        "mispredicted",
        "decode_cycle",
        "dispatch_cycle",
        "issue_cycle",
        "ready_cycle",
        "complete_cycle",
        "issued",
        "completed",
        "iq_index",
        "iq_partition",
        "sched_tag",
        "wake_pending",
        "mdp_waiting",
    )

    def __init__(self, seq: int, op: DynOp, decode_cycle: int = 0):
        self.seq = seq
        self.op = op
        # Cached once here: the 3-hop property chain (InFlightOp -> DynOp
        # -> Opcode) showed up in profiles at tens of thousands of calls
        # per simulation.
        self.is_load: bool = op.is_load
        self.is_store: bool = op.is_store
        self.is_branch: bool = op.is_branch
        self.dest_preg: Optional[int] = None
        self.src_pregs: Tuple[int, ...] = ()
        self.prev_dest_preg: Optional[int] = None
        self.dest_arch: Optional[int] = None
        self.port: int = -1
        self.mdp_dep_seq: Optional[int] = None
        self.klass: str = "Rst"  # Ld / LdC / Rst (paper Fig. 3c taxonomy)
        self.mispredicted: bool = False
        self.decode_cycle = decode_cycle
        self.dispatch_cycle: int = -1
        self.issue_cycle: int = -1
        self.ready_cycle: int = -1
        self.complete_cycle: int = -1
        self.issued: bool = False
        self.completed: bool = False
        # scheduler scratch state
        self.iq_index: int = -1
        self.iq_partition: int = 0
        self.sched_tag: str = ""
        # event-driven wakeup state (see repro.core.wakeup): number of
        # source pregs still in flight, and whether an MDP dependence is
        # still unsatisfied.  Maintained by the WakeupScoreboard.
        self.wake_pending: int = 0
        self.mdp_waiting: bool = False

    # convenience passthrough ------------------------------------------
    @property
    def opcode(self):
        return self.op.opcode

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<IFOp {self.seq} {self.op.opcode.name} port={self.port}>"
