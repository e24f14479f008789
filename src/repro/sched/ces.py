"""CES: complexity-effective superscalar clustered P-IQs [Palacharla'97].

Dispatch steers each micro-op along its register dependence chain into one
of several parallel in-order FIFOs (P-IQs); only the FIFO heads are examined
for issue.  The steering heuristic follows the paper (§II-B1):

1. no producer waiting in a P-IQ (ready, or producers already executing)
   -> allocate a new (empty) P-IQ;
2. producer at the tail of a P-IQ with space -> steer behind it;
3. producer not at the tail (chain split), or target P-IQ full
   -> allocate a new P-IQ;
4. no empty P-IQ -> dispatch stalls.

The ``mda_steering`` option adds the paper's M-dependence-aware steering
(§III-B): a load whose store-set producer was steered to P-IQ *k* goes to
*k* (right behind the store) instead of allocating a fresh queue.

Steering-outcome counters reproduce Figure 4's breakdown.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional

from ..core.ifop import InFlightOp
from .base import SchedulerBase
from .steering import SteerDecision, SteerInfo, SteeringScoreboard


class CESScheduler(SchedulerBase):
    """Clustered in-order P-IQs with dependence steering."""

    kind = "ces"

    def __init__(self, core, num_piqs: int = 8, piq_size: int = 12,
                 mda_steering: bool = False):
        super().__init__(core)
        self.num_piqs = num_piqs
        self.piq_size = piq_size
        self.mda = mda_steering
        self.piqs: List[Deque[InFlightOp]] = [deque() for _ in range(num_piqs)]
        self.steer = SteeringScoreboard()
        self._pending: Optional[SteerDecision] = None
        self._pending_seq = -1
        # Figure 4 steering-outcome counters
        self.outcomes: Dict[str, int] = {
            "steer_dc": 0, "steer_mda": 0,
            "alloc_ready": 0, "alloc_nonready": 0,
            "stall_ready": 0, "stall_nonready": 0,
        }
        # Figure 6a head-state counters (cycles x P-IQs)
        self.head_states: Dict[str, int] = {
            "issue": 0, "wait_mdep": 0, "wait_operand": 0,
            "port_conflict": 0, "empty": 0,
        }

    # ------------------------------------------------------------------
    # steering
    # ------------------------------------------------------------------
    def _decide(self, ifop: InFlightOp, cycle: int) -> SteerDecision:
        ready = self.core.op_ready(ifop, cycle)
        self.energy["pscb_read"] += max(1, len(ifop.src_pregs))
        # M-dependence override for loads (steer behind the producer store)
        if self.mda and ifop.is_load and self.core.mdp is not None:
            hint = self.core.mdp.steering_hint(ifop.op.pc)
            if hint is not None and hint.iq_index is not None:
                queue = self.piqs[hint.iq_index]
                if queue and len(queue) < self.piq_size and queue[-1].seq == hint.store_seq:
                    return SteerDecision(
                        target=hint.iq_index, partition=0, outcome="mda",
                        ready=ready,
                    )
        # R-dependence: follow the first source whose producer waits at a tail
        for preg in ifop.src_pregs:
            info = self.steer.get(preg)
            if info is None or info.reserved:
                continue
            if len(self.piqs[info.iq]) < self.piq_size:
                return SteerDecision(
                    target=info.iq, partition=0, outcome="dc",
                    followed_preg=preg, ready=ready,
                )
            break  # producer's queue is full: fall through to allocation
        for index, queue in enumerate(self.piqs):
            if not queue:
                return SteerDecision(target=index, partition=0, outcome="alloc",
                                     ready=ready)
        return SteerDecision(target=None, partition=0, outcome="stall",
                             ready=ready)

    def _count_outcome(self, decision: SteerDecision) -> None:
        suffix = "ready" if decision.ready else "nonready"
        if decision.outcome == "dc":
            self.outcomes["steer_dc"] += 1
        elif decision.outcome == "mda":
            self.outcomes["steer_mda"] += 1
        elif decision.outcome in ("alloc", "share"):
            self.outcomes[f"alloc_{suffix}"] += 1
        else:
            self.outcomes[f"stall_{suffix}"] += 1
        if self.observe is not None:
            self.observe.on_count(f"sched.steer.{decision.outcome}_{suffix}")

    def can_accept(self, ifop: InFlightOp) -> bool:
        decision = self._decide(ifop, self.core.cycle)
        self._count_outcome(decision)
        self._pending = decision
        self._pending_seq = ifop.seq
        self.energy["steer"] += 1
        return decision.target is not None

    def insert(self, ifop: InFlightOp, cycle: int) -> None:
        decision = self._pending
        if decision is None or self._pending_seq != ifop.seq:
            decision = self._decide(ifop, cycle)  # defensive re-decide
        self._pending = None
        self._apply_steer(ifop, decision)

    def _apply_steer(self, ifop: InFlightOp, decision: SteerDecision) -> None:
        target = decision.target
        queue = self.piqs[target]
        queue.append(ifop)
        ifop.iq_index = target
        self.trace_steer(ifop, f"{decision.outcome}->piq{target}")
        self.energy["iq_write"] += 1
        if decision.followed_preg is not None:
            self.steer.reserve(decision.followed_preg, ifop.seq)
        if decision.outcome == "mda" and self.core.mdp is not None:
            # attribute the reservation to this load so a squash of the
            # load alone releases it (see StoreSetPredictor.flush_from)
            self.core.mdp.reserve_steering(ifop.op.pc, ifop.seq)
        if ifop.dest_preg is not None:
            self.steer.set(
                ifop.dest_preg,
                SteerInfo(iq=target, partition=0, owner_seq=ifop.seq),
            )
            self.energy["pscb_write"] += 1
        if self.mda and ifop.is_store and self.core.mdp is not None:
            self.core.mdp.record_store_steering(ifop.op.pc, ifop.seq, target)

    # ------------------------------------------------------------------
    # issue
    # ------------------------------------------------------------------
    def select(self, cycle: int) -> List[InFlightOp]:
        core = self.core
        issued: List[InFlightOp] = []
        for queue in self.piqs:
            if not queue:
                self.head_states["empty"] += 1
                continue
            head = queue[0]
            self.energy["select_input"] += 1
            if not core.srcs_ready(head, cycle):
                self.head_states["wait_operand"] += 1
                continue
            if not core.mdp_dep_satisfied(head):
                self.head_states["wait_mdep"] += 1
                continue
            if not core.try_grant(head, cycle):
                self.head_states["port_conflict"] += 1
                continue
            queue.popleft()
            self.steer.clear(head.dest_preg)
            self.energy["iq_read"] += 1
            self.head_states["issue"] += 1
            issued.append(head)
        return issued

    def on_wakeup(self, preg: int, cycle: int) -> None:
        # only P-IQ heads observe completions (no CAM broadcast)
        self.energy["wakeup_cam"] += self.num_piqs

    # ------------------------------------------------------------------
    def flush_from(self, seq: int) -> None:
        for queue in self.piqs:
            while queue and queue[-1].seq >= seq:
                queue.pop()
        self.steer.flush_from(seq)

    def check_invariants(self) -> None:
        for index, queue in enumerate(self.piqs):
            assert len(queue) <= self.piq_size, f"P-IQ {index} overflow"
            seqs = [op.seq for op in queue]
            assert seqs == sorted(seqs), (
                f"P-IQ {index} out of program order: {seqs}"
            )
            for op in queue:
                assert op.iq_index == index, (
                    f"op {op.seq} records P-IQ {op.iq_index}, lives in {index}"
                )

    def occupancy(self) -> int:
        return sum(len(q) for q in self.piqs)

    def queue_occupancy(self) -> Dict[str, int]:
        return {f"piq{i}": len(q) for i, q in enumerate(self.piqs)}

    def extra_stats(self) -> Dict[str, float]:
        stats: Dict[str, float] = dict(self.outcomes)
        stats.update({f"head_{k}": v for k, v in self.head_states.items()})
        return stats
