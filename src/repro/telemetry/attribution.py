"""Stall attribution: classify every simulated cycle into one bucket.

The engine implements a ROB-head ("top-down") cycle accounting in the
taxonomy of the paper's bottleneck figures: every cycle is charged to
exactly one category, so the per-category counts sum exactly to the
total simulated cycle count — the invariant the telemetry tests assert.

Categories
----------

=================  ====================================================
``commit``         at least one µop retired this cycle (useful work)
``frontend``       ROB empty and fetch/decode supplied nothing (I-cache
                   miss, fetch/rename latency, trace drained)
``squash``         ROB empty inside a recovery window (branch
                   mispredict or memory-order-violation penalty)
``memory``         the oldest µop is an in-flight load/store, waits on
                   a predicted store dependence, or is load-shadowed
                   (class ``LdC``/``Ld`` with operands outstanding)
``not_ready``      the oldest µop waits on a non-load operand chain or
                   a multi-cycle non-memory execution
``port_conflict``  the oldest µop was ready but the scheduler could not
                   issue it (port taken or select-bandwidth loss)
``iq_full``        a non-memory execution stall during which dispatch
                   was also blocked by window/ROB/LSQ backpressure
=================  ====================================================

The classification is deliberately *head-based*: when several causes
coexist, the cycle is charged to whatever blocks the oldest µop, the
same root-cause convention hardware top-down counters use.

The engine also samples per-cycle occupancy of the major structures
(ROB, scheduling window, decode queue, LQ/SQ) and reports averages.
"""

from __future__ import annotations

from typing import Dict, Optional, TYPE_CHECKING

from ..core.observe import Observer

if TYPE_CHECKING:  # pragma: no cover
    from ..core.pipeline import Pipeline
    from ..core.stats import SimResult

#: Every attribution bucket, in report order.
CATEGORIES = (
    "commit", "frontend", "squash", "memory",
    "not_ready", "port_conflict", "iq_full",
)

#: Structures whose occupancy is sampled each cycle.
OCCUPANCY_KEYS = ("rob", "sched", "decode_queue", "lq", "sq")


class StallAttribution(Observer):
    """Per-cycle stall classifier, fed once per simulated cycle.

    An observer: :meth:`on_cycle` classifies each cycle, with recovery
    windows and dispatch backpressure from :meth:`on_recovery` /
    :meth:`on_dispatch_block`; :meth:`on_finalize` writes the totals
    onto ``SimResult.stats.stall_cycles`` / ``.occupancy``.
    """

    __slots__ = ("cycles", "_occupancy", "samples",
                 "_recovery_until", "_dispatch_block")

    def __init__(self) -> None:
        self.cycles: Dict[str, int] = {name: 0 for name in CATEGORIES}
        self._occupancy: Dict[str, int] = {k: 0 for k in OCCUPANCY_KEYS}
        self.samples = 0
        self._recovery_until = -1
        self._dispatch_block: str = ""

    # -- pipeline notifications ---------------------------------------
    def on_recovery(self, resume_cycle: int,
                    squashed: Optional[int] = None) -> None:
        if resume_cycle > self._recovery_until:
            self._recovery_until = resume_cycle

    def on_dispatch_block(self, reason: str) -> None:
        self._dispatch_block = reason

    # -- per-cycle sampling -------------------------------------------
    def on_cycle(self, pipe: "Pipeline", committed: bool) -> None:
        self.samples += 1
        occ = self._occupancy
        occ["rob"] += len(pipe.rob)
        occ["sched"] += pipe.scheduler.occupancy()
        occ["decode_queue"] += len(pipe.decode_queue)
        occ["lq"] += pipe.lsu.lq_occupancy
        occ["sq"] += pipe.lsu.sq_occupancy
        self.cycles[self._classify(pipe, committed)] += 1
        self._dispatch_block = ""

    def _classify(self, pipe: "Pipeline", committed: bool) -> str:
        if committed:
            return "commit"
        head = pipe.rob.head
        if head is None:
            if pipe.cycle < self._recovery_until:
                return "squash"
            return "frontend"
        if not head.issued:
            if pipe.op_ready(head, pipe.cycle):
                return "port_conflict"
            if not pipe.mdp_dep_satisfied(head):
                return "memory"  # held behind a predicted store dependence
            # operand wait: charge memory when the head sits in a load
            # shadow (its dispatch-time class marked it load-dependent)
            return "memory" if head.klass in ("Ld", "LdC") else "not_ready"
        # issued but not retired: an execution-latency stall
        if head.is_load or head.is_store:
            return "memory"
        if self._dispatch_block:
            return "iq_full"
        return "not_ready"

    # -- reporting -----------------------------------------------------
    def on_finalize(self, pipe: "Pipeline", result: "SimResult") -> None:
        """Write the category totals and mean per-cycle occupancies."""
        total = self.samples or 1
        result.stats.stall_cycles = self.totals()
        result.stats.occupancy = {
            k: round(v / total, 2) for k, v in self._occupancy.items()}

    def totals(self) -> Dict[str, int]:
        """Category -> cycles; values sum to the sampled cycle count."""
        return dict(self.cycles)
