"""Baseline out-of-order issue queue (paper §II-A, Figure 2).

A unified random queue (no compaction): dispatched ops occupy free slots;
wakeup is a CAM broadcast over every entry; per-port prefix-sum select
grants the *uppermost* (lowest slot index) requesting entry.  The optional
``oldest_first`` variant models an age-matrix/compaction design by
prioritising by sequence number instead of slot position (Fig. 11's
"OoO w/ oldest-first selection" bars).
"""

from __future__ import annotations

from operator import attrgetter
from typing import Dict, List, Optional

from ..core.ifop import InFlightOp
from .base import SchedulerBase


#: select-order sort keys: age (oldest-first) or slot position
_BY_SEQ = attrgetter("seq")
_BY_SLOT = attrgetter("iq_index")


class OutOfOrderScheduler(SchedulerBase):
    """Unified CAM-based IQ with per-port prefix-sum selection."""

    kind = "ooo"

    def __init__(self, core, iq_size: int = 96, oldest_first: bool = False):
        super().__init__(core)
        self.iq_size = iq_size
        self.oldest_first = oldest_first
        self._slots: List[Optional[InFlightOp]] = [None] * iq_size
        self._free: List[int] = list(range(iq_size - 1, -1, -1))
        self._count = 0
        # Event-driven fast path: when the core provides a wakeup
        # scoreboard (the real pipeline), ready entries are tracked
        # incrementally and select never scans the whole window.  Unit
        # tests drive schedulers with stripped-down fake cores that
        # poll their own readiness — those keep the scanning path.
        self._event_driven = getattr(core, "wakeup", None) is not None
        # ops that became ready since the last select; an entry that has
        # since issued or been flushed fails the slot-residency identity
        # check (a refetched op is a new object) and is dropped there
        self._ready_ops: List[InFlightOp] = []

    def can_accept(self, ifop: InFlightOp) -> bool:
        return self._count < self.iq_size

    def insert(self, ifop: InFlightOp, cycle: int) -> None:
        slot = self._free.pop()
        self._slots[slot] = ifop
        ifop.iq_index = slot
        self._count += 1
        self.energy["iq_write"] += 1
        if self._event_driven and self.core.op_ready(ifop, cycle):
            self._ready_ops.append(ifop)

    def on_op_ready(self, ifop: InFlightOp, cycle: int) -> None:
        # only track ops currently resident in this window (the identity
        # check also rejects stale iq_index values left by other queues)
        index = ifop.iq_index
        if 0 <= index < self.iq_size and self._slots[index] is ifop:
            self._ready_ops.append(ifop)

    def select(self, cycle: int) -> List[InFlightOp]:
        core = self.core
        if self._count == 0:
            return []
        # every occupied entry feeds the per-port prefix-sum circuits
        self.energy["select_input"] += self._count
        event_driven = self._event_driven
        if event_driven:
            # drop entries that issued or were flushed since they woke
            slots = self._slots
            candidates = [
                op for op in self._ready_ops if slots[op.iq_index] is op
            ]
            # restore the prefix-sum examination order: slot position
            # (or age under oldest-first) — identical to a full scan
            candidates.sort(key=_BY_SEQ if self.oldest_first else _BY_SLOT)
        else:
            candidates = [op for op in self._slots if op is not None]
            if self.oldest_first:
                candidates.sort(key=_BY_SEQ)
        issued: List[InFlightOp] = []
        leftover: List[InFlightOp] = []
        width = core.config.issue_width
        for position, op in enumerate(candidates):
            if len(issued) >= width:
                if event_driven:
                    leftover.extend(candidates[position:])
                break
            if not core.op_ready(op, cycle):
                continue
            if not core.try_grant(op, cycle):
                if event_driven:
                    leftover.append(op)  # stays ready; retry next cycle
                continue
            self._remove(op)
            self.energy["iq_read"] += 1
            issued.append(op)
        if event_driven:
            self._ready_ops = leftover
        return issued

    def _remove(self, ifop: InFlightOp) -> None:
        slot = ifop.iq_index
        self._slots[slot] = None
        self._free.append(slot)
        self._count -= 1

    def on_wakeup(self, preg: int, cycle: int) -> None:
        # destination-tag broadcast: one CAM compare per window entry
        self.energy["wakeup_cam"] += self.iq_size

    def flush_from(self, seq: int) -> None:
        for slot, op in enumerate(self._slots):
            if op is not None and op.seq >= seq:
                self._slots[slot] = None
                self._free.append(slot)
                self._count -= 1

    def check_invariants(self) -> None:
        occupied = [s for s, op in enumerate(self._slots) if op is not None]
        assert len(occupied) == self._count, (
            f"slot count drifted: {len(occupied)} occupied, _count={self._count}"
        )
        assert len(set(self._free)) == len(self._free), "free-list duplicate"
        assert self._count + len(self._free) == self.iq_size, "free-list leak"
        for slot in occupied:
            assert self._slots[slot].iq_index == slot, (
                f"op {self._slots[slot].seq} records slot "
                f"{self._slots[slot].iq_index}, lives in {slot}"
            )

    def occupancy(self) -> int:
        return self._count

    def queue_occupancy(self) -> Dict[str, int]:
        return {"iq": self._count}
