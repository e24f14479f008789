"""Load queue / store queue with forwarding and violation detection.

Behaviour modelled (paper §II-A):

* loads search the store queue at execute; the youngest older store to the
  same word with known address supplies the value (store-to-load forwarding),
  completing when the store's data is ready;
* a load may execute while older stores still have unknown addresses
  (speculative memory disambiguation).  When such a store later resolves to
  the same word, a **memory order violation** is flagged and the core must
  squash from the load onward (the MDP exists to make this rare);
* stores write the data cache at commit.

All accesses in the micro-op ISA are 8-byte aligned words, so conflict
detection is word-granular.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple


@dataclass
class StoreEntry:
    seq: int
    pc: int
    addr: Optional[int] = None  # None until the AGU executes
    data_ready: Optional[int] = None  # cycle the store value is available


@dataclass
class LoadEntry:
    seq: int
    pc: int
    addr: Optional[int] = None
    executed: Optional[int] = None  # cycle the load obtained its value
    #: seq of the store it forwarded from, or -1 for memory/cache
    source_seq: int = -1


@dataclass
class ForwardResult:
    """Outcome of a load's store-queue search."""

    forwarded: bool
    ready_cycle: Optional[int] = None  # valid when forwarded
    source_seq: int = -1


class LoadStoreUnit:
    """The core's load queue + store queue pair."""

    def __init__(self, lq_size: int = 72, sq_size: int = 56):
        self.lq_size = lq_size
        self.sq_size = sq_size
        self._loads: Dict[int, LoadEntry] = {}
        self._stores: Dict[int, StoreEntry] = {}
        self.forwards = 0
        self.violations = 0
        self.searches = 0
        #: nullable observer fan-out; the pipeline wires its own here
        self.observe = None

    # ------------------------------------------------------------------
    # allocation (dispatch)
    # ------------------------------------------------------------------
    def lq_full(self) -> bool:
        return len(self._loads) >= self.lq_size

    def sq_full(self) -> bool:
        return len(self._stores) >= self.sq_size

    def allocate_load(self, seq: int, pc: int) -> None:
        if self.lq_full():
            raise RuntimeError("load queue overflow")
        self._loads[seq] = LoadEntry(seq=seq, pc=pc)

    def allocate_store(self, seq: int, pc: int) -> None:
        if self.sq_full():
            raise RuntimeError("store queue overflow")
        self._stores[seq] = StoreEntry(seq=seq, pc=pc)

    @property
    def lq_occupancy(self) -> int:
        return len(self._loads)

    @property
    def sq_occupancy(self) -> int:
        return len(self._stores)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def load_executing(self, seq: int, addr: int, cycle: int) -> ForwardResult:
        """A load's address is ready: search the SQ for a forwarding source."""
        self.searches += 1
        entry = self._loads[seq]
        entry.addr = addr
        best: Optional[StoreEntry] = None
        for store in self._stores.values():
            if store.seq < seq and store.addr == addr:
                if best is None or store.seq > best.seq:
                    best = store
        if best is not None:
            self.forwards += 1
            if self.observe is not None:
                self.observe.on_event(cycle, seq, "forward", f"from:{best.seq}")
            # data may not be produced yet; forwarding completes then
            ready = best.data_ready if best.data_ready is not None else None
            return ForwardResult(forwarded=True, ready_cycle=ready, source_seq=best.seq)
        return ForwardResult(forwarded=False)

    def load_executed(self, seq: int, cycle: int, source_seq: int = -1) -> None:
        """Record that the load obtained its value at ``cycle``."""
        entry = self._loads[seq]
        entry.executed = cycle
        entry.source_seq = source_seq

    def store_address_ready(self, seq: int, addr: int, cycle: int) -> List[int]:
        """A store's address resolves; returns violating younger load seqs.

        A younger load violates if it already executed with the same word
        address and obtained its value from memory or from a store *older*
        than this one.
        """
        store = self._stores.get(seq)
        if store is None:  # flushed while in flight
            return []
        store.addr = addr
        violators = [
            load.seq
            for load in self._loads.values()
            if (
                load.seq > seq
                and load.addr == addr
                and load.executed is not None
                and load.source_seq < seq
            )
        ]
        if violators:
            self.violations += len(violators)
            if self.observe is not None:
                for load_seq in violators:
                    self.observe.on_event(
                        cycle, load_seq, "violation", f"store:{seq}"
                    )
        return sorted(violators)

    def store_data_ready(self, seq: int, cycle: int) -> None:
        store = self._stores.get(seq)
        if store is not None:
            store.data_ready = cycle

    # ------------------------------------------------------------------
    # retirement / recovery
    # ------------------------------------------------------------------
    def commit_load(self, seq: int) -> None:
        self._loads.pop(seq, None)

    def commit_store(self, seq: int) -> StoreEntry:
        return self._stores.pop(seq)

    def flush_from(self, seq: int) -> List[Tuple[int, int]]:
        """Squash all entries with ``seq >= seq``; returns flushed stores
        as ``(seq, pc)`` so the MDP can clear its LFST entries."""
        flushed_stores = [
            (s.seq, s.pc) for s in self._stores.values() if s.seq >= seq
        ]
        self._loads = {k: v for k, v in self._loads.items() if k < seq}
        self._stores = {k: v for k, v in self._stores.items() if k < seq}
        return flushed_stores

    # ------------------------------------------------------------------
    # debug invariants (repro.verify)
    # ------------------------------------------------------------------
    def debug_check(self, rob_loads: set, rob_stores: set) -> None:
        """LSQ/ROB agreement: the queues hold exactly the ROB's memory ops.

        Raises ``AssertionError`` on a leaked or lost entry — the symptom
        of a flush path and an allocate path disagreeing about a squash.
        """
        assert set(self._loads) == rob_loads, (
            f"LQ/ROB disagree: lq-only={sorted(set(self._loads) - rob_loads)} "
            f"rob-only={sorted(rob_loads - set(self._loads))}"
        )
        assert set(self._stores) == rob_stores, (
            f"SQ/ROB disagree: sq-only={sorted(set(self._stores) - rob_stores)} "
            f"rob-only={sorted(rob_stores - set(self._stores))}"
        )
        assert len(self._loads) <= self.lq_size, "LQ overflow"
        assert len(self._stores) <= self.sq_size, "SQ overflow"
