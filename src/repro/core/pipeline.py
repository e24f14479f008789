"""The cycle-level core pipeline.

A trace-driven model of the paper's baseline core (Table I): fetch (with
TAGE + BTB and an L1I), decode/allocation queue, two-stage rename,
dispatch, a pluggable *scheduler* (the subject of the paper — see
:mod:`repro.sched`), execute over issue ports and FUs, a load/store unit
with forwarding and memory-order-violation squash, store-set MDP, and
in-order commit from a ROB.

Phase order within a cycle is reverse-pipeline (commit, completion events,
issue, dispatch, rename, fetch) so that same-cycle structural releases and
back-to-back wakeup behave like hardware: an op issued at cycle *C* with a
1-cycle FU marks its destination ready during the completion phase of
*C + 1*, letting a dependent op issue in *C + 1*'s issue phase.

Recovery is modelled with the paper's penalties: a mispredicted branch
stops fetch until it resolves plus the recovery penalty; a memory-order
violation squashes from the offending load, re-fetches, and charges the
same penalty.  Wrong-path execution itself is not simulated (trace-driven;
see DESIGN.md).
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Sequence, Tuple

from ..frontend.branch_predictor import FrontEnd
from ..isa.opcodes import OpClass
from ..lsq.mdp import StoreSetPredictor
from ..lsq.queues import LoadStoreUnit
from ..memory.cache import LINE_SIZE
from ..memory.hierarchy import CODE_BASE, MemoryHierarchy
from ..rename.rename_unit import RenameUnit
from ..telemetry.attribution import StallAttribution
from ..workloads.trace import Trace
from .config import CoreConfig
from .ifop import InFlightOp
from .observe import Observer, Observers
from .ports import PORT_MAPS_BY_WIDTH, PortFile
from .regready import ReadyFile
from .rob import ReorderBuffer
from .stats import SimResult, SimStats
from .wakeup import WakeupScoreboard

#: FU energy-event name per op class.
_FU_EVENT = {
    OpClass.INT_ALU: "fu_int",
    OpClass.INT_MUL: "fu_mul",
    OpClass.INT_DIV: "fu_div",
    OpClass.FP_ADD: "fu_fp",
    OpClass.FP_MUL: "fu_fp",
    OpClass.FP_DIV: "fu_fp",
    OpClass.LOAD: "fu_agu",
    OpClass.STORE: "fu_agu",
    OpClass.BRANCH: "fu_branch",
    OpClass.NOP: "fu_int",
}


class SimulationDeadlock(RuntimeError):
    """No instruction committed for an implausibly long stretch."""


class DeadlockError(SimulationDeadlock):
    """The forward-progress watchdog tripped (or ``max_cycles`` hit).

    Carries a JSON-serialisable pipeline ``snapshot`` (see
    :mod:`repro.telemetry.snapshot`) naming the stuck ROB-head µop,
    per-IQ occupancy/heads, wakeup-scoreboard and LFST state, and the
    stall-attribution totals when available.  The custom ``__reduce__``
    keeps the snapshot attached across the parallel runner's process
    boundary (plain exception pickling drops extra attributes).
    """

    def __init__(self, message: str, snapshot: Optional[Dict] = None):
        super().__init__(message)
        self.snapshot: Dict = snapshot if snapshot is not None else {}

    def __reduce__(self):
        return (self.__class__, (self.args[0], self.snapshot))

    def render(self) -> str:
        """The message plus the rendered snapshot block."""
        from ..telemetry.snapshot import render_snapshot

        if not self.snapshot:
            return str(self)
        return f"{self}\n{render_snapshot(self.snapshot)}"


class Pipeline:
    """One simulated core executing one trace.

    Args:
        trace: The dynamic micro-op stream to replay.
        config: Core configuration (see :mod:`repro.core.config`).
        scheduler_factory: ``f(pipeline) -> scheduler``; defaults to building
            the scheduler named by ``config.scheduler.kind``.
        check_invariants: Run the per-cycle invariant checker
            (:mod:`repro.verify.invariants`) after every cycle.
        observers: :class:`~repro.core.observe.Observer` objects (tracer,
            stall attribution, metrics, interval sampler, ...), reached
            through the one nullable ``self.observe`` (``None`` when the
            list is empty, so the disabled cost is one branch per site).
        frontend / hierarchy / mdp: Pre-warmed front end, memory
            hierarchy, and memory-dependence predictor to *share*
            instead of building fresh ones — the sampled-simulation
            driver (:mod:`repro.core.sampling`) threads one warmed set
            through its fast-forward engine and every measured-window
            pipeline.  Defaults build cold state, exactly as before.
    """

    def __init__(
        self,
        trace: Trace,
        config: CoreConfig,
        scheduler_factory: Optional[Callable[["Pipeline"], object]] = None,
        check_invariants: bool = False,
        observers: Sequence[Observer] = (),
        frontend: Optional[FrontEnd] = None,
        hierarchy: Optional[MemoryHierarchy] = None,
        mdp: Optional[StoreSetPredictor] = None,
    ):
        self.trace = trace
        self.config = config
        self.observe = Observers(observers) if observers else None
        #: the attached stall attribution, which the interval sampler,
        #: the invariant checker and deadlock snapshots read
        self.attribution = next(
            (o for o in observers if isinstance(o, StallAttribution)), None
        )
        self.hier = (
            hierarchy if hierarchy is not None
            else MemoryHierarchy(config.hierarchy)
        )
        self.frontend = frontend if frontend is not None else FrontEnd()
        self.rename = RenameUnit(config.phys_int, config.phys_fp)
        self.ready = ReadyFile(self.rename.num_phys)
        self.lsu = LoadStoreUnit(config.lq_size, config.sq_size)
        self.lsu.observe = self.observe
        self.mdp: Optional[StoreSetPredictor] = (
            mdp if mdp is not None
            else (StoreSetPredictor() if config.mdp_enabled else None)
        )
        self.rob = ReorderBuffer(config.rob_size)
        self.ports = PortFile(PORT_MAPS_BY_WIDTH[config.issue_width])
        self.stats = SimStats()
        self.energy = self.stats.energy_events

        self.cycle = 0
        self.commit_count = 0
        self.fetch_index = 0
        self.fetch_resume_at = 0
        self.pending_redirect: Optional[int] = None  # seq of blocking branch
        self._last_ifetch_line = -1

        self.decode_queue: Deque[InFlightOp] = deque()
        self.dispatch_queue: Deque[Tuple[int, InFlightOp]] = deque()
        self.inflight: Dict[int, InFlightOp] = {}
        self.wakeup = WakeupScoreboard(self.inflight, self.ready)
        self._events: List[Tuple[int, int, int, str, InFlightOp]] = []
        self._event_counter = 0
        self._store_issued: Dict[int, int] = {}  # store seq -> issue cycle
        self._taint: Dict[int, int] = {}  # preg -> tainting load seq

        self.check_invariants = check_invariants

        if scheduler_factory is None:
            from ..sched import create_scheduler

            scheduler_factory = create_scheduler
        self.scheduler = scheduler_factory(self)

    # ==================================================================
    # services used by schedulers
    # ==================================================================
    def srcs_ready(self, ifop: InFlightOp, cycle: int) -> bool:
        # O(1): the wakeup scoreboard keeps this count current (each
        # completion decrements its consumers during the completion phase
        # of the cycle it lands in — exactly when a per-src poll of the
        # ReadyFile would have started returning True).
        return ifop.wake_pending == 0

    def mdp_dep_satisfied(self, ifop: InFlightOp) -> bool:
        # O(1): set at dispatch iff the dependence store had not issued
        # yet, cleared by the store's issue broadcast.
        return not ifop.mdp_waiting

    def op_ready(self, ifop: InFlightOp, cycle: int) -> bool:
        """All register operands ready and any MDP dependence satisfied."""
        return ifop.wake_pending == 0 and not ifop.mdp_waiting

    def try_grant(self, ifop: InFlightOp, cycle: int) -> bool:
        """Request this op's issue port; True (and consumed) if granted."""
        opcode = ifop.op.opcode
        klass = opcode.op_class
        port = ifop.port
        if self.ports.can_issue(port, klass, cycle):
            self.ports.grant(port, klass, cycle, opcode.latency,
                             opcode.pipelined)
            return True
        return False

    # ==================================================================
    # main loop
    # ==================================================================
    def run(self, max_cycles: int = 50_000_000) -> SimResult:
        """Simulate until the whole trace commits; return the results.

        Raises:
            DeadlockError: When no µop commits for
                ``config.deadlock_cycles`` consecutive cycles (``0``
                disables the watchdog) or the cycle count exceeds
                ``max_cycles``.  The exception carries a full pipeline
                snapshot for post-mortem diagnosis.
        """
        self.begin(max_cycles)
        while self.step():
            pass
        return self.finalize()

    def begin(self, max_cycles: int = 50_000_000,
              start_cycle: int = 0,
              horizon: Optional[int] = None) -> None:
        """Arm the per-run bookkeeping so :meth:`step` can be called.

        Split out of :meth:`run` so external drivers — notably the
        lock-step multi-config runner (:mod:`repro.core.lockstep`) —
        can interleave the steps of many pipelines.  ``run()`` is
        exactly ``begin()``; ``while step(): pass``; ``finalize()``.

        ``start_cycle`` continues a running global clock: the sampled
        driver's measured-window pipelines share a memory hierarchy
        whose MSHR/fill/DRAM-row state is keyed on absolute cycles, so
        a window must pick up the clock where fast-forward left it, not
        restart at zero.  ``max_cycles`` stays an absolute ceiling.

        ``horizon`` is a cycle no :meth:`step` skips past: a driver
        that acts once the clock reaches a given cycle (the sampled
        driver's end of warm-up) gets a step that lands on it exactly.
        """
        self._total = len(self.trace)
        self._max_cycles = max_cycles
        self._horizon = horizon
        self._deadlock_cycles = self.config.deadlock_cycles
        self.cycle = start_cycle
        self._last_commit_cycle = start_cycle
        self._last_fetch_cycle = start_cycle
        self._last_issue_cycle = start_cycle
        self._fetched_before = 0
        self._issued_before = 0

    def step(self) -> bool:
        """Advance one or more cycles; False once the whole trace has
        committed.

        Runs one cycle's stages.  If that cycle was idle — nothing
        committed, completed, issued, dispatched, renamed or fetched,
        nothing squashed, and the scheduler's ``select`` left its
        window unchanged — the clock then jumps to the next cycle at
        which anything can act (see :meth:`_skip_idle`), and the
        skipped cycles' per-cycle scheduler counters are charged in
        bulk, so every result is identical to stepping them one by one.
        Runs with observers or ``check_invariants`` step every cycle:
        their per-cycle hooks and checks need each one.

        Raises :class:`DeadlockError` exactly as :meth:`run` does; a
        driver stepping several pipelines catches it per pipeline.
        """
        if self.commit_count >= self._total:
            return False
        before = self.commit_count
        events = self._events
        idle = not events or events[0][0] > self.cycle
        rob_before = len(self.rob._entries)
        dispatch_before = len(self.dispatch_queue)
        self._commit()
        if self.commit_count != before:
            self._last_commit_cycle = self.cycle
        self._process_events()
        self._issue()
        self._dispatch()
        self._rename_stage()
        self._fetch()
        observe = self.observe
        if observe is not None:
            observe.on_cycle(self, self.commit_count != before)
        if self.check_invariants:
            self._assert_invariants()
        stats = self.stats
        if stats.fetched != self._fetched_before:
            self._fetched_before = stats.fetched
            self._last_fetch_cycle = self.cycle
            idle = False
        if stats.issued != self._issued_before:
            self._issued_before = stats.issued
            self._last_issue_cycle = self.cycle
            idle = False
        self.cycle += 1
        if observe is not None:
            observe.on_tick(self)
        elif (idle and self.commit_count == before
              and not self.check_invariants
              and len(self.rob._entries) == rob_before
              and len(self.dispatch_queue) == dispatch_before):
            self._skip_idle()
        deadlock_cycles = self._deadlock_cycles
        if deadlock_cycles and self.cycle - self._last_commit_cycle > deadlock_cycles:
            raise self._deadlock(
                f"no commit since cycle {self._last_commit_cycle} "
                f"(now {self.cycle}, watchdog {deadlock_cycles}; "
                f"last issue {self._last_issue_cycle}, "
                f"last fetch {self._last_fetch_cycle})"
            )
        if self.cycle > self._max_cycles:
            raise self._deadlock(f"max_cycles ({self._max_cycles}) exceeded")
        return self.commit_count < self._total

    def _skip_idle(self) -> None:
        """Jump from the idle cycle just run to the next cycle at which
        anything can act, charging the skipped selects in bulk.

        After an idle cycle, the stages can only act again at: the next
        completion event; a time-blocked front end (fetch resuming, the
        dispatch-queue head ending its rename latency, the decode-queue
        head ending its fetch latency); an unpipelined FU freeing; or
        the scheduler's own horizon.  A front-end bound before ``now``
        means that stage waits on a full structure instead, which only
        frees once something above acts.  The watchdog and the
        ``max_cycles`` ceiling (and a driver's ``horizon``, see
        :meth:`begin`) cap the jump, so they fire at the same cycle
        with the same snapshot as a per-cycle run.
        """
        now = self.cycle
        target = self._max_cycles + 1
        events = self._events
        if events and events[0][0] < target:
            target = events[0][0]
        resume = self.fetch_resume_at
        if now <= resume < target:
            target = resume
        if self.dispatch_queue:
            at = self.dispatch_queue[0][0]
            if now <= at < target:
                target = at
        if self.decode_queue:
            at = self.decode_queue[0].decode_cycle + self.config.fetch_latency
            if now <= at < target:
                target = at
        at = self.ports.next_fu_release(now)
        if at is not None and at < target:
            target = at
        if self._deadlock_cycles:
            at = self._last_commit_cycle + self._deadlock_cycles + 1
            if at < target:
                target = at
        at = self._horizon
        if at is not None and now <= at < target:
            target = at
        if target <= now:
            return
        # asked last: the cheap bounds above often rule out a skip
        at = self.scheduler.idle_horizon(now)
        if at < target:
            target = at
        if target > now:
            self.scheduler.charge_idle(target - now)
            self.cycle = target

    def finalize(self) -> SimResult:
        """Seal the stats and build the :class:`SimResult` (call once)."""
        self.stats.cycles = self.cycle
        self.stats.scheduler = dict(self.scheduler.extra_stats())
        self.stats.branch_lookups = self.frontend.lookups
        for name, count in self.hier.events.items():
            self.energy[name] += count
        result = SimResult(
            workload=self.trace.name,
            config_name=self.config.name,
            stats=self.stats,
            memory_stats=self.hier.stats(),
            frequency_ghz=self.config.frequency_ghz,
        )
        if self.observe is not None:
            self.observe.on_finalize(self, result)
        return result

    def _deadlock(self, reason: str) -> DeadlockError:
        """Build the watchdog exception with a full pipeline snapshot."""
        from ..telemetry.snapshot import capture_snapshot, describe_head

        snapshot = capture_snapshot(self, reason=reason)
        return DeadlockError(
            f"{self.config.name}/{self.trace.name}: {reason}; "
            f"{describe_head(snapshot)}",
            snapshot=snapshot,
        )

    # ==================================================================
    # debug invariants (enabled with check_invariants=True)
    # ==================================================================
    def _assert_invariants(self) -> None:
        """End-of-cycle microarchitectural invariants (debug mode).

        These catch scheduler/pipeline bookkeeping bugs early: structural
        capacities, in-order ROB contents, and LSQ/ROB agreement.
        """
        assert len(self.rob) <= self.config.rob_size, "ROB overflow"
        assert self.lsu.lq_occupancy <= self.config.lq_size, "LQ overflow"
        assert self.lsu.sq_occupancy <= self.config.sq_size, "SQ overflow"
        rob_seqs = [op.seq for op in self.rob._entries]
        assert rob_seqs == sorted(rob_seqs), "ROB out of program order"
        assert all(
            count >= 0 for count in self.ports.inflight
        ), "negative port in-flight count"
        # every un-issued ROB op must still be inside the scheduler window
        unissued = sum(1 for op in self.rob._entries if not op.issued)
        assert unissued <= self.scheduler.occupancy() + len(
            self.dispatch_queue
        ), "scheduler lost track of an un-issued op"
        # the event-driven wakeup counts must agree with a readiness poll
        for op in self.rob._entries:
            if op.issued:
                continue
            polled = self.wakeup.pending_debug(op, self.cycle)
            assert op.wake_pending == polled, (
                f"seq {op.seq}: scoreboard says {op.wake_pending} pending "
                f"sources, poll says {polled}"
            )
            dep = op.mdp_dep_seq
            legacy = (
                dep is None or dep < self.commit_count
                or dep in self._store_issued
            )
            assert (not op.mdp_waiting) == legacy, (
                f"seq {op.seq}: mdp_waiting={op.mdp_waiting} disagrees "
                f"with polled MDP dependence state"
            )
        # cross-structure checks (steering liveness, LFST/LSQ agreement,
        # per-scheduler window shape) live in repro.verify.invariants;
        # imported lazily to keep core free of a verify dependency.
        from ..verify.invariants import check_pipeline

        check_pipeline(self)

    # ==================================================================
    # commit
    # ==================================================================
    def _commit(self) -> None:
        entries = self.rob._entries
        if not entries or not entries[0].completed:
            return
        observe = self.observe
        for _ in range(self.config.commit_width):
            if not entries or not entries[0].completed:
                return
            ifop = entries.popleft()
            seq = ifop.seq
            if observe is not None:
                observe.on_event(self.cycle, seq, "commit")
            if ifop.is_store:
                entry = self.lsu.commit_store(seq)
                # retire the store's write into the data cache
                self.hier.access_data(
                    entry.addr, self.cycle, is_write=True, pc=ifop.op.pc,
                )
            elif ifop.is_load:
                self.lsu.commit_load(seq)
            prev_dest = ifop.prev_dest_preg
            self.rename.commit_mapping(prev_dest)
            if prev_dest is not None:
                self.ready.release(prev_dest)
            self.stats.breakdown.record(ifop)
            self.energy["rob_commit"] += 1
            self._store_issued.pop(seq, None)
            self.inflight.pop(seq, None)
            self.commit_count += 1
            self.stats.committed += 1

    # ==================================================================
    # completion / execution events
    # ==================================================================
    def _schedule(self, when: int, ifop: InFlightOp, kind: str) -> None:
        self._event_counter += 1
        heapq.heappush(
            self._events, (when, ifop.seq, self._event_counter, kind, ifop)
        )

    def _process_events(self) -> None:
        events = self._events
        inflight = self.inflight
        while events and events[0][0] <= self.cycle:
            when, seq, _, kind, ifop = heapq.heappop(events)
            # a squashed op left the inflight map, and its refetch is a
            # new object, so identity alone detects a stale event
            if inflight.get(seq) is not ifop:
                continue
            if kind == "exec":
                self._complete(ifop, when)
            elif kind == "load_agu":
                self._load_agu(ifop, when)
            elif kind == "store_agu":
                self._store_agu(ifop, when)

    def _complete(self, ifop: InFlightOp, when: int) -> None:
        ifop.completed = True
        ifop.complete_cycle = when
        observe = self.observe
        if observe is not None:
            observe.on_event(when, ifop.seq, "writeback")
        dest_preg = ifop.dest_preg
        if dest_preg is not None:
            self.ready.mark_ready(dest_preg, when)
            self.energy["prf_write"] += 1
            scheduler = self.scheduler
            scheduler.on_wakeup(dest_preg, when)
            for waiter in self.wakeup.wake(dest_preg, when):
                scheduler.on_op_ready(waiter, when)
            if observe is not None:
                observe.on_event(when, ifop.seq, "wakeup", f"p{dest_preg}")
        self.scheduler.on_complete(ifop, when)
        if ifop.mispredicted and ifop.is_branch:
            # the front end was stopped at this branch; redirect resolves now
            self.fetch_resume_at = max(
                self.fetch_resume_at, when + self.config.recovery_penalty
            )
            if observe is not None:
                observe.on_recovery(self.fetch_resume_at)
            if self.pending_redirect == ifop.seq:
                self.pending_redirect = None
            # wrong-path activity: the real front end fetches/decodes down
            # the wrong path while the branch resolves.  The trace-driven
            # model does not execute those ops, but their fetch/decode and
            # rename energy is real — charge it for the resolution window
            # at the machine's fetch rate (half-rate utilisation estimate)
            shadow = max(0, when - ifop.decode_cycle)
            wrong_path_ops = (shadow * self.config.decode_width) // 2
            self.energy["fetch"] += wrong_path_ops
            self.energy["rename"] += wrong_path_ops // 2
            self.stats.energy_events["wrongpath_ops"] += wrong_path_ops

    def _load_agu(self, ifop: InFlightOp, when: int) -> None:
        seq, addr = ifop.seq, ifop.op.mem_addr
        forward = self.lsu.load_executing(seq, addr, when)
        self.energy["lsq_search"] += 1
        if forward.forwarded:
            if forward.ready_cycle is None:
                # matching older store has not produced its data yet: retry
                self._schedule(when + 1, ifop, "load_agu")
                return
            complete_at = max(when, forward.ready_cycle) + 1
            source = forward.source_seq
            served_by = f"fwd:{source}"
        else:
            result = self.hier.access_data(addr, when, pc=ifop.op.pc)
            complete_at = result.complete_cycle
            source = -1
            served_by = result.level
        if self.observe is not None:
            self.observe.on_event(when, seq, "execute", served_by)
        self.lsu.load_executed(seq, when, source)
        self._schedule(max(complete_at, when + 1), ifop, "exec")

    def _store_agu(self, ifop: InFlightOp, when: int) -> None:
        seq, addr = ifop.seq, ifop.op.mem_addr
        violators = self.lsu.store_address_ready(seq, addr, when)
        self.lsu.store_data_ready(seq, when)
        ifop.completed = True
        ifop.complete_cycle = when
        observe = self.observe
        if observe is not None:
            observe.on_event(when, seq, "execute", "agu")
            observe.on_event(when, seq, "writeback")
        if violators:
            offender = violators[0]
            victim = self.inflight.get(offender)
            self.stats.order_violations += 1
            if self.mdp is not None and victim is not None:
                self.mdp.train_violation(victim.op.pc, ifop.op.pc)
            self._squash(offender)

    # ==================================================================
    # issue
    # ==================================================================
    def _issue(self) -> None:
        for ifop in self.scheduler.select(self.cycle):
            self._do_issue(ifop)

    def _do_issue(self, ifop: InFlightOp) -> None:
        cycle = self.cycle
        ifop.issued = True
        ifop.issue_cycle = cycle
        opcode = ifop.op.opcode
        src_pregs = ifop.src_pregs
        self.stats.issued += 1
        energy = self.energy
        energy["prf_read"] += len(src_pregs)
        energy[_FU_EVENT[opcode.op_class]] += 1
        # reconstruct when the op actually became ready (for Fig. 3c/12)
        ready_at = ifop.dispatch_cycle
        ready_cycle = self.ready.ready_cycle
        for preg in src_pregs:
            at = ready_cycle(preg)
            if at > ready_at:
                ready_at = at
        dep = ifop.mdp_dep_seq
        if dep is not None and dep in self._store_issued:
            ready_at = max(ready_at, self._store_issued[dep])
        ifop.ready_cycle = ready_at if ready_at < cycle else cycle
        observe = self.observe
        if observe is not None:
            seq = ifop.seq
            observe.on_count(f"pipeline.issue_port.{ifop.port}")
            observe.on_event(cycle, seq, "issue", f"port{ifop.port}")
            if not (ifop.is_load or ifop.is_store):
                observe.on_event(
                    cycle + 1, seq, "execute",
                    opcode.op_class.name.lower(),
                )

        if ifop.is_load:
            self._schedule(cycle + 1, ifop, "load_agu")
        elif ifop.is_store:
            seq = ifop.seq
            if self.mdp is not None:
                self.mdp.store_issued(ifop.op.pc, seq)
            self._store_issued[seq] = cycle
            for waiter in self.wakeup.store_issued(seq):
                self.scheduler.on_op_ready(waiter, cycle)
            self._schedule(cycle + 1, ifop, "store_agu")
        else:
            self._schedule(cycle + opcode.latency, ifop, "exec")

    # ==================================================================
    # dispatch
    # ==================================================================
    def _dispatch(self) -> None:
        queue = self.dispatch_queue
        if not queue:
            return
        cycle = self.cycle
        dispatched = 0
        observe = self.observe
        energy = self.energy
        width = self.config.decode_width
        while queue and dispatched < width:
            available_at, ifop = queue[0]
            if available_at > cycle or self.rob.full:
                if self.rob.full and observe is not None:
                    observe.on_dispatch_block("rob_full")
                return
            is_load = ifop.is_load
            is_store = ifop.is_store
            if is_load and self.lsu.lq_full():
                if observe is not None:
                    observe.on_dispatch_block("lq_full")
                return
            if is_store and self.lsu.sq_full():
                if observe is not None:
                    observe.on_dispatch_block("sq_full")
                return
            if not self.scheduler.can_accept(ifop):
                if observe is not None:
                    observe.on_dispatch_block("iq_full")
                return
            queue.popleft()
            ifop.dispatch_cycle = cycle
            seq = ifop.seq
            if observe is not None:
                observe.on_event(cycle, seq, "dispatch")
            self.rob.append(ifop)
            if is_load:
                self.lsu.allocate_load(seq, ifop.op.pc)
                energy["lsq_write"] += 1
            elif is_store:
                self.lsu.allocate_store(seq, ifop.op.pc)
                energy["lsq_write"] += 1
            # MDP is consulted here, adjacent to steering (the paper does
            # both alongside rename; keeping them in the same stage stops
            # a younger same-set store from clearing the LFST steering
            # hint before this op's steering decision reads it)
            if self.mdp is not None and (is_load or is_store):
                if is_store:
                    dep = self.mdp.store_dispatched(ifop.op.pc, seq)
                else:
                    dep = self.mdp.load_dispatched(ifop.op.pc)
                energy["mdp_access"] += 1
                if dep is not None and self.commit_count <= dep < seq:
                    ifop.mdp_dep_seq = dep
                    if dep not in self._store_issued:
                        self.wakeup.register_mdp(ifop)
            self.scheduler.insert(ifop, cycle)
            energy["dispatch"] += 1
            energy["rob_write"] += 1
            dispatched += 1

    # ==================================================================
    # rename
    # ==================================================================
    def _classify(self, ifop: InFlightOp) -> None:
        """Tag the op Ld / LdC / Rst at dispatch time (paper Fig. 3c)."""
        taint = self._taint
        dest_preg = ifop.dest_preg
        if ifop.is_load:
            ifop.klass = "Ld"
            if dest_preg is not None:
                taint[dest_preg] = ifop.seq
            return
        alive: Optional[int] = None
        if taint:
            inflight = self.inflight
            for preg in ifop.src_pregs:
                load_seq = taint.get(preg)
                if load_seq is None:
                    continue
                producer = inflight.get(load_seq)
                if producer is not None and not producer.completed:
                    alive = load_seq
                    break
        ifop.klass = "LdC" if alive is not None else "Rst"
        if dest_preg is not None:
            if alive is not None:
                taint[dest_preg] = alive
            else:
                taint.pop(dest_preg, None)

    def _rename_stage(self) -> None:
        queue = self.decode_queue
        if not queue:
            return
        cycle = self.cycle
        renamed = 0
        fetch_latency = self.config.fetch_latency
        rename_latency = self.config.rename_latency
        width = self.config.decode_width
        dispatch_queue = self.dispatch_queue
        while queue and renamed < width:
            ifop = queue[0]
            if ifop.decode_cycle + fetch_latency > cycle:
                return
            op = ifop.op
            if not self.rename.can_rename(op):
                if self.observe is not None:
                    self.observe.on_count("pipeline.rename_stall")
                return  # stall until physical registers free up
            queue.popleft()
            rename_rec = self.rename.rename(op)
            dest_preg = rename_rec.dest_preg
            ifop.dest_preg = dest_preg
            ifop.src_pregs = rename_rec.src_pregs
            ifop.prev_dest_preg = rename_rec.prev_dest_preg
            ifop.dest_arch = rename_rec.dest_arch
            if dest_preg is not None:
                self.ready.mark_pending(dest_preg)
            self.wakeup.register(ifop, cycle)
            ifop.port = self.ports.assign(op.opcode.op_class)
            self._classify(ifop)
            if self.observe is not None:
                self.observe.on_event(cycle, ifop.seq, "rename", ifop.klass)
            self.energy["rename"] += 1
            dispatch_queue.append((cycle + rename_latency, ifop))
            renamed += 1

    # ==================================================================
    # fetch
    # ==================================================================
    def _fetch(self) -> None:
        cycle = self.cycle
        if self.pending_redirect is not None or cycle < self.fetch_resume_at:
            return
        fetched = 0
        trace = self.trace
        trace_len = len(trace)
        if self.fetch_index >= trace_len:
            return
        decode_queue = self.decode_queue
        width = self.config.decode_width
        alloc_queue = self.config.alloc_queue
        observe = self.observe
        inflight = self.inflight
        stats = self.stats
        energy = self.energy
        while (
            fetched < width
            and self.fetch_index < trace_len
            and len(decode_queue) < alloc_queue
        ):
            op = trace[self.fetch_index]
            line = (CODE_BASE + op.pc * 4) // LINE_SIZE
            if line != self._last_ifetch_line:
                result = self.hier.access_ifetch(op.pc, cycle)
                self._last_ifetch_line = line
                extra = result.complete_cycle - cycle - self.hier.l1i.latency
                if extra > 0:
                    self.fetch_resume_at = cycle + extra
                    return  # I-cache miss: stall before consuming the op
            ifop = InFlightOp(op.seq, op, cycle)
            inflight[op.seq] = ifop
            if observe is not None:
                observe.on_event(cycle, op.seq, "fetch")
            decode_queue.append(ifop)
            energy["fetch"] += 1
            self.fetch_index += 1
            stats.fetched += 1
            fetched += 1
            if op.is_branch:
                if not self._fetch_branch(ifop):
                    return
            elif op.opcode.name == "halt":
                return

    def _fetch_branch(self, ifop: InFlightOp) -> bool:
        """Predict a branch at fetch; returns False if fetch must stop."""
        op = ifop.op
        unconditional = op.opcode.name == "jmp"
        prediction = self.frontend.predict_branch(op.pc, unconditional)
        self.frontend.resolve(
            op.pc,
            prediction,
            bool(op.taken),
            op.target_pc if op.taken else None,
            unconditional,
        )
        direction_ok = prediction.taken == bool(op.taken)
        if not direction_ok:
            # full misprediction: fetch stops until the branch executes
            self.stats.branch_mispredicts += 1
            ifop.mispredicted = True
            self.pending_redirect = ifop.seq
            return False
        if op.taken:
            if prediction.target != op.target_pc:
                # correct direction, BTB miss: short decode-redirect bubble
                self.fetch_resume_at = self.cycle + 2
            return False  # a taken branch ends the fetch group
        return True

    # ==================================================================
    # squash (memory-order violation)
    # ==================================================================
    def _squash(self, from_seq: int) -> None:
        """Squash every op with seq >= ``from_seq`` and refetch."""
        self.stats.flushes += 1
        observe = self.observe
        if observe is not None:
            squashed = [seq for seq in self.inflight if seq >= from_seq]
            for seq in squashed:
                observe.on_event(self.cycle, seq, "squash", "mem_order")
        # 1) pre-dispatch queues: drop (dispatch_queue ops are renamed, so
        #    undo them youngest-first before touching the ROB's older ops)
        undispatched = [
            ifop for _, ifop in self.dispatch_queue if ifop.seq >= from_seq
        ]
        self.dispatch_queue = deque(
            (t, ifop) for t, ifop in self.dispatch_queue if ifop.seq < from_seq
        )
        for ifop in sorted(undispatched, key=lambda x: -x.seq):
            self.rename.undo_mapping(
                ifop.dest_arch, ifop.dest_preg, ifop.prev_dest_preg
            )
            if ifop.dest_preg is not None:
                self.ready.release(ifop.dest_preg)
            self.ports.unassign(ifop.port)
            self.energy["rat_recover"] += 1
            self.inflight.pop(ifop.seq, None)
        self.decode_queue = deque(
            ifop for ifop in self.decode_queue if ifop.seq < from_seq
        )
        # 2) ROB walk-back (youngest first)
        for ifop in self.rob.flush_from(from_seq):
            self.rename.undo_mapping(
                ifop.dest_arch, ifop.dest_preg, ifop.prev_dest_preg
            )
            if ifop.dest_preg is not None:
                self.ready.release(ifop.dest_preg)
            if not ifop.issued:
                self.ports.unassign(ifop.port)
            self.energy["rat_recover"] += 1
            self.inflight.pop(ifop.seq, None)
        # 3) scheduler, LSQ, and MDP.  The MDP sweep covers both squashed
        #    stores (their LFST entries die, whatever their pc) and the
        #    stale-reservation case: an MDA-steered load squashed while
        #    its producer store survives must release the Reserved bit,
        #    or the re-fetched load is denied its own steering hint.
        self.scheduler.flush_from(from_seq)
        self.lsu.flush_from(from_seq)
        if self.mdp is not None:
            self.mdp.flush_from(from_seq)
        self._store_issued = {
            seq: cyc for seq, cyc in self._store_issued.items() if seq < from_seq
        }
        # 4) drop stale inflight entries for anything younger (the
        #    never-renamed decode-queue ops).  Events and wakeup entries
        #    are invalidated by identity, but the map must not leak.
        for seq in [s for s in self.inflight if s >= from_seq]:
            del self.inflight[seq]
        # 5) refetch from the squashed load after the recovery penalty
        self.fetch_index = from_seq
        self.fetch_resume_at = max(
            self.fetch_resume_at, self.cycle + self.config.recovery_penalty
        )
        if observe is not None:
            observe.on_recovery(self.fetch_resume_at, len(squashed))
        if self.pending_redirect is not None and self.pending_redirect >= from_seq:
            self.pending_redirect = None
        self._last_ifetch_line = -1


def simulate(
    trace: Trace,
    config: CoreConfig,
    max_cycles: int = 50_000_000,
    observers: Sequence[Observer] = (),
    phase_hook=None,
) -> SimResult:
    """Convenience wrapper: build a :class:`Pipeline` and run it.

    When the config enables sampling (``sample_period > 0``) and no
    observer is attached, the run is delegated to the sampled driver
    (:func:`repro.core.sampling.simulate_sampled`) — this is the single
    dispatch point through which the experiment runner, sweeps, and the
    serve worker pool inherit sampled execution.  Observers force a
    full-detail run: their per-µop / per-cycle semantics are undefined
    across fast-forwarded gaps.  ``phase_hook`` (see :class:`~repro.core.
    sampling.SampledSimulation`) observes the sampled phase machine;
    it is ignored on full-detail runs, which have no phases.
    """
    if config.sample_period > 0 and not observers:
        from .sampling import simulate_sampled

        return simulate_sampled(trace, config, max_cycles=max_cycles,
                                phase_hook=phase_hook)
    return Pipeline(trace, config, observers=observers).run(
        max_cycles=max_cycles)
