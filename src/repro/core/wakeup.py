"""Event-driven wakeup: the completion-broadcast scoreboard.

The seed simulator *polled* readiness: every scheduler asked
``srcs_ready`` for every examined entry every cycle, and each query
walked the op's source pregs — the same O(window)-per-cycle broadcast
cost that CAM-based hardware wakeup pays, paid in Python.  This module
inverts the direction: completions are *pushed* to a per-preg consumer
index, so each in-flight op carries a live count of outstanding source
operands (``InFlightOp.wake_pending``) and a flag for its unsatisfied
memory dependence (``InFlightOp.mdp_waiting``).  Readiness queries
become two attribute reads, and schedulers with a large window (the
baseline OoO IQ) can maintain their ready-set incrementally instead of
re-scanning every slot.

Timing is cycle-for-cycle identical to polling because every
``ReadyFile.mark_ready(preg, when)`` happens during the completion
phase of cycle ``when`` — the same phase ordering the polled
``is_ready(preg, cycle)`` check observed — and ``release()``-ed pregs
can never have live waiters (a consumer of the old mapping is always
older than the op whose commit/squash released it).

Stale entries (squashed-and-refetched ops) are invalidated by object
identity against the pipeline's ``inflight`` map: every fetch builds a
fresh :class:`InFlightOp`, so a refetched op never aliases the object a
stale bucket holds.  The pipeline's event queue discards stale
completion events by the same rule.
"""

from __future__ import annotations

from typing import Dict, List, TYPE_CHECKING, Tuple

from .ifop import InFlightOp

if TYPE_CHECKING:  # pragma: no cover
    from .regready import ReadyFile


class WakeupScoreboard:
    """Per-preg consumer index broadcasting completions to waiting ops."""

    def __init__(self, inflight: Dict[int, InFlightOp], ready: "ReadyFile"):
        self._inflight = inflight
        self._ready = ready
        #: preg -> ops with at least one outstanding read of that preg
        self._consumers: Dict[int, List[InFlightOp]] = {}
        #: store seq -> ops waiting on that store's issue (MDP dependence)
        self._mdp_waiters: Dict[int, List[InFlightOp]] = {}
        self.broadcasts = 0
        self.wakeups = 0

    # ------------------------------------------------------------------
    # registration (rename / dispatch time)
    # ------------------------------------------------------------------
    def register(self, ifop: InFlightOp, cycle: int) -> None:
        """Count the op's not-yet-ready sources and index it under each.

        Called once per op as soon as its physical sources are known
        (rename).  A preg read twice is counted (and later decremented)
        twice, keeping the count consistent with per-src polling.
        """
        pending = 0
        ready = self._ready
        consumers = self._consumers
        for preg in ifop.src_pregs:
            if not ready.is_ready(preg, cycle):
                pending += 1
                bucket = consumers.get(preg)
                if bucket is None:
                    consumers[preg] = [ifop]
                else:
                    bucket.append(ifop)
        ifop.wake_pending = pending

    def register_mdp(self, ifop: InFlightOp) -> None:
        """The op's MDP dependence store has not issued yet: park it."""
        ifop.mdp_waiting = True
        self._mdp_waiters.setdefault(ifop.mdp_dep_seq, []).append(ifop)

    # ------------------------------------------------------------------
    # broadcasts (completion / store-issue time)
    # ------------------------------------------------------------------
    def wake(self, preg: int, cycle: int) -> Tuple[InFlightOp, ...]:
        """``preg`` became ready: notify its consumers.

        Returns the ops that transitioned to *fully* ready (no pending
        sources and no unsatisfied MDP dependence) so the pipeline can
        forward them to the scheduler's incremental ready-set.
        """
        consumers = self._consumers.pop(preg, None)
        if not consumers:
            return ()
        self.broadcasts += 1
        inflight = self._inflight
        woken: List[InFlightOp] = []
        wakeups = 0
        for ifop in consumers:
            if inflight.get(ifop.seq) is not ifop:
                continue  # squashed (and possibly refetched): stale entry
            pending = ifop.wake_pending - 1
            ifop.wake_pending = pending
            wakeups += 1
            if pending == 0 and not ifop.mdp_waiting:
                woken.append(ifop)
        self.wakeups += wakeups
        return tuple(woken)

    def store_issued(self, seq: int) -> Tuple[InFlightOp, ...]:
        """Store ``seq`` issued: satisfy the MDP dependences parked on it."""
        waiters = self._mdp_waiters.pop(seq, None)
        if not waiters:
            return ()
        inflight = self._inflight
        woken: List[InFlightOp] = []
        for ifop in waiters:
            if inflight.get(ifop.seq) is not ifop:
                continue  # stale (squashed consumer)
            ifop.mdp_waiting = False
            if ifop.wake_pending == 0:
                woken.append(ifop)
        return tuple(woken)

    # ------------------------------------------------------------------
    def pending_debug(self, ifop: InFlightOp, cycle: int) -> int:
        """Recount the op's outstanding sources by polling (debug only)."""
        return sum(
            1 for preg in ifop.src_pregs
            if not self._ready.is_ready(preg, cycle)
        )
