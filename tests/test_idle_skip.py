"""Idle-cycle skipping: one bulk charge must equal n idle selects.

``Pipeline.step`` jumps the clock over cycles in which nothing can act
and asks the scheduler to charge the skipped selects in bulk
(``SchedulerBase.charge_idle``).  These tests pin the bulk charge of
each opted-in window against the per-cycle ``select`` it replaces, on
crafted stalled windows; the golden matrix and the fuzz oracle pin the
end-to-end equivalence.
"""

from collections import Counter
from types import SimpleNamespace

import pytest

from repro.core.config import config_for
from repro.core.ifop import InFlightOp
from repro.core.observe import Observer
from repro.core.pipeline import Pipeline
from repro.isa import R, opcode
from repro.isa.instruction import DynOp
from repro.sched.ballerino import BallerinoScheduler
from repro.sched.base import NEVER, SchedulerBase
from repro.sched.ooo import OutOfOrderScheduler
from repro.workloads.suite import get_trace


class StalledCore:
    """A fake core whose every issue-port request is refused."""

    def __init__(self):
        self.energy = Counter()
        self.cycle = 0
        self.mdp = None
        self.config = SimpleNamespace(issue_width=8, decode_width=4)

    def op_ready(self, ifop, cycle):
        return ifop.wake_pending == 0 and not ifop.mdp_waiting

    def try_grant(self, ifop, cycle):
        return False  # e.g. an unpipelined FU still busy


def make_op(seq, state="operand", src_pregs=(1, 2)):
    """An op waiting on an ``operand``, on an ``mdep``, or ``ready``."""
    dyn = DynOp(seq=seq, pc=seq, opcode=opcode("add"), dest=R[1],
                srcs=tuple(R[1] for _ in src_pregs))
    ifop = InFlightOp(seq=seq, op=dyn, decode_cycle=0)
    ifop.dest_preg = 100 + seq
    ifop.src_pregs = tuple(src_pregs)
    ifop.wake_pending = 1 if state == "operand" else 0
    ifop.mdp_waiting = state == "mdep"
    return ifop


def _fill(piq, index, states, partition=0, first_seq=0):
    for offset, state in enumerate(states):
        op = make_op(first_seq + offset, state)
        op.iq_index, op.iq_partition = index, partition
        piq.append(op, partition)


def stalled_ballerino(sharing=True, ideal=False, active=0,
                      last_chain="mdep"):
    """Every P-IQ occupied and none shareable, so the S-IQ head stalls.

    With ``sharing``, P-IQs 1 and 2 run two chains each, the first
    headed by an op waiting on an operand, the second by one waiting on
    an mdep, so the alternating read port's split shows in head_*;
    ``last_chain`` is the state of P-IQ 2's second chain head.
    """
    core = StalledCore()
    sched = BallerinoScheduler(core, num_piqs=3, piq_size=4,
                               piq_sharing=sharing, ideal_sharing=ideal)
    # P-IQ 0: full, never shareable; its head is ready but port-blocked
    _fill(sched.piqs[0], 0, ["ready", "operand", "operand", "operand"])
    if sharing:
        for index, (first, second) in ((1, ("operand", "mdep")),
                                       (2, ("operand", last_chain))):
            piq = sched.piqs[index]
            _fill(piq, index, [first], 0, first_seq=10 * index)
            piq.activate_sharing()
            _fill(piq, index, [second, "operand"], 1,
                  first_seq=10 * index + 1)
            piq.active = active
    else:
        _fill(sched.piqs[1], 1, ["operand"] * 3, first_seq=10)
        _fill(sched.piqs[2], 2, ["mdep"] * 3, first_seq=20)
    for seq, state in ((40, "operand"), (41, "ready"), (42, "operand")):
        op = make_op(seq, state, src_pregs=(7, 8, 9))
        sched.insert(op, 0)
    return sched


def _observable(sched):
    return (dict(sched.energy), dict(sched.extra_stats()),
            [piq.active for piq in getattr(sched, "piqs", ())])


def _assert_bulk_equals_per_cycle(build, cycles):
    per_cycle, bulk = build(), build()
    for sched in (per_cycle, bulk):
        # the idle cycle the pipeline runs before deciding to skip
        assert sched.select(0) == []
        assert sched.idle_horizon(1) == NEVER
    for cycle in range(1, cycles + 1):
        assert per_cycle.select(cycle) == []
    bulk.charge_idle(cycles)
    assert _observable(bulk) == _observable(per_cycle)


@pytest.mark.parametrize("cycles", [1, 2, 7, 8, 1000])
def test_ooo_bulk_charge(cycles):
    def build():
        sched = OutOfOrderScheduler(StalledCore(), iq_size=16)
        for seq, state in enumerate(["operand", "ready", "mdep"] * 3):
            sched.insert(make_op(seq, state), 0)
        return sched

    _assert_bulk_equals_per_cycle(build, cycles)


@pytest.mark.parametrize("cycles", [1, 6, 1000])
def test_non_sharing_ballerino_bulk_charge(cycles):
    _assert_bulk_equals_per_cycle(
        lambda: stalled_ballerino(sharing=False), cycles)


@pytest.mark.parametrize("active", [0, 1])
@pytest.mark.parametrize("cycles", [1, 2, 7, 8, 999, 1000])
def test_sharing_ballerino_bulk_charge(cycles, active):
    """Odd and even skips: the read port's parity lands where n selects
    would leave it, and each chain's head is charged its share."""
    _assert_bulk_equals_per_cycle(
        lambda: stalled_ballerino(active=active), cycles)


@pytest.mark.parametrize("cycles", [1, 7, 8])
def test_ideal_ballerino_bulk_charge(cycles):
    _assert_bulk_equals_per_cycle(
        lambda: stalled_ballerino(ideal=True), cycles)


def test_sharing_horizon_stops_at_a_ready_chain_behind_the_port():
    """The other chain's head gets the read port next cycle: if ready,
    it may issue, so the scheduler must not let the clock skip."""
    sched = stalled_ballerino(last_chain="ready")
    assert sched.piqs[2].active == 0  # this cycle: waiting on an operand
    assert sched.select(0) == []
    # end_cycle handed the port to partition 1, whose head is ready
    assert sched.piqs[2].active == 1
    assert sched.idle_horizon(1) == 1


def test_steering_select_is_not_idle():
    sched = stalled_ballerino()
    assert sched.select(0) == []
    sched.piqs[0].partitions[0].clear()  # frees a P-IQ for the S-IQ head
    sched.piqs[0].count = 0
    sched.select(1)
    assert sched.idle_horizon(2) == 2


def test_default_protocol_keeps_per_cycle_stepping():
    base = SchedulerBase(StalledCore())
    assert base.idle_horizon(5) == 5
    base.charge_idle(3)  # nothing to charge


def _steps_and_result(workload, arch, observers=()):
    trace = get_trace(workload, 2000, 7)
    pipe = Pipeline(trace, config_for(arch), observers=observers)
    pipe.begin()
    steps = 1
    while pipe.step():
        steps += 1
    return steps, pipe.finalize()


@pytest.mark.parametrize("arch", ["ooo", "ballerino"])
def test_memory_bound_run_skips_most_cycles(arch):
    """A plain pointer_chase run takes far fewer steps than cycles; an
    observed run steps every cycle, with the same result."""
    steps, result = _steps_and_result("pointer_chase", arch)
    observed_steps, observed = _steps_and_result(
        "pointer_chase", arch, observers=[Observer()])
    assert observed_steps == observed.cycles
    assert steps * 5 < result.cycles
    assert result.to_dict() == observed.to_dict()
