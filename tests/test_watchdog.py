"""Forward-progress watchdog: a wedged pipeline must die loudly, fast,
and with a snapshot that names the stuck op — not spin to ``max_cycles``."""

import dataclasses
import pickle

import pytest

from repro.core.config import config_for
from repro.core.observe import Observer
from repro.core.pipeline import DeadlockError, Pipeline, SimulationDeadlock
from repro.sched import create_scheduler
from repro.telemetry import render_snapshot
from repro.verify.chaos import WedgedScheduler
from repro.workloads.suite import get_trace

OPS = 400


def _wedged_pipeline(arch="ballerino", deadlock_cycles=2_000,
                     observers=()):
    cfg = dataclasses.replace(
        config_for(arch), deadlock_cycles=deadlock_cycles
    )
    trace = get_trace("histogram", OPS, 7)
    return Pipeline(
        trace, cfg,
        scheduler_factory=lambda core: WedgedScheduler(create_scheduler(core)),
        observers=observers,
    )


def test_wedge_raises_within_window():
    pipe = _wedged_pipeline(deadlock_cycles=2_000)
    with pytest.raises(DeadlockError) as excinfo:
        pipe.run()
    # fired promptly after the watchdog window, not at max_cycles
    assert pipe.cycle <= 2_000 + 2
    assert "no commit since cycle" in str(excinfo.value)


@pytest.mark.parametrize("arch", ["ooo", "ballerino", "ces"])
def test_snapshot_names_the_stuck_rob_head(arch):
    with pytest.raises(DeadlockError) as excinfo:
        _wedged_pipeline(arch).run()
    err = excinfo.value
    # the headline names the ROB-head µop that never left the window
    assert "ROB head seq=0" in str(err)
    snap = err.snapshot
    assert snap["committed"] == 0
    assert snap["rob"]["head"]["seq"] == 0
    assert snap["scheduler"]["occupancy"] > 0
    assert snap["config"].startswith(f"{arch}")


def test_deadlock_error_is_simulation_deadlock():
    # pre-watchdog callers (oracle, tests) catch SimulationDeadlock
    with pytest.raises(SimulationDeadlock):
        _wedged_pipeline().run()


def test_deadlock_error_survives_pickling():
    """Pool workers ship the exception across the process boundary."""
    try:
        _wedged_pipeline().run()
    except DeadlockError as err:
        clone = pickle.loads(pickle.dumps(err))
        assert isinstance(clone, DeadlockError)
        assert clone.snapshot == err.snapshot
        assert str(clone) == str(err)
    else:
        pytest.fail("wedged pipeline did not deadlock")


def test_render_snapshot_is_human_readable():
    with pytest.raises(DeadlockError) as excinfo:
        _wedged_pipeline().run()
    text = render_snapshot(excinfo.value.snapshot)
    for needle in ("pipeline snapshot", "ROB", "scheduler", "wakeup"):
        assert needle in text
    assert excinfo.value.render().startswith(str(excinfo.value))


@pytest.mark.parametrize("arch", ["ooo", "ballerino"])
def test_snapshot_counts_in_flight_ops(arch):
    pipe = _wedged_pipeline(arch)
    with pytest.raises(DeadlockError) as excinfo:
        pipe.run()
    counts = excinfo.value.snapshot["in_flight"]
    ops = list(pipe.inflight.values())
    assert counts == {
        "live": len(ops),
        "issued": sum(1 for op in ops if op.issued),
        "completed": sum(1 for op in ops if op.completed),
        "waiting_sources": sum(1 for op in ops if op.wake_pending > 0),
        "waiting_mdp": sum(1 for op in ops if op.mdp_waiting),
    }
    # nothing committed or squashed: every fetched op is still in flight,
    # split across the front-end queues and the ROB; nothing ever issued
    assert counts["live"] == pipe.stats.fetched == (
        len(pipe.rob) + len(pipe.decode_queue) + len(pipe.dispatch_queue)
    )
    assert counts["issued"] == counts["completed"] == 0
    assert counts["waiting_sources"] > 0
    text = render_snapshot(excinfo.value.snapshot)
    assert (
        f"in flight: {counts['live']} ops (0 issued, 0 completed, "
        f"{counts['waiting_sources']} waiting on sources, "
        f"{counts['waiting_mdp']} on MDP)"
    ) in text


def test_watchdog_disabled_falls_back_to_max_cycles():
    pipe = _wedged_pipeline(deadlock_cycles=0)
    with pytest.raises(DeadlockError) as excinfo:
        pipe.run(max_cycles=3_000)
    assert "max_cycles" in str(excinfo.value)
    assert pipe.cycle > 2_000  # the commit watchdog really was off


def test_healthy_run_unaffected_by_watchdog():
    cfg = dataclasses.replace(config_for("ooo"), deadlock_cycles=2_000)
    trace = get_trace("histogram", OPS, 7)
    result = Pipeline(trace, cfg).run()
    assert result.stats.committed == OPS


def _wedge(arch, observed, deadlock_cycles=2_000, max_cycles=50_000_000):
    """Run a wedged pipeline to its DeadlockError: (cycle, error, pipe).

    ``observed`` attaches a no-op :class:`Observer`, which makes the
    pipeline step every cycle instead of skipping idle ones.
    """
    pipe = _wedged_pipeline(arch, deadlock_cycles,
                            observers=[Observer()] if observed else ())
    with pytest.raises(DeadlockError) as excinfo:
        pipe.run(max_cycles=max_cycles)
    return pipe.cycle, excinfo.value, pipe


@pytest.mark.parametrize("arch", ["ooo", "ballerino"])
@pytest.mark.parametrize("deadlock_cycles,max_cycles,reason", [
    (2_000, 50_000_000, "no commit since cycle"),
    (0, 3_000, "max_cycles (3000) exceeded"),
])
def test_idle_skipping_trips_at_the_per_cycle_cycle(
        arch, deadlock_cycles, max_cycles, reason):
    """A skipping run fires the watchdog (or the ceiling) at the same
    cycle, with the same message and snapshot, as a per-cycle run."""
    skipped = _wedge(arch, False, deadlock_cycles, max_cycles)
    stepped = _wedge(arch, True, deadlock_cycles, max_cycles)
    assert skipped[0] == stepped[0]
    assert str(skipped[1]) == str(stepped[1])
    assert reason in str(skipped[1])
    assert skipped[1].snapshot == stepped[1].snapshot
    # the wedged select charged nothing, so neither did the skips
    assert skipped[2].energy == stepped[2].energy
    assert (skipped[2].scheduler.extra_stats()
            == stepped[2].scheduler.extra_stats())


def test_wedged_scheduler_keeps_the_idle_protocol_to_itself():
    """The wrapper must not forward the wrapped window's bulk charge."""
    pipe = _wedged_pipeline("ooo")
    pipe.begin()
    for _ in range(50):
        pipe.step()
    wedged = pipe.scheduler
    assert wedged.inner.occupancy() > 0  # a forwarded charge would count
    before = dict(pipe.energy)
    wedged.charge_idle(1_000)
    assert dict(pipe.energy) == before
