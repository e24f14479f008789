"""Lock-step multi-config simulation: bit-exactness and isolation.

The lock-step driver (:mod:`repro.core.lockstep`) interleaves N
pipelines cycle-by-cycle over one shared trace.  These tests pin the
central claim — interleaving changes *nothing* — three ways:

1. the full 84-cell golden matrix, run as 6 lock-step groups (one per
   workload, all 14 arches at once), must match ``golden_stats.json``
   exactly — the same oracle the serial path answers to;
2. a subset is compared field-by-field (``SimResult.to_dict``) against
   fresh serial runs, catching drift in stats the golden file doesn't
   pin (energy counters, occupancy averages, breakdowns);
3. the runner's lock-step tier must leave cache + results identical to
   a ``lockstep=False`` batch, while actually batching (group counter).

Plus failure isolation (a dying pipeline must not take its siblings
down) and a differential fuzz smoke through the full pipeline.
"""

import json
from pathlib import Path

import pytest

from repro.analysis.runner import ExperimentRunner
from repro.core.config import config_for
from repro.core.lockstep import run_lockstep
from repro.core.pipeline import Pipeline, simulate
from repro.workloads.suite import get_trace

GOLDEN = json.loads(
    (Path(__file__).parent / "golden_stats.json").read_text()
)

_WORKLOADS = sorted({cell.split("/")[0] for cell in GOLDEN["results"]})
_ARCHES = sorted({cell.split("/")[1] for cell in GOLDEN["results"]})


@pytest.mark.parametrize("workload", _WORKLOADS)
def test_lockstep_matches_golden_matrix(workload):
    """All arches over one workload, in one pass == golden stats."""
    trace = get_trace(workload, GOLDEN["ops"], GOLDEN["seed"])
    outcomes = run_lockstep(trace, [config_for(arch) for arch in _ARCHES])
    for arch, outcome in zip(_ARCHES, outcomes):
        cell = f"{workload}/{arch}"
        assert not isinstance(outcome, Exception), f"{cell}: {outcome!r}"
        expect = GOLDEN["results"][cell]
        assert outcome.cycles == expect["cycles"], cell
        assert outcome.stats.committed == expect["committed"], cell
        assert outcome.stats.issued == expect["issued"], cell
        assert round(outcome.ipc, 6) == pytest.approx(expect["ipc"]), cell


def test_lockstep_to_dict_identical_to_serial():
    """Every serialized field — not just the golden subset — matches."""
    trace = get_trace("histogram", 1000, 7)
    arches = ("ooo", "ooo_oldest", "ces", "ballerino")
    outcomes = run_lockstep(trace, [config_for(arch) for arch in arches])
    for arch, outcome in zip(arches, outcomes):
        serial = simulate(trace, config_for(arch))
        assert outcome.to_dict() == serial.to_dict(), arch


def test_lockstep_isolates_failing_pipeline():
    """One slot dying mid-pass leaves its siblings' results intact."""
    trace = get_trace("histogram", 500, 7)
    arches = ("ooo", "ces", "ballerino")
    poisoned = 1  # fail the middle slot so both neighbours must survive

    class _Bomb(Pipeline):
        def step(self):
            if self.cycle >= 40:
                raise RuntimeError("injected mid-flight failure")
            return super().step()

    built = []

    def factory(trace_arg, config):
        index = len(built)
        built.append(config.name)
        cls = _Bomb if index == poisoned else Pipeline
        return cls(trace_arg, config)

    outcomes = run_lockstep(
        trace, [config_for(arch) for arch in arches],
        pipeline_factory=factory,
    )
    assert isinstance(outcomes[poisoned], RuntimeError)
    for index, arch in enumerate(arches):
        if index == poisoned:
            continue
        serial = simulate(trace, config_for(arch))
        assert outcomes[index].to_dict() == serial.to_dict(), arch


def test_lockstep_bad_config_fails_slot_only():
    """A config the factory can't even build doesn't kill the pass."""
    trace = get_trace("histogram", 500, 7)

    def factory(trace_arg, config):
        if config.name.startswith("ces"):
            raise ValueError("unbuildable config")
        return Pipeline(trace_arg, config)

    outcomes = run_lockstep(
        trace, [config_for("ooo"), config_for("ces")],
        pipeline_factory=factory,
    )
    assert isinstance(outcomes[1], ValueError)
    assert outcomes[0].to_dict() == simulate(trace, config_for("ooo")).to_dict()


def test_runner_lockstep_tier_equivalent(tmp_path):
    """run_many with the lock-step tier == per-cell serial, cache included."""
    tasks = (
        [("histogram", config_for(arch)) for arch in ("ooo", "ces", "ballerino")]
        + [("mdep_chain", config_for(arch)) for arch in ("ooo", "ballerino")]
        + [("stream_triad", config_for("ooo"))]  # singleton: per-cell path
    )
    batched = ExperimentRunner(
        target_ops=1000, cache_dir=str(tmp_path / "ls"), jobs=1, run_log="")
    serial = ExperimentRunner(
        target_ops=1000, cache_dir=str(tmp_path / "serial"), jobs=1,
        run_log="")
    got = batched.run_many(tasks, lockstep=True)
    want = serial.run_many(tasks, lockstep=False)
    assert batched.lockstep_groups == 2  # histogram x3, mdep_chain x2
    assert serial.lockstep_groups == 0
    for a, b in zip(got, want):
        assert a.ok and b.ok
        assert a.to_dict() == b.to_dict()
    # the disk caches must be interchangeable byte-for-byte per cell
    ls_entries = {p.name: p.read_text() for p in (tmp_path / "ls").iterdir()}
    serial_entries = {
        p.name: p.read_text() for p in (tmp_path / "serial").iterdir()}
    assert ls_entries == serial_entries


def test_runner_lockstep_repeat_batch_all_cache_hits(tmp_path):
    """A second identical batch is served entirely from the cache."""
    runner = ExperimentRunner(
        target_ops=1000, cache_dir=str(tmp_path), jobs=1, run_log="")
    tasks = [("histogram", config_for(arch)) for arch in ("ooo", "ces")]
    runner.run_many(tasks, lockstep=True)
    sims_before = runner.simulations_run
    groups_before = runner.lockstep_groups
    runner.run_many(tasks, lockstep=True)
    assert runner.simulations_run == sims_before
    assert runner.lockstep_groups == groups_before


def test_fuzz_smoke_through_pipeline():
    """Differential oracle over generated programs on the real pipeline.

    A handful of programs on a 3-arch slice suffices here — the
    dedicated fuzz-smoke CI job runs the large campaign; this pins that
    the core's in-flight op bookkeeping keeps the differential oracle
    itself working (replay, arch-state diff, and per-cycle invariant
    checking all read the pipeline's InFlightOp objects).
    Seed 12 is disjoint from the seeds the fuzzer unit tests burn and
    generates short programs (~3k executed ops across the batch), so
    the per-cycle invariant checker stays affordable in tier-1.
    """
    from repro.verify.fuzz import run_fuzz

    report = run_fuzz(programs=3, seed=12,
                      arches=("ooo", "ces", "ballerino"), progress=None)
    assert report.ok, report.full_report()
