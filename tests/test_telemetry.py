"""Tests for the telemetry subsystem: tracer, attribution, exporters."""

import json

import pytest

from repro import build_trace, config_for
from repro.analysis.runner import ExperimentRunner
from repro.core.pipeline import Pipeline, simulate
from repro.telemetry import (
    CATEGORIES,
    LIFECYCLE_RANK,
    StallAttribution,
    Tracer,
    read_chrome_trace,
    write_chrome_trace,
    write_konata,
)
from repro.workloads.suite import SUITE_NAMES


def traced_run(workload, arch, ops=1200):
    trace = build_trace(workload, target_ops=ops)
    tracer, attribution = Tracer(), StallAttribution()
    result = simulate(trace, config_for(arch),
                      observers=[tracer, attribution])
    return result, tracer, attribution


class TestEventOrdering:
    @pytest.fixture(scope="class")
    def traced(self):
        return traced_run("dotprod", "ballerino")

    def test_every_committed_uop_walks_the_lifecycle_in_order(self, traced):
        result, tracer, _ = traced
        assert len(tracer.ops) == result.stats.committed
        for seq in tracer.seqs():
            final = tracer.attempts_for(seq)[-1]
            stages = [e for e in final if e.stage in LIFECYCLE_RANK]
            names = [e.stage for e in stages]
            # every committed attempt visits the full lifecycle, in order
            assert names[0] == "fetch" and names[-1] == "commit"
            ranks = [LIFECYCLE_RANK[n] for n in names]
            assert ranks == sorted(ranks), f"seq {seq}: {names}"
            cycles = [e.cycle for e in stages]
            assert cycles == sorted(cycles), f"seq {seq} not time-ordered"

    def test_wakeup_events_carry_the_destination_register(self, traced):
        _, tracer, _ = traced
        wakeups = [e for e in tracer.events if e.stage == "wakeup"]
        assert wakeups and all(e.cause.startswith("p") for e in wakeups)

    def test_steering_events_present_for_ballerino(self, traced):
        _, tracer, _ = traced
        steers = [e for e in tracer.events if e.stage == "steer"]
        assert steers  # non-ready ops must have been steered to P-IQs
        assert all("->" in e.cause for e in steers)

    def test_squashed_attempts_are_refetched(self):
        # histogram aliases stores and loads, forcing order violations
        result, tracer, _ = traced_run("histogram", "ooo", ops=2000)
        if result.stats.order_violations == 0:
            pytest.skip("no violation in this trace")
        squashed = [e.seq for e in tracer.events if e.stage == "squash"]
        assert squashed
        seq = squashed[0]
        assert len(tracer.attempts_for(seq)) >= 2


class TestStallAttribution:
    @pytest.mark.parametrize("arch", ["ooo", "ballerino", "inorder"])
    @pytest.mark.parametrize("workload", SUITE_NAMES)
    def test_categories_sum_to_total_cycles(self, arch, workload):
        trace = build_trace(workload, target_ops=600)
        attribution = StallAttribution()
        result = simulate(trace, config_for(arch), observers=[attribution])
        stalls = result.stats.stall_cycles
        assert set(stalls) == set(CATEGORIES)
        assert sum(stalls.values()) == result.cycles
        assert all(v >= 0 for v in stalls.values())

    def test_commit_cycles_bounded_by_committed_ops(self):
        result, _, _ = traced_run("dotprod", "ooo")
        assert 0 < result.stats.stall_cycles["commit"] <= result.stats.committed

    def test_memory_dominates_a_pointer_chase(self):
        result, _, _ = traced_run("pointer_chase", "ooo")
        stalls = result.stats.stall_cycles
        assert stalls["memory"] == max(stalls.values())

    def test_occupancy_averages_within_capacity(self):
        result, _, attribution = traced_run("stream_triad", "ooo")
        occupancy = result.stats.occupancy
        config = config_for("ooo")
        assert 0 < occupancy["rob"] <= config.rob_size
        assert 0 <= occupancy["lq"] <= config.lq_size
        assert attribution.samples == result.cycles


class TestDisabledTracer:
    def test_disabled_run_is_bit_identical_and_records_nothing(self):
        trace = build_trace("histogram", target_ops=1500)
        config = config_for("ballerino")
        plain = Pipeline(trace, config).run()
        traced = simulate(trace, config,
                          observers=[Tracer(), StallAttribution()])
        assert plain.cycles == traced.cycles
        assert plain.stats.committed == traced.stats.committed
        assert plain.stats.energy_events == traced.stats.energy_events
        # without telemetry the result carries no attribution payload
        assert plain.stats.stall_cycles == {}
        assert plain.stats.occupancy == {}

    def test_pipeline_defaults_to_no_tracer(self):
        trace = build_trace("dotprod", target_ops=300)
        pipe = Pipeline(trace, config_for("ooo"))
        assert pipe.observe is None and pipe.attribution is None
        assert pipe.lsu.observe is None
        assert pipe.scheduler.observe is None


class TestExporters:
    @pytest.fixture(scope="class")
    def tiny(self):
        return traced_run("dotprod", "ooo", ops=300)

    def test_chrome_trace_round_trips(self, tiny, tmp_path):
        result, tracer, _ = tiny
        path = tmp_path / "trace.json"
        write_chrome_trace(tracer, str(path), label="tiny",
                           metadata={"workload": "dotprod"})
        document = read_chrome_trace(str(path))
        events = document["traceEvents"]
        assert document["otherData"]["workload"] == "dotprod"
        slices = [e for e in events if e.get("ph") == "X"]
        # every committed µop contributes its full lifecycle of slices
        seqs = {e["args"]["seq"] for e in slices}
        assert seqs == set(tracer.seqs())
        commits = [e for e in slices if e["name"] == "commit"]
        assert len(commits) == result.stats.committed
        for entry in slices:
            assert entry["dur"] >= 1 and entry["ts"] >= 0

    def test_chrome_lanes_never_overlap(self, tiny, tmp_path):
        _, tracer, _ = tiny
        path = tmp_path / "trace.json"
        write_chrome_trace(tracer, str(path))
        events = read_chrome_trace(str(path))["traceEvents"]
        spans = {}
        for entry in events:
            if entry.get("ph") != "X":
                continue
            spans.setdefault((entry["tid"], entry["args"]["seq"]), []).append(
                (entry["ts"], entry["ts"] + entry["dur"])
            )
        by_lane = {}
        for (lane, seq), stage_spans in spans.items():
            start = min(s for s, _ in stage_spans)
            end = max(e for _, e in stage_spans)
            by_lane.setdefault(lane, []).append((start, end))
        for lane, intervals in by_lane.items():
            intervals.sort()
            for (_, prev_end), (next_start, _) in zip(intervals, intervals[1:]):
                assert next_start >= prev_end, f"lane {lane} overlaps"

    def test_read_rejects_non_trace_json(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text(json.dumps({"hello": 1}))
        with pytest.raises(ValueError):
            read_chrome_trace(str(path))

    def test_konata_log_structure(self, tiny, tmp_path):
        result, tracer, _ = tiny
        path = tmp_path / "trace.kanata"
        write_konata(tracer, str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == "Kanata\t0004"
        assert lines[1].startswith("C=\t")
        retires = [l for l in lines if l.startswith("R\t")]
        flushed = [l for l in retires if l.endswith("\t1")]
        assert len(retires) - len(flushed) == result.stats.committed
        declared = {l.split("\t")[1] for l in lines if l.startswith("I\t")}
        staged = {l.split("\t")[1] for l in lines if l.startswith("S\t")}
        assert staged <= declared


class TestCacheSchemaVersion:
    def test_key_changes_with_schema_version(self, tmp_path, monkeypatch):
        runner = ExperimentRunner(target_ops=500, cache_dir=str(tmp_path))
        config = config_for("ooo")
        key_before = runner._key("dotprod", config, seed=7)
        import repro.analysis.runner as runner_mod

        monkeypatch.setattr(runner_mod, "RESULT_SCHEMA_VERSION", 999)
        key_after = runner._key("dotprod", config, seed=7)
        assert key_before != key_after

    def test_disk_cache_round_trips_stall_cycles(self, tmp_path):
        # a result with telemetry fields survives the disk cache intact
        trace = build_trace("dotprod", target_ops=400)
        attribution = StallAttribution()
        result = simulate(trace, config_for("ooo"), observers=[attribution])
        from repro.core.stats import SimResult

        restored = SimResult.from_dict(
            json.loads(json.dumps(result.to_dict()))
        )
        assert restored.stats.stall_cycles == result.stats.stall_cycles
        assert restored.stats.occupancy == result.stats.occupancy
