"""One cell lifecycle across every ExperimentRunner execution path.

``run_many`` settles a cell on one of several paths: the serial per-cell
run, the lock-step tier (cells sharing a workload and seed), the process
pool (``jobs > 1``), a cache hit, or quarantine after its retries are
spent.  These tests pin what each path leaves behind — the span tree
(names, parentage, ``cell`` span ids and attribute keys) and each cell's
ordered run-log lifecycle — so the paths cannot drift apart silently.
"""

import collections

import pytest

import repro.analysis.runner as runner_mod
from repro.analysis.runner import ExperimentRunner
from repro.core.config import config_for
from repro.core.sampling import with_sampling
from repro.telemetry import read_run_log, validate_event
from repro.telemetry.spans import SpanRecorder, derive_span_id
from repro.workloads.suite import get_trace

OPS = 1200
CELL_ATTRS = {"workload", "config", "seed"}


@pytest.fixture(autouse=True)
def trace_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path / "traces"))
    get_trace.cache_clear()
    yield
    get_trace.cache_clear()


def _runner(tmp_path, **kw):
    return ExperimentRunner(
        target_ops=OPS, cache_dir=str(tmp_path / "cache"),
        run_log=str(tmp_path / "run.jsonl"), spans=SpanRecorder(), **kw)


def _edges(runner):
    """Multiset of (span name, parent span name) over the whole trace."""
    by_id = {span.span_id: span for span in runner.spans.spans}
    edges = collections.Counter()
    for span in runner.spans.spans:
        parent = None
        if span.parent_id is not None:
            parent = by_id[span.parent_id].name  # no orphans
        edges[(span.name, parent)] += 1
    return edges


def _cells(runner):
    return [span for span in runner.spans.spans if span.name == "cell"]


def _lifecycle(runner):
    """key -> ordered (event, attempt) run-log sequence, times dropped."""
    records = read_run_log(str(runner.run_log.path))
    for record in records:
        validate_event(record)
    sequences = collections.defaultdict(list)
    for record in records:
        if "key" in record:
            attempt = record.get("attempt", record.get("attempts"))
            sequences[record["key"]].append((record["event"], attempt))
    return dict(sequences)


def _keys(runner, tasks):
    return [runner.key_for(task[0], task[1]) for task in tasks]


def _assert_cell_ids(runner, tasks):
    """Every cell span carries the id derived from its cache key."""
    keys = set(_keys(runner, tasks))
    for cell in _cells(runner):
        assert any(cell.span_id == derive_span_id(cell.trace_id, "cell", key)
                   for key in keys)


def _sim_names(runner):
    return {span.name for span in runner.spans.spans
            if span.name.startswith("sim.")}


class TestTelemetryShape:
    def test_serial_full_config(self, tmp_path):
        runner = _runner(tmp_path)
        tasks = [("dotprod", config_for("ooo"))]
        assert runner.run_many(tasks, jobs=1)[0].ok
        assert _edges(runner) == {
            ("campaign", None): 1, ("cache_probe", "campaign"): 1,
            ("cell", "campaign"): 1, ("trace_decode", "cell"): 1,
            ("simulate", "cell"): 1,
        }
        (cell,) = _cells(runner)
        assert set(cell.attrs) == CELL_ATTRS | {"attempts"}
        assert cell.attrs["attempts"] == 1 and cell.status == "ok"
        _assert_cell_ids(runner, tasks)
        (key,) = _keys(runner, tasks)
        assert _lifecycle(runner) == {key: [("start", 0), ("finish", 0)]}

    def test_serial_sampled_config(self, tmp_path):
        runner = _runner(tmp_path)
        config = with_sampling(config_for("ooo"), period=300, window=100,
                               warmup=50)
        tasks = [("dotprod", config)]
        result = runner.run_many(tasks, jobs=1)[0]
        assert result.ok and result.sampled
        edges = _edges(runner)
        assert _sim_names(runner) == {"sim.ff", "sim.warmup", "sim.measure"}
        for name in _sim_names(runner):
            assert edges.pop((name, "cell")) >= 1
        assert edges == {
            ("campaign", None): 1, ("cache_probe", "campaign"): 1,
            ("cell", "campaign"): 1, ("trace_decode", "cell"): 1,
            ("simulate", "cell"): 1,
        }
        (cell,) = _cells(runner)
        assert set(cell.attrs) == CELL_ATTRS | {"attempts"}
        (key,) = _keys(runner, tasks)
        assert _lifecycle(runner) == {key: [("start", 0), ("finish", 0)]}

    def test_lockstep_group(self, tmp_path):
        runner = _runner(tmp_path)
        tasks = [("dotprod", config_for(arch))
                 for arch in ("ooo", "inorder", "ballerino")]
        assert all(r.ok for r in runner.run_many(tasks, jobs=1))
        assert runner.lockstep_groups == 1
        assert _edges(runner) == {
            ("campaign", None): 1, ("cache_probe", "campaign"): 1,
            ("cell", "campaign"): 3, ("lockstep_group", "campaign"): 1,
        }
        for cell in _cells(runner):
            assert set(cell.attrs) == CELL_ATTRS | {"lockstep"}
        (group,) = [s for s in runner.spans.spans
                    if s.name == "lockstep_group"]
        assert group.attrs == {"workload": "dotprod", "seed": runner.seed,
                               "cells": 3, "completed": 3}
        _assert_cell_ids(runner, tasks)
        assert _lifecycle(runner) == {
            key: [("start", 0), ("finish", 0)] for key in _keys(runner, tasks)}
        lockstep = read_run_log(str(runner.run_log.path), event="lockstep")
        assert [(r["cells"], r["completed"]) for r in lockstep] == [(3, 3)]

    def test_pool_batch(self, tmp_path):
        runner = _runner(tmp_path)
        tasks = [(w, config_for("ooo")) for w in ("dotprod", "histogram")]
        assert all(r.ok for r in runner.run_many(tasks, jobs=2))
        assert _edges(runner) == {
            ("campaign", None): 1, ("cache_probe", "campaign"): 1,
            ("cell", "campaign"): 2,
        }
        for cell in _cells(runner):
            assert set(cell.attrs) == CELL_ATTRS | {"worker"}
        _assert_cell_ids(runner, tasks)
        assert _lifecycle(runner) == {
            key: [("submit", 0), ("finish", 0)]
            for key in _keys(runner, tasks)}

    def test_cache_hit(self, tmp_path):
        tasks = [("dotprod", config_for("ooo"))]
        ExperimentRunner(target_ops=OPS, cache_dir=str(tmp_path / "cache"),
                         run_log="").run_many(tasks, jobs=1)
        runner = _runner(tmp_path)
        assert runner.run_many(tasks, jobs=1)[0].ok
        assert _edges(runner) == {
            ("campaign", None): 1, ("cache_probe", "campaign"): 1,
            ("cell", "campaign"): 1,
        }
        (cell,) = _cells(runner)
        assert set(cell.attrs) == CELL_ATTRS | {"cached"}
        _assert_cell_ids(runner, tasks)
        (key,) = _keys(runner, tasks)
        assert _lifecycle(runner) == {key: [("cache_hit", None)]}

    def test_quarantined_cell(self, tmp_path, monkeypatch):
        def explode(trace, config, **kw):
            raise RuntimeError("injected failure")

        monkeypatch.setattr(runner_mod, "simulate", explode)
        runner = _runner(tmp_path, retries=1)
        tasks = [("dotprod", config_for("ooo"))]
        (failed,) = runner.run_many(tasks, jobs=1)
        assert not failed.ok and failed.attempts == 2
        assert _edges(runner) == {
            ("campaign", None): 1, ("cache_probe", "campaign"): 1,
            ("cell", "campaign"): 1, ("trace_decode", "cell"): 2,
            ("simulate", "cell"): 2,
        }
        (cell,) = _cells(runner)
        assert set(cell.attrs) == CELL_ATTRS | {"kind", "attempts"}
        assert cell.status == "error" and cell.attrs["attempts"] == 2
        assert {s.status for s in runner.spans.spans
                if s.name == "simulate"} == {"error"}
        _assert_cell_ids(runner, tasks)
        (key,) = _keys(runner, tasks)
        assert _lifecycle(runner) == {key: [
            ("start", 0), ("retry", 1), ("start", 1), ("quarantine", 2)]}


class TestRetryBudget:
    """The lock-step attempt counts against the same retry budget."""

    def _probe(self, tmp_path, monkeypatch, lockstep, group_failure):
        runs = collections.Counter()

        def explode(trace, config, **kw):
            runs[config.name] += 1
            raise RuntimeError("injected failure")

        def explode_group(trace, configs, **kw):
            runs.update(config.name for config in configs)
            if group_failure:
                raise RuntimeError("injected group failure")
            return [RuntimeError("injected slot failure") for _ in configs]

        monkeypatch.setattr(runner_mod, "simulate", explode)
        monkeypatch.setattr(runner_mod, "run_lockstep", explode_group)
        runner = ExperimentRunner(
            target_ops=OPS, cache_dir=str(tmp_path / f"cache-{lockstep}"),
            run_log=str(tmp_path / f"run-{lockstep}.jsonl"), retries=2)
        tasks = [("histogram", config_for(arch)) for arch in ("ooo", "ces")]
        results = runner.run_many(tasks, jobs=1, lockstep=lockstep)
        starts = {key: [attempt for event, attempt in events
                        if event == "start"]
                  for key, events in _lifecycle(runner).items()}
        return runs, results, runner.retries_performed, starts

    @pytest.mark.parametrize("group_failure", [False, True],
                             ids=["slot", "group"])
    def test_both_tiers_spend_the_same_budget(self, tmp_path, monkeypatch,
                                              group_failure):
        outcomes = {lockstep: self._probe(tmp_path, monkeypatch, lockstep,
                                          group_failure)
                    for lockstep in (True, False)}
        for lockstep, (runs, results, _, starts) in outcomes.items():
            assert sorted(runs.values()) == [3, 3], lockstep
            assert [r.attempts for r in results] == [3, 3], lockstep
            assert list(starts.values()) == [[0, 1, 2]] * 2, lockstep
        assert outcomes[True][2] == outcomes[False][2] == 4
