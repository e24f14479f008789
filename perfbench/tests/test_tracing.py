"""Traced runs change nothing and account for every traced nanosecond."""

import json
from dataclasses import replace

import pytest

from repro.core.config import config_for
from repro.core.pipeline import simulate
from repro.workloads.kernels import build_trace

import servework
import simwork
import support
from checks import Checker
from layers import (PIPELINE_LAYER, LayerClock, SelectTally,
                    run_counting_dead, traced_pipeline)

HOT_LAYERS = ("core.pipeline", "sched.select", "sched.insert",
              "sched.notify", "rename", "lsq", "core.wakeup",
              "core.ports", "memory", "frontend")


@pytest.mark.parametrize("kernel,arch", [("mdep_chain", "ballerino"),
                                         ("matmul_tile", "ooo")])
def test_traced_result_is_byte_identical_and_fully_accounted(kernel, arch):
    trace = build_trace(kernel, target_ops=600, seed=2)
    config = config_for(arch)
    plain = json.dumps(simulate(trace, config).to_dict(), sort_keys=True)

    clock = LayerClock()
    selects = SelectTally()
    result, dead, steps = run_counting_dead(
        traced_pipeline(trace, config, clock, selects))
    assert json.dumps(result.to_dict(), sort_keys=True) == plain

    calls, self_ns, outermost = clock.totals()
    assert calls[PIPELINE_LAYER] == steps == selects.calls
    assert sum(self_ns.values()) == outermost
    assert all(calls.get(layer, 0) > 0 for layer in HOT_LAYERS)
    assert 0 < dead < result.stats.cycles


def _tiny(spec, **changes):
    return replace(spec, ops=800, **changes)


def test_run_traced_checks_pass_on_a_tiny_workload():
    spec = _tiny(simwork.ILP_SAMPLED, kernels=("matmul_tile",),
                 sampling={"period": 400, "window": 40},
                 dead_frac_range=(0.0, 1.0))
    checker = Checker(None)
    outcome = simwork.run_traced(spec, seed=2, checker=checker)
    assert checker.failures == []
    assert checker.attempted == 4  # two full + two sampled cells
    layers = outcome["layers"]
    assert layers["core.sampling.windows"] >= 4
    assert layers["bench.trace_overhead"] > 0
    assert layers["core.pipeline.self_s"] > 0


def test_perturbed_traced_result_is_a_failure(monkeypatch):
    def perturbed(pipe):
        result, dead, steps = run_counting_dead(pipe)
        result.stats.energy_events["fetch"] += 1
        return result, dead, steps

    monkeypatch.setattr(simwork, "run_counting_dead", perturbed)
    spec = _tiny(simwork.MEMORY_BOUND, kernels=("gather_stride",),
                 dead_frac_range=(0.0, 1.0))
    checker = Checker(None)
    simwork.run_traced(spec, seed=2, checker=checker)
    assert checker.failed == 2
    assert all("differs from untraced" in f for f in checker.failures)


def test_separation_guard_fails_outside_the_dead_cycle_range():
    spec = _tiny(simwork.MEMORY_BOUND, kernels=("matmul_tile",))
    checker = Checker(None)
    outcome = simwork.run_traced(spec, seed=2, checker=checker)
    assert checker.failed == 2
    assert all("dead_cycle_frac" in f for f in checker.failures)
    assert all(cell["dead_cycle_frac"] < 0.7
               for cell in outcome["cells"].values())


def test_traced_serve_session_matches_untraced(tmp_path, monkeypatch):
    plan = servework.plan_jobs(2)
    batches = [job for job in plan if job.kind == "batch"][:2]
    interactive = [job for job in plan if job.kind == "interactive"][:1]
    interactive[0].cells = batches[0].cells + batches[1].cells[:2]
    monkeypatch.setattr(servework, "SERVE_OPS", 200)
    monkeypatch.setattr(servework, "plan_jobs",
                        lambda seed: batches + interactive)
    checker = Checker(None)
    with support.Scratch(parent=tmp_path / "scratch") as scratch:
        layers = servework.run_traced(2, checker, scratch)["layers"]
    assert checker.failures == []
    assert checker.attempted == 2 * 3 + 1
    assert layers["analysis.runner.lockstep_groups"] == 4
    assert layers["analysis.runner.cache_hit_frac"] == pytest.approx(6 / 14)
    assert layers["serve.client.requests"] > 3
    assert layers["analysis.runner.simulate_s"] > 0
    assert layers["workloads.trace_build_s"] > 0
