"""The ``memory_bound`` and ``ilp_sampled`` workloads: direct ``simulate()``.

Both replay seeded kernel traces through full-detail ``simulate()``
for ``ooo`` and ``ballerino``, one cell after another in one process.
``ilp_sampled`` then runs the same traces through the sampled tier and
scores each sampled result against its full-detail reference.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.config import config_for
from repro.core.pipeline import simulate
from repro.core.sampling import with_sampling
from repro.workloads.kernels import build_trace

from checks import Checker
from layers import (PIPELINE_LAYER, LayerClock, PhaseTimer, SelectTally,
                    run_counting_dead, traced_pipeline)
from support import HostProbe, another_round, median, peak_rss_mb

ARCHES = ("ooo", "ballerino")
#: set-up samples before the first pass: at least this many trace
#: builds, and until this many seconds are spent (plus one per pass)
SETUP_REPS = 5
SETUP_SECONDS = 1.5


@dataclass(frozen=True)
class SimWorkload:
    name: str
    kernels: Tuple[str, ...]
    ops: int
    #: ``with_sampling`` knobs for the sampled pass, or ``None``
    sampling: Optional[Dict[str, int]]
    #: separation guard on each cell's dead-cycle fraction: (min, max)
    dead_frac_range: Tuple[float, float]


MEMORY_BOUND = SimWorkload(
    name="memory_bound",
    kernels=("pointer_chase", "mdep_chain", "gather_stride"),
    ops=3000,
    sampling=None,
    dead_frac_range=(0.7, 1.0),
)

# period >= 10x window so the sampled tier skips most of the trace, and
# ops / period = 5 windows so every cell gets a batch-means CI.
ILP_SAMPLED = SimWorkload(
    name="ilp_sampled",
    kernels=("matmul_tile", "dag_wide", "histogram", "reduce_chain"),
    ops=16000,
    sampling={"period": 3200, "window": 320},
    dead_frac_range=(0.0, 0.4),
)

WORKLOADS = {spec.name: spec for spec in (MEMORY_BOUND, ILP_SAMPLED)}


def cell_key(spec: SimWorkload, kernel: str, config_name: str, seed: int,
             sampled: bool = False) -> str:
    key = f"{spec.name}/{kernel}/{config_name}/ops{spec.ops}/seed{seed}"
    return key + "/sampled" if sampled else key


def build_traces(spec: SimWorkload, seed: int):
    """The workload's inputs, built from ``seed`` (no trace cache)."""
    return {kernel: build_trace(kernel, target_ops=spec.ops, seed=seed)
            for kernel in spec.kernels}


def cells(spec: SimWorkload):
    for kernel in spec.kernels:
        for arch in ARCHES:
            yield kernel, config_for(arch)


def _timed(fn, *args, **kwargs):
    wall0, cpu0 = time.perf_counter(), time.process_time()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - wall0, time.process_time() - cpu0


def _sampled_scores(full, sampled) -> Tuple[float, bool]:
    """``(|IPC error|, CI covers the full IPC)`` of one sampled cell."""
    error = abs(sampled.ipc - full.ipc) / full.ipc
    estimate = sampled.sampling.get("estimates", {}).get("ipc", {})
    half = estimate.get("ci95")
    covered = half is not None and abs(estimate["mean"] - full.ipc) <= half
    return error, covered


def run_untraced(spec: SimWorkload, seed: int, seconds: float,
                 checker: Checker) -> Dict:
    """Repeat passes over every cell until ``seconds`` have elapsed.

    Set-up is sampled first (:data:`SETUP_REPS`, :data:`SETUP_SECONDS`);
    then each pass rebuilds the traces (one more set-up sample) and runs
    every cell once.  Rates use each cell's median time over the passes.
    """
    wall: Dict[str, List[float]] = defaultdict(list)
    cpu: Dict[str, List[float]] = defaultdict(list)
    committed: Dict[str, int] = {}
    setups: List[float] = []
    errors: Dict[str, float] = {}
    covered: Dict[str, bool] = {}
    while len(setups) < SETUP_REPS or sum(setups) < SETUP_SECONDS:
        setups.append(_timed(build_traces, spec, seed)[1])
    probe = HostProbe()
    rounds: List[float] = []
    started = time.perf_counter()
    while another_round(started, rounds, seconds):
        round_started = time.perf_counter()
        traces, setup, _ = _timed(build_traces, spec, seed)
        setups.append(setup)
        fulls = {}
        for kernel, config in cells(spec):
            trace = traces[kernel]
            key = cell_key(spec, kernel, config.name, seed)
            probe.sample()
            result, w, c = _timed(simulate, trace, config)
            fulls[key] = result
            wall[key].append(w)
            cpu[key].append(c)
            committed[key] = result.stats.committed
            checker.check_result(key, result.to_dict(), len(trace),
                                 config.issue_width, full_detail=True)
        if spec.sampling is not None:
            for kernel, config in cells(spec):
                trace = traces[kernel]
                full = fulls[cell_key(spec, kernel, config.name, seed)]
                key = cell_key(spec, kernel, config.name, seed, sampled=True)
                probe.sample()
                result, w, c = _timed(
                    simulate, trace, with_sampling(config, **spec.sampling))
                wall[key].append(w)
                cpu[key].append(c)
                checker.check_result(key, result.to_dict(), len(trace),
                                     config.issue_width, full_detail=False)
                errors[key], covered[key] = _sampled_scores(full, result)
        rounds.append(time.perf_counter() - round_started)

    probe.sample()
    wall_scale, cpu_scale = probe.wall_scale(), probe.cpu_scale()
    full_keys = sorted(committed)
    sampled_keys = sorted(errors)
    full_wall = sum(median(wall[key]) for key in full_keys)
    full_cpu = sum(median(cpu[key]) for key in full_keys)
    full_ops = sum(committed[key] for key in full_keys)
    all_wall = sum(median(times) for times in wall.values())
    raw = {
        "setup_s": median(setups),
        "sim_kops_per_s": full_ops / full_wall / 1e3,
        "sim_kops_per_cpu_s": full_ops / full_cpu / 1e3,
        "cells_per_s": len(wall) / all_wall,
    }
    metrics = {
        "setup_s": (raw["setup_s"] * wall_scale, "s"),
        "sim_kops_per_s": (raw["sim_kops_per_s"] / wall_scale, "kops/s"),
        "sim_kops_per_cpu_s": (raw["sim_kops_per_cpu_s"] / cpu_scale,
                               "kops/cpu_s"),
        "cells_per_s": (raw["cells_per_s"] / wall_scale, "cells/s"),
    }
    if sampled_keys:
        sampled_ops = sum(committed[key[:-len("/sampled")]]
                          for key in sampled_keys)
        sampled_wall = sum(median(wall[key]) for key in sampled_keys)
        raw["sampled_kops_per_s"] = sampled_ops / sampled_wall / 1e3
        metrics["sampled_kops_per_s"] = (
            raw["sampled_kops_per_s"] / wall_scale, "kops/s")
        metrics["sampled_ipc_err"] = (max(errors.values()), "ratio")
        metrics["sampled_ci_coverage"] = (
            sum(covered.values()) / len(covered), "ratio")
    metrics["failed_frac"] = (checker.failed_frac, "ratio")
    metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
    return {
        "metrics": metrics,
        "passes": len(rounds),
        "raw": raw,
        "probe_s": median(probe.wall),
        "sampled": {key: {"ipc_err": errors[key], "ci_covers": covered[key]}
                    for key in sampled_keys},
    }


def run_traced(spec: SimWorkload, seed: int, checker: Checker) -> Dict:
    """One untraced pass, then the same pass with every layer hooked.

    Checks, per cell: traced bytes equal untraced bytes, the layers'
    self times sum to the traced ``step`` time, and the dead-cycle
    fraction lies inside the workload's separation range.
    """
    traces, build_s, _ = _timed(build_traces, spec, seed)

    untraced: Dict[str, str] = {}
    plain_wall = 0.0
    for kernel, config in cells(spec):
        result, w, _ = _timed(simulate, traces[kernel], config)
        plain_wall += w
        untraced[cell_key(spec, kernel, config.name, seed)] = json.dumps(
            result.to_dict(), sort_keys=True)
        if spec.sampling is not None:
            result, w, _ = _timed(simulate, traces[kernel],
                                  with_sampling(config, **spec.sampling))
            plain_wall += w
            untraced[cell_key(spec, kernel, config.name, seed, True)] = \
                json.dumps(result.to_dict(), sort_keys=True)

    clock = LayerClock()
    selects = SelectTally()
    per_cell: Dict[str, Dict] = {}
    sim = defaultdict(int)
    sampling = defaultdict(float)
    traced_wall = 0.0
    step_ns_seen = self_ns_seen = 0
    for kernel, config in cells(spec):
        trace = traces[kernel]
        key = cell_key(spec, kernel, config.name, seed)
        start = time.perf_counter()
        pipe = traced_pipeline(trace, config, clock, selects)
        result, dead, _ = run_counting_dead(pipe)
        traced_wall += time.perf_counter() - start
        data = result.to_dict()
        calls, self_ns, outermost = clock.totals()
        step_ns = outermost - step_ns_seen
        layer_ns = sum(self_ns.values()) - self_ns_seen
        step_ns_seen, self_ns_seen = outermost, sum(self_ns.values())
        dead_frac = dead / result.stats.cycles
        low, high = spec.dead_frac_range
        problems = checker.result_problems(key, data, len(trace),
                                           config.issue_width, True)
        if json.dumps(data, sort_keys=True) != untraced[key]:
            problems.append("traced result differs from untraced")
        if layer_ns != step_ns:
            problems.append(f"layer self times sum to {layer_ns} ns, "
                            f"traced step time is {step_ns} ns")
        if not low <= dead_frac <= high:
            problems.append(f"dead_cycle_frac {dead_frac:.3f} outside "
                            f"[{low}, {high}]")
        checker.operation(problems, key + " (traced)")
        per_cell[key] = {"dead_cycle_frac": dead_frac,
                         "cycles": result.stats.cycles}
        sim["cycles"] += result.stats.cycles
        sim["dead"] += dead
        sim["lookups"] += result.stats.branch_lookups
        sim["mispredicts"] += result.stats.branch_mispredicts
        l1d = result.memory_stats["l1d"]
        sim["l1d_hits"] += l1d["hits"]
        sim["l1d_misses"] += l1d["misses"]
        sim["dram_reads"] += result.memory_stats["dram"]["accesses"]

        if spec.sampling is not None:
            skey = cell_key(spec, kernel, config.name, seed, sampled=True)
            phases = PhaseTimer()
            start = time.perf_counter()
            sampled = simulate(trace, with_sampling(config, **spec.sampling),
                               phase_hook=phases)
            traced_wall += time.perf_counter() - start
            sdata = sampled.to_dict()
            problems = checker.result_problems(skey, sdata, len(trace),
                                               config.issue_width, False)
            if json.dumps(sdata, sort_keys=True) != untraced[skey]:
                problems.append("traced result differs from untraced")
            checker.operation(problems, skey + " (traced)")
            info = sampled.sampling
            sampling["ff_s"] += phases.seconds["ff"]
            sampling["detail_s"] += (phases.seconds["warmup"]
                                     + phases.seconds["measure"])
            sampling["windows"] += info["windows"]
            sampling["detail_ops"] += info["measured_ops"] + info["warmup_ops"]
            sampling["trace_ops"] += len(trace)
            sampling["ff_ops"] += info["ff_ops"]
            sampling["ff_warmed_ops"] += info["ff_warmed_ops"]

    calls, self_ns, _ = clock.totals()
    layers = _layer_metrics(calls, self_ns, selects, sim)
    layers["workloads.trace_build_s"] = build_s
    if spec.sampling is not None:
        layers.update({
            "core.sampling.ff_s": sampling["ff_s"],
            "core.sampling.detail_s": sampling["detail_s"],
            "core.sampling.windows": sampling["windows"],
            "core.sampling.detail_frac":
                sampling["detail_ops"] / sampling["trace_ops"],
            "core.sampling.ff_warmed_frac":
                (sampling["ff_warmed_ops"] / sampling["ff_ops"]
                 if sampling["ff_ops"] else 0.0),
        })
    layers["bench.trace_overhead"] = traced_wall / plain_wall
    return {"layers": layers, "cells": per_cell}


def _layer_metrics(calls: Dict[str, int], self_ns: Dict[str, int],
                   selects: SelectTally, sim: Dict[str, int]) -> Dict:
    def secs(layer: str) -> float:
        return self_ns.get(layer, 0) / 1e9

    pipeline_ns = self_ns.get(PIPELINE_LAYER, 0)
    l1d_accesses = sim["l1d_hits"] + sim["l1d_misses"]
    out = {
        "core.pipeline.cycles": sim["cycles"],
        "core.pipeline.self_s": pipeline_ns / 1e9,
        "core.pipeline.ns_per_cycle": pipeline_ns / sim["cycles"],
        "core.pipeline.dead_cycle_frac": sim["dead"] / sim["cycles"],
        "sched.select.calls": calls.get("sched.select", 0),
        "sched.select.self_s": secs("sched.select"),
        "sched.select.empty_frac": selects.empty / selects.calls,
        "sched.insert.self_s": secs("sched.insert"),
        "sched.notify.self_s": secs("sched.notify"),
    }
    for layer in ("core.wakeup", "core.ports", "rename", "lsq", "memory",
                  "frontend"):
        out[f"{layer}.calls"] = calls.get(layer, 0)
        out[f"{layer}.self_s"] = secs(layer)
    out["lsq.mdp.self_s"] = secs("lsq.mdp")
    out["memory.l1d_miss_rate"] = (sim["l1d_misses"] / l1d_accesses
                                   if l1d_accesses else 0.0)
    out["memory.dram_reads"] = sim["dram_reads"]
    out["frontend.mispredict_rate"] = (sim["mispredicts"] / sim["lookups"]
                                       if sim["lookups"] else 0.0)
    return out
