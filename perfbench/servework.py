"""The ``serve_mixed`` workload: an in-process daemon, one closed-loop client.

Each session starts a fresh :class:`ServeDaemon` (fresh queue dir,
result cache and trace cache) with at most ``nproc`` workers, and one
:class:`ServeClient` makes the calls ``repro submit`` makes
(``submit`` -> ``wait`` -> ``stream_results``, default poll intervals)
for a seeded job sequence mixing three kinds of job:

* batch sweeps: one kernel x four arches of short cold cells, two
  configs per shard, so the lock-step tier groups each shard;
* interactive jobs: five cells served earlier in the session (cache
  hits) plus one cold cell;
* two sampled jobs.

Sessions repeat until the run's seconds are spent.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import repro.analysis.runner as runner_module
from repro.analysis.runner import ExperimentRunner
from repro.core.config import config_for
from repro.serve.client import ServeClient, ServeError
from repro.serve.daemon import ServeDaemon
from repro.serve.protocol import PROTOCOL_VERSION
from repro.workloads.suite import SUITE_NAMES, get_trace

from checks import Checker
from layers import LayerClock
from support import (HostProbe, Scratch, another_round, median,
                     peak_rss_mb, tail_percentile)

NAME = "serve_mixed"
#: µops per trace of every served cell: short cells, so one session
#: holds dozens of jobs.
SERVE_OPS = 600
WORKERS = max(1, min(2, os.cpu_count() or 1))
#: two configs per shard: each batch sweep becomes two lock-step groups
#: that the two workers take concurrently.
SHARD_SIZE = 2
BATCH_ARCHES = ("ooo", "ballerino", "ces", "casino")
#: arches of the one cold cell in each interactive job
EXTRA_ARCHES = ("inorder", "ooo_oldest", "fxa", "spq")
#: sampled jobs: period 10x window, two windows per 600-op trace
SAMPLING = {"period": 300, "window": 30}
SAMPLED_ARCHES = ("ooo", "ballerino")
#: sampled jobs follow these batch sweeps
SAMPLED_AFTER = (3, 8)
#: daemon start/stop cycles timed before the first session
SETUP_REPS = 10
#: host-speed probes before each session and after the last
PROBES_PER_SESSION = 5


@dataclass
class Job:
    kind: str
    priority: str
    cells: List[Dict]
    matrix: Optional[Dict] = None
    sampling: Optional[Dict[str, int]] = None


@dataclass
class JobRecord:
    job: Job
    latency_s: float = 0.0
    status: Dict = field(default_factory=dict)
    seen_t: float = 0.0
    entries: List[Dict] = field(default_factory=list)
    error: Optional[str] = None


def _cell(workload: str, arch: str, seed: int) -> Dict:
    return {"workload": workload, "arch": arch, "width": 8, "seed": seed}


def plan_jobs(seed: int) -> List[Job]:
    """The session's job sequence; the same seed gives the same jobs.

    Every suite kernel gets one batch sweep, so each session simulates
    the same kernel mix whatever the seed; the seed picks the order,
    which earlier cells the interactive jobs revisit, and the data
    seed of every trace.
    """
    rng = random.Random(f"{NAME}:{seed}")
    kernels = list(SUITE_NAMES)
    rng.shuffle(kernels)
    served: List[Dict] = []
    seen = set()
    extra = itertools.cycle(EXTRA_ARCHES)
    jobs: List[Job] = []
    for index, kernel in enumerate(kernels):
        cells = [_cell(kernel, arch, seed) for arch in BATCH_ARCHES]
        jobs.append(Job("batch", "batch", cells, matrix={
            "workloads": [kernel], "arches": list(BATCH_ARCHES),
            "seeds": [seed]}))
        served.extend(cells)
        seen.update((kernel, arch) for arch in BATCH_ARCHES)
        if index in SAMPLED_AFTER:
            jobs.append(Job(
                "sampled", "batch",
                [_cell(kernel, arch, seed) for arch in SAMPLED_ARCHES],
                matrix={"workloads": [kernel],
                        "arches": list(SAMPLED_ARCHES), "seeds": [seed]},
                sampling=dict(SAMPLING)))
        if index == 0:
            continue
        hits = rng.sample(served, 5)
        workload = rng.choice(hits)["workload"]
        arch = next(extra)
        while (workload, arch) in seen:
            workload = rng.choice(served)["workload"]
            arch = next(extra)
        seen.add((workload, arch))
        cold = _cell(workload, arch, seed)
        cells = hits + [cold]
        rng.shuffle(cells)
        jobs.append(Job("interactive", "interactive", cells))
        served.append(cold)
    return jobs


def cell_key(cell: Dict, sampled: bool) -> str:
    config = config_for(cell["arch"], width=cell["width"])
    key = (f"{NAME}/{cell['workload']}/{config.name}/ops{SERVE_OPS}"
           f"/seed{cell['seed']}")
    return key + "/sampled" if sampled else key


# ----------------------------------------------------------------------
# one session
# ----------------------------------------------------------------------
class Session:
    """A fresh daemon + client pair; ``start`` is the timed set-up."""

    def __init__(self, scratch: Scratch, seed: int,
                 clock: Optional[LayerClock] = None):
        self.scratch = scratch
        self.seed = seed
        self.clock = clock
        self.runners: List[ExperimentRunner] = []
        self.daemon: Optional[ServeDaemon] = None
        self.client: Optional[ServeClient] = None

    def start(self) -> None:
        os.environ["REPRO_TRACE_CACHE"] = str(self.scratch.fresh("traces"))
        get_trace.cache_clear()
        kwargs = dict(target_ops=SERVE_OPS, seed=self.seed,
                      cache_dir=str(self.scratch.fresh("cache")), jobs=1,
                      run_log="", spans="")
        queue_dir = str(self.scratch.fresh("queue"))
        if self.clock is None:
            self.daemon = ServeDaemon(queue_dir, port=0, workers=WORKERS,
                                      shard_size=SHARD_SIZE,
                                      runner_kwargs=kwargs)
        else:
            self.daemon = ServeDaemon(queue_dir, port=0, workers=WORKERS,
                                      shard_size=SHARD_SIZE,
                                      runner_factory=self._traced_runner(
                                          kwargs))
            journal = self.daemon.queue._journal
            self.clock.hook(journal, "serve.queue.journal", ("log",))
        self.daemon.start()
        self.client = ServeClient(self.daemon.url)
        if self.clock is not None:
            self.clock.hook(self.client, "serve.client", ("_request",))
        self.client.health()

    def _traced_runner(self, kwargs: Dict):
        def factory() -> ExperimentRunner:
            # what the daemon's default factory builds, plus the hook
            runner = ExperimentRunner(metrics=self.daemon.metrics, **kwargs)
            self.clock.hook(runner, "analysis.runner.run_many",
                            ("run_many",))
            self.runners.append(runner)
            return runner

        return factory

    def stop(self) -> None:
        if self.daemon is not None:
            self.daemon.stop()

    def run_job(self, job: Job) -> JobRecord:
        """``repro submit``'s calls for one job, timed end to end."""
        client = self.client
        record = JobRecord(job=job)
        started = time.perf_counter()
        try:
            if job.sampling is not None:
                # ServeClient.submit has no sampling argument; this is the
                # same POST /jobs with the protocol's "sampling" object
                status = client._request("POST", "/jobs", {
                    "version": PROTOCOL_VERSION, "priority": job.priority,
                    "tenant": "default", "matrix": job.matrix,
                    "sampling": job.sampling})
            elif job.matrix is not None:
                status = client.submit(matrix=job.matrix,
                                       priority=job.priority)
            else:
                status = client.submit(cells=job.cells, priority=job.priority)
            record.status = client.wait(status["job_id"])
            record.seen_t = time.time()
            record.entries = client.stream_results(status["job_id"])
        except (ServeError, TimeoutError, OSError) as exc:
            record.error = f"{type(exc).__name__}: {exc}"
        record.latency_s = time.perf_counter() - started
        return record


def _job_problems(record: JobRecord, checker: Checker) -> List[str]:
    if record.error is not None:
        return [record.error]
    problems = []
    status = record.status
    if status.get("status") != "done" or status.get("failed_cells"):
        problems.append(f"job ended {status.get('status')} with "
                        f"{status.get('failed_cells')} failed cells")
    job = record.job
    if len(record.entries) != len(job.cells):
        problems.append(f"{len(record.entries)} results for "
                        f"{len(job.cells)} cells")
    sampled = job.sampling is not None
    for seq, (cell, entry) in enumerate(zip(job.cells, record.entries)):
        if entry.get("seq") != seq or entry.get("cell") != cell:
            problems.append(f"result {seq} out of order: {entry.get('cell')}")
            continue
        if not entry.get("ok"):
            problems.append(f"cell {seq} failed: {entry.get('result')}")
            continue
        trace_len = len(get_trace(cell["workload"], SERVE_OPS, cell["seed"]))
        width = config_for(cell["arch"], width=cell["width"]).issue_width
        problems.extend(checker.result_problems(
            cell_key(cell, sampled), entry["result"], trace_len, width,
            full_detail=not sampled))
    return problems


def run_session(session: Session, jobs: List[Job],
                checker: Checker) -> Dict:
    """Run every job in order; check them after the last one."""
    wall0, cpu0 = time.perf_counter(), time.process_time()
    records = [session.run_job(job) for job in jobs]
    wall = time.perf_counter() - wall0
    cpu = time.process_time() - cpu0
    cold_ops = 0
    seen = set()
    for record in records:
        checker.operation(_job_problems(record, checker),
                          f"{record.job.kind} job")
        if record.job.sampling is not None or record.error is not None:
            continue
        for cell, entry in zip(record.job.cells, record.entries):
            key = cell_key(cell, False)
            if key not in seen and entry.get("ok"):
                seen.add(key)
                cold_ops += entry["result"]["stats"]["committed"]
    return {
        "records": records,
        "wall_s": wall,
        "cpu_s": cpu,
        "cells": sum(len(record.entries) for record in records),
        "cold_ops": cold_ops,
    }


def _timed_start(session: Session) -> float:
    started = time.perf_counter()
    session.start()
    return time.perf_counter() - started


# ----------------------------------------------------------------------
# workload entry points
# ----------------------------------------------------------------------
def run_untraced(seed: int, seconds: float, checker: Checker,
                 scratch: Scratch) -> Dict:
    """Repeat sessions until ``seconds`` are spent.

    Host-speed correction (see :class:`HostProbe`): a session's CPU
    seconds scale to nominal speed, its idle seconds (mostly the 0.2 s
    polls) stay as measured.
    """
    jobs = plan_jobs(seed)
    probe = HostProbe()
    setups = []
    for _ in range(SETUP_REPS):
        session = Session(scratch, seed)
        try:
            setups.append(_timed_start(session))
        finally:
            session.stop()
    sessions = []
    started = time.perf_counter()
    while another_round(started, [s["wall_s"] for s in sessions], seconds):
        for _ in range(PROBES_PER_SESSION):
            probe.sample()
        session = Session(scratch, seed)
        try:
            setups.append(_timed_start(session))
            sessions.append(run_session(session, jobs, checker))
        finally:
            session.stop()
    for _ in range(PROBES_PER_SESSION):
        probe.sample()

    wall_scale, cpu_scale = probe.wall_scale(), probe.cpu_scale()
    for s in sessions:
        busy = min(s["cpu_s"], s["wall_s"])
        s["nominal_wall_s"] = s["wall_s"] - busy + busy * cpu_scale
    raw = {
        "setup_s": median(setups),
        "sim_kops_per_s": median([s["cold_ops"] / s["wall_s"] / 1e3
                                  for s in sessions]),
        "sim_kops_per_cpu_s": median([s["cold_ops"] / s["cpu_s"] / 1e3
                                      for s in sessions]),
        "cells_per_s": median([s["cells"] / s["wall_s"] for s in sessions]),
    }
    latencies = [record.latency_s for s in sessions for record in s["records"]]
    metrics = {
        "setup_s": (raw["setup_s"] * wall_scale, "s"),
        "sim_kops_per_s": (median([s["cold_ops"] / s["nominal_wall_s"] / 1e3
                                   for s in sessions]), "kops/s"),
        "sim_kops_per_cpu_s": (raw["sim_kops_per_cpu_s"] / cpu_scale,
                               "kops/cpu_s"),
        "cells_per_s": (median([s["cells"] / s["nominal_wall_s"]
                                for s in sessions]), "cells/s"),
        "job_p50_s": (median(latencies), "s"),
    }
    tail = tail_percentile(latencies)
    if tail is not None:
        metrics["job_tail_s"] = (tail[1], "s")
    metrics["failed_frac"] = (checker.failed_frac, "ratio")
    metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
    return {
        "metrics": metrics,
        "raw": raw,
        "probe_s": median(probe.wall),
        "sessions": len(sessions),
        "jobs": len(latencies),
        "tail": ({"percentile": tail[0], "n": tail[2]}
                 if tail is not None else None),
    }


def _entries_blob(session_result: Dict) -> List[str]:
    return [json.dumps(record.entries, sort_keys=True)
            for record in session_result["records"]]


def run_traced(seed: int, checker: Checker, scratch: Scratch) -> Dict:
    """An untraced session, then the same jobs with every layer hooked.

    The runner reaches the trace builder and the simulator through
    module-level names, which the traced session rebinds for its
    duration; everything else is hooked through the daemon's
    ``runner_factory``, its queue's journal and the client instance.
    """
    jobs = plan_jobs(seed)
    plain = Session(scratch, seed)
    try:
        plain.start()
        untraced = run_session(plain, jobs, checker)
    finally:
        plain.stop()

    clock = LayerClock()
    names = {"get_trace": "workloads", "simulate": "analysis.runner.simulate",
             "run_lockstep": "analysis.runner.simulate"}
    originals = {name: getattr(runner_module, name) for name in names}
    traced_session = Session(scratch, seed, clock=clock)
    try:
        for name, layer in names.items():
            setattr(runner_module, name, clock.wrap(layer, originals[name]))
        traced_session.start()
        traced = run_session(traced_session, jobs, checker)
    finally:
        traced_session.stop()
        for name, original in originals.items():
            setattr(runner_module, name, original)

    checker.operation(
        [] if _entries_blob(traced) == _entries_blob(untraced)
        else ["traced serve results differ from untraced"],
        "traced serve session")
    calls, self_ns, _ = clock.totals()
    records = traced["records"]
    statuses = [r.status for r in records if r.error is None]
    requested = traced_session.daemon.pool.cells_executed
    hits = sum(runner.cache_hits for runner in traced_session.runners)
    return {"layers": {
        "workloads.trace_build_s": self_ns.get("workloads", 0) / 1e9,
        "analysis.runner.run_many.self_s":
            self_ns.get("analysis.runner.run_many", 0) / 1e9,
        "analysis.runner.simulate_s":
            self_ns.get("analysis.runner.simulate", 0) / 1e9,
        "analysis.runner.cache_hit_frac": hits / requested if requested else 0.0,
        "analysis.runner.lockstep_groups":
            traced_session.daemon.pool.lockstep_groups,
        "serve.queue.wait_s": median(
            [s["started_t"] - s["submitted_t"] for s in statuses]),
        "serve.service_s": median(
            [s["finished_t"] - s["started_t"] for s in statuses]),
        "serve.client.poll_lag_s": median(
            [r.seen_t - r.status["finished_t"] for r in records
             if r.error is None]),
        "serve.queue.journal_s":
            self_ns.get("serve.queue.journal", 0) / 1e9,
        "serve.client.requests": calls.get("serve.client", 0),
        "bench.trace_overhead": traced["wall_s"] / untraced["wall_s"],
    }}
