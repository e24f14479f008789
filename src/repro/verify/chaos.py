"""Chaos harness: fault injection for the fault-tolerant campaign runner.

Long design-space campaigns only work when the harness survives the
failure of individual cells: a worker OOM-killed mid-simulation, a
scheduler bug that wedges the pipeline forever, a cache entry truncated
by a dying writer.  This module injects exactly those faults — on
purpose, deterministically — and checks that the
:class:`~repro.analysis.runner.ExperimentRunner` recovers:

* the campaign *completes* (no fault sinks the batch);
* only persistently-failing cells (``poison`` faults and ``wedge``-forced
  deadlocks, which are deterministic and therefore not retried) are
  quarantined;
* every non-quarantined result is **byte-identical** to a clean serial
  run.

Fault kinds
-----------

==========  ==========================================================
``kill``    the worker process exits hard mid-task (``os._exit``),
            breaking the pool (``BrokenProcessPool`` recovery path)
``hang``    the worker sleeps past the runner's wall-clock timeout
            (pool-kill + requeue path)
``error``   the worker raises (plain retry path)
``wedge``   the cell simulates with a scheduler that never issues, so
            the pipeline's forward-progress watchdog raises a real
            :class:`~repro.core.pipeline.DeadlockError` (quarantined
            with its pipeline snapshot; deterministic, never retried)
``poison``  the worker raises on *every* attempt (quarantine path)
==========  ==========================================================

``kill``/``hang``/``error`` fire only on a cell's first attempt, so the
retry machinery is what makes the campaign green.  Faults are selected
by a salted hash of the cell key — the same spec always poisons the
same cells — and the spec travels to pool workers through the
``REPRO_CHAOS`` environment variable, hooked in
``repro.analysis.runner._run_task``.

``python -m repro chaos`` drives :func:`run_campaign`; the CI
``chaos-smoke`` job runs it with a fixed seed on every push.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..core.config import CoreConfig, config_for
from ..core.pipeline import Pipeline
from ..workloads.suite import SMOKE_NAMES, SUITE_NAMES, get_trace

#: Environment variable carrying the encoded :class:`ChaosSpec`.
ENV_VAR = "REPRO_CHAOS"

#: Fault kinds that are *meant* to end in quarantine (deterministic).
PERSISTENT_FAULTS = ("poison", "wedge")

#: All injectable fault kinds, in cumulative-band order.
FAULT_KINDS = ("kill", "hang", "error", "wedge", "poison")


class ChaosError(RuntimeError):
    """An injected (non-fatal) worker failure."""


@dataclass(frozen=True)
class ChaosSpec:
    """Which faults to inject, with what probability, keyed how.

    Probabilities are per-cell bands of a single salted hash draw, so a
    cell receives at most one fault kind and the assignment is a pure
    function of (salt, cell key) — reproducible across processes and
    runs.  ``kill``/``hang``/``error`` fire only while ``attempt <
    attempts`` (default: first attempt only); ``wedge`` and ``poison``
    model deterministic failures and fire on every attempt (a wedge
    whose first attempt is lost to a pool break must still wedge the
    retry, or the "deterministic deadlock" would vanish on requeue).
    """

    kill: float = 0.0
    hang: float = 0.0
    error: float = 0.0
    wedge: float = 0.0
    poison: float = 0.0
    salt: int = 0
    #: seconds a ``hang`` fault sleeps (should dwarf the runner timeout)
    hang_seconds: float = 600.0
    #: transient faults fire while ``attempt < attempts``
    attempts: int = 1

    def encode(self) -> str:
        """Serialise for the ``REPRO_CHAOS`` environment variable."""
        return json.dumps(dataclasses.asdict(self), sort_keys=True)

    @classmethod
    def decode(cls, text: str) -> "ChaosSpec":
        return cls(**json.loads(text))

    @classmethod
    def from_env(cls) -> Optional["ChaosSpec"]:
        text = os.environ.get(ENV_VAR, "")
        return cls.decode(text) if text else None

    # ------------------------------------------------------------------
    def draw(self, key: str) -> float:
        """Deterministic uniform draw in [0, 1) for one cell key."""
        digest = hashlib.sha256(f"{self.salt}:{key}".encode()).digest()
        return int.from_bytes(digest[:8], "big") / 2**64

    def fault_for(self, key: str, attempt: int) -> Optional[str]:
        """The fault this cell suffers on this attempt, if any."""
        draw = self.draw(key)
        edge = 0.0
        for kind in FAULT_KINDS:
            edge += getattr(self, kind)
            if draw < edge:
                if kind in PERSISTENT_FAULTS or attempt < self.attempts:
                    return kind
                return None
        return None


# ---------------------------------------------------------------------------
# worker-side injection (hooked from repro.analysis.runner._run_task)
# ---------------------------------------------------------------------------


class WedgedScheduler:
    """Wraps a real scheduler but never selects anything for issue.

    Models the exact bug class PR 3's fuzzer hunts — a window that loses
    track of its ready ops — so the forward-progress watchdog, not the
    harness, is what turns the wedge into a structured failure.
    """

    def __init__(self, inner):
        self.inner = inner
        self.kind = f"wedged-{inner.kind}"

    def select(self, cycle: int):
        return []

    def __getattr__(self, name):
        return getattr(self.inner, name)


def run_wedged(workload: str, config: CoreConfig, seed: int,
               target_ops: int):
    """Simulate the cell with a wedged scheduler: guaranteed deadlock.

    The watchdog window is clamped so the fault costs thousands of
    cycles, not the production 100k default.
    """
    from ..sched import create_scheduler

    trace = get_trace(workload, target_ops, seed)
    cfg = dataclasses.replace(
        config,
        deadlock_cycles=min(config.deadlock_cycles or 5_000, 5_000),
    )
    pipe = Pipeline(
        trace, cfg,
        scheduler_factory=lambda core: WedgedScheduler(create_scheduler(core)),
    )
    return pipe.run()  # raises DeadlockError long before returning


def worker_fault(workload: str, config: CoreConfig, seed: int,
                 target_ops: int, key: str, attempt: int):
    """Inject this cell's fault, if the env-configured spec names one.

    Returns ``None`` when the task should simulate normally (no spec, no
    fault for this cell, or the fault — a ``hang`` outlived by nobody —
    let the task proceed).
    """
    spec = ChaosSpec.from_env()
    if spec is None:
        return None
    fault = spec.fault_for(key, attempt)
    if fault is None:
        return None
    if fault == "kill":
        os._exit(137)  # simulates the OOM killer: no cleanup, no goodbye
    if fault == "hang":
        time.sleep(spec.hang_seconds)
        return None  # only reached when no timeout killed us: harmless
    if fault == "error":
        raise ChaosError(f"injected transient error (attempt {attempt})")
    if fault == "poison":
        raise ChaosError(f"injected persistent error (attempt {attempt})")
    if fault == "wedge":
        return run_wedged(workload, config, seed, target_ops)
    raise AssertionError(f"unknown fault kind: {fault}")


# ---------------------------------------------------------------------------
# cache corruption
# ---------------------------------------------------------------------------

#: Corruption styles applied round-robin to victim files.
_CORRUPTIONS: Tuple[str, ...] = ("truncate", "garbage", "empty")


def corrupt_files(paths: Sequence[Path]) -> int:
    """Damage ``paths`` in place (truncation, garbage bytes, zero-byte)."""
    for index, path in enumerate(paths):
        style = _CORRUPTIONS[index % len(_CORRUPTIONS)]
        if style == "truncate":
            data = path.read_bytes()
            path.write_bytes(data[: max(1, len(data) // 3)])
        elif style == "garbage":
            path.write_bytes(b"\x00ChAoS{not json, not a trace}\xff\xfe")
        else:
            path.write_bytes(b"")
    return len(paths)


# ---------------------------------------------------------------------------
# the campaign
# ---------------------------------------------------------------------------


@dataclass
class ChaosReport:
    """Outcome of one chaos campaign (see :func:`run_campaign`)."""

    cells: int
    expected_faults: Dict[str, int]
    corrupted_results: int
    corrupted_traces: int
    quarantined: List[str] = field(default_factory=list)
    unexpected_quarantines: List[str] = field(default_factory=list)
    missing_quarantines: List[str] = field(default_factory=list)
    mismatches: List[str] = field(default_factory=list)
    retries: int = 0
    timeouts: int = 0
    pool_restarts: int = 0
    cache_warnings: int = 0
    snapshots_missing: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not (self.unexpected_quarantines or self.missing_quarantines
                    or self.mismatches or self.snapshots_missing)

    def summary(self) -> str:
        faults = ", ".join(
            f"{kind}={count}" for kind, count in self.expected_faults.items()
            if count
        ) or "none"
        verdict = "OK" if self.ok else "FAILED"
        return (
            f"chaos campaign {verdict}: {self.cells} cells, "
            f"faults injected [{faults}], "
            f"{self.corrupted_results} result entries + "
            f"{self.corrupted_traces} trace entries corrupted; "
            f"{len(self.quarantined)} quarantined, "
            f"{self.retries} retries, {self.timeouts} timeouts, "
            f"{self.pool_restarts} pool restarts, "
            f"{self.cache_warnings} cache warnings, "
            f"{len(self.mismatches)} result mismatches"
        )

    def full_report(self) -> str:
        lines = [self.summary()]
        for title, items in (
            ("quarantined", self.quarantined),
            ("UNEXPECTED quarantines", self.unexpected_quarantines),
            ("MISSING quarantines (fault did not stick)",
             self.missing_quarantines),
            ("result MISMATCHES vs clean serial run", self.mismatches),
            ("deadlock quarantines MISSING a snapshot",
             self.snapshots_missing),
        ):
            if items:
                lines.append(f"{title}:")
                lines += [f"  - {item}" for item in items]
        return "\n".join(lines)


def default_spec(seed: int = 7) -> ChaosSpec:
    """The standard campaign mix: every fault kind, ~55% of cells hit."""
    return ChaosSpec(kill=0.12, hang=0.10, error=0.12, wedge=0.10,
                     poison=0.10, salt=seed)


def run_campaign(
    arches: Sequence[str] = ("inorder", "ooo", "ballerino"),
    workloads: Sequence[str] = SUITE_NAMES,
    target_ops: int = 2_000,
    seed: int = 7,
    jobs: int = 4,
    spec: Optional[ChaosSpec] = None,
    timeout: float = 30.0,
    retries: int = 4,
    work_dir: Optional[str] = None,
    smoke: bool = False,
    progress: Optional[Callable[[str], None]] = None,
) -> ChaosReport:
    """Run the full kill/hang/corrupt/deadlock recovery drill.

    1. a clean **serial** baseline of every (workload, arch) cell;
    2. pre-seed the chaos result cache with a few baseline entries and
       corrupt them (truncated / garbage / zero-byte), corrupt a few
       trace-cache files too;
    3. the **chaos** run: parallel ``run_many`` with the fault spec
       exported to the workers;
    4. verdict: campaign completed, quarantine set == the deterministic
       persistent faults, all other cells byte-identical to baseline,
       every deadlock quarantine carries its pipeline snapshot.

    ``retries`` is deliberately above the fault spec's single faulted
    attempt: pool breakage charges an attempt to every in-flight cell
    (the dying worker cannot be attributed), so innocent bystanders need
    headroom before the verdict calls them unexpected quarantines.
    """
    say = progress if progress is not None else (lambda _msg: None)
    if smoke:
        workloads = tuple(w for w in SMOKE_NAMES if w in workloads) or SMOKE_NAMES
    spec = spec if spec is not None else default_spec(seed)
    if spec.hang and spec.hang_seconds <= timeout:
        spec = dataclasses.replace(spec, hang_seconds=max(600.0, timeout * 10))

    from ..analysis.runner import ExperimentRunner  # circular-free at call time

    owned_dir = work_dir is None
    root = Path(work_dir) if work_dir else Path(tempfile.mkdtemp(prefix="repro-chaos-"))
    saved_env = {name: os.environ.get(name) for name in (ENV_VAR, "REPRO_TRACE_CACHE")}
    try:
        # isolate the trace cache so corruption cannot touch the real one
        os.environ["REPRO_TRACE_CACHE"] = str(root / "traces")
        os.environ.pop(ENV_VAR, None)
        get_trace.cache_clear()

        tasks = [(w, config_for(arch)) for arch in arches for w in workloads]
        say(f"chaos: baseline — {len(tasks)} cells, serial")
        baseline = ExperimentRunner(
            target_ops=target_ops, seed=seed, cache_dir=str(root / "baseline"),
            jobs=1,
        )
        baseline_results = baseline.run_many(tasks, jobs=1)
        expected = {
            baseline._key(w, c, seed): json.dumps(r.to_dict(), sort_keys=True)
            for (w, c), r in zip(tasks, baseline_results)
        }

        # pre-seed + corrupt some chaos-cache entries and trace files
        chaos_cache = root / "chaos"
        chaos_cache.mkdir(parents=True, exist_ok=True)
        victims = sorted(Path(root / "baseline").glob("*.json"))[:6]
        for victim in victims:
            shutil.copy(victim, chaos_cache / victim.name)
        corrupted_results = corrupt_files(
            [chaos_cache / victim.name for victim in victims]
        )
        trace_victims = sorted((root / "traces").glob("*.trace"))[:4]
        corrupted_traces = corrupt_files(trace_victims)
        # drop in-process trace memoisation so forked workers (and this
        # process) must re-read — and repair — the corrupted files
        get_trace.cache_clear()

        say(f"chaos: fault run — spec {spec.encode()}")
        os.environ[ENV_VAR] = spec.encode()
        runner = ExperimentRunner(
            target_ops=target_ops, seed=seed, cache_dir=str(chaos_cache),
            jobs=jobs, task_timeout=timeout, retries=retries,
        )
        results = runner.run_many(tasks, jobs=jobs)
        os.environ.pop(ENV_VAR, None)

        # ---------------- verdict ----------------
        keys = [runner._key(w, c, seed) for w, c in tasks]
        fault_of = {key: spec.fault_for(key, 0) for key in keys}
        expected_faults: Dict[str, int] = {kind: 0 for kind in FAULT_KINDS}
        for fault in fault_of.values():
            if fault:
                expected_faults[fault] += 1
        persistent = {
            key for key, fault in fault_of.items()
            if fault in PERSISTENT_FAULTS
        }
        report = ChaosReport(
            cells=len(tasks),
            expected_faults=expected_faults,
            corrupted_results=corrupted_results,
            corrupted_traces=corrupted_traces,
            retries=runner.retries_performed,
            timeouts=runner.timeouts,
            pool_restarts=runner.pool_restarts,
            cache_warnings=runner.cache_warnings,
        )
        for (workload, config), key, result in zip(tasks, keys, results):
            cell = f"{workload}/{config.name}"
            if not result.ok:
                report.quarantined.append(result.describe())
                if key not in persistent:
                    report.unexpected_quarantines.append(result.describe())
                if fault_of[key] == "wedge" and (
                    result.kind != "deadlock" or not result.snapshot
                ):
                    report.snapshots_missing.append(result.describe())
                continue
            if key in persistent:
                report.missing_quarantines.append(
                    f"{cell}: {fault_of[key]} fault did not quarantine")
            if json.dumps(result.to_dict(), sort_keys=True) != expected[key]:
                report.mismatches.append(
                    f"{cell}: differs from clean serial run")
        say("chaos: " + report.summary())
        return report
    finally:
        for name, value in saved_env.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value
        get_trace.cache_clear()
        if owned_dir:
            shutil.rmtree(root, ignore_errors=True)


# ---------------------------------------------------------------------------
# distributed campaigns: shard-level chaos + reconciliation closure
# ---------------------------------------------------------------------------


@dataclass
class DistribChaosReport:
    """Outcome of one distributed chaos drill (:func:`run_distributed`).

    The drill's contract is *closure*: every hole it tears — a shard
    killed before it starts, run-log lines shredded mid-campaign,
    quarantines, cache entries corrupted or rewritten with a stale
    schema — must be (1) detected by the reconciliation detector and
    (2) healed by the repair loop, leaving a campaign byte-identical
    to a clean serial run.
    """

    cells: int
    shards: int
    killed_shard: int
    poisoned: List[str] = field(default_factory=list)
    corrupted_entries: int = 0
    stale_entries: int = 0
    shredded_lines: int = 0
    initial_states: Dict[str, int] = field(default_factory=dict)
    final_states: Dict[str, int] = field(default_factory=dict)
    rounds: int = 0
    converged: bool = False
    undetected: List[str] = field(default_factory=list)
    mismatches: List[str] = field(default_factory=list)
    merged_complete: bool = False

    @property
    def ok(self) -> bool:
        return (self.converged and self.merged_complete
                and not self.undetected and not self.mismatches)

    def summary(self) -> str:
        verdict = "OK" if self.ok else "FAILED"
        damaged = sum(count for state, count in self.initial_states.items()
                      if state != "ok")
        return (
            f"distributed chaos {verdict}: {self.cells} cells over "
            f"{self.shards} shards; shard {self.killed_shard} killed, "
            f"{len(self.poisoned)} poisoned, {self.corrupted_entries} "
            f"cache entries corrupted, {self.stale_entries} stale-schema, "
            f"{self.shredded_lines} run-log lines shredded; detector saw "
            f"{damaged} damaged, reconcile converged={self.converged} in "
            f"{self.rounds} round(s), {len(self.undetected)} undetected, "
            f"{len(self.mismatches)} mismatches vs clean serial run"
        )

    def full_report(self) -> str:
        lines = [self.summary(),
                 f"initial states: {self.initial_states}",
                 f"final states:   {self.final_states}"]
        for title, items in (
            ("injected holes the detector MISSED", self.undetected),
            ("result MISMATCHES vs clean serial run", self.mismatches),
        ):
            if items:
                lines.append(f"{title}:")
                lines += [f"  - {item}" for item in items]
        return "\n".join(lines)


def shred_log(path: Path, every: int = 3) -> int:
    """Corrupt every ``every``-th line of a run-log in place.

    Models a disk fault / dying writer mid-campaign — exactly the
    damage :func:`~repro.telemetry.runlog.read_jsonl` (``strict=False``)
    must survive and reconciliation must account for.
    """
    lines = path.read_text(encoding="utf-8").splitlines()
    shredded = 0
    for index in range(0, len(lines), every):
        lines[index] = '\x00{"torn":' + lines[index][: max(4, len(lines[index]) // 2)]
        shredded += 1
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return shredded


def run_distributed(
    arches: Sequence[str] = ("inorder", "ooo"),
    workloads: Sequence[str] = SMOKE_NAMES,
    widths: Sequence[int] = (4, 8),
    target_ops: int = 1_500,
    seed: int = 7,
    n_shards: int = 3,
    jobs: int = 2,
    poison: float = 0.18,
    timeout: float = 30.0,
    work_dir: Optional[str] = None,
    progress: Optional[Callable[[str], None]] = None,
) -> DistribChaosReport:
    """Chaos-drill the distributed campaign + reconciliation path.

    1. a clean **serial** baseline of the whole matrix (the oracle);
    2. shard the matrix ``n_shards`` ways; run every shard but one —
       the victim shard is "killed before it starts" (its cells must
       surface as ``missing``) — with a ``poison`` fault spec exported
       so some surviving cells quarantine;
    3. post-hoc damage: shred run-log lines mid-file, corrupt a cache
       entry, rewrite another with a stale (field-stripped) schema;
    4. ``merge_shards`` must report the campaign incomplete, naming
       the holes as gaps;
    5. ``reconcile_campaign`` (chaos spec cleared — the faults were
       transient to the campaign, not the cells) must detect **every**
       injected hole, converge, and leave the merged campaign complete
       and byte-identical to the baseline.
    """
    say = progress if progress is not None else (lambda _msg: None)
    from ..distrib import (CampaignSpec, Detector, merge_shards,
                           reconcile_campaign, run_shard, shard_cells)

    if n_shards < 2:
        raise ValueError("distributed drill needs n_shards >= 2 "
                         "(one shard is the kill victim)")
    owned_dir = work_dir is None
    root = Path(work_dir) if work_dir else Path(
        tempfile.mkdtemp(prefix="repro-distrib-chaos-"))
    saved_env = {name: os.environ.get(name)
                 for name in (ENV_VAR, "REPRO_TRACE_CACHE")}
    try:
        os.environ["REPRO_TRACE_CACHE"] = str(root / "traces")
        os.environ.pop(ENV_VAR, None)
        get_trace.cache_clear()

        spec = CampaignSpec(
            workloads=tuple(workloads), arches=tuple(arches),
            widths=tuple(widths), ops=target_ops, seed=seed,
            n_shards=n_shards, salt=seed,
        )
        cells = spec.cells()
        camp = root / "campaign"
        cache = root / "cache"

        # 1. oracle: clean serial run into its own cache
        say(f"distrib chaos: baseline — {len(cells)} cells, serial")
        from ..analysis.runner import ExperimentRunner

        baseline = ExperimentRunner(
            target_ops=target_ops, seed=seed,
            cache_dir=str(root / "baseline"), jobs=1)
        tasks = [cell.task(seed) for cell in cells]
        baseline_results = baseline.run_many(tasks, jobs=1)
        expected = {
            baseline._key(w, c, s): json.dumps(r.to_dict(), sort_keys=True)
            for (w, c, s), r in zip(tasks, baseline_results)
        }

        # 2. sharded chaos run: kill one shard, poison some cells
        shards = shard_cells(cells, n_shards, spec.salt)
        killed = max(range(n_shards), key=lambda k: len(shards[k]))
        fault_spec = ChaosSpec(poison=poison, salt=seed)
        os.environ[ENV_VAR] = fault_spec.encode()
        say(f"distrib chaos: running {n_shards} shards, killing shard "
            f"{killed} ({len(shards[killed])} cells), poison={poison}")
        for shard in range(n_shards):
            if shard == killed:
                continue  # the shard dies before its first cell
            # spans on: the drill doubles as coverage that tracing
            # survives chaos (torn logs never tear the span files)
            run_shard(spec, shard, camp, cache_dir=str(cache), jobs=jobs,
                      task_timeout=timeout, spans=True)
        os.environ.pop(ENV_VAR, None)

        detector = Detector(spec, cache_dir=str(cache))
        expected_cells = detector.expected()
        killed_keys = set()
        for seq, cell in shards[killed]:
            workload, config, cell_seed = cell.task(seed)
            killed_keys.add(detector._runner.key_for(workload, config,
                                                     cell_seed))
        poisoned_keys = {
            key for _seq, _cell, key in expected_cells
            if key not in killed_keys
            and fault_spec.fault_for(key, 0) == "poison"
        }

        # 3a. shred run-log lines mid-file (a dying writer / disk fault)
        shredded = 0
        logs = sorted(camp.glob("shard-*.jsonl"))
        if logs:
            shredded = shred_log(logs[0])

        # 4. the merge must name the holes
        merged = merge_shards(spec, camp, cache_dir=str(cache), write=True)
        say(f"distrib chaos: merged — complete={merged.complete}, "
            f"gaps={len(merged.gaps)}, skipped_lines={merged.skipped_lines}")

        # 3b. cache damage lands *after* the merge (whose cache reads,
        # like the runner's, delete corrupt entries on contact) so the
        # detector — strictly read-only — is what classifies it
        healthy = [
            (seq, cell, key) for seq, cell, key in expected_cells
            if key not in killed_keys and key not in poisoned_keys
        ]
        corrupted_keys, stale_keys = set(), set()
        if len(healthy) >= 1:
            _, _, victim = healthy[0]
            corrupt_files([cache / f"{victim}.json"])
            corrupted_keys.add(victim)
        if len(healthy) >= 2:
            _, _, victim = healthy[1]
            path = cache / f"{victim}.json"
            payload = json.loads(path.read_text())
            for name in ("sampling", "memory_stats", "interval_samples"):
                payload.pop(name, None)
            path.write_text(json.dumps(payload))  # pre-schema-v4 shape
            stale_keys.add(victim)

        # 5. detect + repair to byte-identical convergence
        diff = detector.diff(camp)
        injected = killed_keys | poisoned_keys | corrupted_keys | stale_keys
        damaged_keys = {status.key for status in diff.damaged}
        label_of = {key: f"{cell.workload}/{cell.arch}@{cell.width}"
                    for _seq, cell, key in expected_cells}
        report = DistribChaosReport(
            cells=len(cells), shards=n_shards, killed_shard=killed,
            poisoned=sorted(label_of[k] for k in poisoned_keys),
            corrupted_entries=len(corrupted_keys),
            stale_entries=len(stale_keys),
            shredded_lines=shredded,
            initial_states=diff.by_state(),
        )
        report.undetected = sorted(
            f"{label_of[key]} [{key[:8]}]"
            for key in injected if key not in damaged_keys
        )
        say("distrib chaos: " + diff.summary())
        outcome = reconcile_campaign(
            camp, spec=spec, cache_dir=str(cache),
            max_rounds=4, cell_budget=3, jobs=jobs, progress=say,
            spans=True)
        report.final_states = outcome.final
        report.rounds = len(outcome.rounds)
        report.converged = outcome.converged

        # closure: repaired campaign == clean serial run, byte for byte
        final_merge = merge_shards(spec, camp, cache_dir=str(cache),
                                   write=True)
        report.merged_complete = final_merge.complete
        for envelope in final_merge.envelopes:
            if envelope is None:
                continue
            cell = envelope["cell"]
            label = f"{cell['workload']}/{cell['arch']}@{cell['width']}"
            if not envelope["ok"]:
                report.mismatches.append(
                    f"{label}: still failed after reconcile "
                    f"({envelope['result'].get('kind')})")
                continue
            seq = envelope["seq"]
            workload, config, cell_seed = cells[seq].task(seed)
            key = baseline._key(workload, config, cell_seed)
            got = json.dumps(envelope["result"], sort_keys=True)
            if got != expected[key]:
                report.mismatches.append(
                    f"{label}: differs from clean serial run")
        say("distrib chaos: " + report.summary())
        return report
    finally:
        for name, value in saved_env.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value
        get_trace.cache_clear()
        if owned_dir:
            shutil.rmtree(root, ignore_errors=True)
