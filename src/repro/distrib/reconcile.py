"""Reconciliation: prove a campaign complete and correct, or repair it.

Three stages, mirroring the classic detector / engine / scheduler
split:

* the **detector** three-way-diffs the *expected matrix* (from the
  campaign manifest) against the *disk cache* (read-only probes — the
  detector never mutates what it audits) and the *merged run-logs*
  (read tolerantly, because chaos and dying shards tear them),
  classifying every cell into one of :data:`CELL_STATES`;
* the **engine** turns the diff into a typed repair plan — which cache
  entries to purge, which cells to re-run — under a bounded per-cell
  retry budget, so a cell that keeps failing cannot spin the loop
  forever;
* the **scheduler** executes the plan (a fresh fault-tolerant
  :class:`~repro.analysis.runner.ExperimentRunner` per round, so
  quarantine state from earlier lives doesn't pin a now-healthy cell;
  or submission to a running ``repro serve`` daemon that shares the
  cache) and re-runs the detector until the matrix converges or the
  budget is exhausted.

Cell-state taxonomy
-------------------

==============  ==========================================================
``ok``          a healthy, schema-current cache entry exists
``missing``     no cache entry and no run-log account — never ran, or
                its shard died before starting it
``quarantined`` the run-logs record a quarantine (deadlock / poison /
                exhausted retries) and no healthy result superseded it
``orphaned``    the run-logs say the cell *finished*, but the cache has
                no usable entry — the result vanished after the fact
``corrupt``     a cache entry exists but is unreadable: invalid JSON,
                binary garbage, zero-byte, or a payload whose identity
                does not match the cell (misfiled)
``stale-schema`` a cache entry parses but was written by an older
                result schema — it must not be served as current
==============  ==========================================================
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple, Union

from ..analysis.runner import ExperimentRunner
from ..serve.protocol import Cell
from ..telemetry.runlog import RunLog, read_jsonl
from ..telemetry.spans import SpanRecorder, derive_span_id
from .campaign import CampaignSpec, campaign_root_context, make_runner

#: Every state the detector can assign, healthy first.
CELL_STATES = ("ok", "missing", "quarantined", "orphaned", "corrupt",
               "stale-schema")

#: States that demand a repair.
DAMAGED_STATES = ("missing", "quarantined", "orphaned", "corrupt",
                  "stale-schema")

#: Top-level fields a schema-current result payload must carry
#: (``SimResult.to_dict``'s keys; ``from_dict`` is deliberately lenient
#: for in-process use, so the detector checks strictly on its own).
REQUIRED_RESULT_FIELDS = (
    "workload", "config_name", "stats", "memory_stats", "frequency_ghz",
    "interval_samples", "sample_interval", "sampled", "sampling",
)

#: Default per-cell repair attempts before the engine gives up on it.
DEFAULT_CELL_BUDGET = 2

#: Default detector->repair->re-verify rounds.
DEFAULT_MAX_ROUNDS = 3


@dataclass
class CellStatus:
    """The detector's verdict for one cell of the matrix."""

    seq: int
    cell: Cell
    key: str
    state: str
    detail: str = ""

    def to_dict(self) -> Dict:
        return {"seq": self.seq, "cell": self.cell.to_dict(),
                "key": self.key, "state": self.state, "detail": self.detail}


@dataclass
class CampaignDiff:
    """The full three-way diff: one :class:`CellStatus` per cell."""

    statuses: List[CellStatus]
    #: damaged run-log lines skipped while reading
    skipped_lines: int = 0

    def by_state(self) -> Dict[str, int]:
        counts = {state: 0 for state in CELL_STATES}
        for status in self.statuses:
            counts[status.state] += 1
        return counts

    @property
    def damaged(self) -> List[CellStatus]:
        return [s for s in self.statuses if s.state != "ok"]

    @property
    def converged(self) -> bool:
        return not self.damaged

    def summary(self) -> str:
        counts = self.by_state()
        parts = [f"{state}={counts[state]}" for state in CELL_STATES
                 if counts[state]]
        verdict = "CONVERGED" if self.converged else "DAMAGED"
        return (f"reconcile diff {verdict}: {len(self.statuses)} cells "
                f"[{', '.join(parts) or 'empty'}]")


class Detector:
    """Read-only three-way diff of matrix vs cache vs run-logs."""

    def __init__(self, spec: CampaignSpec,
                 cache_dir: Optional[str] = None):
        self.spec = spec
        # probe runner: key derivation + cache location only, never runs
        self._runner = make_runner(spec, cache_dir=cache_dir)

    # ------------------------------------------------------------------
    def expected(self) -> List[Tuple[int, Cell, str]]:
        """The matrix as ``(seq, cell, key)`` in submission order."""
        out = []
        for seq, cell in enumerate(self.spec.cells()):
            workload, config, seed = cell.task(self.spec.seed)
            out.append((seq, cell, self._runner.key_for(workload, config,
                                                        seed)))
        return out

    def probe_entry(self, key: str,
                    cell: Optional[Cell] = None) -> Tuple[str, str]:
        """Classify one cache entry without mutating it.

        Returns ``(kind, detail)`` with ``kind`` one of ``absent`` /
        ``ok`` / ``corrupt`` / ``stale-schema``.  Unlike the runner's
        ``_load_disk`` (which deletes corrupt entries so they re-run
        exactly once), the probe is strictly read-only: deletion is a
        *repair*, and repairs belong to the engine's plan.
        """
        path = self._runner.cache_path(key)
        if path is None:
            return "absent", "cache disabled"
        if not path.exists():
            return "absent", ""
        try:
            text = path.read_text()
        except UnicodeDecodeError:
            return "corrupt", "binary-garbage"
        except OSError:
            return "corrupt", "unreadable"
        if not text.strip():
            return "corrupt", "zero-byte"
        try:
            data = json.loads(text)
        except ValueError:
            return "corrupt", "invalid-json"
        if not isinstance(data, dict):
            return "corrupt", "not-an-object"
        missing = [name for name in REQUIRED_RESULT_FIELDS
                   if name not in data]
        if missing:
            return "stale-schema", f"missing fields: {', '.join(missing)}"
        if cell is not None and data.get("workload") != cell.workload:
            return ("corrupt",
                    f"misfiled: payload claims workload "
                    f"{data.get('workload')!r}")
        try:
            from ..core.stats import SimResult

            SimResult.from_dict(data)
        except (KeyError, TypeError, ValueError) as exc:
            return "corrupt", f"undeserialisable: {exc}"
        return "ok", ""

    def read_logs(
        self, campaign_dir: Union[str, Path],
    ) -> Tuple[Dict[str, str], Dict[str, Dict], int]:
        """Fold every run-log in the campaign directory.

        Returns ``(finished, quarantined, skipped_lines)`` keyed by
        cell key.  A ``finish``/``cache_hit`` after a ``quarantine``
        supersedes it (a repair round healed the cell); the reverse
        order never un-finishes a cell — the cache entry is the
        arbiter of whether the result survived.
        """
        finished: Dict[str, str] = {}
        quarantined: Dict[str, Dict] = {}
        skipped = 0
        for log_path in sorted(Path(campaign_dir).glob("*.jsonl")):
            records, bad = read_jsonl(str(log_path), strict=False)
            skipped += bad
            for record in records:
                key = record.get("key")
                if not isinstance(key, str):
                    continue
                event = record.get("event")
                if event in ("finish", "cache_hit"):
                    finished[key] = str(event)
                    quarantined.pop(key, None)
                elif event == "quarantine":
                    quarantined[key] = record
        return finished, quarantined, skipped

    # ------------------------------------------------------------------
    def diff(self, campaign_dir: Union[str, Path]) -> CampaignDiff:
        """Classify every cell of the matrix (see the module taxonomy)."""
        finished, quarantined, skipped = self.read_logs(campaign_dir)
        statuses: List[CellStatus] = []
        for seq, cell, key in self.expected():
            kind, detail = self.probe_entry(key, cell)
            if kind == "ok":
                state = "ok"
            elif kind in ("corrupt", "stale-schema"):
                state = kind
            elif key in quarantined:
                record = quarantined[key]
                state = "quarantined"
                detail = (f"{record.get('kind', 'error')} after "
                          f"{record.get('attempts', '?')} attempt(s): "
                          f"{record.get('error', '')}")
            elif key in finished:
                state = "orphaned"
                detail = (f"run-log records {finished[key]} but the cache "
                          f"entry is gone")
            else:
                state = "missing"
                detail = "no cache entry, no run-log account"
            statuses.append(CellStatus(seq=seq, cell=cell, key=key,
                                       state=state, detail=detail))
        return CampaignDiff(statuses=statuses, skipped_lines=skipped)


# ---------------------------------------------------------------------------
# engine
# ---------------------------------------------------------------------------


@dataclass
class Repair:
    """One planned repair: what to do about one damaged cell."""

    status: CellStatus
    #: ``rerun`` (execute the cell again) or ``purge-rerun`` (delete the
    #: bad cache entry first so the rerun cannot be served the damage)
    action: str
    #: repair attempts already charged to this cell before this one
    attempt: int = 0

    def to_dict(self) -> Dict:
        return {"action": self.action, "attempt": self.attempt,
                **self.status.to_dict()}


@dataclass
class RepairPlan:
    """The engine's output: executable repairs + what it gave up on."""

    repairs: List[Repair] = field(default_factory=list)
    #: damaged cells whose per-cell budget is exhausted
    exhausted: List[CellStatus] = field(default_factory=list)

    @property
    def empty(self) -> bool:
        return not self.repairs


class RepairEngine:
    """Turns a diff into a bounded, typed repair plan.

    ``cell_budget`` bounds how many repair attempts any one cell gets
    across the whole reconciliation (the scheduler feeds attempts back
    in); a cell that stays damaged past its budget is reported, not
    retried forever — quarantine semantics, one level up.
    """

    def __init__(self, cell_budget: int = DEFAULT_CELL_BUDGET):
        self.cell_budget = max(1, cell_budget)

    def plan(self, diff: CampaignDiff,
             attempts: Optional[Dict[str, int]] = None) -> RepairPlan:
        attempts = attempts or {}
        plan = RepairPlan()
        for status in diff.damaged:
            spent = attempts.get(status.key, 0)
            if spent >= self.cell_budget:
                plan.exhausted.append(status)
                continue
            action = ("purge-rerun"
                      if status.state in ("corrupt", "stale-schema")
                      else "rerun")
            plan.repairs.append(Repair(status=status, action=action,
                                       attempt=spent))
        return plan


# ---------------------------------------------------------------------------
# scheduler
# ---------------------------------------------------------------------------


@dataclass
class ReconcileReport:
    """Machine-readable account of one reconciliation run."""

    cells: int
    initial: Dict[str, int]
    final: Dict[str, int] = field(default_factory=dict)
    rounds: List[Dict] = field(default_factory=list)
    converged: bool = False
    repaired: int = 0
    #: cells still damaged when the loop stopped
    unrepaired: List[Dict] = field(default_factory=list)
    skipped_lines: int = 0
    seconds: float = 0.0

    def to_dict(self) -> Dict:
        return {
            "cells": self.cells,
            "initial": self.initial,
            "final": self.final,
            "rounds": self.rounds,
            "converged": self.converged,
            "repaired": self.repaired,
            "unrepaired": self.unrepaired,
            "skipped_lines": self.skipped_lines,
            "seconds": round(self.seconds, 6),
        }

    def summary(self) -> str:
        verdict = "CONVERGED" if self.converged else "NOT CONVERGED"
        damaged = sum(count for state, count in self.initial.items()
                      if state != "ok")
        return (f"reconcile {verdict}: {self.cells} cells, {damaged} "
                f"initially damaged, {self.repaired} repaired over "
                f"{len(self.rounds)} round(s), "
                f"{len(self.unrepaired)} unrepaired")


class RepairScheduler:
    """Runs the detect -> plan -> repair -> re-verify loop to convergence.

    Repairs execute through a **fresh** fault-tolerant runner each
    round (``runner_factory``) so quarantine records from previous
    rounds or earlier lives don't pin a cell that would now succeed;
    results merge through the shared cache exactly like any campaign.
    Alternatively, ``submit`` (a callable taking a list of
    :class:`~repro.serve.protocol.Cell` dicts) routes repairs to a
    running ``repro serve`` daemon that shares the cache — see
    :func:`submit_via_server`.
    """

    def __init__(
        self,
        spec: CampaignSpec,
        cache_dir: Optional[str] = None,
        engine: Optional[RepairEngine] = None,
        detector: Optional[Detector] = None,
        runner_factory: Optional[Callable[[], ExperimentRunner]] = None,
        submit: Optional[Callable[[List[Cell]], None]] = None,
        max_rounds: int = DEFAULT_MAX_ROUNDS,
        jobs: Optional[int] = None,
        progress=None,
        spans: bool = False,
    ):
        self.spec = spec
        self.cache_dir = cache_dir
        self.engine = engine or RepairEngine()
        self.detector = detector or Detector(spec, cache_dir=cache_dir)
        self.jobs = jobs
        if runner_factory is None:
            runner_factory = lambda: make_runner(  # noqa: E731
                spec, cache_dir=cache_dir, jobs=jobs)
        self.runner_factory = runner_factory
        self.submit = submit
        self.max_rounds = max(1, max_rounds)
        self.progress = progress or (lambda _msg: None)
        #: record reconcile-round spans into the campaign's trace
        self.spans = spans

    # ------------------------------------------------------------------
    def _purge(self, repair: Repair) -> None:
        path = self.detector._runner.cache_path(repair.status.key)
        if path is None:
            return
        try:
            path.unlink()
        except OSError:
            pass

    def reconcile(self, campaign_dir: Union[str, Path]) -> ReconcileReport:
        """Drive the loop; returns the machine-readable report.

        Repair runs write their own run-log (``reconcile.jsonl`` in the
        campaign directory) so the next detector round sees the
        repairs' lifecycle — a repaired quarantine is superseded by its
        ``finish`` record, and a repair that quarantines again is
        charged against the cell's budget.
        """
        started = time.perf_counter()
        root = Path(campaign_dir)
        root.mkdir(parents=True, exist_ok=True)
        log = RunLog(str(root / "reconcile.jsonl"))
        recorder: Optional[SpanRecorder] = None
        reconcile_span = None
        if self.spans:
            # rides the campaign's deterministic trace so repairs land
            # in the same merged view as the shards they heal
            recorder = SpanRecorder(str(root / "spans-reconcile.jsonl"))
            parent = campaign_root_context(self.spec)
            reconcile_span = recorder.start(
                "reconcile", parent=parent,
                span_id=derive_span_id(parent.trace_id, "reconcile"),
                max_rounds=self.max_rounds)
        diff = self.detector.diff(root)
        report = ReconcileReport(cells=len(diff.statuses),
                                 initial=diff.by_state(),
                                 skipped_lines=diff.skipped_lines)
        log.log("reconcile_start", cells=report.cells,
                max_rounds=self.max_rounds)
        self.progress("reconcile: " + diff.summary())
        attempts: Dict[str, int] = {}
        rounds = 0
        while not diff.converged and rounds < self.max_rounds:
            plan = self.engine.plan(diff, attempts)
            if plan.empty:
                break
            rounds += 1
            round_span = None
            if recorder is not None:
                round_span = recorder.start(
                    "reconcile_round", parent=reconcile_span,
                    span_id=derive_span_id(reconcile_span.trace_id,
                                           "reconcile_round", rounds),
                    round=rounds, repairs=len(plan.repairs))
            for repair in plan.repairs:
                attempts[repair.status.key] = repair.attempt + 1
                if repair.action == "purge-rerun":
                    self._purge(repair)
            cells = [repair.status.cell for repair in plan.repairs]
            self.progress(
                f"reconcile: round {rounds} — repairing "
                f"{len(cells)} cell(s) "
                f"({', '.join(sorted({r.status.state for r in plan.repairs}))})")
            if self.submit is not None:
                self.submit(cells)
            else:
                runner_log = RunLog(str(root / "reconcile.jsonl"))
                runner = self.runner_factory()
                # route the repair runner's lifecycle into the campaign
                # directory so the next detector pass can see it
                old_log = runner.run_log
                runner.run_log = runner_log
                # likewise its cell spans into the campaign trace,
                # nested under this repair round (getattr: the factory
                # may hand back a duck-typed runner without span hooks)
                old_spans = getattr(runner, "spans", None)
                traced = {}
                if round_span is not None:
                    runner.spans = recorder
                    traced["trace"] = round_span.context
                try:
                    runner.run_many([cell.task(self.spec.seed)
                                     for cell in cells], jobs=self.jobs,
                                    **traced)
                finally:
                    runner.run_log = old_log
                    if round_span is not None:
                        runner.spans = old_spans
                    runner_log.close()
            diff = self.detector.diff(root)
            round_states = diff.by_state()
            log.log("reconcile_round", round=rounds,
                    repairs=len(cells),
                    damaged=len(diff.damaged), states=round_states)
            if round_span is not None:
                recorder.finish(round_span, damaged_after=len(diff.damaged))
            report.rounds.append({
                "round": rounds,
                "repairs": len(cells),
                "damaged_after": len(diff.damaged),
                "states": round_states,
            })
            self.progress("reconcile: " + diff.summary())
        report.final = diff.by_state()
        report.converged = diff.converged
        healthy_now = report.final.get("ok", 0)
        healthy_then = report.initial.get("ok", 0)
        report.repaired = max(0, healthy_now - healthy_then)
        report.unrepaired = [status.to_dict() for status in diff.damaged]
        report.seconds = time.perf_counter() - started
        log.log("reconcile_end", converged=report.converged,
                rounds=rounds, repaired=report.repaired)
        if recorder is not None:
            recorder.finish(
                reconcile_span, status="ok" if report.converged else "error",
                rounds=rounds, repaired=report.repaired)
            recorder.close()
        log.close()
        return report


def submit_via_server(server: str, spec: CampaignSpec,
                      timeout: float = 300.0) -> Callable[[List[Cell]], None]:
    """A :class:`RepairScheduler` ``submit`` hook targeting a daemon.

    Repairs go up as one interactive job (they're blocking a campaign's
    convergence — the definition of interactive) with explicit seeds,
    and the call waits for the job to finish so the next detector round
    sees the daemon's writes in the shared cache.
    """
    from ..serve.client import ServeClient

    client = ServeClient(server, retries=3)

    def submit(cells: List[Cell]) -> None:
        explicit = [
            Cell(workload=cell.workload, arch=cell.arch, width=cell.width,
                 seed=cell.seed if cell.seed is not None else spec.seed)
            for cell in cells
        ]
        job = client.submit(cells=[cell.to_dict() for cell in explicit],
                            priority="interactive", tenant="reconcile")
        client.wait(job["job_id"], timeout=timeout)

    return submit


def reconcile_campaign(
    campaign_dir: Union[str, Path],
    spec: Optional[CampaignSpec] = None,
    cache_dir: Optional[str] = None,
    max_rounds: int = DEFAULT_MAX_ROUNDS,
    cell_budget: int = DEFAULT_CELL_BUDGET,
    server: Optional[str] = None,
    jobs: Optional[int] = None,
    progress=None,
    spans: bool = False,
) -> ReconcileReport:
    """One-call reconciliation of a campaign directory (the CLI's core)."""
    from .campaign import load_manifest

    spec = spec if spec is not None else load_manifest(campaign_dir)
    submit = (submit_via_server(server, spec)
              if server is not None else None)
    scheduler = RepairScheduler(
        spec, cache_dir=cache_dir,
        engine=RepairEngine(cell_budget=cell_budget),
        submit=submit, max_rounds=max_rounds, jobs=jobs, progress=progress,
        spans=spans)
    return scheduler.reconcile(campaign_dir)
