"""Experiment runner with a persistent result cache and a parallel mode.

Every figure in the paper's evaluation replays the same (workload, config)
simulations; the runner memoises each run both in memory and on disk
(JSON under ``.bench_cache/``) so the whole benchmark suite pays for each
simulation exactly once.  :meth:`ExperimentRunner.run_many` additionally
fans uncached (workload, config, seed) tuples across a
``ProcessPoolExecutor``; the disk cache is the merge point, so parallel
and serial execution are byte-identical and every later lookup is a hit.

Cache entries are written atomically (``*.tmp`` + ``os.replace``) so
concurrent workers can never expose a torn file, and a corrupt,
truncated, zero-byte or unreadable entry is treated as a miss (and
counted on :attr:`ExperimentRunner.cache_warnings`), never a crash.

Campaign fault tolerance (see docs/robustness.md): ``run_many`` submits
each cell as its own future, enforces a per-task wall-clock timeout,
retries crashed/timed-out cells with exponential backoff, survives
``BrokenProcessPool`` by respawning the pool and requeueing the in-flight
cells, and quarantines a persistently failing cell as a structured
:class:`FailedResult` instead of sinking the whole batch.  ``Ctrl-C``
stops the pool but preserves everything already merged into the cache.

Environment knobs:

* ``REPRO_BENCH_OPS`` — dynamic micro-ops per workload trace (default 10000).
* ``REPRO_BENCH_SEED`` — workload data seed (default 7).
* ``REPRO_BENCH_CACHE`` — cache directory ("" disables the disk cache).
* ``REPRO_BENCH_JOBS`` — default worker count for ``run_many`` (default 1).
* ``REPRO_BENCH_TIMEOUT`` — per-task wall-clock timeout in seconds
  (default 0 = no timeout).
* ``REPRO_BENCH_RETRIES`` — attempts after the first failure (default 2).
* ``REPRO_RUN_LOG`` — path of a JSONL campaign run-log (see
  :mod:`repro.telemetry.runlog`); empty/unset disables it.
* ``REPRO_SPANS`` — path of a spans-JSONL trace file (see
  :mod:`repro.telemetry.spans`); empty/unset disables span tracing.
* ``REPRO_CHAOS`` — fault-injection spec for the chaos harness (see
  :mod:`repro.verify.chaos`); empty/unset means no injection.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import time
from collections import deque
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Deque, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from ..core.config import CoreConfig, config_for
from ..core.lockstep import run_lockstep
from ..core.pipeline import SimulationDeadlock, simulate
from ..core.stats import RESULT_SCHEMA_VERSION, SimResult
from ..telemetry.metrics import MetricsRegistry
from ..telemetry.runlog import RunLog
from ..telemetry.spans import SpanContext, SpanRecorder, derive_span_id
from ..workloads.suite import SUITE_NAMES, get_trace

DEFAULT_OPS = int(os.environ.get("REPRO_BENCH_OPS", "10000"))
DEFAULT_SEED = int(os.environ.get("REPRO_BENCH_SEED", "7"))
DEFAULT_JOBS = int(os.environ.get("REPRO_BENCH_JOBS", "1"))
DEFAULT_TIMEOUT = float(os.environ.get("REPRO_BENCH_TIMEOUT", "0"))
DEFAULT_RETRIES = int(os.environ.get("REPRO_BENCH_RETRIES", "2"))

#: Base delay (seconds) for the exponential pool-respawn backoff.
BACKOFF_BASE = 0.1
#: How often the parallel loop polls for completions/timeouts (seconds).
_POLL_INTERVAL = 0.1

#: One run request: (workload, config) or (workload, config, seed).
Task = Union[
    Tuple[str, CoreConfig],
    Tuple[str, CoreConfig, Optional[int]],
]
#: One resolved cell: (workload, config, seed).
Triple = Tuple[str, CoreConfig, int]
#: A failed attempt: (kind, error, deadlock snapshot).
Failure = Tuple[str, str, Dict]


@dataclass
class FailedResult:
    """A quarantined cell: what failed, how, and after how many attempts.

    Returned by :meth:`ExperimentRunner.run_many` in place of a
    :class:`~repro.core.stats.SimResult` once a (workload, config, seed)
    cell has exhausted its retries, so a single poisoned cell degrades
    to a structured record instead of aborting the campaign.  ``kind``
    is one of ``deadlock`` / ``timeout`` / ``worker-lost`` / ``error``;
    ``snapshot`` holds the pipeline snapshot for deadlocks (see
    :mod:`repro.telemetry.snapshot`).
    """

    workload: str
    config_name: str
    seed: int
    kind: str
    error: str
    attempts: int
    snapshot: Dict = field(default_factory=dict)

    #: Counterpart of ``SimResult.ok`` for batch consumers.
    ok = False

    def describe(self) -> str:
        return (f"{self.workload}/{self.config_name} seed={self.seed}: "
                f"{self.kind} after {self.attempts} attempt(s) — {self.error}")

    def to_dict(self) -> Dict:
        return {
            "ok": False,
            "workload": self.workload,
            "config_name": self.config_name,
            "seed": self.seed,
            "kind": self.kind,
            "error": self.error,
            "attempts": self.attempts,
            "snapshot": self.snapshot,
        }


@dataclass
class _Batch:
    """One batch's uncached cells, work queue and retry budget.

    ``queue`` holds ``(key, attempt)`` entries, seeded with every
    pending cell at attempt 0; :meth:`ExperimentRunner._settle` puts a
    failed cell back at its next attempt while ``retries`` allow.
    """

    pending: Dict[str, Triple]
    retries: int
    queue: Deque[Tuple[str, int]] = field(init=False)

    def __post_init__(self) -> None:
        self.queue = deque((key, 0) for key in self.pending)


def _atomic_write_json(path: Path, payload: Dict) -> None:
    """Write ``payload`` to ``path`` so readers never see a torn file."""
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    tmp.write_text(json.dumps(payload))
    os.replace(tmp, path)


def _run_task(payload) -> Dict:
    """Pool worker: simulate one (workload, config, seed) tuple.

    Module-level so it pickles; returns an envelope carrying
    ``SimResult.to_dict()`` plus the worker pid and wall-clock seconds
    (for the campaign run-log) and, when a cache directory is
    configured, publishes the entry atomically so sibling workers and
    future runners share it.  With ``REPRO_CHAOS`` set, the chaos
    harness gets a chance to inject a fault (worker kill, hang, error,
    wedged scheduler) before/instead of the real run.
    """
    workload, config, seed, target_ops, cache_dir, key, attempt = payload
    started = time.perf_counter()
    if os.environ.get("REPRO_CHAOS"):
        from ..verify import chaos

        result = chaos.worker_fault(workload, config, seed, target_ops,
                                    key, attempt)
    else:
        result = None
    if result is None:
        trace = get_trace(workload, target_ops, seed)
        result = simulate(trace, config)
    data = result.to_dict()
    if cache_dir:
        _atomic_write_json(Path(cache_dir) / f"{key}.json", data)
    return {
        "result": data,
        "worker": os.getpid(),
        "seconds": round(time.perf_counter() - started, 6),
    }


def _phase_span_hook(recorder: SpanRecorder, parent):
    """Phase-transition callback turning sampled-sim phases into spans.

    :class:`~repro.core.sampling.SampledSimulation` calls the hook with
    ``(old_phase, new_phase)`` at every transition; each interesting
    phase (fast-forward, warmup window, measured window) becomes one
    ``sim.<phase>`` span under the cell.  Only the in-process serial
    path wires this — pool workers have no recorder to stream to.
    """
    state = {"span": None}

    def hook(old_phase: str, new_phase: str) -> None:
        if state["span"] is not None:
            recorder.finish(state["span"])
            state["span"] = None
        if new_phase in ("ff", "warmup", "measure"):
            state["span"] = recorder.start(f"sim.{new_phase}",
                                           parent=parent)

    return hook


class ExperimentRunner:
    """Runs and caches (workload x config) simulations.

    Args:
        target_ops: Dynamic micro-ops per workload trace.
        seed: Workload data seed.
        cache_dir: On-disk result cache ("" disables it; ``None`` uses
            ``$REPRO_BENCH_CACHE`` or the repo-local ``.bench_cache``).
        jobs: Default worker count for :meth:`run_many`.
        task_timeout: Per-task wall-clock timeout (seconds) for parallel
            batches; ``None``/0 disables it.
        retries: Extra attempts a failing cell gets before quarantine.
        run_log: Path of a JSONL campaign run-log (see :mod:`repro.
            telemetry.runlog`); ``None`` uses ``$REPRO_RUN_LOG``, ""
            disables it.
        progress: Callable fed one-line heartbeat strings while a batch
            executes (e.g. ``print``); ``None`` disables the heartbeat.
        heartbeat_interval: Minimum seconds between heartbeats.
        metrics: Optional :class:`~repro.telemetry.metrics.
            MetricsRegistry` fed campaign health counters (currently
            ``runner.cache_warnings``) so long-lived hosts — the
            ``repro serve`` daemon — can export them.
        spans: Span tracing (see :mod:`repro.telemetry.spans`): a
            :class:`SpanRecorder`, a spans-JSONL path, "" to disable,
            or ``None`` to read ``$REPRO_SPANS``.  Off by default;
            like the tracer, every hook is a nullable-reference check.
        trace_ctx: Parent :class:`SpanContext` for this runner's
            campaigns (a shard span, a serve job span); ``None`` makes
            each traced :meth:`run_many` open its own campaign root.
    """

    def __init__(
        self,
        target_ops: int = DEFAULT_OPS,
        seed: int = DEFAULT_SEED,
        cache_dir: Optional[str] = None,
        jobs: Optional[int] = None,
        task_timeout: Optional[float] = None,
        retries: Optional[int] = None,
        run_log: Optional[str] = None,
        progress=None,
        heartbeat_interval: float = 2.0,
        metrics: Optional[MetricsRegistry] = None,
        spans: Union[None, str, SpanRecorder] = None,
        trace_ctx: Optional[SpanContext] = None,
    ):
        self.target_ops = target_ops
        self.seed = seed
        self.jobs = max(1, DEFAULT_JOBS if jobs is None else jobs)
        self.task_timeout = (
            (DEFAULT_TIMEOUT or None) if task_timeout is None
            else (task_timeout or None)
        )
        self.retries = max(0, DEFAULT_RETRIES if retries is None else retries)
        if cache_dir is None:
            cache_dir = os.environ.get(
                "REPRO_BENCH_CACHE",
                str(Path(__file__).resolve().parents[3] / ".bench_cache"),
            )
        self.cache_dir = Path(cache_dir) if cache_dir else None
        if self.cache_dir is not None:
            self.cache_dir.mkdir(parents=True, exist_ok=True)
        self._memory: Dict[str, SimResult] = {}
        self.simulations_run = 0
        self.cache_hits = 0
        #: unreadable / zero-byte / corrupt disk-cache entries seen
        self.cache_warnings = 0
        #: persistently failing cells: key -> FailedResult (never retried
        #: again by this runner; a fresh runner starts clean)
        self.quarantined: Dict[str, FailedResult] = {}
        #: every quarantine event, in discovery order
        self.failures: List[FailedResult] = []
        #: resilience telemetry for reports / tests
        self.retries_performed = 0
        self.timeouts = 0
        self.pool_restarts = 0
        #: lock-step groups executed (each covers >= 2 cells in one pass)
        self.lockstep_groups = 0
        if run_log is None:
            run_log = os.environ.get("REPRO_RUN_LOG", "")
        self.run_log: Optional[RunLog] = RunLog(run_log) if run_log else None
        self.progress = progress
        self.heartbeat_interval = heartbeat_interval
        self._last_heartbeat = 0.0
        self.metrics = metrics
        if spans is None:
            spans = os.environ.get("REPRO_SPANS", "")
        if isinstance(spans, SpanRecorder):
            self.spans: Optional[SpanRecorder] = spans
        else:
            self.spans = SpanRecorder(spans) if spans else None
        self.trace_ctx = trace_ctx
        #: parent context of the campaign currently executing (the
        #: campaign root span, a shard span or a serve job span);
        #: stamps trace/span ids onto run-log lifecycle events.
        self._trace_parent: Optional[SpanContext] = trace_ctx
        self._campaign_t0 = time.perf_counter()

    # ------------------------------------------------------------------
    # campaign observability
    # ------------------------------------------------------------------
    def _log(self, event: str, **fields) -> None:
        if self.run_log is not None:
            self.run_log.log(event, **fields)

    def _log_cell(self, event: str, key: str, triple: Triple,
                  **fields) -> None:
        """Log one cell lifecycle record: the cell's identity + ``fields``."""
        if self.run_log is not None:
            workload, config, seed = triple
            self.run_log.log(event, key=key, workload=workload,
                             config=config.name, seed=seed, **fields,
                             **self._cell_trace(key))

    def _cell_trace(self, key: str) -> Dict[str, str]:
        """Trace-correlation fields for one cell's lifecycle events.

        The span id is *derived* from the trace id and cache key, so
        every host executing (or re-executing) the same cell agrees on
        it without coordination — run-logs and span files merge by id.
        Empty when tracing is off (the common case, one attr check).
        """
        parent = self._trace_parent
        if parent is None:
            return {}
        return {
            "trace_id": parent.trace_id,
            "span_id": derive_span_id(parent.trace_id, "cell", key),
            "parent_id": parent.span_id,
        }

    def _campaign_trace(self) -> Dict[str, str]:
        parent = self._trace_parent
        if parent is None:
            return {}
        return {"trace_id": parent.trace_id, "span_id": parent.span_id}

    def _cell_context(self, key: str) -> Optional[SpanContext]:
        """Context of ``key``'s ``cell`` span; None unless spans are on."""
        parent = self._trace_parent
        if self.spans is None or parent is None:
            return None
        return SpanContext(parent.trace_id,
                           derive_span_id(parent.trace_id, "cell", key))

    def _child_span(self, name: str, cell: Optional[SpanContext]):
        """A span under ``cell``, or a no-op context when untraced."""
        if cell is None:
            return nullcontext()
        return self.spans.span(name, parent=cell)

    def _cell_span(self, key: str, triple: Triple, seconds: float = 0.0,
                   start_t: Optional[float] = None, status: str = "ok",
                   **attrs) -> None:
        """Record ``key``'s ``cell`` span, ending now.

        Every path records its cells here: a run spans its last attempt
        (``seconds``), a lock-step cell its group's shared bracket
        (``start_t``), and a cache hit or a quarantine is an instant.
        """
        cell = self._cell_context(key)
        if cell is None:
            return
        workload, config, seed = triple
        end_t = time.time()
        self.spans.record(
            "cell", parent=self._trace_parent,
            start_t=end_t - seconds if start_t is None else start_t,
            end_t=end_t, status=status, span_id=cell.span_id,
            workload=workload, config=config.name, seed=seed, **attrs)

    def _heartbeat(self, batch: _Batch, inflight: int = 0) -> None:
        """Emit a progress line + run-log record, rate-limited."""
        if self.progress is None and self.run_log is None:
            return
        now = time.monotonic()
        if now - self._last_heartbeat < self.heartbeat_interval:
            return
        self._last_heartbeat = now
        total, queued = len(batch.pending), len(batch.queue)
        done = sum(1 for key in batch.pending
                   if key in self._memory or key in self.quarantined)
        elapsed = max(time.perf_counter() - self._campaign_t0, 1e-9)
        rate = done / elapsed
        eta = (round((total - done) / rate, 3)
               if rate > 0 and total >= done else None)
        self._log("heartbeat", done=done, total=total,
                  inflight=inflight, queued=queued,
                  elapsed_s=round(elapsed, 3),
                  sims_per_sec=round(rate, 4), eta_s=eta,
                  **self._campaign_trace())
        if self.progress is not None:
            eta_text = "--" if eta is None else f"{eta:.0f}s"
            self.progress(
                f"[runner] {done}/{total} done · {inflight} in flight · "
                f"{queued} queued · {rate:.2f} sims/s · ETA {eta_text} · "
                f"{self.retries_performed} retried · "
                f"{len(self.quarantined)} quarantined"
            )

    # ------------------------------------------------------------------
    def _key(self, workload: str, config: CoreConfig, seed: int) -> str:
        blob = json.dumps(
            {
                # key on the result schema so stale on-disk entries are
                # skipped (not silently deserialized) after field changes
                "schema": RESULT_SCHEMA_VERSION,
                "workload": workload,
                "ops": self.target_ops,
                "seed": seed,
                "config": config.name,
                "sched": vars(config.scheduler) if hasattr(config.scheduler, "__dict__")
                else str(config.scheduler),
                # sampled and full runs of the same cell coexist in one
                # cache: the sampling knobs join the key whenever the
                # config samples (None keeps full-run keys stable
                # across knob-default changes)
                "sampling": (
                    [config.sample_period, config.sample_window,
                     config.warmup_cycles, config.ff_width,
                     config.ff_warmup_ops]
                    if getattr(config, "sample_period", 0) else None
                ),
            },
            sort_keys=True,
            default=str,
        )
        return hashlib.sha256(blob.encode()).hexdigest()[:24]

    def key_for(self, workload: str, config: CoreConfig,
                seed: Optional[int] = None) -> str:
        """Public cell-key derivation (the disk-cache / run-log key).

        The reconciliation detector (:mod:`repro.distrib.reconcile`)
        uses it to line up the expected campaign matrix against cache
        entries and run-log records; ``seed=None`` resolves to the
        runner's default, matching :meth:`run` / :meth:`run_many`.
        """
        return self._key(workload, config, self.seed if seed is None else seed)

    def cache_path(self, key: str) -> Optional[Path]:
        """Where ``key``'s disk-cache entry lives (None: cache disabled)."""
        if self.cache_dir is None:
            return None
        return self.cache_dir / f"{key}.json"

    def _cache_warning(self, key: str, reason: str) -> None:
        """Count one tolerated cache corruption, everywhere it matters.

        Beyond the in-process :attr:`cache_warnings` counter (surfaced
        on stderr by the CLI), the event lands in the structured run-log
        and — when a registry is attached — on the
        ``runner.cache_warnings`` metrics counter, so a long-lived host
        like the serve daemon can report cache health on ``/healthz``.
        """
        self.cache_warnings += 1
        self._log("cache_warning", key=key, reason=reason,
                  count=self.cache_warnings)
        if self.metrics is not None:
            self.metrics.count("runner.cache_warnings")

    def _load_disk(self, key: str) -> Optional[SimResult]:
        """Fetch one disk-cache entry; any unusable entry is a miss.

        Tolerates (and counts on :attr:`cache_warnings`) corrupt JSON,
        zero-byte files from a crashed pre-atomic writer, and unreadable
        entries (permissions, transient IO errors).  Unreadable files are
        left in place — the next writer's ``os.replace`` repairs them;
        corrupt ones are deleted so they get re-simulated exactly once.
        """
        if self.cache_dir is None:
            return None
        path = self.cache_dir / f"{key}.json"
        if not path.exists():
            return None
        try:
            text = path.read_text()
        except OSError:
            self._cache_warning(key, "unreadable")
            return None
        except UnicodeDecodeError:
            # binary garbage where JSON should be: definitely corrupt
            self._cache_warning(key, "binary-garbage")
            self._discard_entry(path)
            return None
        if not text.strip():
            self._cache_warning(key, "zero-byte")
            self._discard_entry(path)
            return None
        try:
            return SimResult.from_dict(json.loads(text))
        except (ValueError, KeyError, TypeError):
            # truncated / corrupt (e.g. a worker died mid-write before
            # writes were atomic): drop it and re-simulate
            self._cache_warning(key, "corrupt")
            self._discard_entry(path)
            return None

    @staticmethod
    def _discard_entry(path: Path) -> None:
        try:
            path.unlink()
        except OSError:
            pass

    def _fetch_cached(self, key: str) -> Optional[SimResult]:
        """Memory-then-disk lookup; counts a hit when found."""
        result = self._memory.get(key)
        if result is None:
            result = self._load_disk(key)
            if result is not None:
                self._memory[key] = result
        if result is not None:
            self.cache_hits += 1
        return result

    def _store(self, key: str, result: SimResult) -> None:
        self._memory[key] = result
        if self.cache_dir is not None:
            _atomic_write_json(
                self.cache_dir / f"{key}.json", result.to_dict()
            )

    def run(self, workload: str, config: CoreConfig,
            seed: Optional[int] = None) -> SimResult:
        """Run (or fetch) one simulation.

        ``seed`` overrides the runner's workload-data seed for seed-
        sensitivity studies; the cache distinguishes seeds.  Unlike
        :meth:`run_many`, a failing simulation raises (no retry, no
        quarantine).
        """
        seed = self.seed if seed is None else seed
        key = self._key(workload, config, seed)
        triple = (workload, config, seed)
        result = self._fetch_cached(key)
        if result is not None:
            self._log_cell("cache_hit", key, triple)
            return result
        self._log_cell("start", key, triple, attempt=0)
        started = time.perf_counter()
        trace = get_trace(workload, self.target_ops, seed)
        result = simulate(trace, config)
        self._settle(_Batch({key: triple}, retries=0), key, 0, result,
                     time.perf_counter() - started)
        return result

    # ------------------------------------------------------------------
    # cell settlement
    # ------------------------------------------------------------------
    def _settle(self, batch: _Batch, key: str, attempt: int,
                outcome: Union[SimResult, Failure], seconds: float = 0.0,
                worker: Optional[int] = None,
                span_start: Optional[float] = None, **span_attrs) -> None:
        """Settle one attempt at ``key``; every execution path ends here.

        A :class:`SimResult` is merged into the memory and disk caches
        (so serial, lock-step and pool runs leave identical caches) and
        gets the cell's one ``finish`` record and one ``cell`` span
        (``span_attrs`` say which path ran it; ``worker``, the pool
        process that ran it, tags the span too).  A failure — a ``(kind,
        error, snapshot)`` triple — is charged against the batch's
        retry budget: while budget remains the cell goes back on the
        work queue at its next attempt; a deadlock (deterministic) or an
        exhausted budget quarantines it as a :class:`FailedResult`.
        """
        triple = batch.pending[key]
        if isinstance(outcome, SimResult):
            self.simulations_run += 1
            self._store(key, outcome)
            self._log_cell("finish", key, triple, attempt=attempt,
                           seconds=round(seconds, 6),
                           worker=os.getpid() if worker is None else worker)
            if worker is not None:
                span_attrs["worker"] = worker
            self._cell_span(key, triple, seconds, span_start, **span_attrs)
            return
        kind, error, snapshot = outcome
        if kind != "deadlock" and attempt < batch.retries:
            self.retries_performed += 1
            self._log("retry", key=key, attempt=attempt + 1, kind=kind,
                      error=error, **self._cell_trace(key))
            batch.queue.append((key, attempt + 1))
            return
        workload, config, seed = triple
        failed = FailedResult(
            workload=workload, config_name=config.name, seed=seed,
            kind=kind, error=error, attempts=attempt + 1, snapshot=snapshot,
        )
        self.quarantined[key] = failed
        self.failures.append(failed)
        self._log("quarantine", key=key, kind=kind, error=error,
                  attempts=failed.attempts, **self._cell_trace(key))
        # instant error span: the attempt's timing was lost to the
        # failure, but the derived id still lands the cell in the
        # merged trace, marked failed
        self._cell_span(key, triple, status="error", kind=kind,
                        attempts=failed.attempts)

    @staticmethod
    def _classify_failure(exc: BaseException) -> Failure:
        if isinstance(exc, SimulationDeadlock):
            return ("deadlock", str(exc), getattr(exc, "snapshot", {}) or {})
        return ("error", f"{type(exc).__name__}: {exc}", {})

    def failure_summary(self) -> str:
        """Human-readable summary of every quarantined cell ("" if none)."""
        if not self.failures:
            return ""
        lines = [f"{len(self.failures)} cell(s) quarantined:"]
        lines += [f"  - {failed.describe()}" for failed in self.failures]
        return "\n".join(lines)

    # ------------------------------------------------------------------
    # batch execution
    # ------------------------------------------------------------------
    def run_many(self, tasks: Sequence[Task], jobs: Optional[int] = None,
                 timeout: Optional[float] = None,
                 retries: Optional[int] = None,
                 lockstep: bool = True,
                 trace: Optional[SpanContext] = None,
                 ) -> List[Union[SimResult, FailedResult]]:
        """Run (or fetch) a batch of simulations, results in task order.

        Each task is ``(workload, config)`` or ``(workload, config,
        seed)``.  Cached tuples are served immediately; the uncached
        remainder is deduplicated and — with ``jobs > 1`` — fanned
        across a ``ProcessPoolExecutor``.  Workers publish their results
        through the (atomic) disk cache, so a parallel batch leaves the
        cache in exactly the state a serial run would, and results are
        byte-identical to serial execution.

        A cell whose worker crashes, hangs past ``timeout`` or raises is
        retried up to ``retries`` times (deterministic failures —
        deadlocks — are not retried) and then **quarantined**: its slot
        in the returned list holds a :class:`FailedResult` and later
        batches serve the same record without re-running it.  Callers
        that need every cell healthy should check ``result.ok`` or
        :attr:`failures`.  ``KeyboardInterrupt`` aborts the batch but
        every already-finished cell stays merged in the cache.

        On the serial path (``jobs == 1``), uncached cells sharing a
        (workload, seed) run as one **lock-step group**: the trace is
        decoded once and every config's pipeline advances cycle-by-cycle
        in a single pass (see :mod:`repro.core.lockstep`).  Results are
        bit-identical to per-cell execution; ``lockstep=False`` opts a
        batch out (e.g. for A/B throughput measurement).

        ``jobs`` / ``timeout`` / ``retries`` default to the runner's
        constructor values.  ``trace`` names the parent span context for
        this batch (overriding the runner-level ``trace_ctx``): with a
        recorder attached, cell spans parent directly under it; with
        neither, a traced batch opens its own ``campaign`` root span.
        """
        norm: List[Triple] = []
        for task in tasks:
            workload, config = task[0], task[1]
            seed = task[2] if len(task) > 2 and task[2] is not None else self.seed
            norm.append((workload, config, seed))
        keys = [self._key(w, c, s) for w, c, s in norm]
        jobs = self.jobs if jobs is None else max(1, jobs)
        timeout = self.task_timeout if timeout is None else (timeout or None)
        retries = self.retries if retries is None else max(0, retries)

        recorder = self.spans
        previous_parent = self._trace_parent
        parent = trace if trace is not None else self.trace_ctx
        campaign_span = None
        if recorder is not None and parent is None:
            campaign_span = recorder.start("campaign", tasks=len(norm))
            parent = campaign_span.context
        self._trace_parent = parent
        try:
            probe_span = None
            if recorder is not None and parent is not None:
                probe_span = recorder.start("cache_probe", parent=parent)
            pending: Dict[str, Triple] = {}
            logged_hits = set()
            for key, triple in zip(keys, norm):
                if key in pending or key in self.quarantined:
                    continue
                if self._fetch_cached(key) is None:
                    pending[key] = triple
                elif key not in logged_hits:
                    logged_hits.add(key)
                    self._log_cell("cache_hit", key, triple)
                    self._cell_span(key, triple, cached=True)
            if probe_span is not None:
                recorder.finish(probe_span, tasks=len(norm),
                                hits=len(logged_hits),
                                misses=len(pending))

            parallel = bool(pending) and jobs > 1 and len(pending) > 1
            self._log("campaign_start", tasks=len(norm),
                      pending=len(pending), jobs=jobs,
                      mode="parallel" if parallel else "serial",
                      **self._campaign_trace())
            campaign_started = time.perf_counter()
            self._campaign_t0 = campaign_started
            sims_before, hits_before = self.simulations_run, self.cache_hits
            batch = _Batch(pending, retries)
            if parallel:
                self._run_parallel(batch, jobs, timeout)
            elif pending:
                self._run_serial(batch, lockstep)
            self._log("campaign_end",
                      seconds=round(time.perf_counter() - campaign_started,
                                    6),
                      simulations=self.simulations_run - sims_before,
                      cache_hits=self.cache_hits - hits_before,
                      retries=self.retries_performed,
                      timeouts=self.timeouts,
                      quarantined=len(self.quarantined),
                      **self._campaign_trace())
            if campaign_span is not None:
                recorder.finish(
                    campaign_span,
                    simulations=self.simulations_run - sims_before,
                    cache_hits=self.cache_hits - hits_before,
                    quarantined=len(self.quarantined))
        finally:
            self._trace_parent = previous_parent

        out: List[Union[SimResult, FailedResult]] = []
        for key in keys:
            result = self._memory.get(key)
            out.append(result if result is not None else self.quarantined[key])
        return out

    def _run_serial(self, batch: _Batch, lockstep: bool = True) -> None:
        """Drain ``batch``'s work queue in process, one attempt at a time.

        With ``lockstep``, cells sharing a (workload, seed) first run as
        shared-trace groups (:meth:`_run_lockstep_tier`); singletons and
        whatever a group could not finish stay on the queue for this
        loop.  With span tracing on, each attempt nests ``trace_decode``,
        ``simulate`` and (sampled configs) ``sim.*`` spans under the
        cell span.

        ``KeyboardInterrupt`` propagates immediately — every cell
        settled before it is already merged into the cache, so an
        interrupted campaign resumes where it stopped."""
        if lockstep and len(batch.pending) > 1:
            self._run_lockstep_tier(batch)
        while batch.queue:
            key, attempt = batch.queue.popleft()
            workload, config, seed = triple = batch.pending[key]
            self._log_cell("start", key, triple, attempt=attempt)
            cell = self._cell_context(key)
            hook = ({} if cell is None else
                    {"phase_hook": _phase_span_hook(self.spans, cell)})
            started = time.perf_counter()
            try:
                with self._child_span("trace_decode", cell):
                    trace = get_trace(workload, self.target_ops, seed)
                with self._child_span("simulate", cell):
                    outcome = simulate(trace, config, **hook)
            except Exception as exc:
                outcome = self._classify_failure(exc)
            self._settle(batch, key, attempt, outcome,
                         time.perf_counter() - started,
                         attempts=attempt + 1)
            self._heartbeat(batch)

    def _run_lockstep_tier(self, batch: _Batch) -> None:
        """Run multi-config (workload, seed) groups in lock-step.

        Each group decodes its trace once and advances every config's
        pipeline in a single pass (:func:`repro.core.lockstep.
        run_lockstep`).  Its cells leave the work queue and settle as
        attempt 0 through :meth:`_settle`, exactly like per-cell runs,
        so the retry budget counts the lock-step attempt: a failed cell
        goes back on the queue at attempt 1, or is quarantined.  A
        failure *outside* the per-pipeline boundary (the trace decoder
        raised, the driver itself failed) charges that attempt to every
        cell of the group.
        """
        groups: Dict[Tuple[str, int], List[str]] = {}
        for key, (workload, _config, seed) in batch.pending.items():
            groups.setdefault((workload, seed), []).append(key)
        groups = {group: keys for group, keys in groups.items()
                  if len(keys) > 1}  # singletons have no shared work
        grouped = {key for keys in groups.values() for key in keys}
        batch.queue = deque(entry for entry in batch.queue
                            if entry[0] not in grouped)
        for (workload, seed), group_keys in groups.items():
            configs = [batch.pending[key][1] for key in group_keys]
            for key in group_keys:
                self._log_cell("start", key, batch.pending[key], attempt=0)
            started = time.perf_counter()
            group_start_t = time.time()
            try:
                trace = get_trace(workload, self.target_ops, seed)
                outcomes = run_lockstep(trace, configs)
            except Exception as exc:
                outcomes, group_ran = [exc] * len(group_keys), False
            else:
                group_ran = True
            seconds = time.perf_counter() - started
            for key, outcome in zip(group_keys, outcomes):
                if not isinstance(outcome, SimResult):
                    outcome = self._classify_failure(outcome)
                self._settle(batch, key, 0, outcome,
                             seconds / len(group_keys),
                             span_start=group_start_t, lockstep=True)
            completed = sum(isinstance(o, SimResult) for o in outcomes)
            if group_ran:
                if self.spans is not None and self._trace_parent is not None:
                    self.spans.record(
                        "lockstep_group", parent=self._trace_parent,
                        start_t=group_start_t, end_t=time.time(),
                        workload=workload, seed=seed,
                        cells=len(group_keys), completed=completed)
                self.lockstep_groups += 1
                if self.metrics is not None:
                    self.metrics.count("runner.lockstep_groups")
            self._log("lockstep", workload=workload, seed=seed,
                      cells=len(group_keys), completed=completed,
                      seconds=round(seconds, 6))

    def _run_parallel(self, batch: _Batch, jobs: int,
                      timeout: Optional[float]) -> None:
        """Fan ``batch`` over a worker pool, surviving worker failures.

        Structure: the batch's work queue of (key, attempt) plus an
        in-flight map of future -> (key, deadline, attempt).  Every
        outcome — a worker's result or exception, a timeout, a lost
        worker — settles through :meth:`_settle`.  A hung task
        (deadline exceeded) or a broken pool kills every worker,
        charges an attempt to the in-flight cells, requeues them, and
        respawns the pool after an exponential backoff.
        ``KeyboardInterrupt`` tears the pool down without waiting; the
        cache keeps everything already merged.
        """
        from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
        from concurrent.futures.process import BrokenProcessPool

        cache = str(self.cache_dir) if self.cache_dir is not None else ""
        max_workers = min(jobs, len(batch.pending))
        queue = batch.queue
        inflight: Dict[object, Tuple[str, Optional[float], int]] = {}
        pool: Optional[ProcessPoolExecutor] = None
        breaks = 0

        def kill_pool() -> None:
            nonlocal pool
            if pool is None:
                return
            for proc in list(getattr(pool, "_processes", {}).values()):
                try:
                    proc.terminate()
                except OSError:  # already gone
                    pass
            pool.shutdown(wait=False, cancel_futures=True)
            pool = None

        def restart_pool(culprits: Sequence[object]) -> None:
            """Pool died / must be killed: requeue every in-flight cell.

            The cells named in ``culprits`` already had their failure
            settled; the rest get an attempt charged too (the dying
            worker cannot be attributed, so everybody pays one — this
            bounds a kill-looping cell at ``retries`` pool restarts)."""
            nonlocal breaks
            for future, (key, _, attempt) in inflight.items():
                if future not in culprits:
                    self._settle(batch, key, attempt, (
                        "worker-lost", "worker pool died mid-task", {}))
            inflight.clear()
            kill_pool()
            breaks += 1
            self.pool_restarts += 1
            self._log("pool_restart", restarts=self.pool_restarts)
            time.sleep(BACKOFF_BASE * (2 ** min(breaks - 1, 6)))

        try:
            while queue or inflight:
                if pool is None:
                    pool = ProcessPoolExecutor(max_workers=max_workers)
                while queue and len(inflight) < 2 * max_workers:
                    key, attempt = queue.popleft()
                    workload, config, seed = triple = batch.pending[key]
                    self._log_cell("submit", key, triple, attempt=attempt)
                    future = pool.submit(_run_task, (
                        workload, config, seed, self.target_ops, cache, key,
                        attempt))
                    deadline = (time.monotonic() + timeout) if timeout else None
                    inflight[future] = (key, deadline, attempt)
                done, _ = wait(list(inflight), timeout=_POLL_INTERVAL,
                               return_when=FIRST_COMPLETED)
                broke = False
                for future in done:
                    key, _, attempt = inflight.pop(future)
                    try:
                        envelope = future.result()
                    except BrokenProcessPool:
                        self._settle(batch, key, attempt, (
                            "worker-lost",
                            "worker process died (BrokenProcessPool)", {}))
                        broke = True
                    except Exception as exc:
                        self._settle(batch, key, attempt,
                                     self._classify_failure(exc))
                    else:
                        self._settle(
                            batch, key, attempt,
                            SimResult.from_dict(envelope["result"]),
                            envelope["seconds"], envelope["worker"])
                self._heartbeat(batch, len(inflight))
                if broke:
                    restart_pool(culprits=())
                    continue
                now = time.monotonic()
                expired = [
                    future
                    for future, (_, deadline, _) in inflight.items()
                    if deadline is not None and now > deadline
                ]
                for future in expired:
                    key, _, attempt = inflight[future]
                    self.timeouts += 1
                    self._log("timeout", key=key, attempt=attempt,
                              timeout_s=timeout, **self._cell_trace(key))
                    self._settle(batch, key, attempt, (
                        "timeout",
                        f"exceeded {timeout:g}s wall-clock timeout", {}))
                if expired:
                    # a hung worker cannot be cancelled — only killed
                    restart_pool(culprits=expired)
        except KeyboardInterrupt:
            kill_pool()
            raise
        finally:
            if pool is not None:
                pool.shutdown(wait=True, cancel_futures=True)

    def run_seeds(self, workload: str, config: CoreConfig,
                  seeds: Sequence[int],
                  jobs: Optional[int] = None) -> List[SimResult]:
        """Run the same (workload, config) across several data seeds."""
        return self.run_many(
            [(workload, config, seed) for seed in seeds], jobs=jobs
        )

    def run_arch(self, workload: str, arch: str, width: int = 8, **overrides) -> SimResult:
        """Run (or fetch) using a named architecture preset."""
        return self.run(workload, config_for(arch, width=width, **overrides))

    # ------------------------------------------------------------------
    def suite_results(
        self,
        config: CoreConfig,
        workloads: Sequence[str] = SUITE_NAMES,
        jobs: Optional[int] = None,
    ) -> Dict[str, Union[SimResult, FailedResult]]:
        """Run the whole suite under one configuration.

        Quarantined cells appear as :class:`FailedResult` values —
        filter with ``result.ok`` and see :meth:`failure_summary`.
        """
        results = self.run_many(
            [(name, config) for name in workloads], jobs=jobs
        )
        return dict(zip(workloads, results))

    def speedups_over(
        self,
        config: CoreConfig,
        baseline: CoreConfig,
        workloads: Sequence[str] = SUITE_NAMES,
        jobs: Optional[int] = None,
    ) -> Dict[str, float]:
        """Per-workload speedup (execution time ratio) of config vs baseline.

        Workloads whose baseline or test cell was quarantined are left
        out of the result (check :attr:`failures` for the why).
        """
        tasks: List[Task] = [(name, baseline) for name in workloads]
        tasks += [(name, config) for name in workloads]
        results = self.run_many(tasks, jobs=jobs)
        out = {}
        for index, name in enumerate(workloads):
            base = results[index]
            test = results[index + len(workloads)]
            if not (base.ok and test.ok):
                continue
            out[name] = base.seconds / test.seconds
        return out


def geomean(values: Iterable[float]) -> float:
    """Geometric mean (the paper's cross-suite aggregate)."""
    values = [v for v in values]
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))
