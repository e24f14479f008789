"""Hardware-counter metrics registry and interval time-series sampling.

Two opt-in instruments, both observers (:mod:`repro.core.observe`):
the pipeline, the schedulers and the LSQ guard every hook on one
nullable reference, so the disabled cost is one branch per site.

* :class:`MetricsRegistry` — a flat namespace of named **counters**
  (monotonic event counts: ops committed, dispatch blocks by reason,
  steering outcomes, store-forwards), **gauges** (last-written level)
  and **histograms** (distributions over fixed bucket bounds, e.g.
  squash depths).  Counters the core already keeps are added once, at
  the end of a run.  ``registry.count(name)`` is the one-liner used on
  hot paths; :meth:`MetricsRegistry.snapshot` renders everything to a
  plain dict for JSON/CSV export.

* :class:`IntervalSampler` — snapshots the running pipeline every *N*
  cycles (plus one tail sample for the final partial interval) into a
  list of plain dicts: interval and cumulative IPC, per-structure
  occupancy (ROB / window / decode queue / LQ / SQ), per-IQ queue
  depths via ``scheduler.queue_occupancy()``, interval stall-class
  fractions (when a :class:`~repro.telemetry.attribution.
  StallAttribution` is attached) and interval deltas of the
  scheduler's ``extra_stats()`` (steering outcomes, issue mix).  The
  series lands on ``SimResult.interval_samples``; the last sample's
  cumulative fields match the end-of-run ``SimStats`` exactly.

Neither instrument mutates simulation state: enabling both leaves
every simulated statistic byte-identical (pinned against
``tests/golden_stats.json``).
"""

from __future__ import annotations

from bisect import bisect_left
from pathlib import Path
from typing import Dict, List, Optional, Sequence, TYPE_CHECKING, Union

from ..core.observe import Observer

if TYPE_CHECKING:  # pragma: no cover
    from ..core.pipeline import Pipeline
    from ..core.stats import SimResult

#: Default histogram bucket upper bounds (powers of two; an implicit
#: overflow bucket catches everything above the last bound).
DEFAULT_BUCKETS = (1, 2, 4, 8, 16, 32, 64, 128, 256)


class CounterMetric:
    """A monotonically increasing event count."""

    __slots__ = ("name", "value")
    kind = "counter"

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n

    def snapshot(self) -> Dict[str, object]:
        return {"type": self.kind, "value": self.value}


class GaugeMetric:
    """A last-written level (instantaneous value, not a count)."""

    __slots__ = ("name", "value")
    kind = "gauge"

    def __init__(self, name: str):
        self.name = name
        self.value: float = 0

    def set(self, value: float) -> None:
        self.value = value

    def add(self, delta: float) -> None:
        """Adjust the level by ``delta`` (e.g. queue depth +1/-1)."""
        self.value += delta

    def snapshot(self) -> Dict[str, object]:
        return {"type": self.kind, "value": self.value}


class HistogramMetric:
    """A distribution over fixed bucket upper bounds.

    ``observe(v)`` lands ``v`` in the first bucket whose bound is
    ``>= v``; values above every bound land in the overflow bucket.
    """

    __slots__ = ("name", "bounds", "buckets", "count", "total")
    kind = "histogram"

    def __init__(self, name: str, buckets: Sequence[float] = DEFAULT_BUCKETS):
        if not buckets or list(buckets) != sorted(buckets):
            raise ValueError(f"{name}: bucket bounds must be sorted and non-empty")
        self.name = name
        self.bounds = tuple(buckets)
        self.buckets = [0] * (len(self.bounds) + 1)  # +1 = overflow
        self.count = 0
        self.total: float = 0

    def observe(self, value: float) -> None:
        # first bucket whose bound is >= value; everything past the last
        # bound lands in the trailing overflow bucket
        self.buckets[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.total += value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def snapshot(self) -> Dict[str, object]:
        return {
            "type": self.kind,
            "count": self.count,
            "total": self.total,
            "mean": self.mean,
            "buckets": {
                **{f"le_{bound}": n
                   for bound, n in zip(self.bounds, self.buckets)},
                "overflow": self.buckets[-1],
            },
        }


Metric = Union[CounterMetric, GaugeMetric, HistogramMetric]


class MetricsRegistry(Observer):
    """Named hardware-style counters/gauges/histograms for one run.

    Metrics are created lazily on first touch (``counter(name)`` is
    get-or-create); asking for an existing name with a different kind
    raises ``TypeError``.  Instrumentation sites use dotted names
    (``pipeline.commit_ops``, ``sched.steer.share``, ``lsq.forwards``)
    so snapshots group naturally.
    """

    def __init__(self) -> None:
        self._metrics: Dict[str, Metric] = {}

    def _get_or_create(self, name: str, factory, kind: str) -> Metric:
        metric = self._metrics.get(name)
        if metric is None:
            metric = self._metrics[name] = factory()
        elif metric.kind != kind:
            raise TypeError(
                f"metric {name!r} already registered as {metric.kind}, "
                f"not {kind}"
            )
        return metric

    def counter(self, name: str) -> CounterMetric:
        return self._get_or_create(name, lambda: CounterMetric(name), "counter")

    def gauge(self, name: str) -> GaugeMetric:
        return self._get_or_create(name, lambda: GaugeMetric(name), "gauge")

    def histogram(
        self, name: str, buckets: Sequence[float] = DEFAULT_BUCKETS
    ) -> HistogramMetric:
        return self._get_or_create(
            name, lambda: HistogramMetric(name, buckets), "histogram"
        )

    # hot-path one-liner: sites call ``metrics.count("x")`` behind a
    # single nil-check, so the enabled cost stays a dict lookup + add
    def count(self, name: str, n: int = 1) -> None:
        metric = self._metrics.get(name)
        if metric is None:
            metric = self._metrics[name] = CounterMetric(name)
        metric.value += n

    # -- observing a pipeline ------------------------------------------
    on_count = count

    def on_dispatch_block(self, reason: str) -> None:
        self.count(f"pipeline.dispatch_block.{reason}")

    def on_recovery(self, resume_cycle: int,
                    squashed: Optional[int] = None) -> None:
        if squashed is not None:
            self.observe("pipeline.squash_depth", squashed)

    def on_finalize(self, pipe: "Pipeline", result: "SimResult") -> None:
        """Add the counters the core already keeps (non-zero ones only,
        as if counted inline, so snapshots keep the same keys)."""
        stats, lsu, rename = pipe.stats, pipe.lsu, pipe.rename
        for name, n in (
            ("pipeline.fetch_ops", stats.fetched),
            ("pipeline.dispatch_ops", stats.energy_events["dispatch"]),
            ("pipeline.issue_ops", stats.issued),
            ("pipeline.commit_ops", stats.committed),
            ("pipeline.branch_mispredicts", stats.branch_mispredicts),
            ("pipeline.squashes", stats.flushes),
            ("lsq.searches", lsu.searches),
            ("lsq.forwards", lsu.forwards),
            ("lsq.violations", lsu.violations),
            ("rename.renames", rename.renames),
            ("rename.recovered", rename.recovered),
        ):
            if n:
                self.count(name, n)

    def observe(self, name: str, value: float) -> None:
        metric = self._metrics.get(name)
        if metric is None:
            metric = self._metrics[name] = HistogramMetric(name)
        metric.observe(value)

    def set_gauge(self, name: str, value: float) -> None:
        """Get-or-create one-liner for gauges (queue depths, latencies)."""
        metric = self._metrics.get(name)
        if metric is None:
            metric = self._metrics[name] = GaugeMetric(name)
        metric.value = value

    def __len__(self) -> int:
        return len(self._metrics)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def names(self) -> List[str]:
        return sorted(self._metrics)

    def value(self, name: str) -> float:
        """The scalar value of a counter/gauge (0 if never touched)."""
        metric = self._metrics.get(name)
        return metric.value if metric is not None else 0

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """Everything, as plain JSON-serialisable dicts, sorted by name."""
        return {name: self._metrics[name].snapshot()
                for name in sorted(self._metrics)}


class IntervalSampler(Observer):
    """Every-N-cycles time-series snapshots of a running pipeline.

    The pipeline calls :meth:`on_tick` once per cycle (after the cycle
    counter advances) and :meth:`on_finalize` after the run loop, which
    takes one tail sample covering the final partial interval — unless
    the run ended exactly on a boundary, in which case the series is
    already complete.  Samples are plain dicts (see :meth:`_take`).
    """

    def __init__(self, interval: int = 1000):
        if interval <= 0:
            raise ValueError(f"sample interval must be positive, got {interval}")
        self.interval = interval
        self.samples: List[Dict[str, object]] = []
        self._next = interval
        self._prev_cycle = 0
        self._prev = {"committed": 0, "issued": 0, "fetched": 0}
        self._prev_stalls: Dict[str, int] = {}
        self._prev_sched: Dict[str, float] = {}

    def on_tick(self, pipe: "Pipeline") -> None:
        if pipe.cycle >= self._next:
            self._take(pipe)
            # advance along the fixed grid (multiples of ``interval``):
            # rebasing on pipe.cycle would let one overshoot — e.g. a
            # driver that ticks less than every cycle — permanently
            # shift every later sample point off the grid
            self._next += (
                (pipe.cycle - self._next) // self.interval + 1
            ) * self.interval

    def finalize(self, pipe: "Pipeline") -> None:
        """Sample the final partial interval (no-op on exact boundary)."""
        if not self.samples or self.samples[-1]["cycle"] != pipe.cycle:
            self._take(pipe)

    def on_finalize(self, pipe: "Pipeline", result: "SimResult") -> None:
        self.finalize(pipe)
        result.interval_samples = self.samples
        result.sample_interval = self.interval

    def take(self, pipe: "Pipeline") -> Dict[str, object]:
        """Take one explicit sample now, off the periodic grid.

        Used by the sampled-simulation driver
        (:mod:`repro.core.sampling`) to bracket measured windows: the
        delta fields of the returned sample then cover exactly the
        stretch since the previous take.  Does not move the
        :meth:`on_tick` grid.
        """
        self._take(pipe)
        return self.samples[-1]

    def _take(self, pipe: "Pipeline") -> None:
        stats = pipe.stats
        cycle = pipe.cycle
        interval = cycle - self._prev_cycle
        cumulative = {
            "committed": stats.committed,
            "issued": stats.issued,
            "fetched": stats.fetched,
        }
        delta = {k: cumulative[k] - self._prev[k] for k in cumulative}
        sample: Dict[str, object] = {
            "cycle": cycle,
            "interval": interval,
            **cumulative,
            "delta": delta,
            "ipc": delta["committed"] / interval if interval else 0.0,
            "ipc_cum": cumulative["committed"] / cycle if cycle else 0.0,
            "occupancy": {
                "rob": len(pipe.rob),
                "sched": pipe.scheduler.occupancy(),
                "decode_queue": len(pipe.decode_queue),
                "lq": pipe.lsu.lq_occupancy,
                "sq": pipe.lsu.sq_occupancy,
            },
            "queues": dict(pipe.scheduler.queue_occupancy()),
        }
        attribution = pipe.attribution
        if attribution is not None:
            stalls = attribution.cycles
            sample["stall_fractions"] = {
                k: (stalls[k] - self._prev_stalls.get(k, 0)) / interval
                if interval else 0.0
                for k in stalls
            }
            self._prev_stalls = dict(stalls)
        sched = pipe.scheduler.extra_stats()
        if sched:
            sample["scheduler"] = {
                k: v - self._prev_sched.get(k, 0) for k, v in sched.items()
            }
            self._prev_sched = dict(sched)
        self._prev_cycle = cycle
        self._prev = cumulative
        self.samples.append(sample)


# ---------------------------------------------------------------------------
# export helpers


def flatten_sample(sample: Dict[str, object]) -> Dict[str, object]:
    """One sample as a flat dict with dotted keys (for CSV rows)."""
    flat: Dict[str, object] = {}
    for key, value in sample.items():
        if isinstance(value, dict):
            for sub, val in value.items():
                flat[f"{key}.{sub}"] = val
        else:
            flat[key] = value
    return flat


def samples_to_csv(samples: List[Dict[str, object]]) -> str:
    """Render an interval series as CSV text (header + one row/sample)."""
    rows = [flatten_sample(s) for s in samples]
    columns: List[str] = []
    for row in rows:
        for key in row:
            if key not in columns:
                columns.append(key)

    def cell(value: object) -> str:
        if isinstance(value, float):
            return f"{value:.6g}"
        return "" if value is None else str(value)

    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(cell(row.get(col)) for col in columns))
    return "\n".join(lines) + "\n"


def write_samples_csv(samples: List[Dict[str, object]], path: str) -> Path:
    target = Path(path)
    target.write_text(samples_to_csv(samples))
    return target


def series(
    samples: List[Dict[str, object]], key: str
) -> List[Optional[float]]:
    """Extract one flattened column (dotted key) across all samples.

    A key absent from a sample yields ``None`` at that position —
    interval series are ragged by design (attribution can attach
    mid-run, sampled-mode window samples carry extra fields), and
    coercing "absent" to ``0.0`` would fabricate data points.  Callers
    that aggregate should filter ``None`` first.
    """
    out: List[Optional[float]] = []
    for sample in samples:
        flat = flatten_sample(sample)
        value = flat.get(key)
        out.append(None if value is None else float(value))
    return out
