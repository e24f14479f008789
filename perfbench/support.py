"""Shared plumbing: hermetic set-up, statistics, digests, host metadata.

Nothing here imports :mod:`repro`; :func:`scrub_environment` must run
before the first ``import repro`` because the experiment runner reads
its ``REPRO_*`` knobs at import time.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

#: The checkout root: the benchmark lives one level below it.
ROOT = Path(__file__).resolve().parents[1]
HERE = Path(__file__).resolve().parent

#: The workload seed whose full-detail digests are recorded in
#: :data:`GOLDEN_PATH`; other seeds get the invariant checks only.
DEFAULT_SEED = 1
GOLDEN_PATH = HERE / "golden_digests.json"

#: Parent of every per-run scratch directory (caches, serve queues).
SCRATCH_PARENT = ROOT / ".perfbench_tmp"


def scrub_environment() -> List[str]:
    """Drop every ``REPRO_*`` knob the shell may carry; returns their names.

    This covers ``REPRO_CHAOS``, ``REPRO_LOCKSTEP``, ``REPRO_SPANS``,
    ``REPRO_RUN_LOG``, ``REPRO_BENCH_*``, ``REPRO_SOA_NUMPY`` and any
    knob added later, so a run measures the defaults.
    """
    removed = sorted(name for name in os.environ if name.startswith("REPRO_"))
    for name in removed:
        del os.environ[name]
    return removed


class Scratch:
    """A fresh directory tree under :data:`SCRATCH_PARENT`, removed on exit.

    Every cache and queue the benchmark creates lives here, so the
    repository's own ``.bench_cache/`` is never read or written.
    """

    def __init__(self, parent: Path = SCRATCH_PARENT):
        parent.mkdir(parents=True, exist_ok=True)
        self.root = Path(tempfile.mkdtemp(prefix="run-", dir=parent))

    def fresh(self, name: str) -> Path:
        """A new, empty directory (never reused within one run)."""
        return Path(tempfile.mkdtemp(prefix=f"{name}-", dir=self.root))

    def close(self) -> None:
        shutil.rmtree(self.root, ignore_errors=True)
        try:
            self.root.parent.rmdir()  # only succeeds when no other run is live
        except OSError:
            pass

    def __enter__(self) -> "Scratch":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def point_caches_at(scratch: Scratch) -> None:
    """Route the trace and result caches into fresh scratch directories."""
    os.environ["REPRO_TRACE_CACHE"] = str(scratch.fresh("traces"))
    os.environ["REPRO_BENCH_CACHE"] = str(scratch.fresh("results"))


def import_repro() -> None:
    """Import the simulator from this checkout's ``src``, or exit 2.

    Refuses a ``repro`` found anywhere else: the benchmark measures the
    code next to it, never an installed copy.
    """
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no simulator sources under {src}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parents[1] != src.resolve():
        print(f"perfbench: imported repro from {repro.__file__}, "
              f"expected {src}", file=sys.stderr)
        raise SystemExit(2)


# ----------------------------------------------------------------------
# digests
# ----------------------------------------------------------------------
def digest(payload: Dict) -> str:
    """Stable digest of a ``SimResult.to_dict()`` payload.

    The payload is JSON-normalised first, so a result read back from
    the serve wire (string keys, lists for tuples) digests the same as
    the in-process object it came from.
    """
    normal = json.loads(json.dumps(payload))
    blob = json.dumps(normal, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:32]


def load_golden(seed: int) -> Optional[Dict[str, str]]:
    """Recorded digests when ``seed`` is the default seed, else ``None``."""
    if seed != DEFAULT_SEED:
        return None
    data = json.loads(GOLDEN_PATH.read_text())
    if data.get("seed") != DEFAULT_SEED:
        raise ValueError(f"{GOLDEN_PATH} records seed {data.get('seed')}, "
                         f"expected {DEFAULT_SEED}")
    return data["digests"]


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def median(values: Sequence[float]) -> float:
    return statistics.median(values)


def another_round(started: float, durations: Sequence[float],
                  seconds: float) -> bool:
    """Whether one more round brings the run closer to ``seconds``.

    Always true before the first round; afterwards a round starts only
    when it is expected to end nearer the budget than stopping now.
    """
    if not durations:
        return True
    mean = sum(durations) / len(durations)
    return time.perf_counter() - started + mean / 2 < seconds


def tail_percentile(values: Sequence[float],
                    beyond: int = 10) -> Optional[Tuple[int, float, int]]:
    """The highest whole percentile with at least ``beyond`` samples above it.

    Returns ``(percentile, value, n)`` using the nearest-rank value, or
    ``None`` when there are too few samples for any such percentile.
    """
    n = len(values)
    keep = n - beyond
    if keep < 1:
        return None
    pct = (100 * keep) // n
    if pct < 1:
        return None
    ordered = sorted(values)
    rank = max(1, math.ceil(pct * n / 100))
    return pct, ordered[rank - 1], n


# ----------------------------------------------------------------------
# host
# ----------------------------------------------------------------------
class HostProbe:
    """A fixed pure-Python loop, timed between units of work.

    A shared host changes speed by tens of percent over minutes, and
    every host-time figure of a run moves with it.  The probe runs none
    of the simulator's code, so its time tracks only the host.  Scaling
    a run's host times by ``NOMINAL_S / median probe time`` reports
    them at the host speed where one probe takes :data:`NOMINAL_S`; a
    slower simulator still shows in full.
    """

    #: probe time that defines the nominal host speed
    NOMINAL_S = 0.02
    #: loop iterations per probe (about NOMINAL_S on a 2.1 GHz Xeon)
    ITERATIONS = 80_000

    def __init__(self):
        self._table = [[0, key % 7] for key in range(1024)]
        self._heap: List[int] = []
        self.wall: List[float] = []
        self.cpu: List[float] = []

    def sample(self) -> None:
        """Time one probe (no allocation, so no garbage collection)."""
        table, heap = self._table, self._heap
        push, pop = heapq.heappush, heapq.heappop
        wall0, cpu0 = time.perf_counter(), time.process_time()
        for cycle in range(self.ITERATIONS):
            entry = table[cycle & 1023]
            entry[0] += 1
            if entry[1] <= (cycle & 7):
                push(heap, cycle + entry[1])
            while heap and heap[0] <= cycle:
                pop(heap)
        self.wall.append(time.perf_counter() - wall0)
        self.cpu.append(time.process_time() - cpu0)

    def wall_scale(self) -> float:
        """Factor turning this run's wall seconds into nominal seconds."""
        return self.NOMINAL_S / median(self.wall)

    def cpu_scale(self) -> float:
        """Factor turning this run's CPU seconds into nominal seconds."""
        return self.NOMINAL_S / median(self.cpu)


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far, in MiB (Linux: KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def host_metadata(workload: str, seed: int, seconds: int,
                  trace: bool) -> Dict:
    """What every output records about the run and the machine."""
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "default_seed": DEFAULT_SEED,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_model": _cpu_model(),
        "nproc": os.cpu_count(),
    }
