"""Per-layer host-time tracing, hooked from outside the simulator.

The traced run wraps calls into each layer's public methods and keeps,
per layer, a call count and *self* time: the wrapped call's duration
minus the time of wrapped calls nested inside it.  Everything stays in
memory until the run prints its summary.  Nothing here changes what a
layer computes; the traced-run tests pin that traced results are
byte-identical to untraced ones.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict
from typing import Callable, Dict, Iterable, List, Tuple

from repro.core.pipeline import Pipeline
from repro.frontend.branch_predictor import FrontEnd
from repro.lsq.mdp import StoreSetPredictor
from repro.memory.hierarchy import MemoryHierarchy
from repro.sched import create_scheduler

#: scheduler method -> layer it is charged to
SCHED_METHODS = {
    "select": "sched.select",
    "insert": "sched.insert",
    "on_wakeup": "sched.notify",
    "on_op_ready": "sched.notify",
    "on_complete": "sched.notify",
    "can_accept": "sched.other",
    "flush_from": "sched.other",
}
RENAME_METHODS = ("can_rename", "rename", "commit_mapping", "undo_mapping")
LSQ_METHODS = ("allocate_load", "allocate_store", "commit_load",
               "commit_store", "flush_from", "load_executed",
               "load_executing", "lq_full", "sq_full",
               "store_address_ready", "store_data_ready")
MDP_METHODS = ("flush_from", "flush_store", "load_dispatched",
               "record_store_steering", "remap_steering",
               "reserve_steering", "ssid_of", "steering_hint",
               "store_dispatched", "store_issued", "train_violation")
WAKEUP_METHODS = ("register", "register_mdp", "store_issued", "wake")
PORT_METHODS = ("assign", "can_issue", "grant", "unassign")
MEMORY_METHODS = ("access_data", "access_ifetch")
FRONTEND_METHODS = ("predict_branch", "resolve")

PIPELINE_LAYER = "core.pipeline"


class LayerClock:
    """Call counts and self nanoseconds per layer, safe across threads.

    Each thread keeps its own stack and tallies, so the hot path takes
    no lock; :meth:`totals` merges them.
    """

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._tallies: List[Tuple[List[int], Dict, Dict]] = []

    def _tally(self) -> Tuple[List[int], Dict, Dict]:
        tally = getattr(self._local, "tally", None)
        if tally is None:
            # stack[0] accumulates the time of outermost wrapped calls
            tally = ([0], defaultdict(int), defaultdict(int))
            self._local.tally = tally
            with self._lock:
                self._tallies.append(tally)
        return tally

    def wrap(self, layer: str, fn: Callable) -> Callable:
        clock = time.perf_counter_ns
        tally_of = self._tally

        def timed(*args, **kwargs):
            stack, calls, self_ns = tally_of()
            stack.append(0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                self_ns[layer] += elapsed - stack.pop()
                stack[-1] += elapsed
                calls[layer] += 1

        return timed

    def hook(self, obj, layer: str, names: Iterable[str]) -> None:
        """Replace ``obj``'s bound methods with timed ones (instance only)."""
        for name in names:
            setattr(obj, name, self.wrap(layer, getattr(obj, name)))

    def totals(self) -> Tuple[Dict[str, int], Dict[str, int], int]:
        """``(calls, self_ns, outermost_ns)`` merged over every thread."""
        calls: Dict[str, int] = defaultdict(int)
        self_ns: Dict[str, int] = defaultdict(int)
        outermost = 0
        with self._lock:
            for stack, tally_calls, tally_ns in self._tallies:
                outermost += stack[0]
                for layer, count in tally_calls.items():
                    calls[layer] += count
                for layer, ns in tally_ns.items():
                    self_ns[layer] += ns
        return dict(calls), dict(self_ns), outermost


class SelectTally:
    """Counts ``select`` calls that issued nothing."""

    def __init__(self):
        self.calls = 0
        self.empty = 0

    def wrap(self, select: Callable) -> Callable:
        def counted(cycle):
            picked = select(cycle)
            self.calls += 1
            if not picked:
                self.empty += 1
            return picked

        return counted


def traced_pipeline(trace, config, clock: LayerClock,
                    selects: SelectTally) -> Pipeline:
    """A :class:`Pipeline` whose layers report into ``clock``.

    Uses the public construction seams (``scheduler_factory``,
    ``frontend``, ``hierarchy``, ``mdp``) for the layers built before
    the pipeline, and instance wrapping for the ones it builds itself.
    Each seam gets exactly the object the pipeline would have built.
    """
    hierarchy = MemoryHierarchy(config.hierarchy)
    clock.hook(hierarchy, "memory", MEMORY_METHODS)
    frontend = FrontEnd()
    clock.hook(frontend, "frontend", FRONTEND_METHODS)
    mdp = StoreSetPredictor() if config.mdp_enabled else None
    if mdp is not None:
        clock.hook(mdp, "lsq.mdp", MDP_METHODS)

    def scheduler_factory(pipe):
        scheduler = create_scheduler(pipe)
        for name, layer in SCHED_METHODS.items():
            clock.hook(scheduler, layer, (name,))
        # counted outside the timed wrapper so the tally is not self time
        scheduler.select = selects.wrap(scheduler.select)
        return scheduler

    pipe = Pipeline(trace, config, scheduler_factory=scheduler_factory,
                    frontend=frontend, hierarchy=hierarchy, mdp=mdp)
    clock.hook(pipe.rename, "rename", RENAME_METHODS)
    clock.hook(pipe.lsu, "lsq", LSQ_METHODS)
    clock.hook(pipe.wakeup, "core.wakeup", WAKEUP_METHODS)
    clock.hook(pipe.ports, "core.ports", PORT_METHODS)
    clock.hook(pipe, PIPELINE_LAYER, ("step",))
    return pipe


def run_counting_dead(pipe: Pipeline):
    """Run a traced pipeline; returns ``(result, dead_cycles, steps)``.

    A live ``step()`` changes at least one of: commits, issues,
    fetches, decode queue length, dispatch queue length.  Every other
    simulated cycle is dead, so a step that advances the clock by
    several cycles counts its extra cycles as dead.  The state is read
    between ``step()`` calls, outside the timed region.
    """
    pipe.begin()
    stats = pipe.stats
    live = steps = 0
    while True:
        before = (pipe.commit_count, stats.issued, stats.fetched,
                  len(pipe.decode_queue), len(pipe.dispatch_queue))
        alive = pipe.step()
        steps += 1
        if before != (pipe.commit_count, stats.issued, stats.fetched,
                      len(pipe.decode_queue), len(pipe.dispatch_queue)):
            live += 1
        if not alive:
            result = pipe.finalize()
            return result, result.stats.cycles - live, steps


class PhaseTimer:
    """``phase_hook`` for sampled runs: host seconds spent in each phase."""

    def __init__(self):
        self.seconds: Dict[str, float] = defaultdict(float)
        self._since = time.perf_counter()

    def __call__(self, old_phase: str, new_phase: str) -> None:
        now = time.perf_counter()
        self.seconds[old_phase] += now - self._since
        self._since = now
