"""The repository benchmark: one workload, timed end to end or per layer.

Usage (from the checkout root)::

    python3 perfbench/run.py --workload memory_bound --seed 1 \
        --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` runs one untraced and one traced pass and reports the
per-layer metrics and the tracing overhead.  Human-readable lines come
first; the last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit
code is 1 when any output check failed and 2 when the simulator
sources are missing.  See perfbench/README.md for every metric.
"""

from __future__ import annotations

import argparse
import json
import sys

import support
from checks import Checker

WORKLOADS = ("memory_bound", "ilp_sampled", "serve_mixed")

#: (name, unit) of every end-to-end metric in the final JSON line
END_TO_END = (
    ("setup_s", "s"),
    ("sim_kops_per_s", "kops/s"),
    ("sim_kops_per_cpu_s", "kops/cpu_s"),
    ("cells_per_s", "cells/s"),
    ("peak_rss_mb", "MB"),
)

#: (name, unit) of every per-layer metric in the final JSON line; a
#: layer the workload does not exercise reports 0
PER_LAYER = (
    ("core.pipeline.cycles", "count"),
    ("core.pipeline.self_s", "s"),
    ("core.pipeline.ns_per_cycle", "ns"),
    ("core.pipeline.dead_cycle_frac", "ratio"),
    ("sched.select.calls", "count"),
    ("sched.select.self_s", "s"),
    ("sched.select.empty_frac", "ratio"),
    ("sched.insert.self_s", "s"),
    ("sched.notify.self_s", "s"),
    ("core.wakeup.calls", "count"),
    ("core.wakeup.self_s", "s"),
    ("core.ports.calls", "count"),
    ("core.ports.self_s", "s"),
    ("rename.calls", "count"),
    ("rename.self_s", "s"),
    ("lsq.calls", "count"),
    ("lsq.self_s", "s"),
    ("lsq.mdp.self_s", "s"),
    ("memory.calls", "count"),
    ("memory.self_s", "s"),
    ("memory.l1d_miss_rate", "ratio"),
    ("memory.dram_reads", "count"),
    ("frontend.calls", "count"),
    ("frontend.self_s", "s"),
    ("frontend.mispredict_rate", "ratio"),
    ("core.sampling.ff_s", "s"),
    ("core.sampling.detail_s", "s"),
    ("core.sampling.windows", "count"),
    ("core.sampling.detail_frac", "ratio"),
    ("core.sampling.ff_warmed_frac", "ratio"),
    ("workloads.trace_build_s", "s"),
    ("analysis.runner.run_many.self_s", "s"),
    ("analysis.runner.simulate_s", "s"),
    ("analysis.runner.cache_hit_frac", "ratio"),
    ("analysis.runner.lockstep_groups", "count"),
    ("serve.queue.wait_s", "s"),
    ("serve.service_s", "s"),
    ("serve.client.poll_lag_s", "s"),
    ("serve.queue.journal_s", "s"),
    ("serve.client.requests", "count"),
    ("bench.trace_overhead", "x"),
)

UNITS = dict(END_TO_END + PER_LAYER)


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=support.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _measure(args, checker, scratch):
    """Run one workload; returns its ``metrics`` or ``layers`` and details."""
    # imported here: repro must not load before scrub_environment()
    if args.workload == "serve_mixed":
        import servework

        if args.trace:
            return servework.run_traced(args.seed, checker, scratch)
        return servework.run_untraced(args.seed, args.seconds, checker,
                                      scratch)
    import simwork

    spec = simwork.WORKLOADS[args.workload]
    if args.trace:
        return simwork.run_traced(spec, args.seed, checker)
    return simwork.run_untraced(spec, args.seed, args.seconds, checker)


def main(argv=None) -> int:
    args = _parse(argv)
    removed = support.scrub_environment()
    with support.Scratch() as scratch:
        support.point_caches_at(scratch)
        support.import_repro()
        checker = Checker(support.load_golden(args.seed))
        meta = support.host_metadata(args.workload, args.seed, args.seconds,
                                     bool(args.trace))
        meta["cleared_env"] = removed
        print("meta " + json.dumps(meta, sort_keys=True))
        outcome = _measure(args, checker, scratch)

    units = dict(UNITS)
    if args.trace:
        values = outcome["layers"]
        for key, cell in sorted(outcome.get("cells", {}).items()):
            print(f"cell {key} dead_cycle_frac={cell['dead_cycle_frac']:.4f} "
                  f"cycles={cell['cycles']}")
        names = PER_LAYER
    else:
        values = {name: value for name, (value, _) in
                  outcome["metrics"].items()}
        units.update({name: unit for name, (_, unit) in
                      outcome["metrics"].items()})
        for key in ("passes", "sessions", "jobs"):
            if key in outcome:
                print(f"info {key} {outcome[key]}")
        if "probe_s" in outcome:
            print(f"info host probe median {outcome['probe_s']:.6g} s "
                  f"(nominal {support.HostProbe.NOMINAL_S} s)")
        for name, value in sorted(outcome.get("raw", {}).items()):
            print(f"info raw {name} {value:.6g} {units[name]}")
        if outcome.get("tail") is not None:
            print(f"info job_tail_s is p{outcome['tail']['percentile']} of "
                  f"n={outcome['tail']['n']} jobs")
        for key, cell in outcome.get("sampled", {}).items():
            print(f"sampled {key} ipc_err={cell['ipc_err']:.4f} "
                  f"ci_covers={cell['ci_covers']}")
        names = END_TO_END
    for name in sorted(values):
        print(f"metric {name} {values[name]:.6g} {units[name]}")
    for failure in checker.failures:
        print(f"FAILED {failure}")
    print(f"check attempted={checker.attempted} failed={checker.failed} "
          f"failed_frac={checker.failed_frac:.6g}")
    correct = checker.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": values.get(name, 0), "unit": unit}
                    for name, unit in names},
    }, sort_keys=True))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
