"""Record the full-detail digests the benchmark checks at the default seed.

Run from the checkout root after a change that is *meant* to alter
simulated results::

    python3 perfbench/golden.py

It simulates every full-detail cell of every workload at
``support.DEFAULT_SEED`` with plain ``simulate()`` (no daemon, no
cache) and rewrites ``perfbench/golden_digests.json``.  A speed-only
change must leave that file unchanged.
"""

from __future__ import annotations

import json
import sys

import support


def record() -> dict:
    from repro.core.config import config_for
    from repro.core.pipeline import simulate
    from repro.workloads.kernels import build_trace

    import servework
    import simwork

    seed = support.DEFAULT_SEED
    digests = {}
    for spec in simwork.WORKLOADS.values():
        traces = simwork.build_traces(spec, seed)
        for kernel, config in simwork.cells(spec):
            result = simulate(traces[kernel], config)
            digests[simwork.cell_key(spec, kernel, config.name, seed)] = \
                support.digest(result.to_dict())
    for job in servework.plan_jobs(seed):
        if job.sampling is not None:
            continue
        for cell in job.cells:
            key = servework.cell_key(cell, sampled=False)
            if key in digests:
                continue
            trace = build_trace(cell["workload"], target_ops=servework.SERVE_OPS,
                                seed=cell["seed"])
            config = config_for(cell["arch"], width=cell["width"])
            digests[key] = support.digest(simulate(trace, config).to_dict())
    return {"seed": seed, "digests": dict(sorted(digests.items()))}


def main() -> int:
    support.scrub_environment()
    with support.Scratch() as scratch:
        support.point_caches_at(scratch)
        support.import_repro()
        payload = record()
    support.GOLDEN_PATH.write_text(json.dumps(payload, indent=1) + "\n")
    print(f"wrote {len(payload['digests'])} digests to {support.GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
