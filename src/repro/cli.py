"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``workloads`` — list the kernel suite with one-line descriptions.
* ``configs`` — list the microarchitecture presets (Tables I & II).
* ``simulate WORKLOAD ARCH`` — run one simulation and print its summary.
* ``compare WORKLOAD [ARCH ...]`` — side-by-side IPC/energy comparison.
* ``suite ARCH`` — run the whole suite under one design.
* ``report`` — print the paper-vs-measured EXPERIMENTS report.
* ``trace WORKLOAD ARCH --trace-out F`` — cycle-level pipeline trace:
  writes a Chrome trace-event JSON (or Konata log) and prints the
  stall-attribution and occupancy breakdowns (see docs/observability.md).
* ``metrics WORKLOAD ARCH`` — hardware-counter metrics registry plus
  the interval time-series sampler: sparkline tables of IPC /
  occupancy / queue depth / stall-class history, top counters and
  histograms; ``--csv`` exports the samples, ``--trace-out`` writes a
  Chrome trace with counter ("C") tracks overlaid
  (docs/observability.md).  ``simulate --metrics`` prints the same
  tables after the normal summary.
* ``fuzz`` — differential fuzzing across the scheduler zoo with
  per-cycle invariants and ddmin-shrunken repros (docs/correctness.md);
  the global ``--ops`` caps each generated program's dynamic length and
  ``--seed`` seeds the campaign.
* ``chaos`` — fault-injection drill for the campaign runner: kills,
  hangs, injected errors, forced deadlocks and corrupted caches, then a
  byte-identity check against a clean serial run (docs/robustness.md);
  ``--distributed`` drills the sharded-campaign path instead — a shard
  killed outright, poisoned cells, shredded run-logs and damaged cache
  entries, closed by ``reconcile`` detecting every hole and repairing
  back to byte-identity.
* ``campaign`` — run one shard of a distributed campaign (``--shard
  K/N``; cells are assigned by salted hash, so shards coordinate only
  through the shared cache directory) or merge every shard's run-log
  back into one submission-ordered result stream (``--merge``); see
  docs/robustness.md.
* ``reconcile`` — audit a campaign three ways (expected matrix vs disk
  cache vs run-logs), classify every cell (ok / missing / quarantined /
  orphaned / corrupt / stale-schema) and repair it to convergence under
  a bounded per-cell budget; ``--check`` detects without repairing
  (docs/robustness.md).
* ``serve`` — the simulation-as-a-service daemon: a REST API over a
  durable job queue (priority lanes, per-tenant rate limits,
  backpressure) and a worker pool that drives jobs through the
  fault-tolerant runner, streaming results back in submission order
  (docs/serving.md).
* ``submit`` / ``poll`` — the matching client pair: submit a cell list
  or sweep matrix to a running daemon, poll status, fetch the ordered
  result stream.

``repro --version`` prints the package version plus the serve protocol
version so clients can check compatibility against ``GET /healthz``.

All simulation commands honour ``--ops`` / ``--seed`` / ``--width`` /
``--jobs`` and use the shared ``.bench_cache`` result cache
(``--jobs N`` fans uncached simulations across N worker processes —
results are identical to serial; see docs/performance.md).
``--task-timeout`` / ``--retries`` tune the fault tolerance of batch
runs: cells that crash, hang or raise are retried and eventually
quarantined instead of sinking the campaign (batch commands then report
partial results and exit non-zero; see docs/robustness.md).  Traced
and metrics-instrumented runs bypass the cache (``simulate``/
``compare`` also accept ``--trace-out``).  ``--run-log FILE`` (or
``$REPRO_RUN_LOG``) appends a structured JSONL campaign log —
submit/start/finish/retry/timeout/quarantine events with durations and
worker pids — and ``--progress`` prints a live heartbeat line to
stderr during batch runs (docs/observability.md).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .analysis.report import format_table
from .analysis.runner import ExperimentRunner, geomean
from .core.config import FIG11_ARCHES, config_for
from .energy.model import EnergyModel
from .workloads.kernels import KERNELS
from .workloads.suite import SUITE_NAMES

_ALL_ARCHES = (
    "inorder", "ooo", "ooo_oldest", "ces", "ces_mda", "casino", "fxa",
    "ballerino", "ballerino12", "ballerino_step1", "ballerino_step2",
    "ballerino_ideal", "dnb", "spq",
)


def _version_string() -> str:
    """Package version (from metadata, falling back to the module) plus
    the serve protocol version — what clients compare against
    ``/healthz``."""
    from .serve.protocol import PROTOCOL_VERSION

    try:
        from importlib.metadata import version

        package = version("repro")
    except Exception:
        from . import __version__ as package
    return f"repro {package} (serve protocol {PROTOCOL_VERSION})"


def _add_sampling_flags(parser: argparse.ArgumentParser) -> None:
    """The sampled-simulation flag group shared by simulate/suite."""
    group = parser.add_argument_group("sampled simulation")
    group.add_argument("--sample", action="store_true",
                       help="SimPoint-style sampled simulation: fast-"
                            "forward between detailed measured windows "
                            "and extrapolate whole-run statistics "
                            "(docs/performance.md)")
    group.add_argument("--sample-period", type=int, default=None,
                       metavar="OPS",
                       help="micro-ops between measured-window starts "
                            "(default 20000; implies --sample)")
    group.add_argument("--sample-window", type=int, default=None,
                       metavar="OPS",
                       help="committed micro-ops measured per window "
                            "(default 2000; implies --sample)")
    group.add_argument("--warmup-cycles", type=int, default=None,
                       metavar="N",
                       help="detailed unmeasured cycles before each "
                            "window (default 0: measure the whole "
                            "window; implies --sample)")
    group.add_argument("--ff-width", type=int, default=None, metavar="W",
                       help="micro-ops retired per fast-forward cycle "
                            "(default 8; implies --sample)")
    group.add_argument("--ff-warmup-ops", type=int, default=None,
                       metavar="OPS",
                       help="cap on warming micro-ops per fast-forward "
                            "stretch, 0 = warm everything (implies "
                            "--sample)")


def _sampling_from_args(args) -> Optional[dict]:
    """``with_sampling`` kwargs from the CLI flags, or None (full run)."""
    knobs = {
        "period": args.sample_period,
        "window": args.sample_window,
        "warmup": args.warmup_cycles,
        "ff_width": args.ff_width,
        "ff_warmup_ops": args.ff_warmup_ops,
    }
    knobs = {key: value for key, value in knobs.items() if value is not None}
    if not args.sample and not knobs:
        return None
    return knobs


def _make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Ballerino (MICRO 2022) reproduction toolkit",
    )
    parser.add_argument("--version", action="version",
                        version=_version_string())
    parser.add_argument("--ops", type=int, default=10_000,
                        help="dynamic micro-ops per workload trace")
    parser.add_argument("--seed", type=int, default=7,
                        help="workload data seed")
    parser.add_argument("--width", type=int, default=8, choices=(2, 4, 8, 10),
                        help="issue width")
    parser.add_argument("--no-cache", action="store_true",
                        help="disable the on-disk result cache")
    parser.add_argument("--jobs", type=int, default=None, metavar="N",
                        help="worker processes for uncached simulations "
                             "(default: $REPRO_BENCH_JOBS or 1)")
    parser.add_argument("--task-timeout", type=float, default=None,
                        metavar="S",
                        help="wall-clock timeout per simulation in batch "
                             "runs (default: $REPRO_BENCH_TIMEOUT or none)")
    parser.add_argument("--retries", type=int, default=None, metavar="N",
                        help="retry budget per failing cell before "
                             "quarantine (default: $REPRO_BENCH_RETRIES "
                             "or 2)")
    parser.add_argument("--run-log", default=None, metavar="FILE",
                        help="append a structured JSONL campaign run-log "
                             "here (default: $REPRO_RUN_LOG)")
    parser.add_argument("--progress", action="store_true",
                        help="print live heartbeat progress lines to "
                             "stderr during batch runs")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("workloads", help="list the kernel suite")
    sub.add_parser("configs", help="list the microarchitecture presets")

    sim = sub.add_parser("simulate", help="run one simulation")
    sim.add_argument("workload", choices=sorted(KERNELS))
    sim.add_argument("arch", choices=_ALL_ARCHES)
    sim.add_argument("--trace-out", default=None, metavar="FILE",
                     help="also write a cycle-level pipeline trace here")
    sim.add_argument("--trace-format", choices=("chrome", "konata"),
                     default=None, help="trace format (default: by extension)")
    sim.add_argument("--metrics", action="store_true",
                     help="enable the metrics registry + interval sampler "
                          "and print their tables (bypasses the cache)")
    sim.add_argument("--sample-interval", type=int, default=None,
                     metavar="N",
                     help="cycles between time-series samples "
                          "(default 1000; implies --metrics)")
    sim.add_argument("--profile", action="store_true",
                     help="run under cProfile and print the top functions "
                          "by cumulative time (bypasses the result cache "
                          "so a real simulation is what gets profiled)")
    sim.add_argument("--profile-out", default=None, metavar="FILE",
                     help="also dump raw cProfile stats here for pstats/"
                          "snakeviz (implies --profile)")
    _add_sampling_flags(sim)

    cmp_cmd = sub.add_parser("compare", help="compare designs on a workload")
    cmp_cmd.add_argument("workload", choices=sorted(KERNELS))
    cmp_cmd.add_argument("arches", nargs="*",
                         default=["inorder", "ces", "casino", "fxa",
                                  "ballerino", "ooo"])
    cmp_cmd.add_argument("--trace-out", default=None, metavar="FILE",
                         help="write one pipeline trace per arch "
                              "(arch name is inserted before the suffix)")
    cmp_cmd.add_argument("--trace-format", choices=("chrome", "konata"),
                         default=None,
                         help="trace format (default: by extension)")

    trace_cmd = sub.add_parser(
        "trace", help="cycle-level pipeline trace + stall attribution")
    trace_cmd.add_argument("workload", choices=sorted(KERNELS))
    trace_cmd.add_argument("arch", choices=_ALL_ARCHES)
    trace_cmd.add_argument("--trace-out", default=None, metavar="FILE",
                           help="trace output file (omit to only print "
                                "the stall/occupancy breakdowns)")
    trace_cmd.add_argument("--trace-format", choices=("chrome", "konata"),
                           default=None,
                           help="trace format (default: by extension)")

    met = sub.add_parser(
        "metrics",
        help="hardware-counter metrics + interval time-series for one "
             "run (bypasses the cache; see docs/observability.md)")
    met.add_argument("workload", choices=sorted(KERNELS))
    met.add_argument("arch", choices=_ALL_ARCHES)
    met.add_argument("--sample-interval", type=int, default=1000,
                     metavar="N",
                     help="cycles between time-series samples "
                          "(default 1000)")
    met.add_argument("--csv", default=None, metavar="FILE",
                     help="write the interval samples as CSV")
    met.add_argument("--json-out", default=None, metavar="FILE",
                     help="write the metrics snapshot + samples as JSON")
    met.add_argument("--trace-out", default=None, metavar="FILE",
                     help="write a Chrome trace with counter ('C') "
                          "tracks overlaid on the pipeline events")
    met.add_argument("--prometheus", action="store_true",
                     help="print the metrics registry in Prometheus "
                          "text exposition format instead of tables")

    suite = sub.add_parser("suite", help="run the whole suite on one design")
    suite.add_argument("arch", choices=_ALL_ARCHES)
    _add_sampling_flags(suite)

    sub.add_parser("report", help="print the paper-vs-measured report")

    fig = sub.add_parser("figure", help="render a figure as ASCII bars")
    fig.add_argument("which", choices=("fig11", "fig13", "fig16", "fig17c"))

    char = sub.add_parser("characterize",
                          help="dataflow-limit analysis of the suite")

    fuzz = sub.add_parser(
        "fuzz",
        help="differential fuzzing across the scheduler zoo "
             "(see docs/correctness.md)")
    fuzz.add_argument("--programs", type=int, default=200,
                      help="number of generated programs (default 200)")
    fuzz.add_argument("--arches", nargs="*", default=list(FIG11_ARCHES),
                      metavar="ARCH",
                      help="configs to differential-test "
                           "(default: the Figure 11 set)")
    fuzz.add_argument("--out", default=None, metavar="FILE",
                      help="write the full failure report (shrunken "
                           "repros included) to this file")
    fuzz.add_argument("--no-shrink", action="store_true",
                      help="skip ddmin minimisation of failures")
    fuzz.add_argument("--no-invariants", action="store_true",
                      help="disable the per-cycle invariant checker "
                           "(differential checks only; much faster)")
    # accept the global knobs after the subcommand too
    # (`repro fuzz --seed 0`); SUPPRESS keeps a pre-subcommand value
    fuzz.add_argument("--seed", type=int, default=argparse.SUPPRESS,
                      help="campaign seed (default 7)")
    fuzz.add_argument("--ops", type=int, default=argparse.SUPPRESS,
                      help="dynamic op cap per generated program")

    chaos_cmd = sub.add_parser(
        "chaos",
        help="fault-injection drill for the campaign runner "
             "(see docs/robustness.md)")
    chaos_cmd.add_argument("--arches", nargs="*",
                           default=["inorder", "ooo", "ballerino"],
                           metavar="ARCH",
                           help="configs to drill (default: inorder ooo "
                                "ballerino)")
    chaos_cmd.add_argument("--smoke", action="store_true",
                           help="fast kernel subset (CI smoke)")
    chaos_cmd.add_argument("--kill", type=float, default=0.12,
                           help="P(worker killed mid-task) per cell")
    chaos_cmd.add_argument("--hang", type=float, default=0.10,
                           help="P(worker hangs past the timeout) per cell")
    chaos_cmd.add_argument("--error", type=float, default=0.12,
                           help="P(transient worker error) per cell")
    chaos_cmd.add_argument("--wedge", type=float, default=0.10,
                           help="P(forced scheduler deadlock) per cell")
    chaos_cmd.add_argument("--poison", type=float, default=0.10,
                           help="P(persistent error -> quarantine) per cell")
    chaos_cmd.add_argument("--timeout", type=float, default=30.0,
                           help="per-task wall-clock timeout in seconds "
                                "(default 30)")
    chaos_cmd.add_argument("--out", default=None, metavar="FILE",
                           help="write the full campaign report here")
    # accept the global knobs after the subcommand too (`repro chaos
    # --seed 0`); SUPPRESS keeps a pre-subcommand value
    chaos_cmd.add_argument("--seed", type=int, default=argparse.SUPPRESS,
                           help="campaign seed: workload data AND fault "
                                "selection (default 7)")
    chaos_cmd.add_argument("--ops", type=int, default=argparse.SUPPRESS,
                           help="dynamic micro-ops per workload trace")
    chaos_cmd.add_argument("--jobs", type=int, default=argparse.SUPPRESS,
                           help="worker processes for the fault run "
                                "(default 4)")
    chaos_cmd.add_argument("--distributed", action="store_true",
                           help="drill the sharded-campaign path "
                                "instead: shard death, shredded run-"
                                "logs, damaged cache entries, closed "
                                "by reconciliation")
    chaos_cmd.add_argument("--shards", type=int, default=3, metavar="N",
                           help="shard count for --distributed "
                                "(default 3; one shard is killed)")
    chaos_cmd.add_argument("--work-dir", default=None, metavar="DIR",
                           help="keep the drill's campaign/cache trees "
                                "here instead of a throwaway tempdir")

    serve_cmd = sub.add_parser(
        "serve",
        help="simulation-as-a-service daemon: REST API + durable job "
             "queue + worker pool (see docs/serving.md)")
    serve_cmd.add_argument("--host", default="127.0.0.1",
                           help="bind address (default 127.0.0.1)")
    serve_cmd.add_argument("--port", type=int, default=8023,
                           help="bind port; 0 picks an ephemeral port "
                                "(default 8023)")
    serve_cmd.add_argument("--port-file", default=None, metavar="FILE",
                           help="write the bound port here once "
                                "listening (for scripts/CI)")
    serve_cmd.add_argument("--workers", type=int, default=2, metavar="N",
                           help="worker threads in the pool (default 2)")
    serve_cmd.add_argument("--shard-size", type=int, default=4, metavar="N",
                           help="cells per dispatch shard (default 4)")
    serve_cmd.add_argument("--shard-jobs", type=int, default=1, metavar="N",
                           help="processes each shard fans its run_many "
                                "over (default 1 = in-thread serial)")
    serve_cmd.add_argument("--queue-dir", default=None, metavar="DIR",
                           help="durable queue directory (default: "
                                "<cache>/queue)")
    serve_cmd.add_argument("--max-depth", type=int, default=64, metavar="N",
                           help="queued-job bound before backpressure "
                                "(default 64)")
    serve_cmd.add_argument("--rate", type=float, default=10.0,
                           help="per-tenant sustained submit rate, "
                                "jobs/s (default 10)")
    serve_cmd.add_argument("--burst", type=float, default=20,
                           help="per-tenant submit burst (default 20)")
    serve_cmd.add_argument("--spans", action="store_true",
                           help="record job/shard/cell spans to "
                                "<queue-dir>/spans.jsonl "
                                "(see docs/observability.md)")

    submit_cmd = sub.add_parser(
        "submit", help="submit a job to a running `repro serve` daemon")
    submit_cmd.add_argument("--server", required=True, metavar="URL",
                            help="daemon base URL, e.g. "
                                 "http://127.0.0.1:8023")
    submit_cmd.add_argument("--workloads", nargs="+", required=True,
                            metavar="W", help="workload axis of the sweep")
    submit_cmd.add_argument("--arches", nargs="+", required=True,
                            metavar="ARCH", help="arch axis of the sweep")
    submit_cmd.add_argument("--widths", nargs="*", type=int, default=None,
                            metavar="N",
                            help="width axis (default: the global --width)")
    submit_cmd.add_argument("--priority", choices=("interactive", "batch"),
                            default="batch",
                            help="queue lane (default batch)")
    submit_cmd.add_argument("--tenant", default="default",
                            help="tenant for rate accounting")
    submit_cmd.add_argument("--idempotency-key", default=None, metavar="KEY",
                            help="resubmitting the same key returns the "
                                 "original job instead of a duplicate")
    submit_cmd.add_argument("--wait", action="store_true",
                            help="poll to completion and print the "
                                 "result table")
    submit_cmd.add_argument("--timeout", type=float, default=300.0,
                            help="--wait timeout in seconds (default 300)")
    submit_cmd.add_argument("--trace", nargs="?", const="new", default=None,
                            metavar="TRACE_ID:SPAN_ID",
                            help="propagate a span-trace parent context "
                                 "with the job; bare --trace mints fresh "
                                 "ids (printed for correlation)")

    poll_cmd = sub.add_parser(
        "poll", help="poll a job on a running `repro serve` daemon")
    poll_cmd.add_argument("job_id", help="job id returned by submit")
    poll_cmd.add_argument("--server", required=True, metavar="URL",
                          help="daemon base URL")
    poll_cmd.add_argument("--results", action="store_true",
                          help="wait for completion and print the "
                               "ordered result table")
    poll_cmd.add_argument("--timeout", type=float, default=300.0,
                          help="--results timeout in seconds (default 300)")

    campaign_cmd = sub.add_parser(
        "campaign",
        help="run one shard of a distributed campaign, or merge its "
             "shards into the ordered result stream "
             "(see docs/robustness.md)")
    campaign_cmd.add_argument("--campaign-dir", required=True,
                              metavar="DIR",
                              help="directory holding the manifest, "
                                   "shard run-logs and merged stream")
    campaign_cmd.add_argument("--shard", default=None, metavar="K/N",
                              help="run shard K of N (e.g. 0/4); the "
                                   "matrix axes are read from the "
                                   "manifest if one exists")
    campaign_cmd.add_argument("--merge", action="store_true",
                              help="merge every shard's run-log into "
                                   "merged.json (submission order, "
                                   "gaps named)")
    campaign_cmd.add_argument("--workloads", nargs="+", default=None,
                              metavar="W",
                              help="workload axis (first shard only; "
                                   "later shards read the manifest)")
    campaign_cmd.add_argument("--arches", nargs="+", default=None,
                              metavar="ARCH", help="arch axis")
    campaign_cmd.add_argument("--widths", nargs="*", type=int,
                              default=None, metavar="N",
                              help="width axis (default: the global "
                                   "--width)")
    campaign_cmd.add_argument("--salt", type=int, default=0,
                              help="shard-assignment salt (default 0); "
                                   "re-salting rebalances the split")
    campaign_cmd.add_argument("--cache-dir", default=None, metavar="DIR",
                              help="shared result cache the shards "
                                   "merge through (default: the global "
                                   "cache)")
    campaign_cmd.add_argument("--spans", action="store_true",
                              help="shard runs: record shard/cell spans "
                                   "to spans-K-of-N.jsonl; merge: stitch "
                                   "them into merged-spans.jsonl + a "
                                   "Chrome trace.json")
    # global knobs after the subcommand too (`repro campaign --seed 0`)
    campaign_cmd.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    campaign_cmd.add_argument("--ops", type=int, default=argparse.SUPPRESS)
    campaign_cmd.add_argument("--jobs", type=int, default=argparse.SUPPRESS)

    reconcile_cmd = sub.add_parser(
        "reconcile",
        help="audit a campaign (expected matrix vs cache vs run-logs) "
             "and repair it to convergence (see docs/robustness.md)")
    reconcile_cmd.add_argument("--campaign-dir", required=True,
                               metavar="DIR",
                               help="campaign directory (must hold a "
                                    "manifest)")
    reconcile_cmd.add_argument("--check", action="store_true",
                               help="detect and report only — no "
                                    "repairs are executed")
    reconcile_cmd.add_argument("--max-rounds", type=int, default=3,
                               metavar="N",
                               help="repair/re-verify rounds before "
                                    "giving up (default 3)")
    reconcile_cmd.add_argument("--budget", type=int, default=2,
                               metavar="N",
                               help="repair attempts per damaged cell "
                                    "(default 2)")
    reconcile_cmd.add_argument("--server", default=None, metavar="URL",
                               help="execute repairs via this running "
                                    "`repro serve` daemon (it must "
                                    "share the cache) instead of "
                                    "locally")
    reconcile_cmd.add_argument("--cache-dir", default=None, metavar="DIR",
                               help="the campaign's shared result cache "
                                    "(default: the global cache)")
    reconcile_cmd.add_argument("--out", default=None, metavar="FILE",
                               help="write the machine-readable JSON "
                                    "reconcile report here")
    reconcile_cmd.add_argument("--jobs", type=int,
                               default=argparse.SUPPRESS,
                               help="worker processes for local repairs")
    reconcile_cmd.add_argument("--spans", action="store_true",
                               help="record reconcile-round and repair "
                                    "spans into the campaign's trace")

    top_cmd = sub.add_parser(
        "top",
        help="live campaign monitor: tail run-logs and/or poll a "
             "`repro serve` daemon (see docs/observability.md)")
    top_cmd.add_argument("run_logs", nargs="*", metavar="LOG",
                         help="JSONL run-log(s) to tail (shard logs, "
                              "reconcile logs, runner logs)")
    top_cmd.add_argument("--server", default=None, metavar="URL",
                         help="also poll this daemon's /healthz and "
                              "/metricsz")
    top_cmd.add_argument("--interval", type=float, default=2.0,
                         metavar="S",
                         help="refresh interval in seconds (default 2)")
    top_cmd.add_argument("--once", action="store_true",
                         help="render one frame and exit (scripting/CI)")
    top_cmd.add_argument("--window", type=float, default=60.0, metavar="S",
                         help="rolling window for the sims/sec rate "
                              "(default 60)")
    return parser


def _runner(args) -> ExperimentRunner:
    cache = "" if args.no_cache else None
    progress = None
    if args.progress:
        # heartbeat goes to stderr so piped table output stays clean
        progress = lambda line: print(line, file=sys.stderr)  # noqa: E731
    return ExperimentRunner(target_ops=args.ops, seed=args.seed,
                            cache_dir=cache, jobs=args.jobs,
                            task_timeout=args.task_timeout,
                            retries=args.retries,
                            run_log=args.run_log, progress=progress)


def _cmd_workloads(args) -> int:
    rows = [[spec.name, spec.description] for spec in KERNELS.values()]
    print(format_table(["kernel", "behaviour"], rows,
                       title="workload suite"))
    return 0


def _cmd_configs(args) -> int:
    rows = []
    for arch in _ALL_ARCHES:
        cfg = config_for(arch, width=args.width)
        sched = cfg.scheduler
        rows.append([arch, sched.kind, cfg.issue_width,
                     f"{cfg.frequency_ghz:.1f} GHz", cfg.rob_size])
    print(format_table(["arch", "scheduler", "width", "freq", "ROB"], rows,
                       title=f"presets at {args.width}-wide"))
    return 0


def _traced_run(workload: str, arch: str, args, metrics=None, sampler=None):
    """Run one simulation with telemetry on (bypasses the result cache)."""
    from .core.pipeline import Pipeline
    from .telemetry import StallAttribution, Tracer
    from .workloads.suite import get_trace

    cfg = config_for(arch, width=args.width)
    trace = get_trace(workload, args.ops, args.seed)
    tracer, attribution = Tracer(), StallAttribution()
    observers = [tracer, attribution, metrics, sampler]
    result = Pipeline(trace, cfg, observers=[
        o for o in observers if o is not None]).run()
    return result, tracer, attribution


def _write_trace_file(tracer, path: str, fmt: Optional[str], label: str,
                      metadata=None, samples=None) -> None:
    from pathlib import Path

    from .telemetry import write_chrome_trace, write_konata

    Path(path).resolve().parent.mkdir(parents=True, exist_ok=True)
    if fmt is None:
        fmt = "konata" if path.endswith((".kanata", ".konata", ".log")) \
            else "chrome"
    if fmt == "konata":
        # Konata has no counter-track concept; samples are chrome-only
        write_konata(tracer, path)
    else:
        write_chrome_trace(tracer, path, label=label, metadata=metadata,
                           samples=samples)
    print(f"wrote {fmt} trace: {path}")


def _print_stall_tables(result) -> None:
    stats = result.stats
    total = stats.cycles or 1
    rows = [
        [category, cycles, f"{100.0 * cycles / total:.1f}%"]
        for category, cycles in stats.stall_cycles.items()
    ]
    rows.append(["TOTAL", sum(stats.stall_cycles.values()), "100.0%"])
    print()
    print(format_table(
        ["category", "cycles", "share"], rows,
        title="stall attribution (every cycle charged once)",
    ))
    print()
    print(format_table(
        ["structure", "mean occupancy"],
        [[name, value] for name, value in stats.occupancy.items()],
        title="average structure occupancy", float_fmt="{:.2f}",
    ))


def _profiled_simulate(args, cfg):
    """Run one simulation under cProfile; returns the SimResult.

    Bypasses the result cache on purpose: a cache hit would profile a
    JSON load, not the pipeline.  The trace is built *before* the
    profiler starts, so the report shows simulation cost only.
    """
    import cProfile
    import pstats

    from .core.pipeline import simulate as _simulate
    from .workloads.suite import get_trace

    trace = get_trace(args.workload, args.ops, args.seed)
    profiler = cProfile.Profile()
    profiler.enable()
    result = _simulate(trace, cfg)
    profiler.disable()
    if args.profile_out:
        profiler.dump_stats(args.profile_out)
        print(f"wrote cProfile stats: {args.profile_out}", file=sys.stderr)
    stats = pstats.Stats(profiler, stream=sys.stderr)
    stats.sort_stats("cumulative").print_stats(25)
    return result


def _cmd_simulate(args) -> int:
    cfg = config_for(args.arch, width=args.width)
    profiling = args.profile or args.profile_out is not None
    if profiling and (args.metrics or args.sample_interval or args.trace_out):
        print("--profile measures an undecorated run; ignoring "
              "--metrics/--sample-interval/--trace-out", file=sys.stderr)
        args.metrics, args.sample_interval, args.trace_out = False, None, None
    metrics_on = args.metrics or args.sample_interval is not None
    sampling = _sampling_from_args(args)
    if sampling is not None and (profiling or metrics_on or args.trace_out):
        # telemetry hooks force full-detail simulation, so a "sampled
        # traced run" cannot exist — refuse rather than silently pick one
        print("--sample cannot be combined with --metrics/"
              "--sample-interval/--trace-out/--profile (telemetry "
              "requires a full-detail run)", file=sys.stderr)
        return 2
    registry = sampler = None
    if metrics_on:
        from .telemetry import IntervalSampler, MetricsRegistry

        registry = MetricsRegistry()
        sampler = IntervalSampler(args.sample_interval or 1000)
    if sampling is not None:
        from .core.sampling import with_sampling

        runner = _runner(args)
        result = runner.run(args.workload, with_sampling(cfg, **sampling))
    elif profiling:
        result = _profiled_simulate(args, cfg)
    elif args.trace_out or metrics_on:
        result, tracer, _ = _traced_run(args.workload, args.arch, args,
                                        metrics=registry, sampler=sampler)
        if args.trace_out:
            # write the file before the tables so a closed stdout pipe
            # (e.g. `... | head`) can't lose the trace
            _write_trace_file(
                tracer, args.trace_out, args.trace_format,
                label=f"{args.workload}/{cfg.name}",
                metadata={"workload": args.workload, "config": cfg.name},
                samples=result.interval_samples,
            )
    else:
        runner = _runner(args)
        result = runner.run_arch(args.workload, args.arch, width=args.width)
    report = EnergyModel().evaluate(result, cfg)
    print(format_table(
        ["metric", "value"],
        [
            ["workload", args.workload],
            ["config", cfg.name],
            ["cycles", result.cycles],
            ["committed", result.stats.committed],
            ["IPC", round(result.ipc, 3)],
            ["branch mispredicts", result.stats.branch_mispredicts],
            ["order violations", result.stats.order_violations],
            ["energy/op (pJ)", round(report.energy_per_instruction_pj, 1)],
        ],
        title="simulation summary",
    ))
    if result.sampled:
        print()
        _print_sampled_summary(result)
    breakdown = result.stats.breakdown.averages()
    rows = [[klass] + [breakdown[klass][seg] for seg in
                       ("decode_to_dispatch", "dispatch_to_ready",
                        "ready_to_issue")]
            for klass in ("Ld", "LdC", "Rst", "All")]
    print()
    print(format_table(
        ["class", "dec->disp", "disp->ready", "ready->issue"], rows,
        title="decode-to-issue breakdown (cycles)", float_fmt="{:.1f}",
    ))
    print()
    fractions = report.fractions()
    from .analysis.plotting import stacked_bars

    print(stacked_bars(
        [cfg.name],
        {category: [fraction] for category, fraction in fractions.items()
         if fraction > 0.005},
        title="core energy by component (Fig. 15 categories)",
    ))
    if args.trace_out:
        _print_stall_tables(result)
    if metrics_on:
        _print_metrics_tables(result, registry)
    return 0


def _print_sampled_summary(result) -> None:
    """Window counts, coverage and per-metric confidence intervals."""
    info = result.sampling or {}
    rows = [
        ["mode", "exact" if info.get("exact") else "sampled"],
        ["measured windows", info.get("windows", 0)],
        ["measured ops", info.get("measured_ops", 0)],
        ["measured cycles", info.get("measured_cycles", 0)],
        ["fast-forwarded ops", info.get("ff_ops", 0)],
        ["warmup ops (discarded)", info.get("warmup_ops", 0)],
    ]
    for metric, estimate in sorted((info.get("estimates") or {}).items()):
        mean = estimate.get("mean")
        ci95 = estimate.get("ci95")
        if mean is None:
            continue
        value = (f"{mean:.4g}" if ci95 is None
                 else f"{mean:.4g} +/- {ci95:.2g} (95% CI)")
        rows.append([metric, value])
    print(format_table(["sampled run", "value"], rows,
                       title="sampling summary (extrapolated statistics)"))


def _print_metrics_tables(result, registry) -> None:
    """Sparkline time-series, top counters and histograms for one run."""
    from .analysis.plotting import sparkline
    from .telemetry import series

    samples = result.interval_samples
    if samples:
        keys = ["ipc", "occupancy.rob", "occupancy.sched",
                "occupancy.decode_queue", "occupancy.lq", "occupancy.sq"]
        keys += [f"queues.{name}"
                 for name in sorted(samples[-1].get("queues", {}))]
        rows = []
        for key in keys:
            data = series(samples, key)
            # series() yields None where a sample lacks the key (ragged
            # series are legal); aggregate over the present points only
            present = [value for value in data if value is not None]
            if not present:
                continue
            rows.append([key,
                         sparkline([0.0 if value is None else value
                                    for value in data], width=40),
                         round(min(present), 3), round(max(present), 3),
                         round(present[-1], 3)])
        print()
        print(format_table(
            ["series", "history", "min", "max", "last"], rows,
            title=f"interval time-series ({len(samples)} samples, "
                  f"every {result.sample_interval} cycles)",
        ))
        stalls = samples[-1].get("stall_fractions") or {}
        rows = []
        for category in stalls:
            data = series(samples, f"stall_fractions.{category}")
            present = [value for value in data if value is not None]
            if not present or max(present) <= 0:
                continue
            rows.append([category,
                         sparkline([0.0 if value is None else value
                                    for value in data],
                                   width=40, lo=0.0, hi=1.0),
                         f"{100.0 * present[-1]:.1f}%"])
        if rows:
            print()
            print(format_table(
                ["stall class", "history (0..1 scale)", "last"], rows,
                title="per-interval stall-class fractions",
            ))
    snap = registry.snapshot()
    counters = sorted(
        ((name, s["value"]) for name, s in snap.items()
         if s["type"] == "counter"),
        key=lambda kv: (-kv[1], kv[0]),
    )
    if counters:
        print()
        print(format_table(
            ["counter", "value"], [list(kv) for kv in counters[:15]],
            title=f"top counters ({len(counters)} registered)",
        ))
    histograms = [(name, s) for name, s in snap.items()
                  if s["type"] == "histogram"]
    if histograms:
        rows = [[name, s["count"], round(s["mean"], 2),
                 sparkline(list(s["buckets"].values()))]
                for name, s in histograms]
        bounds = list(histograms[0][1]["buckets"])
        print()
        print(format_table(
            ["histogram", "count", "mean", "distribution"], rows,
            title=f"histograms (buckets: {' '.join(bounds)})",
        ))


def _cmd_metrics(args) -> int:
    import json
    from pathlib import Path

    from .telemetry import IntervalSampler, MetricsRegistry

    registry = MetricsRegistry()
    sampler = IntervalSampler(args.sample_interval)
    result, tracer, _ = _traced_run(args.workload, args.arch, args,
                                    metrics=registry, sampler=sampler)
    cfg = config_for(args.arch, width=args.width)
    samples = result.interval_samples
    # write artefacts before the tables so a closed stdout pipe
    # (e.g. `... | head`) can't lose them
    if args.trace_out:
        _write_trace_file(
            tracer, args.trace_out, "chrome",
            label=f"{args.workload}/{cfg.name}",
            metadata={"workload": args.workload, "config": cfg.name},
            samples=samples,
        )
    if args.csv:
        from .telemetry import write_samples_csv

        Path(args.csv).resolve().parent.mkdir(parents=True, exist_ok=True)
        write_samples_csv(samples, args.csv)
        print(f"wrote samples CSV: {args.csv}")
    if args.json_out:
        payload = {
            "workload": args.workload,
            "config": cfg.name,
            "cycles": result.cycles,
            "committed": result.stats.committed,
            "sample_interval": result.sample_interval,
            "metrics": registry.snapshot(),
            "samples": samples,
        }
        target = Path(args.json_out).resolve()
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        print(f"wrote metrics JSON: {args.json_out}")
    if args.prometheus:
        from .telemetry import render_prometheus

        labels = {"workload": args.workload, "config": cfg.name}
        print(render_prometheus(registry.snapshot(), labels=labels), end="")
        return 0
    print(format_table(
        ["metric", "value"],
        [
            ["workload", args.workload],
            ["config", cfg.name],
            ["cycles", result.cycles],
            ["committed", result.stats.committed],
            ["IPC", round(result.ipc, 3)],
            ["samples", len(samples)],
            ["sample interval", result.sample_interval],
            ["metrics registered", len(registry)],
        ],
        title="instrumented simulation",
    ))
    _print_metrics_tables(result, registry)
    return 0


def _trace_path_for_arch(path: str, arch: str) -> str:
    stem, dot, suffix = path.rpartition(".")
    if not dot:
        return f"{path}.{arch}"
    return f"{stem}.{arch}.{suffix}"


def _cmd_compare(args) -> int:
    runner = _runner(args)
    model = EnergyModel()
    for arch in args.arches:
        if arch not in _ALL_ARCHES:
            print(f"unknown arch: {arch}", file=sys.stderr)
            return 2
    by_arch = {}
    if not args.trace_out:
        # batch the uncached runs (parallel under --jobs); quarantined
        # cells come back as FailedResult rows instead of raising
        results = runner.run_many([
            (args.workload, config_for(arch, width=args.width))
            for arch in args.arches
        ])
        by_arch = dict(zip(args.arches, results))
    rows = []
    for arch in args.arches:
        if args.trace_out:
            result, tracer, _ = _traced_run(args.workload, arch, args)
            _write_trace_file(
                tracer, _trace_path_for_arch(args.trace_out, arch),
                args.trace_format, label=f"{args.workload}/{arch}",
                metadata={"workload": args.workload, "config": arch},
            )
        else:
            result = by_arch[arch]
        if not result.ok:
            rows.append([arch, "FAILED", result.kind, "", ""])
            continue
        cfg = config_for(arch, width=args.width)
        report = model.evaluate(result, cfg)
        rows.append([
            arch, round(result.ipc, 3), result.cycles,
            round(report.energy_per_instruction_pj, 1),
            round(report.efficiency / 1e12, 3),
        ])
    print(format_table(
        ["arch", "IPC", "cycles", "pJ/op", "1/EDP (1/(J*s) x1e12)"], rows,
        title=f"{args.workload} @ {args.width}-wide",
    ))
    return _report_failures(runner)


def _report_failures(runner: ExperimentRunner) -> int:
    """Print the quarantine summary; non-zero when cells were lost.

    Also surfaces the cache-health counter: corrupt / unreadable disk
    cache entries are tolerated (treated as misses and re-simulated)
    but worth a warning — they usually mean a crashed writer or a
    schema change invalidated part of the cache.
    """
    if runner.cache_warnings:
        count = runner.cache_warnings
        noun = "entry" if count == 1 else "entries"
        print(f"cache health: {count} corrupt/unreadable {noun} "
              f"re-simulated — run `repro reconcile` on campaign "
              f"directories to audit and repair the cache")
    summary = runner.failure_summary()
    if not summary:
        return 0
    print()
    print(summary, file=sys.stderr)
    return 1


def _cmd_suite(args) -> int:
    runner = _runner(args)
    arches = ("inorder", args.arch)
    sampling = _sampling_from_args(args)

    def build(arch):
        config = config_for(arch, width=args.width)
        if sampling is not None:
            from .core.sampling import with_sampling

            # sample baseline and target alike so the speedup column
            # compares extrapolated-vs-extrapolated, not mixed tiers
            config = with_sampling(config, **sampling)
        return config

    results = iter(runner.run_many([
        (workload, build(arch))
        for arch in arches
        for workload in SUITE_NAMES
    ]))
    by_arch = {arch: {w: next(results) for w in SUITE_NAMES}
               for arch in arches}
    rows = []
    speedups = []
    for workload in SUITE_NAMES:
        base = by_arch["inorder"][workload]
        result = by_arch[args.arch][workload]
        if not (base.ok and result.ok):
            bad = result if not result.ok else base
            rows.append([workload, "FAILED", bad.kind, ""])
            continue
        speedup = base.seconds / result.seconds
        speedups.append(speedup)
        rows.append([workload, round(result.ipc, 3), result.cycles,
                     round(speedup, 2)])
    rows.append(["GEOMEAN", "", "",
                 round(geomean(speedups), 2) if speedups else "n/a"])
    print(format_table(
        ["workload", "IPC", "cycles", "speedup/InO"], rows,
        title=f"{args.arch} @ {args.width}-wide across the suite"
              + (" (sampled)" if sampling is not None else ""),
    ))
    return _report_failures(runner)


def _cmd_trace(args) -> int:
    result, tracer, _ = _traced_run(args.workload, args.arch, args)
    cfg = config_for(args.arch, width=args.width)
    # write the file before the tables so a closed stdout pipe
    # (e.g. `repro trace ... | head`) can't lose the trace
    if args.trace_out:
        _write_trace_file(
            tracer, args.trace_out, args.trace_format,
            label=f"{args.workload}/{cfg.name}",
            metadata={"workload": args.workload, "config": cfg.name},
        )
    counts = tracer.stage_counts()
    print(format_table(
        ["metric", "value"],
        [
            ["workload", args.workload],
            ["config", cfg.name],
            ["cycles", result.cycles],
            ["committed", result.stats.committed],
            ["IPC", round(result.ipc, 3)],
            ["events traced", len(tracer)],
            ["micro-ops traced", len(tracer.ops)],
            ["squashes traced", counts.get("squash", 0)],
        ],
        title="traced simulation",
    ))
    _print_stall_tables(result)
    return 0


def _cmd_report(args) -> int:
    from .analysis.experiments import build_report

    print(build_report(_runner(args)))
    return 0


def _cmd_figure(args) -> int:
    from .analysis import experiments
    from .analysis.plotting import bar_chart

    runner = _runner(args)
    if args.which == "fig11":
        data = experiments.collect_fig11(runner)
        print(bar_chart(data, title="Figure 11: speedup over InO (geomean)",
                        reference=data["ooo"]))
    elif args.which == "fig13":
        data = experiments.collect_fig13(runner)
        print(bar_chart(data, title="Figure 13: step-by-step (speedup/InO)"))
    elif args.which == "fig16":
        energy = experiments.collect_energy(runner)
        ooo = energy["ooo"]
        eff = {
            arch: (ooo["total"] * ooo["seconds"])
            / (d["total"] * d["seconds"])
            for arch, d in energy.items()
        }
        print(bar_chart(eff, title="Figure 16: 1/EDP vs OoO", reference=1.0))
    else:  # fig17c
        data = {
            f"{count} P-IQs": value
            for count, value in experiments.collect_fig17c(runner).items()
        }
        print(bar_chart(data, title="Figure 17c: perf vs OoO by P-IQ count",
                        reference=1.0))
    return 0


def _cmd_characterize(args) -> int:
    from .analysis.dataflow import analyze
    from .workloads.suite import get_trace

    rows = []
    for workload in SUITE_NAMES:
        trace = get_trace(workload, args.ops, args.seed)
        report = analyze(trace)
        rows.append([
            workload, report.ops, report.critical_path,
            round(report.ideal_ipc, 2), round(report.chain_fraction, 3),
        ])
    print(format_table(
        ["workload", "ops", "critical path", "dataflow IPC limit",
         "chain fraction"],
        rows, title="dataflow-limit characterisation",
    ))
    return 0


def _cmd_fuzz(args) -> int:
    from .verify.fuzz import run_fuzz

    for arch in args.arches:
        if arch not in _ALL_ARCHES:
            print(f"unknown arch: {arch}", file=sys.stderr)
            return 2
    report = run_fuzz(
        programs=args.programs,
        seed=args.seed,
        arches=args.arches,
        width=args.width,
        check_invariants=not args.no_invariants,
        shrink=not args.no_shrink,
        max_ops=args.ops,
        progress=print,
    )
    print(report.summary())
    if args.out:
        from pathlib import Path

        Path(args.out).resolve().parent.mkdir(parents=True, exist_ok=True)
        with open(args.out, "w") as handle:
            handle.write(report.full_report() + "\n")
        print(f"wrote failure report: {args.out}")
    return 0 if report.ok else 1


def _cmd_chaos(args) -> int:
    from .verify.chaos import ChaosSpec, run_campaign

    for arch in args.arches:
        if arch not in _ALL_ARCHES:
            print(f"unknown arch: {arch}", file=sys.stderr)
            return 2
    if args.distributed:
        from .verify.chaos import run_distributed

        report = run_distributed(
            arches=args.arches[:2],
            target_ops=args.ops,
            seed=args.seed,
            n_shards=args.shards,
            jobs=args.jobs or 2,
            poison=args.poison,
            timeout=args.timeout,
            work_dir=args.work_dir,
            progress=print,
        )
        print()
        print(report.full_report())
        if args.out:
            from pathlib import Path

            Path(args.out).resolve().parent.mkdir(parents=True,
                                                  exist_ok=True)
            with open(args.out, "w") as handle:
                handle.write(report.full_report() + "\n")
            print(f"wrote campaign report: {args.out}")
        return 0 if report.ok else 1
    spec = ChaosSpec(kill=args.kill, hang=args.hang, error=args.error,
                     wedge=args.wedge, poison=args.poison, salt=args.seed)
    report = run_campaign(
        arches=args.arches,
        target_ops=args.ops,
        seed=args.seed,
        jobs=args.jobs or 4,
        spec=spec,
        timeout=args.timeout,
        retries=args.retries if args.retries is not None else 4,
        smoke=args.smoke,
        progress=print,
    )
    print()
    print(report.full_report())
    if args.out:
        from pathlib import Path

        Path(args.out).resolve().parent.mkdir(parents=True, exist_ok=True)
        with open(args.out, "w") as handle:
            handle.write(report.full_report() + "\n")
        print(f"wrote campaign report: {args.out}")
    return 0 if report.ok else 1


def _cmd_serve(args) -> int:
    import signal
    from pathlib import Path

    from .serve.daemon import ServeDaemon

    cache = "" if args.no_cache else None
    if args.queue_dir is not None:
        queue_dir = args.queue_dir
    else:
        # default next to the result cache so one tree holds all state
        import os

        root = os.environ.get("REPRO_BENCH_CACHE") or str(
            Path(__file__).resolve().parents[2] / ".bench_cache")
        queue_dir = str(Path(root) / "queue")
    daemon = ServeDaemon(
        queue_dir=queue_dir,
        host=args.host,
        port=args.port,
        workers=args.workers,
        shard_size=args.shard_size,
        shard_jobs=args.shard_jobs,
        max_depth=args.max_depth,
        rate=args.rate,
        burst=args.burst,
        runner_kwargs=dict(
            target_ops=args.ops, seed=args.seed, cache_dir=cache,
            task_timeout=args.task_timeout, retries=args.retries,
            run_log=args.run_log,
        ),
        spans=args.spans,
    )
    daemon.start()
    print(f"serving on {daemon.url} (queue: {queue_dir}, "
          f"{args.workers} workers)")
    if daemon.queue.replayed_jobs:
        print(f"replayed {daemon.queue.replayed_jobs} unfinished job(s) "
              "from the journal")
    if daemon.queue.recovered_jobs:
        print(f"recovered {len(daemon.queue.recovered_jobs)} completed "
              "job(s) whose job_done record was torn off")
    if args.port_file:
        Path(args.port_file).write_text(f"{daemon.port}\n")
    for signum in (signal.SIGTERM, signal.SIGINT):
        signal.signal(signum, lambda *_: daemon.request_stop())
    daemon.wait()
    print("serve: drained and stopped")
    return 0


def _result_rows(entries):
    """Render ordered result envelopes as CLI table rows."""
    rows = []
    for entry in entries:
        cell = entry["cell"]
        label = f"{cell['workload']}/{cell['arch']}@{cell['width']}"
        if entry["ok"]:
            stats = entry["result"]["stats"]
            cycles = stats["cycles"]
            ipc = stats["committed"] / cycles if cycles else 0.0
            rows.append([entry["seq"], label, round(ipc, 3), cycles, "ok"])
        else:
            rows.append([entry["seq"], label, "", "",
                         f"FAILED ({entry['result']['kind']})"])
    return rows


def _print_job_results(client, job_id: str, timeout: float) -> int:
    status = client.wait(job_id, timeout=timeout)
    entries = client.stream_results(job_id, timeout=timeout)
    print(format_table(
        ["seq", "cell", "IPC", "cycles", "status"], _result_rows(entries),
        title=f"job {job_id}: {status['status']}, "
              f"{status['failed_cells']} failed cell(s)",
    ))
    return 0 if (status["status"] == "done"
                 and status["failed_cells"] == 0) else 1


def _cmd_submit(args) -> int:
    from .serve.client import ServeClient, ServeError
    from .serve.protocol import PROTOCOL_VERSION

    trace = None
    if args.trace is not None:
        from .telemetry.spans import SpanContext, new_span_id, new_trace_id

        if args.trace == "new":
            trace = SpanContext(new_trace_id(), new_span_id()).to_dict()
        else:
            try:
                trace_id, _, span_id = args.trace.partition(":")
                trace = SpanContext(trace_id, span_id).to_dict()
                SpanContext.from_dict(trace)
            except ValueError as exc:
                print(f"bad --trace: {exc}", file=sys.stderr)
                return 2
    client = ServeClient(args.server)
    try:
        health = client.health()
        if health.get("protocol") != PROTOCOL_VERSION:
            print(f"protocol mismatch: server speaks "
                  f"{health.get('protocol')}, client {PROTOCOL_VERSION}",
                  file=sys.stderr)
            return 2
        job = client.submit(
            matrix={
                "workloads": args.workloads,
                "arches": args.arches,
                "widths": args.widths or [args.width],
            },
            priority=args.priority,
            tenant=args.tenant,
            idempotency_key=args.idempotency_key,
            trace=trace,
        )
    except ServeError as exc:
        print(f"submit rejected: {exc}", file=sys.stderr)
        return 1
    verb = "submitted" if job["created"] else "already submitted"
    print(f"{verb}: job {job['job_id']} ({job['cells']} cells, "
          f"{job['priority']} lane)")
    if trace is not None:
        print(f"trace {trace['trace_id']} span {trace['span_id']}")
    if not args.wait:
        return 0
    return _print_job_results(client, job["job_id"], args.timeout)


def _cmd_poll(args) -> int:
    from .serve.client import ServeClient, ServeError

    client = ServeClient(args.server)
    try:
        if args.results:
            return _print_job_results(client, args.job_id, args.timeout)
        status = client.status(args.job_id)
    except ServeError as exc:
        print(f"poll failed: {exc}", file=sys.stderr)
        return 1
    print(format_table(
        ["field", "value"],
        [[key, value] for key, value in status.items()],
        title=f"job {args.job_id}",
    ))
    return 0


def _campaign_spec(args):
    """Resolve the campaign spec: manifest first, axes as fallback."""
    from .distrib import CampaignSpec, load_manifest

    n_shards = 1
    if args.shard:
        try:
            shard_str, total_str = args.shard.split("/", 1)
            shard, n_shards = int(shard_str), int(total_str)
        except ValueError:
            raise SystemExit(f"--shard wants K/N (e.g. 0/4), "
                             f"got {args.shard!r}")
    else:
        shard = None
    try:
        spec = load_manifest(args.campaign_dir)
        if args.shard and spec.n_shards != n_shards:
            raise SystemExit(
                f"--shard says {n_shards} shards but the manifest "
                f"says {spec.n_shards}")
        return spec, shard
    except FileNotFoundError:
        pass
    if not args.workloads or not args.arches:
        raise SystemExit(
            "no manifest yet: pass --workloads and --arches to declare "
            "the campaign matrix")
    spec = CampaignSpec(
        workloads=tuple(args.workloads),
        arches=tuple(args.arches),
        widths=tuple(args.widths or [args.width]),
        ops=args.ops, seed=args.seed,
        n_shards=n_shards, salt=args.salt,
    )
    return spec, shard


def _cmd_campaign(args) -> int:
    from pathlib import Path

    from .distrib import merge_shards, merge_trace, run_shard

    for arch in args.arches or ():
        if arch not in _ALL_ARCHES:
            print(f"unknown arch: {arch}", file=sys.stderr)
            return 2
    spec, shard = _campaign_spec(args)
    cache = "" if args.no_cache else args.cache_dir
    if shard is not None:
        progress = print if args.progress else None
        results = run_shard(
            spec, shard, args.campaign_dir, cache_dir=cache,
            jobs=args.jobs, task_timeout=args.task_timeout,
            retries=args.retries, progress=progress, spans=args.spans)
        failed = sum(1 for result in results if not result.ok)
        print(f"shard {shard}/{spec.n_shards}: {len(results)} cell(s), "
              f"{failed} failed")
        return 0 if failed == 0 else 1
    if args.merge:
        merged = merge_shards(spec, args.campaign_dir, cache_dir=cache)
        print(merged.summary())
        has_spans = any(Path(args.campaign_dir).glob("spans-*.jsonl"))
        if args.spans or has_spans:
            spans = merge_trace(spec, args.campaign_dir, chrome=True)
            cells = sum(1 for span in spans if span.name == "cell")
            print(f"merged trace: {len(spans)} span(s), {cells} cell "
                  f"span(s) -> merged-spans.jsonl + trace.json")
        if merged.gaps:
            print(f"gaps (submission indices): {merged.gaps}")
            print("run `repro reconcile` to repair them")
        return 0 if merged.complete else 1
    print("nothing to do: pass --shard K/N or --merge", file=sys.stderr)
    return 2


def _cmd_reconcile(args) -> int:
    import json as json_mod
    from pathlib import Path

    from .distrib import Detector, load_manifest, reconcile_campaign

    try:
        spec = load_manifest(args.campaign_dir)
    except FileNotFoundError as exc:
        print(exc, file=sys.stderr)
        return 2
    cache = "" if args.no_cache else args.cache_dir
    if args.check:
        diff = Detector(spec, cache_dir=cache).diff(args.campaign_dir)
        print(diff.summary())
        rows = [[status.seq,
                 f"{status.cell.workload}/{status.cell.arch}"
                 f"@{status.cell.width}",
                 status.state, status.detail]
                for status in diff.damaged]
        if rows:
            print(format_table(["seq", "cell", "state", "detail"], rows,
                               title="damaged cells"))
        return 0 if diff.converged else 1
    report = reconcile_campaign(
        args.campaign_dir, spec=spec, cache_dir=cache,
        max_rounds=args.max_rounds, cell_budget=args.budget,
        server=args.server, jobs=args.jobs,
        progress=print if args.progress else None, spans=args.spans)
    print(report.summary())
    if args.out:
        path = Path(args.out).resolve()
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json_mod.dumps(report.to_dict(), indent=2,
                                       sort_keys=True) + "\n")
        print(f"wrote reconcile report: {args.out}")
    return 0 if report.converged else 1


def _cmd_top(args) -> int:
    from .telemetry.top import run_top

    if not args.run_logs and not args.server:
        print("nothing to watch: pass run-log path(s) and/or --server",
              file=sys.stderr)
        return 2
    return run_top(args.run_logs, server=args.server,
                   interval=args.interval, once=args.once,
                   window_s=args.window)


_COMMANDS = {
    "workloads": _cmd_workloads,
    "configs": _cmd_configs,
    "simulate": _cmd_simulate,
    "metrics": _cmd_metrics,
    "compare": _cmd_compare,
    "suite": _cmd_suite,
    "trace": _cmd_trace,
    "report": _cmd_report,
    "figure": _cmd_figure,
    "characterize": _cmd_characterize,
    "fuzz": _cmd_fuzz,
    "chaos": _cmd_chaos,
    "serve": _cmd_serve,
    "submit": _cmd_submit,
    "poll": _cmd_poll,
    "campaign": _cmd_campaign,
    "reconcile": _cmd_reconcile,
    "top": _cmd_top,
}


def main(argv: Optional[List[str]] = None) -> int:
    args = _make_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
