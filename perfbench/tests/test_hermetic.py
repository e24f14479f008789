"""Runs start from clean state: no inherited knobs, no shared caches."""

import os
from pathlib import Path

import servework
import support

KNOBS = ("REPRO_CHAOS", "REPRO_LOCKSTEP", "REPRO_SPANS", "REPRO_RUN_LOG",
         "REPRO_BENCH_OPS", "REPRO_BENCH_CACHE", "REPRO_SOA_NUMPY",
         "REPRO_TRACE_CACHE")


def test_scrub_clears_every_repro_knob(monkeypatch):
    for name in KNOBS:
        monkeypatch.setenv(name, "1")
    monkeypatch.setenv("UNRELATED_KNOB", "kept")
    removed = support.scrub_environment()
    assert set(KNOBS) <= set(removed)
    assert not [name for name in os.environ if name.startswith("REPRO_")]
    assert os.environ["UNRELATED_KNOB"] == "kept"


def test_caches_live_in_fresh_scratch_dirs(tmp_path, monkeypatch):
    monkeypatch.delenv("REPRO_TRACE_CACHE", raising=False)
    monkeypatch.delenv("REPRO_BENCH_CACHE", raising=False)
    bench_cache = support.ROOT / ".bench_cache"
    with support.Scratch(parent=tmp_path / "scratch") as scratch:
        support.point_caches_at(scratch)
        for name in ("REPRO_TRACE_CACHE", "REPRO_BENCH_CACHE"):
            path = Path(os.environ[name])
            assert path.parent == scratch.root and path.is_dir()
            assert bench_cache not in path.parents
        assert scratch.fresh("x") != scratch.fresh("x")
        root = scratch.root
    assert not root.exists()


def test_serve_session_uses_its_own_queue_and_caches(tmp_path, monkeypatch):
    monkeypatch.delenv("REPRO_TRACE_CACHE", raising=False)
    with support.Scratch(parent=tmp_path / "scratch") as scratch:
        session = servework.Session(scratch, seed=3)
        try:
            session.start()
            daemon = session.daemon
            assert Path(daemon.queue.root).parent == scratch.root
            runner_dirs = {Path(r.cache_dir).parent
                           for r in daemon.pool._runners}
            assert runner_dirs == {scratch.root}
            assert Path(os.environ["REPRO_TRACE_CACHE"]).parent == scratch.root
            assert daemon.workers <= (os.cpu_count() or 1)
        finally:
            session.stop()


def test_job_plan_is_seeded_and_mixes_three_kinds():
    plan = servework.plan_jobs(5)
    assert [job.cells for job in plan] == [
        job.cells for job in servework.plan_jobs(5)]
    assert [job.cells for job in plan] != [
        job.cells for job in servework.plan_jobs(6)]
    kinds = [job.kind for job in plan]
    assert kinds.count("batch") == len(servework.SUITE_NAMES)
    assert kinds.count("sampled") == len(servework.SAMPLED_AFTER)
    served = set()
    for job in plan:
        keys = [servework.cell_key(cell, False) for cell in job.cells]
        if job.kind == "interactive":
            assert sum(key in served for key in keys) == 5
        if job.kind != "sampled":
            served.update(keys)
