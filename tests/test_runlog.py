"""Campaign run-log: event schema, lifecycle pairing, fault events."""

import json

import pytest

from repro.analysis.runner import ExperimentRunner
from repro.core.config import config_for
from repro.telemetry import EVENT_FIELDS, RunLog, read_run_log, validate_event

OPS = 1200


def _runner(tmp_path, sub, **kw):
    kw.setdefault("run_log", str(tmp_path / f"{sub}.jsonl"))
    return ExperimentRunner(
        target_ops=OPS, cache_dir=str(tmp_path / sub), **kw
    )


def _events(runner, event=None):
    return read_run_log(str(runner.run_log.path), event=event)


# ---------------------------------------------------------------------------
# schema / writer


class TestValidation:
    def test_unknown_event_rejected(self):
        with pytest.raises(ValueError):
            validate_event({"event": "nosuch", "t": 0, "elapsed": 0})

    def test_missing_field_rejected(self):
        record = {"event": "finish", "t": 0, "elapsed": 0,
                  "key": "k", "workload": "w", "config": "c", "seed": 7,
                  "attempt": 0, "seconds": 0.1}  # worker missing
        with pytest.raises(ValueError):
            validate_event(record)

    def test_every_declared_event_validates(self):
        for event, fields in EVENT_FIELDS.items():
            record = {"event": event, "t": 0.0, "elapsed": 0.0,
                      **{f: 0 for f in fields}}
            validate_event(record)  # must not raise

    def test_log_stamps_and_flushes(self, tmp_path):
        path = tmp_path / "log.jsonl"
        with RunLog(str(path)) as log:
            log.log("heartbeat", done=1, total=4, inflight=2, queued=1,
                    elapsed_s=0.5, sims_per_sec=2.0, eta_s=1.5)
            lines = path.read_text().splitlines()  # flushed before close
        assert len(lines) == 1
        record = json.loads(lines[0])
        assert record["event"] == "heartbeat"
        assert record["t"] > 0 and record["elapsed"] >= 0

    def test_log_rejects_bad_event_before_writing(self, tmp_path):
        path = tmp_path / "log.jsonl"
        with RunLog(str(path)) as log:
            with pytest.raises(ValueError):
                log.log("bogus", anything=1)
        assert path.read_text() == ""

    def test_reader_skips_torn_tail(self, tmp_path):
        path = tmp_path / "log.jsonl"
        with RunLog(str(path)) as log:
            log.log("pool_restart", restarts=1)
            log.log("pool_restart", restarts=2)
        with open(path, "a") as handle:
            handle.write('{"event": "pool_restart", "t": 1.0, "el')  # torn
        records = read_run_log(str(path))
        assert [r["restarts"] for r in records] == [1, 2]

    def test_reader_filters_by_event(self, tmp_path):
        path = tmp_path / "log.jsonl"
        with RunLog(str(path)) as log:
            log.log("pool_restart", restarts=1)
            log.log("heartbeat", done=0, total=1, inflight=1, queued=0,
                    elapsed_s=0.1, sims_per_sec=0.0, eta_s=None)
        assert len(read_run_log(str(path), event="heartbeat")) == 1

    def test_appends_across_runner_instances(self, tmp_path):
        path = tmp_path / "log.jsonl"
        for restarts in (1, 2):
            with RunLog(str(path)) as log:
                log.log("pool_restart", restarts=restarts)
        assert len(read_run_log(str(path))) == 2


# ---------------------------------------------------------------------------
# campaign lifecycle


class TestCampaignEvents:
    def test_serial_campaign_pairs_start_finish(self, tmp_path):
        runner = _runner(tmp_path, "serial")
        tasks = [(w, config_for("ooo"))
                 for w in ("histogram", "stream_triad")]
        runner.run_many(tasks, jobs=1)
        assert len(_events(runner, "campaign_start")) == 1
        assert _events(runner, "campaign_start")[0]["mode"] == "serial"
        starts = _events(runner, "start")
        finishes = _events(runner, "finish")
        assert len(starts) == len(finishes) == len(tasks)
        assert {s["key"] for s in starts} == {f["key"] for f in finishes}
        for record in finishes:
            assert record["seconds"] > 0
            assert record["worker"] > 0
        end = _events(runner, "campaign_end")[0]
        assert end["simulations"] == len(tasks)
        assert end["quarantined"] == 0
        for record in _events(runner):
            validate_event(record)  # every line satisfies the schema

    def test_parallel_campaign_submits_and_finishes(self, tmp_path):
        runner = _runner(tmp_path, "parallel")
        tasks = [(w, config_for("ooo"))
                 for w in ("histogram", "stream_triad", "dotprod")]
        runner.run_many(tasks, jobs=2)
        assert _events(runner, "campaign_start")[0]["mode"] == "parallel"
        submits = _events(runner, "submit")
        finishes = _events(runner, "finish")
        assert len(submits) == len(finishes) == len(tasks)
        assert {s["key"] for s in submits} == {f["key"] for f in finishes}
        for record in _events(runner):
            validate_event(record)

    def test_cached_rerun_logs_cache_hits_only(self, tmp_path):
        tasks = [("histogram", config_for("ooo"))]
        _runner(tmp_path, "warm").run_many(tasks, jobs=1)
        again = _runner(tmp_path, "warm")
        again.run_many(tasks, jobs=1)
        own = [r for r in _events(again)]
        # both campaigns share the log file; the second adds exactly one
        # cache_hit and no new start/finish
        assert len([r for r in own if r["event"] == "cache_hit"]) == 1
        assert len([r for r in own if r["event"] == "start"]) == 1
        assert len([r for r in own if r["event"] == "finish"]) == 1

    def test_single_run_logs_start_finish(self, tmp_path):
        runner = _runner(tmp_path, "single")
        runner.run("histogram", config_for("ooo"))
        assert len(_events(runner, "start")) == 1
        assert len(_events(runner, "finish")) == 1
        runner.run("histogram", config_for("ooo"))  # now cached
        assert len(_events(runner, "cache_hit")) == 1

    def test_heartbeat_emitted_when_interval_zero(self, tmp_path):
        runner = _runner(tmp_path, "beat", heartbeat_interval=0.0)
        lines = []
        runner.progress = lines.append
        tasks = [(w, config_for("ooo"))
                 for w in ("histogram", "stream_triad")]
        runner.run_many(tasks, jobs=1)
        beats = _events(runner, "heartbeat")
        assert beats
        assert beats[-1]["done"] == len(tasks)
        assert lines and "done" in lines[-1]

    def test_retry_and_quarantine_events(self, tmp_path, monkeypatch):
        import repro.analysis.runner as runner_mod

        def explode(trace, config):
            raise RuntimeError("injected failure")

        monkeypatch.setattr(runner_mod, "simulate", explode)
        runner = _runner(tmp_path, "fail", retries=2)
        results = runner.run_many([("histogram", config_for("ooo"))], jobs=1)
        assert not results[0].ok
        retries = _events(runner, "retry")
        assert len(retries) == 2
        assert all(r["kind"] == "error" for r in retries)
        quarantine = _events(runner, "quarantine")[0]
        assert "injected failure" in quarantine["error"]
        assert quarantine["attempts"] == 3  # initial try + 2 retries
        assert _events(runner, "campaign_end")[0]["quarantined"] == 1

    def test_no_log_configured_writes_nothing(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_RUN_LOG", raising=False)
        runner = ExperimentRunner(
            target_ops=OPS, cache_dir=str(tmp_path / "nolog"), run_log="",
        )
        runner.run("histogram", config_for("ooo"))
        assert runner.run_log is None
        assert not list(tmp_path.glob("*.jsonl"))

    def test_env_var_enables_log(self, tmp_path, monkeypatch):
        path = tmp_path / "env.jsonl"
        monkeypatch.setenv("REPRO_RUN_LOG", str(path))
        runner = ExperimentRunner(
            target_ops=OPS, cache_dir=str(tmp_path / "env")
        )
        runner.run("histogram", config_for("ooo"))
        assert len(read_run_log(str(path), event="finish")) == 1


# ---------------------------------------------------------------------------
# cache-health events (tolerated corruption is observable, not just counted)


class TestCacheWarningEvents:
    def _corrupt_run(self, tmp_path, text, **runner_kw):
        """Warm the cache, rewrite the entry to ``text``, re-read cold."""
        warm = _runner(tmp_path, "cachewarn")
        warm.run("dotprod", config_for("ooo"))
        key = warm._key("dotprod", config_for("ooo"), warm.seed)
        (tmp_path / "cachewarn" / f"{key}.json").write_text(text)
        cold = ExperimentRunner(
            target_ops=OPS, cache_dir=str(tmp_path / "cachewarn"),
            run_log=str(tmp_path / "cold.jsonl"), **runner_kw)
        cold.run("dotprod", config_for("ooo"))
        return cold

    def test_corrupt_entry_emits_structured_event(self, tmp_path):
        cold = self._corrupt_run(tmp_path, '{"torn": ')
        events = _events(cold, "cache_warning")
        assert len(events) == 1
        assert events[0]["reason"] == "corrupt"
        assert events[0]["count"] == 1 == cold.cache_warnings

    def test_zero_byte_entry_emits_its_own_reason(self, tmp_path):
        cold = self._corrupt_run(tmp_path, "")
        events = _events(cold, "cache_warning")
        assert events and events[0]["reason"] == "zero-byte"

    def test_warning_lands_on_metrics_counter(self, tmp_path):
        from repro.telemetry import MetricsRegistry

        metrics = MetricsRegistry()
        cold = self._corrupt_run(tmp_path, "garbage{", metrics=metrics)
        assert metrics.value("runner.cache_warnings") == 1
        assert cold.cache_warnings == 1

    def test_healthy_cache_emits_no_warning(self, tmp_path):
        warm = _runner(tmp_path, "healthy")
        warm.run("dotprod", config_for("ooo"))
        cold = ExperimentRunner(
            target_ops=OPS, cache_dir=str(tmp_path / "healthy"),
            run_log=str(tmp_path / "cold.jsonl"))
        cold.run("dotprod", config_for("ooo"))
        assert _events(cold, "cache_warning") == []
        assert cold.cache_warnings == 0


class TestTolerantReader:
    def test_mid_file_corruption_skipped_and_counted(self, tmp_path):
        from repro.telemetry.runlog import read_jsonl

        path = tmp_path / "log.jsonl"
        path.write_text('{"event": "heartbeat", "a": 1}\n'
                        '\x00GARBAGE not json\n'
                        '[1, 2, 3]\n'
                        '{"event": "heartbeat", "a": 2}\n')
        records, skipped = read_jsonl(str(path), strict=False)
        assert skipped == 2  # garbage line + non-object line
        assert [r["a"] for r in records] == [1, 2]

    def test_strict_reader_raises_where_tolerant_does_not(self, tmp_path):
        import json as json_mod

        import pytest

        from repro.telemetry.runlog import read_jsonl, read_run_log

        path = tmp_path / "log.jsonl"
        path.write_text('{"a": 1}\nGARBAGE\n{"a": 2}\n')
        with pytest.raises(json_mod.JSONDecodeError):
            read_run_log(str(path))
        records, skipped = read_jsonl(str(path), strict=False)
        assert len(records) == 2 and skipped == 1

    def test_missing_file_counts_one_skip(self, tmp_path):
        from repro.telemetry.runlog import read_jsonl

        records, skipped = read_jsonl(str(tmp_path / "no.jsonl"),
                                      strict=False)
        assert records == [] and skipped == 1
