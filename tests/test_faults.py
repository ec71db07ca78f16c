"""Chaos suite: the engine's fault-tolerance machinery under injected faults.

Every degradation path the engine claims to survive is exercised here through
the deterministic :class:`FaultPlan` harness: a job that raises recorded once
and never re-run, hung jobs timed out and retried without stalling their
batch, worker-killing poison jobs bisected out while innocent jobs keep their
results, damaged cache entries degrading to recomputation, and interrupted
fuzz campaigns and autotune searches resuming from the measurement cache to
the same results as uninterrupted runs.
"""

import json
import os
import pickle
import signal
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import pytest

from repro import cli
from repro.autotuner import GeneticAutotuner
from repro.experiments import BenchmarkRunner, baseline_profile
from repro.experiments import cache as cache_module
from repro.experiments.cache import CACHE_SCHEMA_VERSION, MeasurementCache
from repro.experiments.engine import ExperimentEngine
from repro.experiments.faults import (
    FAULT_PLAN_ENV, FaultPlan, FaultSpec, InjectedPermanentError, JobFailure,
    PoisonJobError, fault_point,
)
from repro.fuzz import CampaignSummary, HarnessConfig
from repro.fuzz.driver import run_campaign


# -- pool worker entry points (module-level: picklable into fork workers) ------
def _chaos_job(job):
    """Record one execution marker, hit the injection point, return a result."""
    key, value, workdir = job
    if workdir:
        tempfile.mkstemp(prefix=f"{key}.", dir=workdir)
    fault_point("chaos-job", key)
    return value * 2


def _refused_job(job):
    """Record one execution marker; job ``a`` raises a connection error."""
    key, value, workdir = job
    tempfile.mkstemp(prefix=f"{key}.", dir=workdir)
    if key == "a":
        raise ConnectionRefusedError("refused by a deterministic job")
    return value * 2


def _executions(workdir, key) -> int:
    return len(list(Path(workdir).glob(f"{key}.*")))


def _engine(tmp_path, **kwargs):
    kwargs.setdefault("workers", 2)
    kwargs.setdefault("use_disk_cache", False)
    return ExperimentEngine(**kwargs)


def _stored(tmp_path, **kwargs):
    """An engine on the disk cache under ``tmp_path / "store"``."""
    return _engine(tmp_path, cache_dir=tmp_path / "store",
                   use_disk_cache=True, **kwargs)


@pytest.fixture(autouse=True)
def _no_leaked_plan():
    """Fault plans must never leak between tests (or into other suites)."""
    yield
    os.environ.pop(FAULT_PLAN_ENV, None)


class TestFaultPlan:
    def test_fires_exactly_times_then_disarms(self, tmp_path):
        with FaultPlan([FaultSpec("p", action="permanent", times=2)],
                       tmp_path):
            for _ in range(2):
                with pytest.raises(InjectedPermanentError):
                    fault_point("p", "any")
            fault_point("p", "any")  # third call: spec exhausted, no raise

    def test_match_glob_and_point_isolation(self, tmp_path):
        with FaultPlan([FaultSpec("p", match="shard-1*",
                                  action="permanent")], tmp_path):
            fault_point("p", "shard-2")     # wrong key
            fault_point("other", "shard-1")  # wrong point
            with pytest.raises(InjectedPermanentError):
                fault_point("p", "shard-12")

    def test_unknown_action_is_rejected(self):
        # The removed "transient" action must not linger as a silent no-op.
        with pytest.raises(ValueError, match="transient"):
            FaultSpec("p", action="transient")

    def test_noop_without_plan(self):
        os.environ.pop(FAULT_PLAN_ENV, None)
        fault_point("p", "k")  # must not raise


class TestRetries:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_raising_job_runs_once(self, tmp_path, workers):
        # Jobs are deterministic: an error that reads as transient (a
        # refused connection) would recur, so the job is not re-run.
        (tmp_path / "runs").mkdir()
        jobs = [("a", 1, str(tmp_path / "runs")), ("b", 2, str(tmp_path / "runs"))]
        engine = _engine(tmp_path, workers=workers)
        failure, ok = engine.map_jobs(_refused_job, jobs, on_error="report",
                                      labels=["a", "b"])
        assert isinstance(failure, JobFailure)
        assert failure.stage == "compute"
        assert failure.error_type == "ConnectionRefusedError"
        assert failure.attempts == 1
        assert ok == 4
        assert engine.stats.retries == 0
        assert _executions(tmp_path / "runs", "a") == 1

    @pytest.mark.parametrize("workers", [1, 2])
    def test_permanent_fault_not_retried(self, tmp_path, workers):
        (tmp_path / "runs").mkdir()
        jobs = [("a", 1, str(tmp_path / "runs")), ("b", 2, str(tmp_path / "runs"))]
        engine = _engine(tmp_path, workers=workers)
        with FaultPlan([FaultSpec("chaos-job", match="a",
                                  action="permanent", times=5)],
                       tmp_path / "plan"):
            results = engine.map_jobs(_chaos_job, jobs, on_error="report",
                                      labels=["a", "b"])
        failure, ok = results
        assert isinstance(failure, JobFailure)
        assert failure.stage == "compute"
        assert failure.attempts == 1
        assert failure.error_type == "InjectedPermanentError"
        assert "injected permanent fault" in failure.message
        assert ok == 4
        assert engine.stats.retries == 0
        assert engine.stats.errors == 1
        assert _executions(tmp_path / "runs", "a") == 1

    def test_on_error_raise_propagates_original(self, tmp_path):
        engine = _engine(tmp_path, workers=1)
        with FaultPlan([FaultSpec("chaos-job", action="permanent")],
                       tmp_path / "plan"):
            with pytest.raises(InjectedPermanentError):
                engine.map_jobs(_chaos_job, [("a", 1, ""), ("b", 2, "")])


class TestTimeouts:
    def test_hung_job_times_out_without_stalling_batch(self, tmp_path):
        (tmp_path / "runs").mkdir()
        jobs = [(key, i, str(tmp_path / "runs"))
                for i, key in enumerate(["hang", "b", "c", "d"])]
        engine = _engine(tmp_path, job_timeout=1.0, timeout_attempts=1)
        begin = time.monotonic()
        with FaultPlan([FaultSpec("chaos-job", match="hang", action="hang",
                                  arg=60.0)], tmp_path / "plan"):
            results = engine.map_jobs(_chaos_job, jobs, on_error="report",
                                      labels=[j[0] for j in jobs])
        elapsed = time.monotonic() - begin
        assert elapsed < 30, f"hung job stalled the batch for {elapsed:.0f}s"
        failure = results[0]
        assert isinstance(failure, JobFailure)
        assert failure.stage == "timeout"
        assert results[1:] == [2, 4, 6]
        assert engine.stats.timeouts == 1
        # Innocent in-flight jobs resubmitted after the watchdog kill still
        # produce results; completed ones were salvaged, never re-run.
        for key in ("b", "c", "d"):
            assert _executions(tmp_path / "runs", key) >= 1

    def test_hang_once_then_retry_succeeds(self, tmp_path):
        jobs = [("hang", 5, ""), ("b", 6, "")]
        engine = _engine(tmp_path, job_timeout=1.0, timeout_attempts=2)
        with FaultPlan([FaultSpec("chaos-job", match="hang", action="hang",
                                  arg=60.0, times=1)], tmp_path / "plan"):
            results = engine.map_jobs(_chaos_job, jobs)
        assert results == [10, 12]
        assert engine.stats.timeouts == 1
        assert engine.stats.retries == 1
        assert engine.failures == []

    def test_hang_every_attempt_quarantined_after_last(self, tmp_path):
        (tmp_path / "runs").mkdir()
        jobs = [("hang", 5, str(tmp_path / "runs")),
                ("b", 6, str(tmp_path / "runs"))]
        engine = _engine(tmp_path, job_timeout=1.0, timeout_attempts=2)
        with FaultPlan([FaultSpec("chaos-job", match="hang", action="hang",
                                  arg=60.0, times=10)], tmp_path / "plan"):
            failure, ok = engine.map_jobs(_chaos_job, jobs, on_error="report",
                                          labels=["hang", "b"])
        assert isinstance(failure, JobFailure)
        assert failure.stage == "timeout"
        assert failure.attempts == 2
        assert ok == 12
        assert engine.stats.timeouts == 2
        assert engine.stats.retries == 1
        assert _executions(tmp_path / "runs", "hang") == 2

    def test_serial_execution_ignores_timeout(self, tmp_path):
        # Serial jobs cannot be preempted; the budget only governs pools.
        engine = _engine(tmp_path, workers=1, job_timeout=0.05)
        assert engine.map_jobs(_chaos_job, [("a", 1, ""), ("b", 2, "")]) \
            == [2, 4]


class TestPoisonJobs:
    def test_delayed_killer_quarantined_innocents_run_once(self, tmp_path):
        """THE salvage regression: jobs completed before a pool death keep
        their results and are never re-executed by recovery or fallback."""
        (tmp_path / "runs").mkdir()
        keys = ["k0", "k1", "k2", "k3", "k4", "poison"]
        jobs = [(key, i, str(tmp_path / "runs")) for i, key in enumerate(keys)]
        engine = _engine(tmp_path)
        with FaultPlan([FaultSpec("chaos-job", match="poison", action="kill",
                                  arg=1.0, times=10)], tmp_path / "plan"):
            results = engine.map_jobs(_chaos_job, jobs, on_error="report",
                                      labels=keys)
        assert results[:5] == [0, 2, 4, 6, 8]
        failure = results[5]
        assert isinstance(failure, JobFailure)
        assert failure.stage == "pool-kill"
        assert engine.stats.quarantined == 1
        assert engine.stats.salvaged >= 1
        # The killer waits 1s; the innocents complete (and are salvaged)
        # before the pool dies, so each ran exactly once.
        for key in keys[:-1]:
            assert _executions(tmp_path / "runs", key) == 1, key
        assert engine.stats.errors == 1

    def test_immediate_killer_bisected_out(self, tmp_path):
        (tmp_path / "runs").mkdir()
        keys = [f"k{i}" for i in range(7)] + ["poison"]
        jobs = [(key, i, str(tmp_path / "runs")) for i, key in enumerate(keys)]
        engine = _engine(tmp_path)
        with FaultPlan([FaultSpec("chaos-job", match="poison", action="kill",
                                  times=20)], tmp_path / "plan"):
            results = engine.map_jobs(_chaos_job, jobs, on_error="report",
                                      labels=keys)
        assert results[:7] == [0, 2, 4, 6, 8, 10, 12], \
            "innocent jobs must return real results"
        assert isinstance(results[7], JobFailure)
        assert results[7].stage == "pool-kill"
        assert results[7].job == "poison"
        assert engine.stats.quarantined == 1

    def test_on_error_raise_names_the_poison_job(self, tmp_path):
        engine = _engine(tmp_path)
        with FaultPlan([FaultSpec("chaos-job", match="poison", action="kill",
                                  times=20)], tmp_path / "plan"):
            with pytest.raises(PoisonJobError, match="poison"):
                engine.map_jobs(_chaos_job,
                                [("a", 1, ""), ("poison", 2, "")],
                                labels=["a", "poison"])

    def test_serial_fallback_resumes_not_restarts(self, tmp_path, monkeypatch):
        """When no new pool can be built after a crash, the in-process
        fallback picks up the *unresolved* jobs only (the old code re-ran
        the whole batch, double-counting completed work)."""
        (tmp_path / "runs").mkdir()
        keys = ["k0", "k1", "crash1", "crash2"]
        jobs = [(key, i, str(tmp_path / "runs")) for i, key in enumerate(keys)]
        engine = _engine(tmp_path)
        real_ensure = engine._ensure_pool
        pools = []

        def one_pool_only():
            if pools:
                raise OSError("simulated: no further pools available")
            pools.append(1)
            return real_ensure()

        monkeypatch.setattr(engine, "_ensure_pool", one_pool_only)
        # Two delayed killers die together with k0/k1 already salvaged, so
        # recovery has *two* unresolved suspects: bisection asks for a fresh
        # pool, finds none, and the serial fallback takes over.  Each kill
        # spec is single-shot (times=1, claimed on first execution), so the
        # fallback re-runs of the crashers succeed.
        with FaultPlan([FaultSpec("chaos-job", match="crash1", action="kill",
                                  arg=0.7, times=1),
                        FaultSpec("chaos-job", match="crash2", action="kill",
                                  arg=0.7, times=1)], tmp_path / "plan"):
            results = engine.map_jobs(_chaos_job, jobs, labels=keys)
        assert results == [0, 2, 4, 6]
        for key in ("k0", "k1"):
            assert _executions(tmp_path / "runs", key) == 1, \
                f"{key} was re-executed by the serial fallback"


class TestMeasurementFaults:
    def test_measure_failure_report_mode(self, tmp_path):
        engine = _engine(tmp_path, workers=1)
        with FaultPlan([FaultSpec("measure-job", action="permanent")],
                       tmp_path / "plan"):
            results = engine.measure_pairs([("fibonacci", baseline_profile())],
                                           on_error="report")
        assert isinstance(results[0], JobFailure)
        assert results[0].job == "fibonacci/baseline"
        assert engine.stats.errors == 1

    def test_serial_runner_report_mode(self, tmp_path):
        runner = BenchmarkRunner(max_instructions=10)
        results = runner.measure_pairs([("fibonacci", baseline_profile())],
                                       on_error="report")
        assert isinstance(results[0], JobFailure)
        assert results[0].job == "fibonacci/baseline"
        assert results[0].stage == "compute"

    def test_corrupted_cache_write_recomputes_next_run(self, tmp_path):
        cache_dir = tmp_path / "cache"
        with FaultPlan([FaultSpec("cache-put", action="corrupt")],
                       tmp_path / "plan"):
            first = ExperimentEngine(cache_dir=cache_dir, workers=1)
            first.measure_pairs([("fibonacci", baseline_profile())])
            assert first.stats.computed == 1
        # The entry was damaged on disk right after the write: the next
        # engine must treat it as a miss, evict it, and recompute.
        second = ExperimentEngine(cache_dir=cache_dir, workers=1)
        results = second.measure_pairs([("fibonacci", baseline_profile())])
        assert results[0].benchmark == "fibonacci"
        assert second.stats.computed == 1
        assert second.stats.disk_hits == 0
        assert second.cache.stats.errors == 1


class TestCacheDamageModes:
    def _seeded_cache(self, tmp_path):
        cache = MeasurementCache(tmp_path / "cache")
        measurement = BenchmarkRunner().measure("fibonacci", baseline_profile())
        cache.put("a" * 64, measurement)
        return cache, measurement

    def test_truncated_pickle_is_miss_and_evicted(self, tmp_path):
        cache, _ = self._seeded_cache(tmp_path)
        path = cache.path_for("a" * 64)
        path.write_bytes(path.read_bytes()[:20])
        assert cache.get("a" * 64) is None
        assert not path.exists()
        assert cache.stats.errors == 1

    def test_wrong_schema_envelope_is_miss_and_evicted(self, tmp_path):
        cache, measurement = self._seeded_cache(tmp_path)
        path = cache.path_for("a" * 64)
        with open(path, "wb") as handle:
            pickle.dump((CACHE_SCHEMA_VERSION + 1, measurement), handle)
        assert cache.get("a" * 64) is None
        assert not path.exists()

    def test_pre_envelope_entry_is_miss_and_evicted(self, tmp_path):
        # A v1-era entry (bare Measurement, no envelope tuple).
        cache, measurement = self._seeded_cache(tmp_path)
        path = cache.path_for("a" * 64)
        with open(path, "wb") as handle:
            pickle.dump(measurement, handle)
        assert cache.get("a" * 64) is None
        assert not path.exists()

    def test_directory_in_place_of_entry_is_miss(self, tmp_path):
        cache = MeasurementCache(tmp_path / "cache")
        path = cache.path_for("b" * 64)
        path.mkdir(parents=True)
        assert cache.get("b" * 64) is None
        assert cache.stats.errors == 1

    @pytest.mark.skipif(os.geteuid() == 0,
                        reason="root ignores file permission bits")
    def test_unreadable_entry_is_miss(self, tmp_path):
        cache, _ = self._seeded_cache(tmp_path)
        path = cache.path_for("a" * 64)
        path.chmod(0)
        try:
            assert cache.get("a" * 64) is None
            assert cache.stats.errors == 1
        finally:
            if path.exists():
                path.chmod(0o644)

    def test_concurrent_put_get_races_never_observe_torn_entries(self, tmp_path):
        cache = MeasurementCache(tmp_path / "cache")
        measurement = BenchmarkRunner().measure("fibonacci", baseline_profile())
        stop = time.monotonic() + 1.0
        outcomes = []

        def writer():
            while time.monotonic() < stop:
                cache.put("e" * 64, measurement)

        def reader():
            local = MeasurementCache(tmp_path / "cache")
            while time.monotonic() < stop:
                got = local.get("e" * 64)
                outcomes.append(got is None or
                                got.as_dict() == measurement.as_dict())

        threads = [threading.Thread(target=writer),
                   threading.Thread(target=writer),
                   threading.Thread(target=reader)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert outcomes and all(outcomes), \
            "a reader observed a torn or wrong cache entry"

    def test_verify_scans_and_evicts(self, tmp_path):
        cache, _ = self._seeded_cache(tmp_path)
        bad = cache.path_for("c" * 64)
        bad.parent.mkdir(parents=True, exist_ok=True)
        bad.write_bytes(b"garbage")
        report = cache.verify()
        assert report["checked"] == 2
        assert report["ok"] == 1
        assert report["corrupt_removed"] == 1
        assert not bad.exists()


class TestCampaignResume:
    """Fuzz verdicts live in the measurement cache, one entry per program."""

    def test_second_engine_answers_every_program(self, tmp_path):
        fresh = run_campaign(12, engine=_stored(tmp_path), shard_size=3)
        engine = _stored(tmp_path)
        rerun = run_campaign(12, engine=engine, shard_size=3)
        assert engine.stats.disk_hits == rerun.unique_programs \
            == fresh.unique_programs
        assert engine.stats.parallel_jobs == 0
        assert (rerun.ok, rerun.failed, rerun.triage.as_dict()) \
            == (fresh.ok, fresh.failed, fresh.triage.as_dict())
        assert not engine._memory  # the engine's memo holds measurements only

    def test_longer_campaign_answers_the_first_programs(self, tmp_path):
        first = run_campaign(8, engine=_stored(tmp_path), shard_size=3)
        engine = _stored(tmp_path)
        longer = run_campaign(12, engine=engine, shard_size=3)
        assert engine.stats.disk_hits == first.unique_programs
        assert engine.cache.stats.stores \
            == longer.unique_programs - first.unique_programs
        assert longer.ok + longer.failed == longer.unique_programs

    def test_changed_environment_recomputes(self, tmp_path, monkeypatch):
        # A verdict never outlives the code that produced it.
        run_campaign(4, engine=_stored(tmp_path), shard_size=2)
        monkeypatch.setattr(cache_module, "_source_digest", lambda: "0" * 64)
        cache_module._environment_blob.cache_clear()
        try:
            engine = _stored(tmp_path)
            summary = run_campaign(4, engine=engine, shard_size=2)
        finally:
            cache_module._environment_blob.cache_clear()
        assert engine.stats.disk_hits == 0
        assert engine.cache.stats.stores == summary.unique_programs

    def test_changed_harness_config_recomputes(self, tmp_path):
        run_campaign(4, engine=_stored(tmp_path), shard_size=2)
        engine = _stored(tmp_path)
        summary = run_campaign(4, engine=engine, shard_size=2,
                               config=HarnessConfig(profiles=("-O3",)))
        assert engine.stats.disk_hits == 0
        assert engine.cache.stats.stores == summary.unique_programs

    def test_quarantined_shard_reported_not_silent(self, tmp_path):
        # A shard whose worker dies must surface as a structured job_failure
        # on the summary (with every other shard still fuzzed), not vanish.
        # It is not a verdict, so nothing of it is stored: a rerun computes
        # its programs and answers the rest from the cache.
        with FaultPlan([FaultSpec("fuzz-shard", match="3", action="kill",
                                  arg=0.5, times=20)], tmp_path / "plan"):
            summary = run_campaign(12, engine=_stored(tmp_path), shard_size=3)
        assert len(summary.job_failures) == 1
        assert summary.job_failures[0]["stage"] == "pool-kill"
        assert not summary.clean
        assert summary.ok + summary.failed == summary.unique_programs - 3

        engine = _stored(tmp_path)
        rerun = run_campaign(12, engine=engine, shard_size=3)
        assert engine.stats.disk_hits == summary.unique_programs - 3
        assert engine.cache.stats.stores == 3
        assert not rerun.job_failures
        assert rerun.ok + rerun.failed == rerun.unique_programs

    def test_autotune_resumes_from_the_measurement_cache(self, tmp_path):
        # A second engine on the same cache directory, with a larger budget,
        # searches exactly like a fresh run, and everything the first search
        # finished comes back as a disk hit.
        def tune(cache_dir, iterations):
            engine = ExperimentEngine(workers=1, cache_dir=cache_dir)
            result = GeneticAutotuner(runner=engine, seed=3,
                                      population_size=4) \
                .tune("fibonacci", iterations=iterations)
            return result, engine.stats

        _, first = tune(tmp_path / "shared", 4)
        resumed, stats = tune(tmp_path / "shared", 8)
        fresh, fresh_stats = tune(tmp_path / "fresh", 8)
        assert first.errors == 0
        assert stats.disk_hits == first.computed  # baseline, -O3, 4 candidates
        assert stats.disk_hits + stats.computed == fresh_stats.computed
        assert resumed.history == fresh.history
        assert resumed.best_cycles == fresh.best_cycles
        assert resumed.best.passes == fresh.best.passes


class TestStats:
    def test_engine_stats_as_dict_has_fault_counters(self):
        stats = ExperimentEngine(use_disk_cache=False, workers=1).stats
        payload = stats.as_dict()
        for key in ("retries", "timeouts", "quarantined", "salvaged",
                    "computed", "errors"):
            assert key in payload


class TestCliFaultSurface:
    def _run(self, tmp_path, *argv):
        return cli.main(["--cache-dir", str(tmp_path / "cache"),
                         "--workers", "1", *argv])

    def test_stats_flag_prints_fault_counters(self, tmp_path, capsys):
        assert self._run(tmp_path, "--stats", "measure", "fibonacci") == 0
        err = capsys.readouterr().err
        assert "retries=" in err and "quarantined=" in err
        assert '"salvaged"' in err  # the full JSON block

    def test_cache_subcommand_stats_verify_clear(self, tmp_path, capsys):
        assert self._run(tmp_path, "measure", "fibonacci") == 0
        capsys.readouterr()
        assert self._run(tmp_path, "cache", "stats", "--json") == 0
        report = json.loads(capsys.readouterr().out)
        assert report["entries"] == 1 and report["bytes"] > 0

        # Damage one entry: verify reports (and evicts) it, exit 1.
        cache_root = tmp_path / "cache"
        entry = next(cache_root.glob("*/*.pkl"))
        entry.write_bytes(b"garbage")
        assert self._run(tmp_path, "cache", "verify", "--json") == 1
        report = json.loads(capsys.readouterr().out)
        assert report["corrupt_removed"] == 1

        assert self._run(tmp_path, "cache", "clear", "--json") == 0
        assert json.loads(capsys.readouterr().out)["removed"] == 0

    def test_cache_subcommand_rejects_no_disk_cache(self, tmp_path):
        assert cli.main(["--no-disk-cache", "cache", "stats"]) == 2

    def test_interrupted_autotune_says_to_rerun(self, tmp_path, capsys,
                                                 monkeypatch):
        def interrupted(self, benchmark, iterations=40):
            raise KeyboardInterrupt

        monkeypatch.setattr(GeneticAutotuner, "tune", interrupted)
        assert self._run(tmp_path, "autotune", "fibonacci") == 130
        assert "rerun the same command" in capsys.readouterr().err

    def test_interrupted_fuzz_says_what_was_kept(self, tmp_path, capsys,
                                                 monkeypatch):
        def interrupted(seeds, **kwargs):
            return CampaignSummary(seeds=seeds, start_seed=0, mode="all",
                                   interrupted=True)

        monkeypatch.setattr("repro.fuzz.run_campaign", interrupted)
        assert self._run(tmp_path, "fuzz", "--seeds", "2") == 130
        assert "rerun the same command" in capsys.readouterr().err
        assert cli.main(["--no-disk-cache", "fuzz", "--seeds", "2"]) == 130
        assert "--no-disk-cache kept no verdicts" in capsys.readouterr().err


class TestSigintEndToEnd:
    def test_interrupted_fuzz_campaign_resumes(self, tmp_path, capsys):
        """SIGINT a real `repro fuzz` once the cache holds two verdicts: exit
        130 with the rerun hint.  Rerunning the same command answers them
        from the cache and equals an uninterrupted run."""
        cache_dir = tmp_path / "cache"
        argv = ["--workers", "1", "fuzz", "--seeds", "16", "--shard-size", "1",
                "--json"]
        stored = ["--cache-dir", str(cache_dir), *argv]
        env = dict(os.environ, PYTHONPATH="src")
        env.pop(FAULT_PLAN_ENV, None)
        proc = subprocess.Popen([sys.executable, "-m", "repro", *stored],
                                cwd=Path(__file__).resolve().parent.parent,
                                env=env, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True)
        try:
            deadline = time.monotonic() + 120
            while len(list(cache_dir.glob("*/*.pkl"))) < 2:
                if proc.poll() is not None or time.monotonic() > deadline:
                    pytest.fail("campaign never stored two verdicts")
                time.sleep(0.05)
            proc.send_signal(signal.SIGINT)
            stdout, stderr = proc.communicate(timeout=120)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 130, \
            f"expected exit 130, got {proc.returncode}\nstderr: {stderr[-2000:]}"
        assert "rerun the same command" in stderr
        assert json.loads(stdout)["interrupted"]
        kept = len(list(cache_dir.glob("*/*.pkl")))

        assert cli.main(stored) in (0, 1)
        rerun = json.loads(capsys.readouterr().out)
        assert rerun["engine_stats"]["disk_hits"] == kept >= 2
        assert not rerun["interrupted"]
        assert cli.main(["--no-disk-cache", *argv]) in (0, 1)
        uninterrupted = json.loads(capsys.readouterr().out)
        for key in ("ok", "failed", "unique_programs", "triage"):
            assert rerun[key] == uninterrupted[key], key
