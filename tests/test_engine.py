"""Tests for the experiment engine: the content-addressed measurement cache,
parallel/serial result equivalence, cache invalidation, and the CLI."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro import cli
from repro.benchmarks import get_benchmark
from repro.experiments import (
    BenchmarkRunner, ExperimentEngine, MeasurementCache, baseline_profile,
    custom_profile, measurement_fingerprint, profile_by_name,
)
from repro.experiments import cache as cache_module
from repro.experiments import figures
from repro.passes import PassConfig

PAIR_BENCHMARKS = ["fibonacci", "loop-sum"]
PAIR_PROFILES = ["baseline", "-O1"]


def _pairs():
    return [(b, profile_by_name(p)) for b in PAIR_BENCHMARKS for p in PAIR_PROFILES]


def _engine(tmp_path, **kwargs):
    kwargs.setdefault("workers", 2)
    return ExperimentEngine(cache_dir=tmp_path / "cache", **kwargs)


class TestFingerprint:
    def test_deterministic(self):
        benchmark = get_benchmark("fibonacci")
        profile = profile_by_name("-O1")
        assert measurement_fingerprint(benchmark, profile, 1000) == \
            measurement_fingerprint(benchmark, profile, 1000)

    def test_ignores_profile_name(self):
        benchmark = get_benchmark("fibonacci")
        level = profile_by_name("-O1")
        renamed = custom_profile("anything", list(level.passes), level.config)
        assert measurement_fingerprint(benchmark, level, 1000) == \
            measurement_fingerprint(benchmark, renamed, 1000)

    def test_sensitive_to_every_ingredient(self, monkeypatch):
        benchmark = get_benchmark("fibonacci")
        base = custom_profile("c", ["inline"], PassConfig())
        reference = measurement_fingerprint(benchmark, base, 1000)
        variants = [
            # different benchmark source
            measurement_fingerprint(get_benchmark("loop-sum"), base, 1000),
            # different pass list
            measurement_fingerprint(
                benchmark, custom_profile("c", ["inline", "dce"], PassConfig()), 1000),
            # different pass-config knob
            measurement_fingerprint(
                benchmark,
                custom_profile("c", ["inline"], PassConfig(inline_threshold=999)),
                1000),
            # different backend cost model
            measurement_fingerprint(
                benchmark,
                custom_profile("c", ["inline"], PassConfig(), zkvm_aware_backend=True),
                1000),
            # different instruction budget
            measurement_fingerprint(benchmark, base, 2000),
        ]
        # different compiler, emulator or cost-model sources
        monkeypatch.setattr(cache_module, "_source_digest", lambda: "0" * 64)
        cache_module._environment_blob.cache_clear()
        try:
            variants.append(measurement_fingerprint(benchmark, base, 1000))
        finally:
            cache_module._environment_blob.cache_clear()
        assert reference not in variants
        assert len(set(variants)) == len(variants)


class TestMeasurementCache:
    def test_round_trip(self, tmp_path):
        cache = MeasurementCache(tmp_path / "cache")
        measurement = BenchmarkRunner().measure("fibonacci", baseline_profile())
        cache.put("a" * 64, measurement)
        restored = cache.get("a" * 64)
        assert restored.as_dict() == measurement.as_dict()
        assert len(cache) == 1
        assert cache.stats.stores == 1 and cache.stats.hits == 1

    def test_miss_and_corruption_tolerance(self, tmp_path):
        cache = MeasurementCache(tmp_path / "cache")
        assert cache.get("b" * 64) is None
        assert cache.stats.misses == 1
        path = cache.path_for("c" * 64)
        path.parent.mkdir(parents=True)
        path.write_bytes(b"not a pickle")
        assert cache.get("c" * 64) is None
        assert not path.exists(), "corrupt entry should be evicted"

    def test_clear(self, tmp_path):
        cache = MeasurementCache(tmp_path / "cache")
        measurement = BenchmarkRunner().measure("fibonacci", baseline_profile())
        cache.put("d" * 64, measurement)
        assert cache.clear() == 1
        assert len(cache) == 0

    def test_edited_compiler_source_misses_the_stored_entry(self, tmp_path):
        # Measure from a copy of the package, edit the copy's backend so it
        # skips the peephole pass, and measure again on the same cache.
        package = tmp_path / "src" / "repro"
        shutil.copytree(Path(repro.__file__).parent, package,
                        ignore=shutil.ignore_patterns("__pycache__"))

        def measure():
            done = subprocess.run(
                [sys.executable, "-m", "repro", "--cache-dir",
                 str(tmp_path / "cache"), "--workers", "1", "measure",
                 "fibonacci", "--json"],
                cwd=tmp_path, capture_output=True, text=True, check=True,
                env={**os.environ, "PYTHONPATH": str(tmp_path / "src")})
            return json.loads(done.stdout)[0]["instructions"], done.stderr

        first, _ = measure()
        cached, err = measure()
        assert cached == first and "computed=0" in err
        backend = package / "backend" / "__init__.py"
        source = backend.read_text()
        assert "peephole_hits = run_peephole(asm)" in source
        backend.write_text(source.replace("peephole_hits = run_peephole(asm)",
                                          "peephole_hits = {}"))
        edited, err = measure()
        assert "computed=1" in err, err
        assert edited != first


class TestRunnerMemo:
    def test_same_name_different_recipe_is_measured_afresh(self):
        runner = BenchmarkRunner()
        runner.measure("polybench-gemm", custom_profile("cand", ["mem2reg"]))
        second = runner.measure(
            "polybench-gemm",
            custom_profile("cand", ["mem2reg", "loop-unroll", "instcombine"]))
        assert second.instructions == 37_051

    def test_same_recipe_different_names_is_computed_once(self):
        runner = BenchmarkRunner()
        first = runner.measure("fibonacci", custom_profile("a", ["mem2reg"]))
        second = runner.measure("fibonacci", custom_profile("b", ["mem2reg"]))
        assert len(runner._memory) == 1 and second.trace is first.trace
        assert (first.profile, second.profile) == ("a", "b")


class TestEngine:
    def test_parallel_results_identical_to_serial(self, tmp_path):
        serial = BenchmarkRunner().measure_pairs(_pairs())
        engine = _engine(tmp_path)
        parallel = engine.measure_pairs(_pairs())
        assert [m.as_dict() for m in serial] == [m.as_dict() for m in parallel]
        assert engine.stats.computed == len(_pairs())

    def test_warm_disk_cache_recomputes_nothing(self, tmp_path):
        _engine(tmp_path).measure_pairs(_pairs())
        warm = _engine(tmp_path)
        results = warm.measure_pairs(_pairs())
        assert warm.stats.computed == 0
        assert warm.stats.disk_hits == len(_pairs())
        assert all(m is not None for m in results)

    def test_single_measure_uses_disk_cache(self, tmp_path):
        profile = profile_by_name("-O1")
        _engine(tmp_path).measure("fibonacci", profile)
        warm = _engine(tmp_path)
        measurement = warm.measure("fibonacci", profile)
        assert warm.stats.disk_hits == 1 and warm.stats.computed == 0
        assert measurement.profile == "-O1"

    def test_pass_config_change_invalidates_cache(self, tmp_path):
        engine = _engine(tmp_path)
        engine.measure("fibonacci",
                       custom_profile("tuned", ["inline"],
                                      PassConfig(inline_threshold=100)))
        assert engine.stats.computed == 1
        engine.measure("fibonacci",
                       custom_profile("tuned", ["inline"],
                                      PassConfig(inline_threshold=500)))
        assert engine.stats.computed == 2, "changed knob must be a cache miss"
        engine.measure("fibonacci",
                       custom_profile("renamed", ["inline"],
                                      PassConfig(inline_threshold=500)))
        assert engine.stats.computed == 2, "renamed identical profile must hit"

    def test_on_error_none_maps_failures(self, tmp_path):
        engine = ExperimentEngine(cache_dir=tmp_path / "cache", workers=1,
                                  max_instructions=10)  # absurdly small budget
        results = engine.measure_pairs([("fibonacci", baseline_profile())],
                                       on_error="none")
        assert results == [None]
        assert engine.stats.errors == 1
        with pytest.raises(Exception):
            engine.measure_pairs([("fibonacci", baseline_profile())])

    def test_figure_regenerator_runs_warm_from_cache(self, tmp_path):
        cold = _engine(tmp_path)
        first = figures.figure5_optimization_levels(cold, ["fibonacci"])
        assert cold.stats.computed > 0
        warm = _engine(tmp_path)
        second = figures.figure5_optimization_levels(warm, ["fibonacci"])
        assert second == first, "warm run must reproduce identical numbers"
        assert warm.stats.computed == 0, "second invocation must be all cache hits"

    def test_shared_runner_tuners_do_not_alias_candidates(self):
        # Two tuners on one runner name their candidates alike ("tuned-N");
        # the content-keyed memo must not hand one the other's measurement.
        from repro.autotuner import GeneticAutotuner

        shared = BenchmarkRunner()
        GeneticAutotuner(runner=shared, seed=1, zkvm="risc0",
                         population_size=4).tune("loop-sum", iterations=5)
        shared_sp1 = GeneticAutotuner(runner=shared, seed=1, zkvm="sp1",
                                      population_size=4).tune("loop-sum",
                                                              iterations=5)
        fresh_sp1 = GeneticAutotuner(runner=BenchmarkRunner(), seed=1,
                                     zkvm="sp1", population_size=4) \
            .tune("loop-sum", iterations=5)
        assert shared_sp1.best.passes == fresh_sp1.best.passes
        assert shared_sp1.best_cycles == fresh_sp1.best_cycles

    def test_autotuner_generations_share_engine_cache(self, tmp_path):
        from repro.autotuner import GeneticAutotuner

        engine = _engine(tmp_path)
        result = GeneticAutotuner(runner=engine, seed=3, population_size=4) \
            .tune("loop-sum", iterations=6)
        assert result.evaluations == 6
        assert result.best_cycles <= result.baseline_cycles
        # Same seed, fresh engine on the same cache: every candidate is a hit.
        warm = _engine(tmp_path)
        rerun = GeneticAutotuner(runner=warm, seed=3, population_size=4) \
            .tune("loop-sum", iterations=6)
        assert warm.stats.computed == 0
        assert rerun.best_cycles == result.best_cycles


class TestCli:
    def _run(self, tmp_path, *argv):
        return cli.main(["--cache-dir", str(tmp_path / "cache"),
                         "--workers", "1", *argv])

    def test_measure_json(self, tmp_path, capsys):
        assert self._run(tmp_path, "measure", "fibonacci",
                         "--profile", "baseline", "--json") == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload[0]["benchmark"] == "fibonacci"
        assert payload[0]["risc0"]["total_cycles"] > 0

    def test_figure_smoke_and_warm_cache(self, tmp_path, capsys):
        args = ("figure", "5", "--benchmarks", "fibonacci", "--json")
        assert self._run(tmp_path, *args) == 0
        first = json.loads(capsys.readouterr().out)
        assert self._run(tmp_path, *args) == 0
        captured = capsys.readouterr()
        assert json.loads(captured.out) == first
        assert "computed=0" in captured.err, "second CLI run must be fully cached"

    def test_table_smoke(self, tmp_path, capsys):
        assert self._run(tmp_path, "table", "6", "--benchmarks", "fibonacci",
                         "--json") == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["risc0/proving_time"]["min"] > 0

    def test_compile_run_and_list(self, tmp_path, capsys):
        assert self._run(tmp_path, "compile", "fibonacci", "--profile=-O1") == 0
        assert "main:" in capsys.readouterr().out
        assert self._run(tmp_path, "run", "loop-sum") == 0
        assert "return value" in capsys.readouterr().out
        assert cli.main(["list", "benchmarks"]) == 0
        assert "fibonacci" in capsys.readouterr().out

    def test_run_reference_replays_the_measured_run(self, capsys):
        # --reference replays the compiled guest on ReferenceMachine instead
        # of measuring it; the guest's behaviour and length must not change.
        argv = ["--no-disk-cache", "run", "loop-sum", "--profile=-O2"]

        def facts(out):
            return [line for line in out.splitlines() if line.startswith(
                ("output:", "return value:", "instructions:"))]

        assert cli.main(argv) == 0
        measured = facts(capsys.readouterr().out)
        assert cli.main([*argv, "--reference"]) == 0
        assert len(measured) == 3
        assert facts(capsys.readouterr().out) == measured

    def test_encode_reads_the_code_size_report(self, monkeypatch, capsys):
        # The compile already encoded both variants into the program's code
        # size report; `repro encode` reads it and encodes again only what
        # --hex prints.
        from repro.backend import encoding

        names = ["fibonacci", "loop-sum"]
        programs = {name: BenchmarkRunner().compile(name,
                                                    profile_by_name("-O3"))
                    for name in names}
        monkeypatch.setattr(BenchmarkRunner, "compile",
                            lambda self, name, profile: programs[name])
        calls = []
        real_encode = encoding.encode_program

        def counting_encode(program, rvc=False, **kwargs):
            calls.append(rvc)
            return real_encode(program, rvc=rvc, **kwargs)

        monkeypatch.setattr(encoding, "encode_program", counting_encode)
        argv = ["--no-disk-cache", "encode", *names]
        assert cli.main([*argv, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        reports = [encoding.code_size_report(programs[name]) for name in names]
        assert payload == {"profile": "-O3", "benchmarks": [
            {"benchmark": name,
             "code_bytes": {"rv32": report["rv32"], "rvc": report["rvc"]},
             "functions": report["functions"]}
            for name, report in zip(names, reports)]}
        assert cli.main(argv) == 0
        assert "smaller with RVC" in capsys.readouterr().out
        assert calls == []
        assert cli.main([*argv, "--hex", "--rvc"]) == 0
        assert f"{reports[0]['rvc']} bytes" in capsys.readouterr().out
        assert calls == [True, True]

    def test_unknown_inputs_fail_cleanly(self, tmp_path, capsys):
        assert self._run(tmp_path, "figure", "99") == 2
        assert self._run(tmp_path, "measure", "no-such-benchmark") == 2
        # A flag the artifact does not take is refused, not silently dropped.
        capsys.readouterr()
        assert self._run(tmp_path, "table", "3",
                         "--benchmarks", "fibonacci") == 2
        assert "table 3 does not take --benchmarks" in capsys.readouterr().err
        assert self._run(tmp_path, "figure", "5", "--benchmarks", "fibonacci",
                         "--passes", "inline", "--iterations", "3") == 2
        assert "figure 5 does not take --passes, --iterations" in \
            capsys.readouterr().err

    def test_autotune_shares_the_figures_cache_entries(self, tmp_path,
                                                       capsys):
        # The autotuner measures on the same path as every other command,
        # so the -O3 and baseline entries it stores serve `repro measure`.
        assert self._run(tmp_path, "autotune", "loop-sum",
                         "--iterations", "4") == 0
        capsys.readouterr()
        assert self._run(tmp_path, "measure", "loop-sum", "--profile=-O3",
                         "--profile", "baseline") == 0
        assert "computed=0" in capsys.readouterr().err


class TestColdStart:
    # Only Table 2 needs scipy. Every other process, and the pool it forks,
    # must start without scipy, numpy or OpenBLAS's threads.
    SCRIPT = """
import json, os, sys
import repro.cli, repro.experiments, repro.autotuner, repro.fuzz
from repro.analysis.stats import kendall_tau
from repro.experiments import ExperimentEngine, profile_by_name

tasks = "/proc/self/task"
threads = len(os.listdir(tasks)) if os.path.isdir(tasks) else None
engine = ExperimentEngine(workers=2, use_disk_cache=False)
engine.measure_pairs([(name, profile_by_name("-O2"))
                      for name in ("fibonacci", "loop-sum")])
engine.close()
loaded = sorted(m for m in ("numpy", "scipy") if m in sys.modules)
tau = kendall_tau([1, 2, 3], [1, 3, 2])
print(json.dumps({"threads": threads, "parallel_jobs": engine.stats.parallel_jobs,
                  "loaded": loaded, "tau": tau,
                  "scipy_after": "scipy" in sys.modules}))
"""

    def test_measurement_path_loads_no_scipy_and_forks_from_one_thread(self):
        src = str(Path(repro.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        done = subprocess.run([sys.executable, "-c", self.SCRIPT],
                              capture_output=True, text=True, check=True,
                              env={**os.environ, "PYTHONPATH": path})
        report = json.loads(done.stdout.splitlines()[-1])
        if report["threads"] is not None:
            assert report["threads"] == 1, "the pool must fork from one thread"
        assert report["parallel_jobs"] == 2
        assert report["loaded"] == []
        assert report["tau"] == 0.33333333333333337
        assert report["scipy_after"]
