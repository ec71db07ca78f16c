"""Tests for the benchmark suite, the experiment runner, the autotuner and the
table/figure regenerators."""

from dataclasses import replace

import pytest

from repro import benchmarks
from repro.benchmarks import (
    all_benchmark_names, benchmarks_in_suite, get_benchmark, suites,
)
from repro.cpu import DEFAULT_CPU
from repro.emulator import TraceStats
from repro.experiments import (
    BenchmarkRunner, all_study_profiles, baseline_profile, percent_change,
    profile_by_name, zkvm_aware_profile,
)
from repro.experiments import figures, tables
from repro.frontend import compile_source
from repro.ir import verify_module
from repro.ir.interpreter import run_module
from repro.passes import OPTIMIZATION_LEVELS, pipeline_for_level
from repro.zkvm import ZKVMS

FAST_BENCHMARKS = ["fibonacci", "loop-sum", "polybench-trisolv", "npb-is", "rsp"]
FAST_PASSES = ["inline", "licm", "mem2reg", "instcombine", "loop-extract"]
#: The slices the paper's claims are checked on (TestRegenerators).
BENCH_BENCHMARKS = [
    "fibonacci", "loop-sum", "tailcall",
    "polybench-gemm", "polybench-trisolv", "npb-is", "npb-lu", "sha256",
]
BENCH_PASSES = [
    "inline", "always-inline", "gvn", "instcombine", "simplifycfg",
    "mem2reg", "sroa", "licm", "loop-extract", "loop-rotate", "reg2mem",
    "jump-threading", "tailcall",
]


@pytest.fixture(scope="module")
def runner():
    # A generous instruction budget: a few pass/benchmark combinations (e.g.
    # loop-extract on deeply nested kernels) legitimately run long.
    return BenchmarkRunner(max_instructions=80_000_000)


class TestBenchmarkSuite:
    def test_suite_has_58_programs(self):
        assert len(all_benchmark_names()) == 58

    def test_suites_match_the_paper(self):
        assert set(suites()) == {"polybench", "npb", "crypto", "spec", "misc", "rsp"}
        assert len(benchmarks_in_suite("polybench")) == 30
        assert len(benchmarks_in_suite("npb")) == 8
        assert len(benchmarks_in_suite("crypto")) == 9
        assert len(benchmarks_in_suite("spec")) == 3

    @pytest.mark.parametrize("name", all_benchmark_names())
    def test_every_benchmark_compiles_and_verifies(self, name):
        benchmark = get_benchmark(name)
        module = compile_source(benchmark.source, name)
        verify_module(module)
        assert module.get_function("main") is not None

    @pytest.mark.parametrize("name", all_benchmark_names())
    def test_pinned_checksum_is_the_interpreters_output(self, name):
        benchmark = get_benchmark(name)
        result = run_module(compile_source(benchmark.source, name), "main",
                            list(benchmark.args) if benchmark.args else None)
        assert tuple(result.output) == benchmark.expected_output

    @pytest.mark.parametrize("name", FAST_BENCHMARKS)
    def test_fast_benchmarks_execute(self, runner, name):
        measurement = runner.measure(name, baseline_profile())
        assert measurement.instructions > 0
        assert measurement.trace.output, f"{name} produced no output checksum"

    def test_unknown_benchmark_raises(self):
        with pytest.raises(KeyError):
            get_benchmark("not-a-benchmark")

    def test_precompile_benchmarks_marked(self):
        assert get_benchmark("keccak256").uses_precompile
        assert get_benchmark("ecdsa-verify").uses_precompile
        assert not get_benchmark("sha256").uses_precompile


class TestProfiles:
    def test_study_profiles_cover_baseline_passes_and_levels(self):
        profiles = all_study_profiles()
        names = [p.name for p in profiles]
        assert "baseline" in names and "-O3" in names and "licm" in names
        assert len([p for p in profiles if p.kind == "pass"]) >= 30

    def test_zkvm_aware_profile_configuration(self):
        profile = zkvm_aware_profile()
        assert profile.config.zkvm_aware
        assert profile.config.inline_threshold == 4328
        assert not profile.config.expand_div_by_constant
        assert "speculative-execution" not in profile.passes
        assert profile.cost_model.name == "zkvm"

    def test_profile_lookup(self):
        assert profile_by_name("-O3").kind == "level"
        with pytest.raises(KeyError):
            profile_by_name("-O9")

    def test_profile_lookup_resolves_every_zkvm_aware_level(self):
        assert profile_by_name("-O2-zkvm") == zkvm_aware_profile("-O2")
        assert profile_by_name("-O3-zkvm") == zkvm_aware_profile()
        with pytest.raises(KeyError, match="unknown profile: -O9-zkvm"):
            profile_by_name("-O9-zkvm")

    @pytest.mark.parametrize("level", list(OPTIMIZATION_LEVELS))
    def test_zkvm_aware_profile_matches_the_zkvm_aware_pipeline(self, level):
        # The measured profile and the library pipeline apply one Change
        # Set 1-3 recipe: the same passes under the same configuration.
        profile = zkvm_aware_profile(level)
        pipeline = pipeline_for_level(level, zkvm_aware=True)
        assert [p.name for p in pipeline.passes] == list(profile.passes)
        assert pipeline.config == profile.config


class TestRunner:
    def test_optimized_profiles_preserve_benchmark_output(self, runner):
        base = runner.measure("fibonacci", baseline_profile())
        optimized = runner.measure("fibonacci", profile_by_name("-O2"))
        assert optimized.trace.output == base.trace.output
        assert optimized.instructions < base.instructions

    def test_pinned_checksum_is_checked(self, monkeypatch):
        fibonacci = get_benchmark("fibonacci")
        monkeypatch.setitem(benchmarks._REGISTRY, "fibonacci",
                            replace(fibonacci, expected_output=(6024,)))
        measurement = BenchmarkRunner().measure("fibonacci",
                                                profile_by_name("-O1"))
        assert measurement.trace.output == [6024]
        monkeypatch.setitem(benchmarks._REGISTRY, "fibonacci",
                            replace(fibonacci, expected_output=(6025,)))
        with pytest.raises(AssertionError, match="fibonacci under -O1"):
            BenchmarkRunner().measure("fibonacci", profile_by_name("-O1"))

    def test_measurement_contains_all_metrics(self, runner):
        m = runner.measure("loop-sum", baseline_profile())
        assert m.risc0.total_cycles >= m.instructions
        assert m.sp1.proving_time > 0
        assert m.cpu.cycles > 0
        data = m.as_dict()
        assert set(data) >= {"benchmark", "profile", "risc0", "sp1", "cpu"}

    def test_gain_is_positive_for_o2_on_loop_heavy_code(self, runner):
        # The optimizing backend narrows baseline-relative gains (it cleans
        # up much of the unoptimized code's redundancy at the machine level,
        # e.g. store-to-load forwarding through allocas), but IR optimization
        # must still win on loop-heavy code.
        gain = runner.gain("loop-sum", profile_by_name("-O2"), "risc0", "execution_time")
        assert gain > 0.0

    def test_percent_change_sign_convention(self):
        assert percent_change(100, 50) == 50.0      # faster -> positive gain
        assert percent_change(100, 150) == -50.0    # slower -> negative
        assert percent_change(0, 10) == 0.0

    def test_measurements_are_cached(self, runner):
        first = runner.measure("fibonacci", baseline_profile())
        second = runner.measure("fibonacci", baseline_profile())
        assert first is second


class TestRegenerators:
    def test_table1_counts(self, runner):
        rows = tables.table1_gain_loss_counts(runner, FAST_BENCHMARKS, FAST_PASSES)
        assert set(rows) == {"risc0", "sp1"}
        for counts in rows.values():
            assert all(v >= 0 for v in counts.values())
        assert rows["risc0"]["execution_gain"] + \
            rows["risc0"]["execution_loss"] > 0

    def test_table2_correlations_are_strong_and_positive(self, runner):
        result = tables.table2_correlations(runner, FAST_BENCHMARKS, FAST_PASSES)
        key = ("risc0", "execution_time", "instructions")
        # Small profile slices keep the correlation positive but noisier than the
        # paper's full matrix (`repro table 2 --benchmarks all`).
        assert result[key]["kendall"] > 0.15
        assert result[key]["pearson"] > 0.5
        assert result[("sp1", "execution_time", "paging_cycles")]["kendall"] is None
        # The paper's claim: instruction count tracks execution time.
        claim = tables.table2_correlations(runner, BENCH_BENCHMARKS[:5],
                                           BENCH_PASSES[:8])
        assert claim[key]["kendall"] > 0.3

    def test_table3_manual_unrolling_helps_both_targets(self):
        rows = tables.table3_manual_unrolling()
        for row in rows.values():
            assert row["instruction_change"] < 0      # fewer instructions executed
            assert row["risc0_exec_gain"] > 0
            assert row["x86_exec_gain"] > 0

    def test_table6_baseline_statistics(self, runner):
        stats = tables.table6_baseline_statistics(runner, FAST_BENCHMARKS)
        entry = stats[("risc0", "proving_time")]
        assert entry["min"] <= entry["median"] <= entry["max"]
        assert stats[("sp1", "execution_time")]["mean"] > 0

    def test_figure4_counts_each_benchmark_once_per_pass(self, runner):
        result = figures.figure4_effect_categories(runner, BENCH_BENCHMARKS,
                                                   BENCH_PASSES)
        counts = result[("risc0", "execution_time")]["inline"]
        assert sum(counts.values()) <= len(BENCH_BENCHMARKS)

    def test_figure5_levels_improve_over_baseline(self, runner):
        result = figures.figure5_optimization_levels(runner, FAST_BENCHMARKS)
        assert result["-O3"][("risc0", "execution_time")] > 0
        assert result["-O3"][("risc0", "execution_time")] >= \
            result["-O0"][("risc0", "execution_time")]

    @pytest.mark.xfail(strict=True, reason=(
        "reproduction gap: -O3's mean RISC Zero execution gain is 4.85% on "
        "this slice and 6.33% over all 58 benchmarks, while its cycle gain "
        "is 30.11% here; the model's fixed 0.9 ms execution overhead is "
        "about 82% of the median baseline run's execution time, and with it "
        "at 0 the execution gain reads 30.11% too"))
    def test_figure5_o3_gain_exceeds_8_percent(self, runner):
        result = figures.figure5_optimization_levels(runner, BENCH_BENCHMARKS)
        assert result["-O3"][("risc0", "execution_time")] > 8

    def test_figure5_o3_cycle_gain_exceeds_8_percent(self, runner):
        # The compiler's side of the claim: -O3 cuts the proven cycles on
        # the same slice (30.11%), whatever the model's fixed overheads.
        o3 = profile_by_name("-O3")
        gains = [runner.gain(b, o3, "risc0", "total_cycles")
                 for b in BENCH_BENCHMARKS]
        assert sum(gains) / len(gains) > 8

    @pytest.mark.xfail(strict=True, reason=(
        "reproduction gap: after 6 evaluations the tuned recipe runs at "
        "0.94x and 0.97x of -O3's speed on RISC Zero and 0.93x and 0.93x on "
        "SP1 (npb-is, sha256); the search is seeded with only the first 20 "
        "of -O3's 29 passes"))
    def test_figure6_autotuning_matches_or_beats_o3(self, runner):
        result = figures.figure6_autotuning(["npb-is", "sha256"], iterations=6,
                                            runner=runner)
        assert all(row["speedup_over_o3"] >= 1 for row in result.values())

    def test_figure7_reports_levels_beside_passes(self, runner):
        result = figures.figure7_zkvm_vs_x86(runner, BENCH_BENCHMARKS[:5],
                                             BENCH_PASSES[:8])
        assert "-O3" in result

    def test_figure8_counts_every_pass(self, runner):
        result = figures.figure8_divergence(runner, BENCH_BENCHMARKS[:6],
                                            BENCH_PASSES[:8])
        assert set(result) == set(BENCH_PASSES[:8])

    def test_figure3_ranks_inline_positive_licm_not(self, runner):
        # Use call-heavy benchmarks, where inlining's benefit is unambiguous.
        result = figures.figure3_pass_impact(runner, ["factorial", "tailcall"],
                                             ["inline", "licm", "mem2reg"], top_n=3)
        inline_gain = result["risc0"]["total_cycles"]["inline"]["mean"]
        licm_gain = result["risc0"]["total_cycles"]["licm"]["mean"]
        assert inline_gain > licm_gain

    def test_figure9_cost_components_structure(self, runner):
        result = figures.figure9_cost_components(
            runner, benchmarks=["tailcall"], profiles=["inline", "-O3"])
        assert "inline" in result and "tailcall" in result["inline"]
        row = result["inline"]["tailcall"]
        assert {"exec_gain", "prove_gain", "instructions_change"} <= set(row)

    def test_figure14_zkvm_aware_vs_vanilla(self, runner):
        result = figures.figure14_zkvm_aware(runner, BENCH_BENCHMARKS)
        assert set(result) == set(BENCH_BENCHMARKS)
        # The zkVM-aware build must not increase dynamic instruction count.
        for row in result.values():
            assert row["instruction_reduction"] >= -1.0
        improved = sum(row[("risc0", "execution_time")] > 0
                       for row in result.values())
        assert improved >= len(result) // 3

    def test_figure15_native_much_faster_than_proving(self, runner):
        result = figures.figure15_native_vs_zkvm(
            runner, ["npb-is", "npb-lu", "npb-ep", "npb-mg"])
        for row in result.values():
            assert row["risc0_proving_s"] > row["native_execution_s"] * 100

    def test_case_studies(self):
        strength = tables.case_study_strength_reduction()
        assert strength["-O3"]["output"] == strength["-O3-zkvm"]["output"]
        assert strength["-O3-zkvm"]["instructions"] <= \
            strength["-O3"]["instructions"]
        abs_case = tables.case_study_branchless_abs()
        assert abs_case["branchy"]["output"] == abs_case["branchless"]["output"]
        fission = tables.case_study_loop_fission()
        assert fission["fused"]["instructions"] < fission["fissioned"]["instructions"]


def _assert_cost_model_identities(trace, zkvm_metrics: dict, cpu,
                                  context: str) -> None:
    """What each reported cost must equal, or bound, given its trace."""
    for name, metrics in zkvm_metrics.items():
        model = ZKVMS[name]
        where = f"{context}, {name}"
        assert metrics.total_cycles == \
            metrics.user_cycles + metrics.paging_cycles, where
        assert metrics.paging_cycles == \
            trace.page_in_events * model.page_in_cycles \
            + trace.page_out_events * model.page_out_cycles, where
        assert metrics.segments == \
            max(1, -(-metrics.total_cycles // model.segment_cycles)), where
    if cpu is not None:
        assert cpu.cycles * DEFAULT_CPU.issue_width >= trace.instructions, \
            context
        assert cpu.mispredictions <= \
            trace.branches_taken + trace.branches_not_taken, context
        assert cpu.cache_misses <= trace.loads + trace.stores, context


class TestCostModelIdentities:
    """The zkVM and CPU models against the traces they cost.

    Kept out of the fuzz loop: a campaign pays nothing for these.
    """

    def test_measurements_obey_the_identities(self, runner):
        for name in BENCH_BENCHMARKS:
            for profile in (baseline_profile(), profile_by_name("-O3")):
                measurement = runner.measure(name, profile)
                assert measurement.cpu is not None
                _assert_cost_model_identities(
                    measurement.trace,
                    {"risc0": measurement.risc0, "sp1": measurement.sp1},
                    measurement.cpu, f"{name} under {profile.name}")

    @pytest.mark.parametrize("segments", [2, 3])
    def test_traces_longer_than_one_segment(self, segments):
        """Every benchmark fits one segment, so the rounding of the segment
        count shows only on a synthetic trace that spills into the next."""
        for name, model in ZKVMS.items():
            cycles = (segments - 1) * model.segment_cycles + 1
            trace = TraceStats(instructions=cycles, class_counts={"alu": cycles},
                               page_in_events=3, page_out_events=2)
            metrics = model.evaluate(trace)
            assert metrics.segments == segments, name
            _assert_cost_model_identities(trace, {name: metrics}, None,
                                          f"{cycles} alu cycles")


class TestAutotuner:
    def test_autotuner_finds_configuration_at_least_as_good_as_seeds(self):
        from repro.autotuner import GeneticAutotuner

        runner = BenchmarkRunner()
        tuner = GeneticAutotuner(runner=runner, seed=3, population_size=6)
        result = tuner.tune("loop-sum", iterations=8)
        assert result.evaluations == 8
        assert result.best_cycles <= result.baseline_cycles
        assert result.best.passes
        assert result.speedup_over_o3 > 0.5
