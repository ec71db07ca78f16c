"""Regenerators for every figure in the paper's evaluation.

Each function returns plain Python data (rows / series) shaped like the
corresponding figure, so the ``repro figure`` command can print them and
``tests/test_benchmarks_and_experiments.py`` can check the paper's claim on
each.  All regenerators take ``benchmarks``/``passes`` subsets and reuse
one :class:`BenchmarkRunner`, so small slices run quickly and the full matrix
is just "pass all names".

Every regenerator first submits its full (benchmark, profile) matrix as one
batch through the runner's ``measure_pairs`` API
(:func:`~repro.experiments.runner.warm_matrix`).  With
a plain :class:`BenchmarkRunner` that is a serial warm-up; with an
:class:`~repro.experiments.engine.ExperimentEngine` the batch is sharded
across worker processes and persisted to the on-disk measurement cache, so
first runs parallelize and repeat runs recompute nothing.  ``python -m repro
figure N`` wires an engine in for exactly this reason.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..analysis.stats import mean
from ..benchmarks import all_benchmark_names, benchmarks_in_suite
from .profiles import (
    Profile, baseline_profile, level_profiles, pass_profiles, profile_by_name,
    zkvm_aware_profile,
)
from .runner import BenchmarkRunner, percent_change, warm_matrix

#: Small-but-representative default slices so every regenerator runs in seconds.
DEFAULT_BENCHMARKS = [
    "fibonacci", "loop-sum", "factorial", "tailcall",
    "polybench-gemm", "polybench-floyd-warshall", "polybench-trmm",
    "npb-lu", "npb-is", "sha256", "regex-match",
]
DEFAULT_PASSES = [
    "inline", "always-inline", "gvn", "jump-threading", "instcombine",
    "simplifycfg", "tailcall", "sroa", "early-cse", "sccp", "mem2reg",
    "reg2mem", "loop-rotate", "loop-extract", "licm", "loop-unroll",
]


def figure3_pass_impact(runner: Optional[BenchmarkRunner] = None,
                        benchmarks: Optional[Sequence[str]] = None,
                        passes: Optional[Sequence[str]] = None,
                        top_n: int = 25) -> dict:
    """Figure 3: average impact of individual passes on execution time,
    proving time and cycle count, per zkVM, relative to the baseline."""
    runner = runner or BenchmarkRunner()
    benchmarks = list(benchmarks or DEFAULT_BENCHMARKS)
    profiles = pass_profiles(passes)
    warm_matrix(runner, benchmarks, profiles)
    metrics = {"execution_time": "execution time", "proving_time": "proving time",
               "total_cycles": "cycle count"}
    results: dict = {"risc0": {}, "sp1": {}}
    impact_by_pass: dict[str, list[float]] = {}

    for zkvm in ("risc0", "sp1"):
        for metric in metrics:
            series = {}
            for profile in profiles:
                gains = [runner.gain(b, profile, zkvm, metric) for b in benchmarks]
                series[profile.name] = {"mean": mean(gains), "per_benchmark": gains}
                impact_by_pass.setdefault(profile.name, []).append(abs(mean(gains)))
            results[zkvm][metric] = series

    ranked = sorted(impact_by_pass, key=lambda p: -mean(impact_by_pass[p]))[:top_n]
    results["top_passes"] = ranked
    return results


def figure4_effect_categories(runner: Optional[BenchmarkRunner] = None,
                              benchmarks: Optional[Sequence[str]] = None,
                              passes: Optional[Sequence[str]] = None) -> dict:
    """Figure 4: per pass, the number of programs with severe/moderate
    gains/losses in execution and proving time."""
    runner = runner or BenchmarkRunner()
    benchmarks = list(benchmarks or DEFAULT_BENCHMARKS)
    profiles = pass_profiles(passes)
    warm_matrix(runner, benchmarks, profiles)
    buckets = {"severe_loss": lambda g: g <= -5.0,
               "moderate_loss": lambda g: -5.0 < g <= -2.0,
               "moderate_gain": lambda g: 2.0 <= g < 5.0,
               "severe_gain": lambda g: g >= 5.0}
    results: dict = {}
    for zkvm in ("risc0", "sp1"):
        for metric in ("execution_time", "proving_time"):
            table = {}
            for profile in profiles:
                counts = {bucket: 0 for bucket in buckets}
                for benchmark in benchmarks:
                    gain = runner.gain(benchmark, profile, zkvm, metric)
                    for bucket, test in buckets.items():
                        if test(gain):
                            counts[bucket] += 1
                table[profile.name] = counts
            results[(zkvm, metric)] = table
    return results


def figure5_optimization_levels(runner: Optional[BenchmarkRunner] = None,
                                benchmarks: Optional[Sequence[str]] = None) -> dict:
    """Figure 5: impact of -O0..-Os on execution and proving time, per zkVM."""
    runner = runner or BenchmarkRunner()
    benchmarks = list(benchmarks or DEFAULT_BENCHMARKS)
    warm_matrix(runner, benchmarks, level_profiles())
    results: dict = {}
    for profile in level_profiles():
        row = {}
        for zkvm in ("risc0", "sp1"):
            for metric in ("execution_time", "proving_time"):
                gains = [runner.gain(b, profile, zkvm, metric) for b in benchmarks]
                row[(zkvm, metric)] = mean(gains)
        results[profile.name] = row
    return results


def figure6_autotuning(benchmarks: Optional[Sequence[str]] = None,
                       iterations: int = 12, seed: int = 1,
                       runner: Optional[BenchmarkRunner] = None) -> dict:
    """Figure 6: autotuning speedup over -O3 for the NPB and crypto suites."""
    from ..autotuner import GeneticAutotuner

    runner = runner or BenchmarkRunner()
    if benchmarks is None:
        benchmarks = benchmarks_in_suite("npb")[:2] + benchmarks_in_suite("crypto")[:2]
    # The tuner's reference points; each generation then batches its own shard.
    warm_matrix(runner, benchmarks, [profile_by_name("-O3")])
    results = {}
    for zkvm in ("risc0", "sp1"):
        tuner = GeneticAutotuner(runner=runner, seed=seed, zkvm=zkvm)
        for benchmark in benchmarks:
            outcome = tuner.tune(benchmark, iterations=iterations)
            results[(zkvm, benchmark)] = {
                "gain_over_o3_percent": outcome.gain_over_o3_percent,
                "speedup_over_o3": outcome.speedup_over_o3,
                "best_passes": list(outcome.best.passes),
            }
    return results


def figure7_zkvm_vs_x86(runner: Optional[BenchmarkRunner] = None,
                        benchmarks: Optional[Sequence[str]] = None,
                        passes: Optional[Sequence[str]] = None) -> dict:
    """Figure 7: average impact of each optimization on zkVM execution,
    proving, and x86 execution time."""
    runner = runner or BenchmarkRunner()
    benchmarks = list(benchmarks or DEFAULT_BENCHMARKS)
    profiles = [*level_profiles(), *pass_profiles(passes or DEFAULT_PASSES)]
    warm_matrix(runner, benchmarks, profiles)
    results = {}
    for profile in profiles:
        zkvm_exec = mean([mean([runner.gain(b, profile, z, "execution_time")
                                for z in ("risc0", "sp1")]) for b in benchmarks])
        zkvm_prove = mean([mean([runner.gain(b, profile, z, "proving_time")
                                 for z in ("risc0", "sp1")]) for b in benchmarks])
        x86 = mean([runner.cpu_gain(b, profile) for b in benchmarks])
        results[profile.name] = {"zkvm_execution": zkvm_exec,
                                 "zkvm_proving": zkvm_prove,
                                 "x86_execution": x86}
    return results


def figure8_divergence(runner: Optional[BenchmarkRunner] = None,
                       benchmarks: Optional[Sequence[str]] = None,
                       passes: Optional[Sequence[str]] = None,
                       zkvm: str = "risc0") -> dict:
    """Figure 8: per pass, how often its effect diverges between x86 and the
    zkVM (gains on one, losses on the other, or much larger gains on one)."""
    runner = runner or BenchmarkRunner()
    benchmarks = list(benchmarks or DEFAULT_BENCHMARKS)
    profiles = pass_profiles(passes or DEFAULT_PASSES)
    warm_matrix(runner, benchmarks, profiles)
    results = {}
    for profile in profiles:
        counts = {"zkvm_up_x86_down": 0, "zkvm_gain_larger": 0,
                  "x86_gain_larger": 0, "x86_up_zkvm_down": 0}
        for benchmark in benchmarks:
            zk = runner.gain(benchmark, profile, zkvm, "execution_time")
            cpu = runner.cpu_gain(benchmark, profile)
            if zk > 0 and cpu < 0:
                counts["zkvm_up_x86_down"] += 1
            elif cpu > 0 and zk < 0:
                counts["x86_up_zkvm_down"] += 1
            elif zk > 0 and cpu > 0 and zk - cpu > 5:
                counts["zkvm_gain_larger"] += 1
            elif zk > 0 and cpu > 0 and cpu - zk > 5:
                counts["x86_gain_larger"] += 1
        results[profile.name] = counts
    return results


def figure9_cost_components(runner: Optional[BenchmarkRunner] = None,
                            benchmarks: Optional[Sequence[str]] = None,
                            profiles: Optional[Sequence[str]] = None) -> dict:
    """Figure 9: for representative passes, the change in proving/execution
    time alongside total cycles, dynamic instructions and paging cycles."""
    runner = runner or BenchmarkRunner()
    benchmarks = list(benchmarks or ["polybench-floyd-warshall", "factorial",
                                     "npb-lu", "polybench-trmm", "tailcall"])
    profile_names = list(profiles or ["inline", "always-inline", "loop-extract",
                                      "licm", "-O3", "-O0"])
    warm_matrix(runner, benchmarks, [profile_by_name(n) for n in profile_names])
    results = {}
    for name in profile_names:
        profile = profile_by_name(name)
        per_benchmark = {}
        for benchmark in benchmarks:
            base = runner.baseline(benchmark)
            value = runner.measure(benchmark, profile)
            per_benchmark[benchmark] = {
                "exec_gain": percent_change(base.risc0.execution_time,
                                            value.risc0.execution_time),
                "prove_gain": percent_change(base.risc0.proving_time,
                                             value.risc0.proving_time),
                "total_cycles_change": -percent_change(base.risc0.total_cycles,
                                                       value.risc0.total_cycles),
                "instructions_change": -percent_change(base.instructions,
                                                       value.instructions),
                "paging_cycles_change": -percent_change(max(1, base.risc0.paging_cycles),
                                                        max(1, value.risc0.paging_cycles)),
            }
        results[name] = per_benchmark
    return results


def figure14_zkvm_aware(runner: Optional[BenchmarkRunner] = None,
                        benchmarks: Optional[Sequence[str]] = None) -> dict:
    """Figure 14: zkVM-aware -O3 (Change Sets 1-3) vs vanilla -O3."""
    runner = runner or BenchmarkRunner()
    benchmarks = list(benchmarks or DEFAULT_BENCHMARKS)
    vanilla = profile_by_name("-O3")
    modified = zkvm_aware_profile("-O3")
    warm_matrix(runner, benchmarks, [vanilla, modified], include_baseline=False)
    results = {}
    for benchmark in benchmarks:
        row = {}
        for zkvm in ("risc0", "sp1"):
            for metric in ("execution_time", "proving_time"):
                before = runner.measure(benchmark, vanilla).metric(zkvm, metric)
                after = runner.measure(benchmark, modified).metric(zkvm, metric)
                row[(zkvm, metric)] = percent_change(before, after)
        before_instr = runner.measure(benchmark, vanilla).instructions
        after_instr = runner.measure(benchmark, modified).instructions
        row["instruction_reduction"] = percent_change(before_instr, after_instr)
        results[benchmark] = row
    return results


def figure15_native_vs_zkvm(runner: Optional[BenchmarkRunner] = None,
                            benchmarks: Optional[Sequence[str]] = None) -> dict:
    """Figure 15 (Appendix A): zkVM execution and proving vs native execution,
    unoptimized, for the NPB suite."""
    runner = runner or BenchmarkRunner()
    benchmarks = list(benchmarks or benchmarks_in_suite("npb"))
    base = baseline_profile()
    warm_matrix(runner, benchmarks, [], include_baseline=True)
    results = {}
    for benchmark in benchmarks:
        m = runner.measure(benchmark, base)
        results[benchmark] = {
            "native_execution_s": m.cpu.execution_time,
            "risc0_execution_s": m.risc0.execution_time,
            "risc0_proving_s": m.risc0.proving_time,
            "sp1_execution_s": m.sp1.execution_time,
            "sp1_proving_s": m.sp1.proving_time,
        }
    return results
