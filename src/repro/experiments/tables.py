"""Regenerators for the paper's tables (Table 1, 2, 3, 6) and the Section 5.2
case studies.

Like the figure regenerators, every table that sweeps the benchmark × profile
matrix first submits the whole matrix as one batch through the runner's
``measure_pairs`` API (:func:`~repro.experiments.runner.warm_matrix`), so an
:class:`~repro.experiments.engine.ExperimentEngine` computes it in parallel
and serves repeat runs from the on-disk measurement cache.  Table 3 and the
case studies compile ad-hoc sources, so no runner caches them; they go
through the same compile and measurement steps
(:func:`~repro.experiments.runner.compile_program`,
:func:`~repro.experiments.runner.measure_program`).
"""

from __future__ import annotations

import statistics
from typing import Optional, Sequence

from ..analysis.stats import kendall_tau, mean, pearson_r
from ..frontend import compile_source
from .figures import DEFAULT_BENCHMARKS, DEFAULT_PASSES
from .profiles import baseline_profile, pass_profiles, profile_by_name
from .runner import (
    BenchmarkRunner, Measurement, compile_program, measure_program,
    percent_change, warm_matrix,
)


def table1_gain_loss_counts(runner: Optional[BenchmarkRunner] = None,
                            benchmarks: Optional[Sequence[str]] = None,
                            passes: Optional[Sequence[str]] = None,
                            threshold: float = 2.0) -> dict:
    """Table 1: number of (benchmark, pass) instances with gains > 2% or
    losses < -2% in execution and proving time, per zkVM."""
    runner = runner or BenchmarkRunner()
    benchmarks = list(benchmarks or DEFAULT_BENCHMARKS)
    profiles = pass_profiles(passes or DEFAULT_PASSES)
    warm_matrix(runner, benchmarks, profiles)
    rows = {}
    for zkvm in ("risc0", "sp1"):
        counts = {"execution_gain": 0, "execution_loss": 0,
                  "proving_gain": 0, "proving_loss": 0}
        for profile in profiles:
            for benchmark in benchmarks:
                exec_gain = runner.gain(benchmark, profile, zkvm, "execution_time")
                prove_gain = runner.gain(benchmark, profile, zkvm, "proving_time")
                if exec_gain > threshold:
                    counts["execution_gain"] += 1
                elif exec_gain < -threshold:
                    counts["execution_loss"] += 1
                if prove_gain > threshold:
                    counts["proving_gain"] += 1
                elif prove_gain < -threshold:
                    counts["proving_loss"] += 1
        rows[zkvm] = counts
    return rows


def table2_correlations(runner: Optional[BenchmarkRunner] = None,
                        benchmarks: Optional[Sequence[str]] = None,
                        passes: Optional[Sequence[str]] = None) -> dict:
    """Table 2: per-benchmark Kendall's tau and Pearson's r between cost
    metrics (instructions, paging cycles, total cycles) and performance
    (execution time, proving time), averaged over benchmarks."""
    runner = runner or BenchmarkRunner()
    benchmarks = list(benchmarks or DEFAULT_BENCHMARKS)
    profiles = [baseline_profile(), *pass_profiles(passes or DEFAULT_PASSES)]
    warm_matrix(runner, benchmarks, profiles, include_baseline=False)

    pairs = [
        ("execution_time", "instructions"),
        ("execution_time", "paging_cycles"),
        ("execution_time", "total_cycles"),
        ("proving_time", "instructions"),
        ("proving_time", "paging_cycles"),
        ("proving_time", "total_cycles"),
    ]
    results: dict = {}
    for zkvm in ("risc0", "sp1"):
        for performance_metric, cost_metric in pairs:
            if cost_metric == "paging_cycles" and zkvm == "sp1":
                results[(zkvm, performance_metric, cost_metric)] = \
                    {"kendall": None, "pearson": None}
                continue
            taus, rs = [], []
            for benchmark in benchmarks:
                xs, ys = [], []
                for profile in profiles:
                    m = runner.measure(benchmark, profile)
                    cost = (m.instructions if cost_metric == "instructions"
                            else m.metric(zkvm, cost_metric))
                    xs.append(cost)
                    ys.append(m.metric(zkvm, performance_metric))
                taus.append(kendall_tau(xs, ys))
                rs.append(pearson_r(xs, ys))
            results[(zkvm, performance_metric, cost_metric)] = \
                {"kendall": mean(taus), "pearson": mean(rs)}
    return results


# -- Table 3: manual loop unrolling --------------------------------------------
_MATVEC_TEMPLATE = """
const N = 5; const REPEAT = 40;
global mat[25]; global vec[5]; global res[5];

fn main() -> int {{
  var i; var col; var row; var r;
  for (i = 0; i < 25; i = i + 1) {{ mat[i] = (i * 7) % 11 - 5; }}
  for (i = 0; i < 5; i = i + 1) {{ vec[i] = i + 1; }}
  for (r = 0; r < REPEAT; r = r + 1) {{
    for (i = 0; i < 5; i = i + 1) {{ res[i] = 0; }}
    for (col = 0; col < 5; col = col + 1) {{
{body}
    }}
  }}
  var acc = 0;
  for (i = 0; i < 5; i = i + 1) {{ acc = acc + res[i] * (i + 1); }}
  print(acc);
  return acc;
}}
"""

_ROLLED_BODY = """      for (row = 0; row < 5; row = row + 1) {
        res[row] = res[row] + mat[col * 5 + row] * vec[col];
      }"""

_UNROLLED_BODY = """      res[0] = res[0] + mat[col * 5 + 0] * vec[col];
      res[1] = res[1] + mat[col * 5 + 1] * vec[col];
      res[2] = res[2] + mat[col * 5 + 2] * vec[col];
      res[3] = res[3] + mat[col * 5 + 3] * vec[col];
      res[4] = res[4] + mat[col * 5 + 4] * vec[col];"""


def table3_manual_unrolling(factors: Sequence[int] = (4, 16)) -> dict:
    """Table 3: manually unrolling the Figure 12 matrix-vector kernel.

    The paper unrolls the inner loop by 4x and 16x directly in assembly; we
    unroll at the source level (the rolled inner loop has 5 iterations, so the
    "unrolled" variant removes all inner-loop bookkeeping — the limit of any
    unroll factor >= 5) and compare instruction counts, zkVM metrics and the
    CPU model on both variants.
    """
    rolled = _measure_source(_MATVEC_TEMPLATE.format(body=_ROLLED_BODY),
                             module_name="table3")
    unrolled = _measure_source(_MATVEC_TEMPLATE.format(body=_UNROLLED_BODY),
                               module_name="table3")
    assert rolled.trace.output == unrolled.trace.output, \
        "unrolling changed the result"

    rows = {}
    for factor in factors:
        rows[factor] = {
            "instruction_change": -percent_change(rolled.instructions,
                                                  unrolled.instructions),
            "x86_exec_gain": percent_change(rolled.cpu.execution_time,
                                            unrolled.cpu.execution_time),
            "risc0_exec_gain": percent_change(rolled.risc0.execution_time,
                                              unrolled.risc0.execution_time),
            "risc0_prove_gain": percent_change(rolled.risc0.proving_time,
                                               unrolled.risc0.proving_time),
            "sp1_exec_gain": percent_change(rolled.sp1.execution_time,
                                            unrolled.sp1.execution_time),
            "sp1_prove_gain": percent_change(rolled.sp1.proving_time,
                                             unrolled.sp1.proving_time),
        }
    return rows


def table6_baseline_statistics(runner: Optional[BenchmarkRunner] = None,
                               benchmarks: Optional[Sequence[str]] = None) -> dict:
    """Table 6: min/max/mean/median execution and proving time per zkVM on the
    unoptimized baseline."""
    runner = runner or BenchmarkRunner()
    benchmarks = list(benchmarks or DEFAULT_BENCHMARKS)
    base = baseline_profile()
    warm_matrix(runner, benchmarks, [], include_baseline=True)
    results = {}
    for zkvm in ("risc0", "sp1"):
        for metric in ("execution_time", "proving_time"):
            values = [runner.measure(b, base).metric(zkvm, metric) for b in benchmarks]
            results[(zkvm, metric)] = {
                "min": min(values), "max": max(values),
                "mean": mean(values), "median": statistics.median(values),
            }
    return results


# -- Section 2 / Section 5.2 case studies -------------------------------------
def case_study_strength_reduction() -> dict:
    """Figure 2a: dividing by a constant — single div vs the shift/add expansion."""
    source = """
const N = 400;
fn main() -> int {
  var acc = 0;
  var i;
  for (i = 1; i <= N; i = i + 1) {
    acc = acc + (i * 37 - 500) / 8;
  }
  print(acc);
  return acc;
}
"""
    return _compare_profiles(source, "-O3", "-O3-zkvm")


def case_study_branchless_abs() -> dict:
    """Figure 13: branchy vs branchless absolute value inside a loop."""
    branchy = """
const N = 300;
fn absval(x) -> int { if (x < 0) { return 0 - x; } return x; }
fn main() -> int {
  var acc = 0;
  var i;
  for (i = 0; i < N; i = i + 1) { acc = acc + absval((i * 2654435761) % 2001 - 1000); }
  print(acc);
  return acc;
}
"""
    branchless = """
const N = 300;
fn absval(x) -> int { var m = x >> 31; return (x ^ m) - m; }
fn main() -> int {
  var acc = 0;
  var i;
  for (i = 0; i < N; i = i + 1) { acc = acc + absval((i * 2654435761) % 2001 - 1000); }
  print(acc);
  return acc;
}
"""
    return {"branchy": _case_summary(_measure_source(branchy)),
            "branchless": _case_summary(_measure_source(branchless))}


def case_study_loop_fission() -> dict:
    """Figure 2b: fused vs fissioned initialisation loops."""
    fused = """
const N = 512;
global a[512]; global b[512];
fn main() -> int {
  var i;
  for (i = 0; i < N; i = i + 1) { a[i] = 1; b[i] = 2; }
  print(a[N - 1] + b[N - 1]);
  return a[N - 1] + b[N - 1];
}
"""
    fissioned = """
const N = 512;
global a[512]; global b[512];
fn main() -> int {
  var i;
  for (i = 0; i < N; i = i + 1) { a[i] = 1; }
  for (i = 0; i < N; i = i + 1) { b[i] = 2; }
  print(a[N - 1] + b[N - 1]);
  return a[N - 1] + b[N - 1];
}
"""
    return {"fused": _case_summary(_measure_source(fused)),
            "fissioned": _case_summary(_measure_source(fissioned))}


def _measure_source(source: str, profile: str = "baseline",
                    module_name: str = "case-study") -> Measurement:
    """Compile an ad-hoc MiniC program under a study profile and measure it."""
    resolved = profile_by_name(profile)
    program = compile_program(compile_source(source, module_name), resolved)
    return measure_program(program, module_name, resolved.name)


def _case_summary(m: Measurement) -> dict:
    return {
        "instructions": m.instructions,
        "risc0": m.risc0.as_dict(),
        "sp1": m.sp1.as_dict(),
        "x86_execution": m.cpu.execution_time,
        "output": list(m.trace.output),
    }


def _compare_profiles(source: str, profile_a: str, profile_b: str) -> dict:
    results = {}
    for name in (profile_a, profile_b):
        m = _measure_source(source, name)
        results[name] = {
            "instructions": m.instructions,
            "risc0_exec": m.risc0.execution_time,
            "x86_exec": m.cpu.execution_time,
            "output": list(m.trace.output),
        }
    return results
