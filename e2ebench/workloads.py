"""The four cold study workloads and the checks on their outputs.

Each workload calls the same public entry point the ``python -m repro`` CLI
calls, through one :class:`~repro.experiments.engine.ExperimentEngine`.
:meth:`Workload.execute` is the timed part; :meth:`Workload.summarize` runs
afterwards and turns the engine's state and the entry point's return value
into an :class:`Outcome`: a canonical result (compared across runs of one
seed), the workload's output counts and the failure tally.

Why these four (the prediction each one carries is in ``BASELINE.md``):

``levels-zk``
    Figure 5 over all 58 benchmarks (baseline + six levels): the paper's
    headline and ``repro figure 5``.  It reads zkVM metrics and code sizes
    only, so the CPU model every measurement computes is unread here.
``passes-x86``
    Figure 8's 11 benchmarks x 16 single-pass profiles: the same emulator
    layer, but ``cpu_gain`` reads the CPU model, and single-pass compiles
    leave the pass pipeline nearly idle.
``autotune``
    ``repro autotune`` over Figure 6's set on the translated engine: every
    candidate is a fresh recipe, so the compiler dominates and there is no
    CPU model.
``fuzz``
    ``repro fuzz --mode all``: every program is new, so the frontend, both
    pass pipelines, the IR interpreter, the seed backend and the reference
    emulator all run; the only workload where passes dominate.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

#: Guest outputs of every registered benchmark, computed by the IR
#: interpreter on the unoptimized module (``make_expected.py``): the
#: independent oracle every measured output is checked against.
EXPECTED_OUTPUTS = Path(__file__).with_name("expected_outputs.json")

#: ``repro``'s default ``--max-instructions``.
MAX_INSTRUCTIONS = 20_000_000
#: Figure 6's set (two NPB and two crypto benchmarks).
AUTOTUNE_BENCHMARKS = ("npb-bt", "npb-cg", "ecdsa-verify", "eddsa-verify")
AUTOTUNE_ITERATIONS = 64
#: Search seed per benchmark.  Fixed, because a search's cost depends on the
#: pass sequences it draws: one search's wall time varies by about 15 %
#: between search seeds, more than a run-to-run bound can absorb.
AUTOTUNE_SEEDS = {"npb-bt": 0, "npb-cg": 1, "ecdsa-verify": 2, "eddsa-verify": 3}
#: ``repro autotune``'s default ``--population``.
AUTOTUNE_POPULATION = 12
#: The fuzz campaign: generator seeds ``0 .. FUZZ_SEEDS - 1``.  Fixed,
#: because per-program cost is heavy-tailed (standard deviation above the
#: mean), so campaigns of this size drawn from different generator seeds
#: differ in wall time by 30-40 %.
FUZZ_SEEDS = 32
#: Programs per engine job (``repro fuzz --shard-size``): eight shards keep
#: both workers busy to the end, where two shards of 16 would leave one idle.
FUZZ_SHARD_SIZE = 4


@dataclass
class Outcome:
    """What one cold run of a workload produced, checked."""

    #: JSON-able workload result; equal across runs of one seed.
    result: object
    #: Output counts by name; equal across runs of one seed.
    counts: dict
    attempted: int
    failed: int
    problems: list = field(default_factory=list)


@dataclass(frozen=True)
class Workload:
    name: str
    #: Module of the entry point; importing it is part of set-up.
    module: str
    #: Measure through the superblock-translated emulator (``repro autotune``).
    translate: bool
    execute: Callable
    summarize: Callable


def load_expected() -> dict:
    return json.loads(EXPECTED_OUTPUTS.read_text())


def geomean(values) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


def canonical(value):
    """A JSON-able copy of a workload result (tuple keys become strings)."""
    if isinstance(value, dict):
        return {k if isinstance(k, str) else repr(k): canonical(v)
                for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [canonical(v) for v in value]
    return value


def shuffled(names, seed: int) -> list:
    """The job set is fixed; the seed only picks the submission order."""
    names = list(names)
    random.Random(seed).shuffle(names)
    return names


def computed_measurements(engine) -> list:
    """Every measurement the engine computed in this run.

    A fresh engine with an empty cache directory holds exactly the jobs the
    workload ran, so this covers figure cells and autotuner candidates alike.
    """
    return list(engine._memory.values())


def output_mismatches(measurements, expected: dict) -> list:
    """One message per measurement whose guest output differs from the oracle."""
    problems = []
    for m in measurements:
        want = expected[m.benchmark]
        got = {"output": list(m.trace.output), "return_value": m.trace.return_value}
        if got != want:
            problems.append(f"{m.benchmark}/{m.profile}: output {got} != expected {want}")
    return problems


def measurement_outcome(engine, result, error, expected: dict,
                        counts: Callable) -> Outcome:
    """Failures and output checks shared by the measurement workloads.

    Attempted jobs are the measurements the engine ran; failed ones are jobs
    it gave up on plus measurements whose guest output is wrong.
    """
    measurements = computed_measurements(engine)
    mismatches = output_mismatches(measurements, expected)
    problems = mismatches + [f"{f.job}: {f.error_type}: {f.message}"
                             for f in engine.failures]
    if error is not None:
        problems.append(f"workload raised {type(error).__name__}: {error}")
    failed = engine.stats.errors + len(mismatches)
    return Outcome(result=canonical(result),
                   counts=counts(measurements, result) if measurements else {},
                   attempted=engine.stats.computed + engine.stats.errors,
                   failed=failed if error is None else max(failed, 1),
                   problems=problems)


def _zk_counts(measurements) -> dict:
    return {"risc0_cycles_geomean": geomean(m.risc0.total_cycles for m in measurements),
            "sp1_cycles_geomean": geomean(m.sp1.total_cycles for m in measurements)}


def _guarded(call):
    """Run ``call``; return ``(result, None)`` or ``(None, exception)``."""
    try:
        return call(), None
    except Exception as exc:  # counted as a failure, never a crash
        return None, exc


# -- levels-zk ------------------------------------------------------------------
def _levels_execute(engine, seed: int):
    from repro.benchmarks import all_benchmark_names
    from repro.experiments.figures import figure5_optimization_levels

    names = shuffled(all_benchmark_names(), seed)
    return _guarded(lambda: figure5_optimization_levels(engine, names))


def _levels_summarize(engine, raw, expected: dict) -> Outcome:
    def counts(measurements, result):
        return {**_zk_counts(measurements),
                "code_bytes_rvc_geomean": geomean(m.code_bytes["rvc"]
                                                  for m in measurements)}

    return measurement_outcome(engine, *raw, expected, counts)


# -- passes-x86 -------------------------------------------------------------------
def _passes_execute(engine, seed: int):
    from repro.experiments.figures import (
        DEFAULT_BENCHMARKS, DEFAULT_PASSES, figure8_divergence,
    )

    rng = random.Random(seed)
    benchmarks, passes = list(DEFAULT_BENCHMARKS), list(DEFAULT_PASSES)
    rng.shuffle(benchmarks)
    rng.shuffle(passes)
    return _guarded(lambda: figure8_divergence(engine, benchmarks, passes))


def _passes_summarize(engine, raw, expected: dict) -> Outcome:
    def counts(measurements, result):
        return {**_zk_counts(measurements),
                "x86_time_geomean": geomean(m.cpu.execution_time
                                            for m in measurements)}

    return measurement_outcome(engine, *raw, expected, counts)


# -- autotune ---------------------------------------------------------------------
def _autotune_execute(engine, seed: int):
    from repro.autotuner import GeneticAutotuner

    def tune_all() -> dict:
        results = {}
        for benchmark in shuffled(AUTOTUNE_BENCHMARKS, seed):
            tuner = GeneticAutotuner(
                runner=engine, seed=AUTOTUNE_SEEDS[benchmark], zkvm="risc0",
                population_size=AUTOTUNE_POPULATION)
            outcome = tuner.tune(benchmark, iterations=AUTOTUNE_ITERATIONS)
            results[benchmark] = {
                "evaluations": outcome.evaluations,
                "baseline_cycles": outcome.baseline_cycles,
                "o3_cycles": outcome.o3_cycles,
                "best_cycles": outcome.best_cycles,
                "best_passes": list(outcome.best.passes),
                "inline_threshold": outcome.best.inline_threshold,
                "unroll_threshold": outcome.best.unroll_threshold,
            }
        return results

    return _guarded(tune_all)


def _autotune_summarize(engine, raw, expected: dict) -> Outcome:
    def counts(measurements, result):
        if result is None:
            return {}
        return {"tuned_cycles_geomean":
                geomean(r["best_cycles"] for r in result.values())}

    return measurement_outcome(engine, *raw, expected, counts)


# -- fuzz -----------------------------------------------------------------------------
def _fuzz_execute(engine, seed: int):
    from repro.fuzz import HarnessConfig, run_campaign

    config = HarnessConfig(emulator_max_instructions=MAX_INSTRUCTIONS)
    return _guarded(lambda: run_campaign(
        seeds=FUZZ_SEEDS, mode="all", start_seed=0, engine=engine,
        config=config, shard_size=FUZZ_SHARD_SIZE))


def _fuzz_summarize(engine, raw, expected: dict) -> Outcome:
    """Every verdict is the harness's comparison against the IR interpreter.

    Programs without a verdict (their shard was quarantined) count as failed.
    """
    summary, error = raw
    if summary is None:
        return Outcome(result=None, counts={}, attempted=FUZZ_SEEDS,
                       failed=FUZZ_SEEDS,
                       problems=[f"campaign raised {type(error).__name__}: {error}"])
    result = summary.as_dict()
    for volatile in ("engine_stats", "journal_path"):
        result.pop(volatile)
    unresolved = summary.unique_programs - summary.ok - summary.failed
    problems = [f"{bucket}: {len(failures)} divergent program(s)"
                for bucket, failures in summary.triage.buckets.items()]
    problems += [f"{f['job']}: {f['message']}" for f in summary.job_failures]
    return Outcome(result=canonical(result), counts={},
                   attempted=summary.unique_programs,
                   failed=summary.failed + unresolved, problems=problems)


WORKLOADS = {w.name: w for w in (
    Workload("levels-zk", "repro.experiments.figures", False,
             _levels_execute, _levels_summarize),
    Workload("passes-x86", "repro.experiments.figures", False,
             _passes_execute, _passes_summarize),
    Workload("autotune", "repro.autotuner", True,
             _autotune_execute, _autotune_summarize),
    Workload("fuzz", "repro.fuzz", False, _fuzz_execute, _fuzz_summarize),
)}
