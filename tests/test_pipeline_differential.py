"""Pipeline differential suite: the analysis-caching pass manager must be
behaviourally invisible.

For every seed benchmark and both paper profiles (the CPU-tuned ``-O3`` and
the zkVM-aware ``-O3-zkvm``), the optimization pipeline runs twice — once
with the :class:`~repro.passes.analysis.AnalysisManager` caching analyses
(the default), once through the ``analysis_cache=False`` escape hatch that
recomputes everything fresh, exactly as the seed pass manager did.  The
cached run is in verify mode, so every cache hit, and after each pass every
servable cached analysis, is cross-checked against a fresh recomputation.
The two runs must produce byte-identical printed IR, and the compiled
programs must produce identical emulator outputs and :class:`TraceStats`.

A third check pins down determinism itself: two fresh runs over separate
clones must also agree byte-for-byte (the seed pipeline iterated
address-ordered block sets, so its output layout differed from run to run —
and on some runs the unroller emitted use-before-def IR).
"""

from __future__ import annotations

import pytest

from repro.backend import compile_module
from repro.benchmarks import all_benchmark_names, get_benchmark
from repro.emulator import Machine
from repro.frontend import compile_source
from repro.ir import verify_module
from repro.ir.printer import format_module
from repro.passes import PassManager
from repro.experiments.profiles import profile_by_name, zkvm_aware_profile


def _profiles():
    return [profile_by_name("-O3"), zkvm_aware_profile()]


def _optimize(module, profile, **kwargs):
    clone = module.clone()
    PassManager(profile.passes, profile.config, **kwargs).run(clone)
    return clone


def _replay(module, profile, benchmark):
    program = compile_module(module, profile.cost_model)
    machine = Machine(program, max_instructions=50_000_000,
                      input_values=benchmark.inputs)
    stats = machine.run("main", benchmark.args)
    return stats, list(machine.output)


@pytest.mark.parametrize("benchmark_name", all_benchmark_names())
def test_cached_pipeline_is_behaviourally_invisible(benchmark_name):
    benchmark = get_benchmark(benchmark_name)
    module = compile_source(benchmark.source, module_name=benchmark_name)
    for profile in _profiles():
        cached = _optimize(module, profile, analysis_cache=True,
                           verify_analyses=True)
        fresh = _optimize(module, profile, analysis_cache=False)

        context = f"{benchmark_name} under {profile.name}"
        assert format_module(cached) == format_module(fresh), \
            f"cached and fresh pipelines produced different IR for {context}"
        verify_module(cached)

        cached_stats, cached_output = _replay(cached, profile, benchmark)
        fresh_stats, fresh_output = _replay(fresh, profile, benchmark)
        assert cached_output == fresh_output, \
            f"emulator outputs diverged for {context}"
        assert cached_stats == fresh_stats, \
            f"TraceStats diverged for {context}"


@pytest.mark.parametrize("benchmark_name",
                         ["polybench-floyd-warshall", "polybench-atax",
                          "sha3-bench", "merkle"])
def test_fresh_pipeline_output_is_deterministic(benchmark_name):
    """Two escape-hatch runs over separate clones agree byte-for-byte.

    These benchmarks were the flakiest under the seed's address-ordered
    block-set iteration (floyd-warshall additionally tripped the unroller's
    use-before-def cloning bug on most runs).
    """
    benchmark = get_benchmark(benchmark_name)
    module = compile_source(benchmark.source, module_name=benchmark_name)
    for profile in _profiles():
        first = _optimize(module, profile, analysis_cache=False)
        second = _optimize(module, profile, analysis_cache=False)
        assert format_module(first) == format_module(second)
        verify_module(first)
