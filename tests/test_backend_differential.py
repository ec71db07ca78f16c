"""Backend differential suite: the optimizing backend must be behaviourally
invisible.

For every seed benchmark and both paper profiles (the CPU-tuned ``-O3`` and
the zkVM-aware ``-O3-zkvm``), the optimized IR is lowered by
:func:`repro.backend.compile_module` (immediate folding, loop-invariant
hoisting, peephole, hole-aware allocation) and replayed on the emulator.  The
guest must reproduce the output and return value of the IR interpreter on the
*unoptimized* module — the independent oracle for compiled guest behaviour —
and its ``TraceStats`` must stay internally consistent (the accounting
identities the cost models rely on).

``benchmarks/bench_backend.py`` (``make bench-backend``) holds the code-size
and cycle counts against the committed ``BENCH_backend.json``; this suite
proves behaviour is untouched.
"""

from __future__ import annotations

import pytest

from repro.backend import compile_module
from repro.backend.isa import OPCODE_CLASS
from repro.benchmarks import all_benchmark_names, get_benchmark
from repro.emulator import Machine
from repro.frontend import compile_source
from repro.ir.interpreter import run_module
from repro.passes import PassManager
from repro.experiments.profiles import profile_by_name, zkvm_aware_profile


def _profiles():
    return [profile_by_name("-O3"), zkvm_aware_profile()]


def _replay(program, benchmark):
    machine = Machine(program, max_instructions=80_000_000,
                      input_values=benchmark.inputs)
    stats = machine.run("main", benchmark.args)
    return stats, machine


def _assert_consistent(stats, context: str) -> None:
    """The accounting identities every cost model depends on."""
    assert sum(stats.opcode_counts.values()) == stats.instructions, context
    assert sum(stats.class_counts.values()) == stats.instructions, context
    assert stats.loads == stats.class_counts.get("load", 0), context
    assert stats.stores == stats.class_counts.get("store", 0), context
    for opcode in stats.opcode_counts:
        assert opcode in OPCODE_CLASS, f"{context}: unclassified {opcode}"


@pytest.mark.parametrize("benchmark_name", all_benchmark_names())
def test_optimizing_backend_preserves_guest_behaviour(benchmark_name):
    benchmark = get_benchmark(benchmark_name)
    assert not benchmark.inputs, "the IR interpreter cannot supply host inputs"
    unoptimized = compile_source(benchmark.source, module_name=benchmark_name)
    expected = run_module(unoptimized, "main", benchmark.args)
    for profile in _profiles():
        module = unoptimized.clone()
        if profile.passes:
            PassManager(profile.passes, profile.config).run(module)
        program = compile_module(module, profile.cost_model)

        context = f"{benchmark_name} under {profile.name}"
        stats, _ = _replay(program, benchmark)
        assert stats.output == expected.output, \
            f"guest outputs diverged for {context}"
        assert stats.return_value == expected.return_value, \
            f"return values diverged for {context}"
        _assert_consistent(stats, context)


@pytest.mark.parametrize("benchmark_name",
                         ["polybench-gemm", "sha256", "fibonacci", "merkle"])
def test_backend_stats_are_attached_and_sane(benchmark_name):
    """``compile_module`` publishes per-function backend statistics."""
    benchmark = get_benchmark(benchmark_name)
    profile = profile_by_name("-O3")
    module = compile_source(benchmark.source, module_name=benchmark_name)
    PassManager(profile.passes, profile.config).run(module)
    program = compile_module(module, profile.cost_model)
    assert set(program.backend_stats) == set(program.functions)
    for name, stats in program.backend_stats.items():
        final = len(program.functions[name].instructions())
        assert stats["final_instructions"] == final
        assert stats["spill_loads"] >= 0 and stats["spill_stores"] >= 0
        assert isinstance(stats["peephole"], dict)


#: ``helper`` calls ``t0`` and the program also defines ``a2``: a backend
#: that reads ``call t0`` as a register read or renames it as a register
#: makes the guest call ``a2`` instead, silently.
REGISTER_NAMED_CALLEES = """
fn t0(n) -> int { return n * 3 + 1; }
fn a2(n) -> int { return n * 7 + 5; }
fn helper(x) -> int { return t0(x) + 15; }
fn main() -> int {
  var acc = helper(333) + a2(0);
  print(acc - 5);
  return 0;
}
"""


def test_calls_to_register_named_functions_keep_their_target():
    unoptimized = compile_source(REGISTER_NAMED_CALLEES)
    expected = run_module(unoptimized, "main")
    for name in ("baseline", "-O0", "-O3"):
        profile = profile_by_name(name)
        module = unoptimized.clone()
        if profile.passes:
            PassManager(profile.passes, profile.config).run(module)
        stats = Machine(compile_module(module, profile.cost_model)).run()
        assert (stats.output, stats.return_value) == \
            (expected.output, expected.return_value), f"under {name}"
