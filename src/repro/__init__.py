"""repro: a reproduction of "Evaluating Compiler Optimization Impacts on zkVM
Performance" (ASPLOS 2026).

The package contains the full stack the study needs: a MiniC frontend, an
LLVM-like IR and optimization pass pipeline, an RV32IM backend and emulator,
analytic cost models for two zkVMs (RISC Zero, SP1) and a traditional CPU, a
58-program benchmark suite, a genetic autotuner, and regenerators for every
table and figure in the paper's evaluation.

Quick start::

    from repro.frontend import compile_source
    from repro.passes import run_passes
    from repro.backend import compile_module
    from repro.emulator import run_program

    module = compile_source("fn main() -> int { return 41 + 1; }")
    optimized = run_passes(module, ["mem2reg", "instcombine", "simplifycfg"])
    stats = run_program(compile_module(optimized))
    assert stats.return_value == 42

Study-scale measurement goes through the parallel, disk-cached experiment
engine — ``repro.experiments.ExperimentEngine`` in code, ``python -m repro``
on the command line (``measure``, ``figure``, ``table``, ``autotune``, ...).
See README.md and docs/ARCHITECTURE.md.
"""

__version__ = "1.1.0"

__all__ = [
    "frontend", "ir", "passes", "backend", "emulator", "zkvm", "cpu",
    "benchmarks", "autotuner", "analysis", "experiments",
]
