"""Optimization passes and pipelines.

The public surface mirrors how the paper drives LLVM: individual passes are
addressed by name (``run_passes(module, ["licm"])``), and the preset levels
(-O0 ... -O3, -Os, -Oz) are available through
:func:`repro.passes.pipelines.pipeline_for_level`.
"""

from .analysis import AnalysisManager, AnalysisStats, StaleAnalysisError
from .pass_manager import (
    FunctionPass, ModulePass, Pass, PassConfig, PassManager, PassPipelineError,
    PassTiming, available_passes, get_pass, register_pass, run_passes,
)
from .pipelines import (
    BASELINE, OPTIMIZATION_LEVELS, apply_zkvm_aware_overrides, config_for_level,
    pipeline_for_level,
)

# Importing the pass modules registers every pass.
from . import (  # noqa: F401,E402
    cse, dce, inline, jump_threading, loop_extract, loop_passes, loop_unroll,
    mem2reg, misc, reg2mem, sccp, simplify, simplifycfg, sroa, tailcall,
    unswitch,
)

__all__ = [
    "AnalysisManager", "AnalysisStats", "StaleAnalysisError",
    "FunctionPass", "ModulePass", "Pass", "PassConfig", "PassManager",
    "PassPipelineError", "PassTiming",
    "available_passes", "get_pass", "register_pass", "run_passes",
    "BASELINE", "OPTIMIZATION_LEVELS", "apply_zkvm_aware_overrides",
    "config_for_level", "pipeline_for_level",
]
