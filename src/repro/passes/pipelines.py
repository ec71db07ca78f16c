"""Preset optimization pipelines: -O0, -O1, -O2, -O3, -Os, -Oz.

The pass orderings follow the spirit of LLVM's default pipelines: SSA
construction first, then scalar simplification, inlining, loop optimizations,
redundancy elimination and final clean-ups.  The size-oriented levels use
lower inlining/unrolling thresholds.
"""

from __future__ import annotations

from .pass_manager import PassConfig, PassManager

# The unoptimized reference point used throughout the paper's study.
BASELINE: list[str] = []

O0 = [
    "always-inline",
    "dce",
]

O1 = [
    "mem2reg",
    "instcombine",
    "simplifycfg",
    "sroa",
    "early-cse",
    "sccp",
    "inline",
    "instcombine",
    "simplifycfg",
    "dce",
]

O2 = [
    "mem2reg",
    "sroa",
    "instcombine",
    "simplifycfg",
    "ipsccp",
    "inline",
    "instcombine",
    "jump-threading",
    "simplifycfg",
    "tailcall",
    "early-cse",
    "loop-rotate",
    "licm",
    "indvars",
    "loop-idiom",
    "loop-deletion",
    "loop-unroll",
    "gvn",
    "sccp",
    "instcombine",
    "mldst-motion",
    "sink",
    "adce",
    "simplifycfg",
    "instcombine",
]

O3 = [
    "mem2reg",
    "sroa",
    "instcombine",
    "simplifycfg",
    "ipsccp",
    "attributor",
    "inline",
    "instcombine",
    "jump-threading",
    "simplifycfg",
    "tailcall",
    "early-cse",
    "loop-rotate",
    "licm",
    "simple-loop-unswitch",
    "indvars",
    "loop-idiom",
    "loop-deletion",
    "loop-unroll",
    "gvn",
    "sccp",
    "instcombine",
    "mldst-motion",
    "sink",
    "speculative-execution",
    "adce",
    "simplifycfg",
    "instcombine",
    "dce",
]

OS = [name for name in O2 if name not in ("loop-unroll",)]
OZ = [name for name in OS if name not in ("loop-rotate", "loop-idiom")]

#: Change Set 3 (Section 6.1): passes whose benefit relies on hardware
#: features zkVMs lack, dropped from every zkVM-aware pipeline.
ZKVM_DISABLED_PASSES = ("speculative-execution",)

OPTIMIZATION_LEVELS: dict[str, list[str]] = {
    "baseline": BASELINE,
    "-O0": O0,
    "-O1": O1,
    "-O2": O2,
    "-O3": O3,
    "-Os": OS,
    "-Oz": OZ,
}


def config_for_level(level: str, zkvm_aware: bool = False) -> PassConfig:
    """The pass configuration (thresholds) used by a preset level."""
    config = PassConfig()
    if level == "-O3":
        config = config.with_overrides(
            inline_threshold=325, unroll_threshold=300, unroll_full_max_trip_count=64)
    elif level == "-O1":
        config = config.with_overrides(inline_threshold=45)
    elif level == "-Os":
        config = config.with_overrides(inline_threshold=50, unroll_threshold=0)
    elif level == "-Oz":
        config = config.with_overrides(inline_threshold=25, unroll_threshold=0,
                                       fold_branch_to_select_threshold=1)
    if zkvm_aware:
        config = apply_zkvm_aware_overrides(config)
    return config


def apply_zkvm_aware_overrides(config: PassConfig) -> PassConfig:
    """Change Sets 1-3 (Section 6.1): zkVM-aware cost model and heuristics."""
    return config.with_overrides(
        zkvm_aware=True,
        # Change set 1/2: instruction-count-driven inlining (paper uses 4328).
        inline_threshold=4328,
        inline_call_penalty=40,
        always_inline_threshold=60,
        # Unrolling only when it reduces executed instructions; allow more of it.
        unroll_threshold=600,
        unroll_full_max_trip_count=64,
        # Do not expand division into shift/add sequences (uniform cost model).
        expand_div_by_constant=False,
        # Be conservative about evaluating both sides of a branch.
        fold_branch_to_select_threshold=1,
    )


def pipeline_for_level(level: str, zkvm_aware: bool = False) -> PassManager:
    """Build a ready-to-run pass manager for a preset optimization level."""
    if level not in OPTIMIZATION_LEVELS:
        raise KeyError(f"unknown optimization level: {level}")
    names = list(OPTIMIZATION_LEVELS[level])
    if zkvm_aware:
        names = [n for n in names if n not in ZKVM_DISABLED_PASSES]
    return PassManager(names, config_for_level(level, zkvm_aware))
