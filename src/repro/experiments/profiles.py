"""The 71 optimization profiles of the study.

A profile is a named compilation recipe: a list of passes (or a preset
level), the pass configuration, and which backend cost model to use.  The
paper evaluates 64 individual LLVM passes, six preset levels and an
unoptimized baseline; we expose every pass this reproduction implements plus
the same presets, and additionally the zkVM-aware -O3 of Section 6.1.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..backend.cost_model import CPU_COST_MODEL, ZKVM_COST_MODEL, TargetCostModel
from ..passes import (
    OPTIMIZATION_LEVELS, PassConfig, available_passes, config_for_level,
)
from ..passes.pipelines import ZKVM_DISABLED_PASSES


@dataclass(frozen=True)
class Profile:
    """One compilation recipe."""

    name: str
    passes: tuple[str, ...]
    config: PassConfig = field(default_factory=PassConfig)
    cost_model: TargetCostModel = CPU_COST_MODEL
    kind: str = "pass"  # "baseline" | "pass" | "level" | "zkvm-aware" | "custom"

    def describe(self) -> str:
        return f"{self.name} ({self.kind}): {', '.join(self.passes) or '<none>'}"


def baseline_profile() -> Profile:
    """No optimizations at all (the paper's reference point)."""
    return Profile(name="baseline", passes=(), kind="baseline")


def individual_pass_profiles() -> list[Profile]:
    """One profile per implemented pass, applied in isolation to -O0-style IR."""
    return [Profile(name=name, passes=(name,), kind="pass")
            for name in available_passes()]


def pass_profiles(passes=None) -> list[Profile]:
    """Single-pass profiles for the given pass names (all passes if None).

    The subset-selection helper shared by the figure/table regenerators.
    """
    if passes is None:
        return individual_pass_profiles()
    return [Profile(name=p, passes=(p,), kind="pass") for p in passes]


def level_profiles() -> list[Profile]:
    """The preset optimization levels -O0 ... -Oz."""
    profiles = []
    for level, passes in OPTIMIZATION_LEVELS.items():
        if level == "baseline":
            continue
        profiles.append(Profile(name=level, passes=tuple(passes),
                                config=config_for_level(level), kind="level"))
    return profiles


def zkvm_aware_profile(level: str = "-O3") -> Profile:
    """The paper's modified -O3 (Change Sets 1-3)."""
    passes = tuple(p for p in OPTIMIZATION_LEVELS[level]
                   if p not in ZKVM_DISABLED_PASSES)
    return Profile(name=f"{level}-zkvm", passes=passes,
                   config=config_for_level(level, zkvm_aware=True),
                   cost_model=ZKVM_COST_MODEL, kind="zkvm-aware")


def custom_profile(name: str, passes: list[str],
                   config: PassConfig | None = None,
                   zkvm_aware_backend: bool = False) -> Profile:
    """A caller-defined pass sequence (used by the autotuner)."""
    return Profile(name=name, passes=tuple(passes), config=config or PassConfig(),
                   cost_model=ZKVM_COST_MODEL if zkvm_aware_backend else CPU_COST_MODEL,
                   kind="custom")


def all_study_profiles() -> list[Profile]:
    """Baseline + every individual pass + every preset level (the RQ1/RQ2 matrix)."""
    return [baseline_profile(), *individual_pass_profiles(), *level_profiles()]


def profile_by_name(name: str) -> Profile:
    """Look up any study profile: baseline, a pass, a level, or a level's
    zkVM-aware variant (``-O3-zkvm``, ``-O2-zkvm``, ...)."""
    level = name.removesuffix("-zkvm")
    if level != name and level in OPTIMIZATION_LEVELS:
        return zkvm_aware_profile(level)
    for profile in all_study_profiles():
        if profile.name == name:
            return profile
    raise KeyError(f"unknown profile: {name}")
