"""Pass infrastructure: the pass registry, configuration and the pass manager.

Mirrors the way the paper drives LLVM: a *profile* is an ordered list of pass
names (plus numeric options such as ``inline-threshold``), applied to the
unoptimized module produced by the frontend.

Passes no longer construct :class:`~repro.ir.dominators.DominatorTree` /
:class:`~repro.ir.loops.LoopInfo` themselves — they request them from the
pipeline's :class:`~repro.passes.analysis.AnalysisManager` (``self.analysis``),
which serves a cached analysis exactly while the function's CFG version is
unchanged; see :mod:`repro.passes.analysis`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Callable, Iterable, Optional

from ..ir import Function, Module, verify_module
from ..ir.analysis_cache import cfg_cache_disabled
from .analysis import AnalysisManager, AnalysisStats


@dataclass
class PassConfig:
    """Tunable knobs shared by the passes.

    The defaults mirror LLVM's CPU-oriented tuning.  The zkVM-aware
    configuration from Section 6.1 of the paper overrides a subset of them
    (see :func:`~repro.passes.pipelines.apply_zkvm_aware_overrides`).
    """

    # Inlining (LLVM default threshold is 225; the paper raises it to 4328).
    inline_threshold: int = 225
    inline_call_penalty: int = 25
    always_inline_threshold: int = 30

    # Loop unrolling.
    unroll_threshold: int = 150
    unroll_max_count: int = 8
    unroll_full_max_trip_count: int = 32

    # simplifycfg: convert two-armed diamonds into selects when each arm has at
    # most this many speculatable instructions (CPU tuning favours this because
    # it removes branches; zkVMs pay for both arms).
    fold_branch_to_select_threshold: int = 2

    # Strength reduction of division by constants into shift/add sequences.
    expand_div_by_constant: bool = True

    # Jump threading block-duplication threshold.
    jump_threading_threshold: int = 6

    # zkVM-aware mode (Change Sets 1-3): passes consult this to pick
    # instruction-count-driven heuristics instead of hardware-centric ones.
    zkvm_aware: bool = False

    def with_overrides(self, **kwargs) -> "PassConfig":
        return replace(self, **kwargs)


class PassPipelineError(RuntimeError):
    """A pass raised while running; carries the failing pass's context.

    The seed re-wrapped every exception in a bare ``RuntimeError`` that lost
    which pipeline slot and which function were being optimized — exactly the
    context needed to reproduce an autotuner candidate failure.  The original
    exception is chained as ``__cause__``.
    """

    def __init__(self, pass_name: str, pass_index: int,
                 function_name: Optional[str], error: BaseException):
        self.pass_name = pass_name
        self.pass_index = pass_index
        self.function_name = function_name
        where = (f" while optimizing function '{function_name}'"
                 if function_name else "")
        super().__init__(
            f"pass '{pass_name}' (pipeline index {pass_index}) failed{where}: "
            f"{error}")


@dataclass
class PassTiming:
    """Wall time and analysis-cache activity of one pipeline slot."""

    name: str
    index: int
    seconds: float
    changed: bool
    analysis: AnalysisStats = field(default_factory=AnalysisStats)


class Pass:
    """Base class of every optimization pass."""

    name = "<abstract>"
    description = ""

    def __init__(self, config: Optional[PassConfig] = None):
        self.config = config or PassConfig()
        # Standalone pass runs compute analyses fresh per request; the pass
        # manager injects its shared caching manager before each pipeline run.
        self.analysis = AnalysisManager(enabled=False)

    def run(self, module: Module) -> bool:
        """Run on a module; return True if the IR changed."""
        raise NotImplementedError


class FunctionPass(Pass):
    """A pass that runs independently on every defined function.

    Passes whose behaviour depends only on the function they are given (and
    their config) set ``module_independent = True``; the manager then skips
    re-running them on a function whose IR epoch has not moved since the same
    pass last proved itself a no-op there — sound because passes are
    deterministic, and airtight because the no-op record is only written when
    the epoch did not move during the run (a lying ``changed`` flag cannot
    poison it).
    """

    #: True when run_on_function reads nothing outside its function + config
    #: (enables no-op skipping; e.g. ``gvn`` scans the whole module for
    #: global writes and must stay False).
    module_independent = False

    #: The function currently being optimized (error-reporting context).
    current_function: Optional[Function] = None

    def run(self, module: Module) -> bool:
        changed = False
        manager = self.analysis
        skippable = manager.enabled and self.module_independent
        for function in module.defined_functions():
            epoch = function.ir_version
            if skippable:
                key = (self.name, id(self.config), function)
                if manager.noop_epoch(key) == epoch:
                    manager.stats.skipped += 1
                    continue
            self.current_function = function
            if self.run_on_function(function, module):
                changed = True
            self.current_function = None
            if skippable and function.ir_version == epoch:
                manager.record_noop(key, epoch)
        return changed

    def run_on_function(self, function: Function, module: Module) -> bool:
        raise NotImplementedError


class ModulePass(Pass):
    """A pass that needs a whole-module view (inlining, ipsccp, ...)."""


# -- registry -----------------------------------------------------------------
_REGISTRY: dict[str, type[Pass]] = {}


def register_pass(cls: type[Pass]) -> type[Pass]:
    """Class decorator registering a pass under its ``name``."""
    if cls.name in _REGISTRY:
        raise ValueError(f"duplicate pass name: {cls.name}")
    _REGISTRY[cls.name] = cls
    return cls


def available_passes() -> list[str]:
    """Names of all registered passes, sorted."""
    _ensure_loaded()
    return sorted(_REGISTRY.keys())


def get_pass(name: str, config: Optional[PassConfig] = None) -> Pass:
    """Instantiate a registered pass by name."""
    _ensure_loaded()
    if name not in _REGISTRY:
        raise KeyError(f"unknown pass: {name}")
    return _REGISTRY[name](config)


def _ensure_loaded() -> None:
    """Import every pass module so registration side effects run."""
    from . import (  # noqa: F401  (imported for side effects)
        cse, dce, inline, jump_threading, loop_extract, loop_passes,
        loop_unroll, mem2reg, misc, reg2mem, sccp, simplify, simplifycfg,
        sroa, tailcall, unswitch,
    )


class PassManager:
    """Runs an ordered sequence of passes over a module.

    Parameters
    ----------
    analysis_cache:
        ``True`` (default) shares one caching :class:`AnalysisManager` across
        the pipeline; an analysis is reused while its CFG version holds.
        ``False`` is the fresh pipeline: every analysis request — including
        the IR-level CFG metadata — is recomputed from scratch, so it is the
        oracle for both cache tiers in differential testing (and the
        baseline of ``benchmarks/bench_passes.py``).
    verify_analyses:
        Debug mode: cross-check every cached analysis against a fresh
        recomputation on each hit and after each pass.
    verify_each:
        Run the IR verifier after every pass.
    """

    def __init__(self, passes: Iterable[str | Pass] = (),
                 config: Optional[PassConfig] = None,
                 verify_each: bool = False,
                 analysis_cache: bool = True,
                 verify_analyses: bool = False):
        self.config = config or PassConfig()
        self.verify_each = verify_each
        self.analysis_cache = analysis_cache
        self.verify_analyses = verify_analyses
        self.analysis = AnalysisManager(enabled=analysis_cache,
                                        verify=verify_analyses)
        #: Per-slot wall time and cache activity of the most recent run.
        self.timings: list[PassTiming] = []
        self.passes: list[Pass] = []
        for item in passes:
            self.add(item)

    def add(self, item: str | Pass) -> "PassManager":
        if isinstance(item, str):
            item = get_pass(item, self.config)
        self.passes.append(item)
        return self

    def run(self, module: Module) -> bool:
        """Run all passes in order.  Returns True if any pass changed the IR."""
        if self.analysis_cache:
            return self._run(module)
        with cfg_cache_disabled():
            return self._run(module)

    def _run(self, module: Module) -> bool:
        changed = False
        manager = self.analysis
        manager.clear()  # never carry analyses from a previous module
        self.timings = []
        for index, pass_ in enumerate(self.passes):
            pass_.analysis = manager
            before = manager.stats.snapshot()
            start = time.perf_counter()
            try:
                pass_changed = bool(pass_.run(module))
            except Exception as error:
                current = getattr(pass_, "current_function", None)
                raise PassPipelineError(
                    pass_.name, index,
                    current.name if current is not None else None,
                    error) from error
            elapsed = time.perf_counter() - start
            self.timings.append(PassTiming(
                pass_.name, index, elapsed, pass_changed,
                manager.stats.delta(before)))
            if self.verify_analyses:
                manager.verify_analyses()
            if self.verify_each:
                verify_module(module)
            changed |= pass_changed
        return changed


def run_passes(module: Module, names: Iterable[str],
               config: Optional[PassConfig] = None,
               verify_each: bool = False) -> Module:
    """Clone ``module``, run the named passes on the clone, and return it."""
    cloned = module.clone()
    PassManager(names, config, verify_each).run(cloned)
    return cloned
