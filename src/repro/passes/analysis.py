"""The per-function analysis manager of the pass pipeline.

The seed pass manager rebuilt :class:`~repro.ir.dominators.DominatorTree`,
:class:`~repro.ir.loops.LoopInfo` and the other CFG-derived analyses from
scratch inside every pass, on every ``run_on_function`` call — the same
compile-time problem LLVM's AnalysisManager solves.  This module provides the
equivalent: passes *request* analyses from an :class:`AnalysisManager`, which
computes them lazily, caches them per function, and drops them when a pass
reports that it modified the function.

Invalidation is two-tiered:

* **Explicit (preserves-sets).**  Every :class:`~repro.passes.pass_manager.Pass`
  declares ``preserves: frozenset[str]`` — the analyses that remain valid even
  when the pass changed the function.  After a pass reports a change, the
  manager drops exactly the non-preserved analyses of the functions the pass
  touched (function passes invalidate per function as they go; module passes
  such as ``inline`` report the precise set of functions they modified).

* **CFG-version safety net.**  Every cached analysis records the owning
  function's CFG version (:attr:`repro.ir.function.Function.cfg_version`),
  which every block-graph mutation bumps.  A request that finds a cached
  result from an older version recomputes instead of returning it.  This
  makes a wrong preserves declaration a performance bug rather than a silent
  miscompile — as long as the mutation went through the IR's mutation APIs.

``verify=True`` (debug mode) additionally recomputes every analysis on each
cache hit and cross-checks it against the cached result, catching mutations
that bypassed the IR mutation APIs entirely; see :meth:`verify_analyses`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional

from ..ir import (
    DominatorTree, Function, LoopInfo, dominance_frontiers, reachable_blocks,
)

# Analysis names.  Passes refer to these in their ``preserves`` sets.
DOMTREE = "domtree"
LOOPS = "loops"
FRONTIERS = "frontiers"
REACHABLE = "reachable"

ALL_ANALYSES: tuple[str, ...] = (DOMTREE, LOOPS, FRONTIERS, REACHABLE)

#: Declared by passes that never change the block graph (they may still add,
#: move, replace or erase non-terminator instructions and phis — none of the
#: managed analyses read those).
PRESERVE_ALL: frozenset[str] = frozenset(ALL_ANALYSES)

#: Declared by passes that may change the block graph in any way.
PRESERVE_NONE: frozenset[str] = frozenset()

#: An analysis is only retained if every analysis it was derived from is
#: retained too (``LoopInfo`` and the dominance frontiers embed the dominator
#: tree they were built from).
_DEPENDENCIES: dict[str, frozenset[str]] = {
    DOMTREE: frozenset(),
    LOOPS: frozenset({DOMTREE}),
    FRONTIERS: frozenset({DOMTREE}),
    REACHABLE: frozenset(),
}


class StaleAnalysisError(RuntimeError):
    """A cached analysis no longer matches the IR it claims to describe.

    Raised only by the debug-mode cross-check (``verify=True`` or an explicit
    :meth:`AnalysisManager.verify_analyses` call); in production mode the
    CFG-version safety net silently recomputes drifted analyses instead.
    """


@dataclass
class AnalysisStats:
    """Counters describing where analysis requests were answered from."""

    #: Requests answered from the cache.
    hits: int = 0
    #: Requests that ran the underlying analysis.
    computed: int = 0
    #: Cache entries dropped by explicit (preserves-driven) invalidation.
    invalidated: int = 0
    #: Cache entries dropped because the function's CFG version moved on
    #: without an explicit invalidation (the safety net firing).
    drifted: int = 0
    #: Function-pass invocations skipped because the pass already proved
    #: itself a no-op on the identical IR epoch.
    skipped: int = 0

    def snapshot(self) -> "AnalysisStats":
        return AnalysisStats(self.hits, self.computed, self.invalidated,
                             self.drifted, self.skipped)

    def delta(self, since: "AnalysisStats") -> "AnalysisStats":
        return AnalysisStats(self.hits - since.hits,
                             self.computed - since.computed,
                             self.invalidated - since.invalidated,
                             self.drifted - since.drifted,
                             self.skipped - since.skipped)


class AnalysisManager:
    """Lazily computes and caches per-function analyses with invalidation.

    Parameters
    ----------
    enabled:
        ``False`` turns the manager into a pure compute service: every request
        runs the analysis fresh and nothing is stored.  This is the
        ``PassManager(analysis_cache=False)`` escape hatch, reproducing the
        seed pass manager's recompute-everything behaviour for differential
        testing.
    verify:
        Debug mode: recompute each analysis on every cache hit and raise
        :class:`StaleAnalysisError` if the cached result no longer matches.
    """

    def __init__(self, enabled: bool = True, verify: bool = False):
        self.enabled = enabled
        self.verify = verify
        self.stats = AnalysisStats()
        # function -> analysis name -> (cfg_version at computation, result)
        self._cache: dict[Function, dict[str, tuple[int, object]]] = {}
        # (pass identity, function) -> IR epoch at which the pass was a no-op
        self._noop: dict[tuple, int] = {}

    # -- typed request API -------------------------------------------------
    def domtree(self, function: Function) -> DominatorTree:
        return self.get(DOMTREE, function)

    def loop_info(self, function: Function) -> LoopInfo:
        return self.get(LOOPS, function)

    def frontiers(self, function: Function):
        return self.get(FRONTIERS, function)

    def reachable(self, function: Function):
        return self.get(REACHABLE, function)

    # -- core ---------------------------------------------------------------
    def _compute(self, name: str, function: Function):
        if name == DOMTREE:
            return DominatorTree(function)
        if name == LOOPS:
            # Share the managed dominator tree; when disabled this computes a
            # fresh one, exactly like the seed's bare ``LoopInfo(function)``.
            return LoopInfo(function, self.get(DOMTREE, function))
        if name == FRONTIERS:
            return dominance_frontiers(function, self.get(DOMTREE, function))
        if name == REACHABLE:
            return reachable_blocks(function)
        raise KeyError(f"unknown analysis: {name}")

    def get(self, name: str, function: Function):
        """The requested analysis, computed or served from the cache."""
        if not self.enabled:
            self.stats.computed += 1
            return self._compute(name, function)
        entry = self._cache.setdefault(function, {})
        version = function.cfg_version
        cached = entry.get(name)
        if cached is not None:
            cached_version, result = cached
            if cached_version == version:
                if self.verify:
                    self._cross_check(name, function, result)
                self.stats.hits += 1
                return result
            # The CFG moved on without an explicit invalidation: safety net.
            del entry[name]
            self.stats.drifted += 1
        result = self._compute(name, function)
        self.stats.computed += 1
        entry[name] = (version, result)
        return result

    # -- invalidation -------------------------------------------------------
    def invalidate(self, function: Function,
                   preserved: frozenset[str] = PRESERVE_NONE) -> int:
        """Drop this function's analyses except the preserved ones.

        An analysis is retained only if it *and* everything it was derived
        from is preserved.  Returns the number of entries dropped.
        """
        entry = self._cache.get(function)
        if not entry:
            return 0
        dropped = 0
        for name in list(entry):
            keep = name in preserved and _DEPENDENCIES[name] <= preserved
            if not keep:
                del entry[name]
                dropped += 1
        self.stats.invalidated += dropped
        return dropped

    def invalidate_functions(self, functions: Iterable[Function],
                             preserved: frozenset[str] = PRESERVE_NONE) -> int:
        """Precise module-pass invalidation: only the touched functions."""
        return sum(self.invalidate(function, preserved) for function in functions)

    def clear(self) -> None:
        """Drop every cached analysis (new module, new pipeline run)."""
        self._cache.clear()
        self._noop.clear()

    # -- no-op pass-result caching ----------------------------------------
    def noop_epoch(self, key: tuple) -> Optional[int]:
        """The IR epoch at which this (pass, function) proved a no-op."""
        return self._noop.get(key)

    def record_noop(self, key: tuple, epoch: int) -> None:
        self._noop[key] = epoch

    # -- debug cross-check --------------------------------------------------
    def verify_analyses(self, function: Optional[Function] = None) -> None:
        """Recompute every cached analysis and compare with the cache.

        Raises :class:`StaleAnalysisError` on any mismatch — including
        mutations that bypassed the IR mutation APIs and therefore did not
        bump the CFG version.  With no argument, checks every cached function.
        """
        functions = [function] if function is not None else list(self._cache)
        for checked in functions:
            for name, (_, result) in list(self._cache.get(checked, {}).items()):
                self._cross_check(name, checked, result)

    def _cross_check(self, name: str, function: Function, cached) -> None:
        fresh = self._compute(name, function)
        if not _equivalent(name, cached, fresh):
            raise StaleAnalysisError(
                f"cached '{name}' of function '{function.name}' does not match "
                f"a fresh recomputation; a pass mutated the CFG without "
                f"invalidating (or bypassed the IR mutation APIs)")


def _equivalent(name: str, cached, fresh) -> bool:
    """Structural equality of two analysis results of the same kind."""
    if name == DOMTREE:
        return (cached.rpo == fresh.rpo
                and {id(b): id(d) for b, d in cached.idom.items()}
                == {id(b): id(d) for b, d in fresh.idom.items()})
    if name == LOOPS:
        def shape(info: LoopInfo):
            return {
                id(loop.header): (frozenset(id(b) for b in loop.blocks),
                                  frozenset(id(l) for l in loop.latches),
                                  id(loop.parent.header) if loop.parent else None)
                for loop in info.loops()
            }
        return shape(cached) == shape(fresh)
    if name == FRONTIERS:
        def shape(frontiers):
            return {id(b): frozenset(id(f) for f in fs)
                    for b, fs in frontiers.items()}
        return shape(cached) == shape(fresh)
    if name == REACHABLE:
        return cached == fresh
    return False


__all__ = [
    "ALL_ANALYSES", "AnalysisManager", "AnalysisStats", "DOMTREE", "FRONTIERS",
    "LOOPS", "PRESERVE_ALL", "PRESERVE_NONE", "REACHABLE", "StaleAnalysisError",
]
