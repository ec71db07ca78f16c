"""The per-function analysis manager of the pass pipeline.

Rebuilding :class:`~repro.ir.dominators.DominatorTree`,
:class:`~repro.ir.loops.LoopInfo` and the other CFG-derived analyses from
scratch inside every pass, on every ``run_on_function`` call, is the
compile-time problem LLVM's AnalysisManager solves.  This module provides the
equivalent: passes *request* analyses from an :class:`AnalysisManager`, which
computes them lazily and caches them per function.

One rule decides reuse.  Every managed analysis is a pure function of the
block graph, and every block-graph mutation bumps the owning function's
:attr:`~repro.ir.function.Function.cfg_version`.  A cached result records the
version it was computed at and is served exactly when the function is still
at that version; otherwise :meth:`AnalysisManager.get` recomputes it
(``stats.drifted``).  No pass declares what it preserves and nothing is
dropped explicitly.  A pass that only rewrites instructions leaves the
version unchanged, so every cached analysis stays servable; an analysis a
pass computed after its own CFG change is served to the next pass as is.
The rule holds as long as mutations go through the IR's mutation APIs.

``verify=True`` (debug mode) additionally recomputes every analysis on each
cache hit and cross-checks it against the cached result, catching mutations
that bypassed the IR mutation APIs entirely; see :meth:`verify_analyses`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..ir import (
    DominatorTree, Function, LoopInfo, dominance_frontiers, reachable_blocks,
)

# Analysis names.
DOMTREE = "domtree"
LOOPS = "loops"
FRONTIERS = "frontiers"
REACHABLE = "reachable"


class StaleAnalysisError(RuntimeError):
    """A cached analysis no longer matches the IR it claims to describe.

    Raised only by the debug-mode cross-check (``verify=True`` or an explicit
    :meth:`AnalysisManager.verify_analyses` call); in production mode a
    request recomputes an analysis whose CFG version has moved instead.
    """


@dataclass
class AnalysisStats:
    """Counters describing where analysis requests were answered from."""

    #: Requests answered from the cache.
    hits: int = 0
    #: Requests that ran the underlying analysis.
    computed: int = 0
    #: Requests that found a cached entry from an older CFG version.
    drifted: int = 0
    #: Function-pass invocations skipped because the pass already proved
    #: itself a no-op on the identical IR epoch.
    skipped: int = 0

    def snapshot(self) -> "AnalysisStats":
        return AnalysisStats(self.hits, self.computed, self.drifted,
                             self.skipped)

    def delta(self, since: "AnalysisStats") -> "AnalysisStats":
        return AnalysisStats(self.hits - since.hits,
                             self.computed - since.computed,
                             self.drifted - since.drifted,
                             self.skipped - since.skipped)


class AnalysisManager:
    """Lazily computes and caches per-function analyses by CFG version.

    Parameters
    ----------
    enabled:
        ``False`` turns the manager into a pure compute service: every request
        runs the analysis fresh and nothing is stored.  This is the
        ``PassManager(analysis_cache=False)`` fresh pipeline, the oracle the
        cached pipeline is differentially tested against.
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
            self.stats.drifted += 1
        result = self._compute(name, function)
        self.stats.computed += 1
        entry[name] = (version, result)
        return result

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
        """Recompute every servable cached analysis and compare.

        Checks the entries :meth:`get` would serve, those at the function's
        current CFG version, and raises :class:`StaleAnalysisError` on any
        mismatch: a mutation that bypassed the IR mutation APIs and so did
        not bump the version.  With no argument, checks every cached
        function.
        """
        functions = [function] if function is not None else list(self._cache)
        for checked in functions:
            version = checked.cfg_version
            for name, (cached_version, result) in \
                    list(self._cache.get(checked, {}).items()):
                if cached_version == version:
                    self._cross_check(name, checked, result)

    def _cross_check(self, name: str, function: Function, cached) -> None:
        # The fresh side runs on a disabled manager, so it shares nothing
        # with this cache: not the dominator tree a loop forest is built on,
        # and not the stats.
        fresh = AnalysisManager(enabled=False)._compute(name, function)
        if not _equivalent(name, cached, fresh):
            raise StaleAnalysisError(
                f"cached '{name}' of function '{function.name}' does not match "
                f"a fresh recomputation; a pass mutated the CFG without "
                f"bumping its version (bypassed the IR mutation APIs)")


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
    "AnalysisManager", "AnalysisStats", "DOMTREE", "FRONTIERS", "LOOPS",
    "REACHABLE", "StaleAnalysisError",
]
