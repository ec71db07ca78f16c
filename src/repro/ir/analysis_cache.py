"""Process-wide switch for the IR-level CFG-metadata caches.

The pass pipeline's analysis caching has two tiers: per-function analyses
(dominators, loops, ...) managed by :class:`repro.passes.analysis.AnalysisManager`,
and the CFG metadata (predecessor maps) cached directly on
:class:`~repro.ir.function.Function` and validated against its CFG version.
The second tier is always coherent — every mutation of the block graph bumps
the version — but the ``PassManager(analysis_cache=False)`` pipeline is the
oracle for *both* tiers: the fuzz harness and the pipeline differential
suite compare the cached pipeline's output against it, so it must share
neither cache.  :func:`cfg_cache_disabled` turns the second tier off for a
scope so that fresh pipeline recomputes every predecessor query from scratch.
"""

from __future__ import annotations

from contextlib import contextmanager

_ENABLED = True


def cfg_cache_enabled() -> bool:
    """Whether CFG-metadata queries may be answered from per-function caches."""
    return _ENABLED


@contextmanager
def cfg_cache_disabled():
    """Recompute every CFG-metadata query from scratch within the scope.

    Re-entrant; restores the previous state on exit.  Used by
    ``PassManager(analysis_cache=False)`` so the fresh pipeline, the oracle
    for both cache tiers, trusts no cached CFG metadata.
    """
    global _ENABLED
    previous = _ENABLED
    _ENABLED = False
    try:
        yield
    finally:
        _ENABLED = previous
