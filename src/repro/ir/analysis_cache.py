"""Process-wide switch for the IR-level CFG-metadata caches.

The pass pipeline's analysis caching has two tiers: per-function analyses
(dominators, loops, ...) managed by :class:`repro.passes.analysis.AnalysisManager`,
and the CFG metadata (predecessor maps) cached directly on
:class:`~repro.ir.function.Function` and validated against its CFG version.
The second tier is always coherent — every mutation of the block graph bumps
the version — but the ``PassManager(analysis_cache=False)`` escape hatch must
reproduce the seed pass manager exactly, which recomputed every predecessor
query from scratch.  :func:`cfg_cache_disabled` turns the second tier off for a scope so
the fresh/differential path pays the same recomputation the seed did.
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
    ``PassManager(analysis_cache=False)`` so the escape-hatch pipeline matches
    the seed pass manager's recompute-everything behaviour.
    """
    global _ENABLED
    previous = _ENABLED
    _ENABLED = False
    try:
        yield
    finally:
        _ENABLED = previous
