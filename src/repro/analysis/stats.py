"""Statistics used by the study: Kendall's tau, Pearson's r, and helpers.

Kendall's tau quantifies the *monotonic* relationship between a cost metric
(dynamic instruction count, paging cycles) and a performance metric; Pearson's
r quantifies the *linear* relationship (Table 2 of the paper).

Both correlations come from scipy, imported inside the two functions rather
than at module top. Only Table 2 computes them, but every process that
imports ``repro.experiments`` imports this module for :func:`mean`: each CLI
command, figure, autotune run and fuzz campaign. On a 2-vCPU host a top-level
import cost each of them over a second of start-up and about 80 MB of memory,
and it starts OpenBLAS's threads before the experiment engine forks its worker
pool; forking is only safe from a single-threaded process.
"""

from __future__ import annotations

import math
from typing import Sequence


def mean(values: Sequence[float]) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def stddev(values: Sequence[float]) -> float:
    values = list(values)
    if len(values) < 2:
        return 0.0
    m = mean(values)
    return math.sqrt(sum((v - m) ** 2 for v in values) / (len(values) - 1))


def kendall_tau(x: Sequence[float], y: Sequence[float]) -> float:
    """Kendall's tau-b rank correlation; 0.0 for degenerate inputs."""
    if len(x) != len(y):
        raise ValueError("sequences must have equal length")
    if len(x) < 2 or len(set(x)) < 2 or len(set(y)) < 2:
        return 0.0
    from scipy import stats as scipy_stats

    tau, _ = scipy_stats.kendalltau(list(x), list(y))
    return 0.0 if tau is None or math.isnan(tau) else float(tau)


def pearson_r(x: Sequence[float], y: Sequence[float]) -> float:
    """Pearson correlation coefficient; 0.0 for degenerate inputs."""
    if len(x) != len(y):
        raise ValueError("sequences must have equal length")
    if len(x) < 2 or len(set(x)) < 2 or len(set(y)) < 2:
        return 0.0
    from scipy import stats as scipy_stats

    r, _ = scipy_stats.pearsonr(list(x), list(y))
    return 0.0 if math.isnan(r) else float(r)
