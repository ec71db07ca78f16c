"""Statistics used by the study: Kendall's tau, Pearson's r, and helpers.

Kendall's tau quantifies the *monotonic* relationship between a cost metric
(dynamic instruction count, paging cycles) and a performance metric; Pearson's
r quantifies the *linear* relationship (Table 2 of the paper).
"""

from __future__ import annotations

import math
from typing import Sequence

from scipy import stats as _scipy_stats


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
    tau, _ = _scipy_stats.kendalltau(list(x), list(y))
    return 0.0 if tau is None or math.isnan(tau) else float(tau)


def pearson_r(x: Sequence[float], y: Sequence[float]) -> float:
    """Pearson correlation coefficient; 0.0 for degenerate inputs."""
    if len(x) != len(y):
        raise ValueError("sequences must have equal length")
    if len(x) < 2 or len(set(x)) < 2 or len(set(y)) < 2:
        return 0.0
    r, _ = _scipy_stats.pearsonr(list(x), list(y))
    return 0.0 if math.isnan(r) else float(r)
