"""The benchmark suite: 58 guest programs mirroring the paper's Table 4.

Every benchmark is a MiniC source string registered under the paper's
benchmark name.  Input sizes are reduced (as in the paper, and further, so
pure-Python emulation stays tractable); each program prints a checksum,
pinned where it is registered, so that the harness can verify that every
optimization profile preserves behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional


@dataclass(frozen=True)
class Benchmark:
    """One guest program."""

    name: str
    suite: str
    source: str
    #: What the guest prints: the IR interpreter's output on the unoptimized
    #: module.  Every measurement, under every profile, must reproduce it.
    expected_output: tuple[int, ...]
    description: str = ""
    uses_precompile: bool = False
    args: Optional[tuple[int, ...]] = None
    inputs: Optional[tuple[int, ...]] = None


_REGISTRY: dict[str, Benchmark] = {}


def register(name: str, suite: str, source: str, description: str = "",
             uses_precompile: bool = False,
             args: Optional[list[int]] = None,
             inputs: Optional[list[int]] = None, *,
             expected_output: tuple[int, ...]) -> Benchmark:
    if name in _REGISTRY:
        raise ValueError(f"duplicate benchmark: {name}")
    benchmark = Benchmark(name=name, suite=suite, source=source,
                          expected_output=tuple(expected_output),
                          description=description, uses_precompile=uses_precompile,
                          args=tuple(args) if args else None,
                          inputs=tuple(inputs) if inputs else None)
    _REGISTRY[name] = benchmark
    return benchmark


def get_benchmark(name: str) -> Benchmark:
    _ensure_loaded()
    if name not in _REGISTRY:
        raise KeyError(f"unknown benchmark: {name} (known: {sorted(_REGISTRY)[:5]}...)")
    return _REGISTRY[name]


def all_benchmark_names() -> list[str]:
    _ensure_loaded()
    return sorted(_REGISTRY.keys())


def benchmarks_in_suite(suite: str) -> list[str]:
    _ensure_loaded()
    return sorted(name for name, b in _REGISTRY.items() if b.suite == suite)


def suites() -> list[str]:
    _ensure_loaded()
    return sorted({b.suite for b in _REGISTRY.values()})


_LOADED = False


def _ensure_loaded() -> None:
    global _LOADED
    if _LOADED:
        return
    from . import crypto, misc, npb, polybench, rsp, spec  # noqa: F401
    _LOADED = True


__all__ = ["Benchmark", "register", "get_benchmark", "all_benchmark_names",
           "benchmarks_in_suite", "suites"]
