"""Cross-engine helpers for guest-execution tests.

The repo has four ways to execute one guest program — the readable
reference interpreter, the decoded fast interpreter, the superblock
translator and the fast interpreter's timed loop (a ``CpuTimingModel``
attached, its rules fused into the dispatch) — and every differential
battery wants to run against all of them.  This module gives them one
uniform surface:

* :func:`run_engine` constructs the right machine for an engine name,
  runs it, and captures the outcome as an :class:`EngineRun` — stats
  (paging events included), output, memory, any fault and, for timed
  engines, the ``CpuMetrics`` (partial ones when the guest faulted).
* :func:`assert_runs_identical` is the shared "this engine matched the
  reference" check.  The reference always drives the observer
  ``CpuTimingModel``, the oracle for the timed engine's metrics.

Adding a new engine here (one ``ENGINES`` entry) makes it inherit the
whole differential battery in ``test_emulator_differential.py`` and the
translated property suite.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.cpu import CpuTimingModel
from repro.emulator import (
    EmulationError,
    Machine,
    ReferenceMachine,
    TranslatedMachine,
)

#: Every guest-execution engine, reference first.
ENGINES = {
    "reference": ReferenceMachine,
    "fast": Machine,
    "translated": TranslatedMachine,
    "timed": Machine,
}

#: Engines that run with a fresh ``CpuTimingModel`` attached.
TIMED_ENGINES = frozenset({"reference", "timed"})

#: The engines differential tests compare *against* the reference.
DIFF_ENGINE_NAMES = tuple(name for name in ENGINES if name != "reference")


class EngineRun:
    """Outcome of running one program on one engine.

    ``error`` is the :class:`EmulationError` the run faulted with, or
    None for a clean halt; ``stats`` is the (possibly partial, on a
    fault) folded :class:`TraceStats` either way, and so is ``cpu``, the
    ``CpuMetrics`` of a timed engine (None for the others).
    """

    def __init__(self, engine: str, machine, error: Optional[BaseException]):
        self.engine = engine
        self.machine = machine
        self.stats = machine.stats
        self.output = list(machine.output)
        self.error = error
        self.cpu = (machine.observers[0].finalize() if machine.observers
                    else None)


def run_engine(engine: str, program, entry: str = "main",
               args: Optional[Sequence[int]] = None, *,
               input_values: Optional[Sequence[int]] = None,
               segment_size: int = 1 << 16,
               max_instructions: int = 50_000_000) -> EngineRun:
    """Run ``program`` on the named engine, capturing faults instead of raising."""
    observers = [CpuTimingModel()] if engine in TIMED_ENGINES else []
    machine = ENGINES[engine](
        program, max_instructions=max_instructions, observers=observers,
        segment_size=segment_size,
        input_values=list(input_values) if input_values is not None else None)
    error = None
    try:
        machine.run(entry, args)
    except EmulationError as exc:
        error = exc
    return EngineRun(engine, machine, error)


def assert_runs_identical(run: EngineRun, reference: EngineRun,
                          context: str = "") -> None:
    """Assert ``run`` is observationally identical to the ``reference`` run."""
    where = f" [{context}]" if context else ""
    assert (run.error is None) == (reference.error is None), (
        f"{run.engine} fault behavior diverged from {reference.engine}{where}: "
        f"{run.error!r} vs {reference.error!r}")
    if run.error is not None:
        assert str(run.error) == str(reference.error), (
            f"{run.engine} fault message diverged{where}")
    assert run.stats.page_in_events == reference.stats.page_in_events, (
        f"{run.engine} page-in events diverged{where}")
    assert run.stats.page_out_events == reference.stats.page_out_events, (
        f"{run.engine} page-out events diverged{where}")
    assert run.stats == reference.stats, (
        f"{run.engine} TraceStats diverged from {reference.engine}{where}")
    assert run.output == reference.output, (
        f"{run.engine} output diverged{where}")
    assert run.machine.memory == reference.machine.memory, (
        f"{run.engine} final memory diverged{where}")
    if run.cpu is not None:
        assert run.cpu == reference.cpu, (
            f"{run.engine} CpuMetrics diverged from {reference.engine}{where}: "
            f"{run.cpu} vs {reference.cpu}")
