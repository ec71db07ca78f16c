"""Differential fuzzing: generated MiniC programs vs every oracle the repo has.

The subsystem has four parts, used together by ``python -m repro fuzz``:

* :mod:`~repro.fuzz.genprog` — seeded, typed AST sampler that always yields
  terminating, UB-free MiniC programs with a deterministic printed checksum;
* :mod:`~repro.fuzz.harness` — per-program differential stack across the IR
  interpreter, the pass pipeline, the backend and all three emulators, under
  both paper profiles;
* :mod:`~repro.fuzz.minimize` — delta-debugging AST reducer that shrinks a
  mismatch to a minimal reproducer failing at the same stage;
* :mod:`~repro.fuzz.triage` — stage/fingerprint bucketing plus the ``.repro``
  corpus format replayed by the regression tests;
* :mod:`~repro.fuzz.driver` — campaign orchestration as batched
  :class:`~repro.experiments.engine.ExperimentEngine` jobs.
"""

from .genprog import MODES, GeneratedProgram, generate_program, render_program
from .harness import (
    DEFAULT_PROFILES, STAGES, DifferentialReport, HarnessConfig,
    run_differential,
)
from .minimize import MinimizeResult, minimize_source
from .triage import (
    TriagedFailure, TriageSummary, failure_fingerprint, format_repro,
    load_corpus, parse_repro, triage_failure, write_corpus,
)
from .driver import CampaignSummary, run_campaign

__all__ = [
    "MODES", "GeneratedProgram", "generate_program", "render_program",
    "DEFAULT_PROFILES", "STAGES", "DifferentialReport", "HarnessConfig",
    "run_differential",
    "MinimizeResult", "minimize_source",
    "TriagedFailure", "TriageSummary", "failure_fingerprint", "format_repro",
    "load_corpus", "parse_repro", "triage_failure", "write_corpus",
    "CampaignSummary", "run_campaign",
]
