"""The experiment harness: profiles, the measurement runner, the parallel
disk-cached experiment engine, and one regenerator per paper table and figure
(see DESIGN.md for the index).

Use :class:`BenchmarkRunner` for small serial studies and
:class:`ExperimentEngine` (or ``python -m repro``) when you want the
benchmark × profile matrix sharded across worker processes and persisted to
the content-addressed measurement cache.
"""

from .profiles import (
    Profile, all_study_profiles, baseline_profile, custom_profile,
    individual_pass_profiles, level_profiles, pass_profiles, profile_by_name,
    zkvm_aware_profile,
)
from .runner import BenchmarkRunner, Measurement, percent_change, warm_matrix
from .cache import CacheStats, MeasurementCache, measurement_fingerprint
from .engine import EngineStats, ExperimentEngine
from .faults import (
    FaultPlan, FaultSpec, JobFailure, PoisonJobError, RetryPolicy,
    TransientError, classify_error, fault_point,
)
from .journal import (
    CampaignJournal, JournalMismatch, default_journal_dir,
    resolve_journal_path,
)
from . import figures, tables

__all__ = [
    "Profile", "all_study_profiles", "baseline_profile", "custom_profile",
    "individual_pass_profiles", "level_profiles", "profile_by_name",
    "pass_profiles", "zkvm_aware_profile",
    "BenchmarkRunner", "Measurement", "percent_change", "warm_matrix",
    "CacheStats", "MeasurementCache", "measurement_fingerprint",
    "EngineStats", "ExperimentEngine",
    "FaultPlan", "FaultSpec", "JobFailure", "PoisonJobError", "RetryPolicy",
    "TransientError", "classify_error", "fault_point",
    "CampaignJournal", "JournalMismatch", "default_journal_dir",
    "resolve_journal_path",
    "figures", "tables",
]
