"""Campaign driver: fan differential-fuzz shards out through the engine.

A campaign is ``--seeds N`` programs: the parent process *generates* them all
(generation is cheap and must stay deterministic), dedupes content-identical
sources (different seeds occasionally collapse to the same tiny program),
shards the survivors into batches of :data:`DEFAULT_SHARD_SIZE`, and submits
the shards through :meth:`ExperimentEngine.map_jobs` — the same process pool,
threshold, timeout/quarantine and serial-fallback machinery the
measurement batches use.

A verdict is a pure function of the program, the harness configuration and
the code, so it lives in the engine's measurement cache like a measurement:
one entry per distinct program, keyed by :func:`_verdict_key`.  A campaign
answers every stored program before it shards, and stores each shard's
verdicts the moment the shard finishes.  Rerunning the same campaign, after
a ``Ctrl-C`` or with a larger ``--seeds``, therefore computes only what is
missing, and any source edit recomputes everything.  A shard whose worker
the engine had to quarantine comes back as a structured
:class:`~repro.experiments.faults.JobFailure` record on the summary instead
of poisoning the campaign, and is never stored.

Failures flow back to the parent, are optionally minimized (serially — real
failures are rare and the reducer wants the whole machine), bucketed by
first-divergent stage via :mod:`repro.fuzz.triage`, and persisted as
replayable ``.repro`` reproducers when a corpus directory is given.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Optional, Sequence

from ..experiments.cache import _environment_blob
from ..experiments.engine import ExperimentEngine
from ..experiments.faults import JobFailure, fault_point
from .genprog import MODES, generate_program
from .harness import DifferentialReport, HarnessConfig, run_differential
from .minimize import minimize_source
from .triage import TriageSummary, triage_failure, write_corpus

#: Programs per engine job; big enough to amortize pool dispatch, small
#: enough that a campaign keeps every worker busy — and that an interrupted
#: campaign loses at most one shard of progress per worker.
DEFAULT_SHARD_SIZE = 16

#: Ceiling on minimizations per campaign (each costs hundreds of harness runs).
DEFAULT_MAX_MINIMIZE = 25


def _run_shard(job) -> list:
    """Pool worker entry point: run one shard of programs through the harness.

    ``job`` is ``(entries, config_kwargs)`` with ``entries`` a tuple of
    ``(seed, mode, source)`` triples; returns ``(seed, mode, report)`` per
    entry.  Everything crossing the process boundary is picklable.
    """
    entries, config_kwargs = job
    fault_point("fuzz-shard", str(entries[0][0]))
    config = HarnessConfig(**config_kwargs)
    return [(seed, mode, run_differential(source, config))
            for seed, mode, source in entries]


def _verdict_key(source: str, config_kwargs: dict) -> str:
    """Cache key of one program's verdict.

    Hashes the environment every measurement key hashes (cache schema, cost
    models, CPU model and every package source), the program's source and
    the harness configuration (profiles, both budgets, ``verify_each_pass``).
    """
    blob = "\x1e".join([_environment_blob(), "fuzz-verdict", source,
                        json.dumps(config_kwargs, sort_keys=True,
                                   default=repr)])
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@dataclass
class CampaignSummary:
    """Machine-readable result of one fuzzing campaign."""

    seeds: int
    start_seed: int
    mode: str
    generated: int = 0
    #: Distinct sources actually fuzzed (after content dedupe).
    unique_programs: int = 0
    duplicate_programs: int = 0
    ok: int = 0
    failed: int = 0
    minimized: int = 0
    #: Failures skipped by the per-campaign minimization ceiling.
    minimize_skipped: int = 0
    triage: TriageSummary = field(default_factory=TriageSummary)
    corpus_files: list = field(default_factory=list)
    engine_stats: Optional[dict] = None
    #: Shards the engine gave up on (quarantined/exhausted), as dicts.
    job_failures: list = field(default_factory=list)
    #: True when a KeyboardInterrupt cut the campaign short.
    interrupted: bool = False

    @property
    def clean(self) -> bool:
        """No divergences *and* no shard the engine had to give up on."""
        return self.failed == 0 and not self.job_failures

    def as_dict(self) -> dict:
        return {"seeds": self.seeds, "start_seed": self.start_seed,
                "mode": self.mode, "generated": self.generated,
                "unique_programs": self.unique_programs,
                "duplicate_programs": self.duplicate_programs,
                "ok": self.ok, "failed": self.failed, "clean": self.clean,
                "minimized": self.minimized,
                "minimize_skipped": self.minimize_skipped,
                "triage": self.triage.as_dict(),
                "corpus_files": list(self.corpus_files),
                "engine_stats": self.engine_stats,
                "job_failures": list(self.job_failures),
                "interrupted": self.interrupted,
                # Always None: e2ebench's fuzz workload pops this key.
                "journal_path": None}


def _mode_for(mode: str, index: int) -> str:
    if mode == "all":
        return MODES[index % len(MODES)]
    return mode


def _shard(entries: Sequence, size: int) -> list:
    return [tuple(entries[i:i + size]) for i in range(0, len(entries), size)]


def run_campaign(seeds: int, mode: str = "all", start_seed: int = 0,
                 engine: Optional[ExperimentEngine] = None,
                 config: Optional[HarnessConfig] = None,
                 minimize: bool = False,
                 corpus_dir=None,
                 shard_size: int = DEFAULT_SHARD_SIZE,
                 max_minimize: int = DEFAULT_MAX_MINIMIZE) -> CampaignSummary:
    """Run one differential-fuzzing campaign; see the module docstring.

    ``mode`` is a generator mode name or ``"all"`` (round-robin over every
    mode).  Verdicts are read from and stored in ``engine.cache``;
    ``engine=None`` builds a private engine with the default worker count
    and no disk cache, so nothing is stored.  A ``KeyboardInterrupt``
    mid-campaign is absorbed: the summary comes back with
    ``interrupted=True`` and every verdict that finished.
    """
    if mode != "all" and mode not in MODES:
        raise ValueError(f"unknown fuzz mode {mode!r}; "
                         f"choose from {', '.join(MODES)} or 'all'")
    config = config or HarnessConfig()
    config_kwargs = config.as_kwargs()
    summary = CampaignSummary(seeds=seeds, start_seed=start_seed, mode=mode)

    # Generate + dedupe parent-side so every shard works on distinct programs.
    seen_sources: set[str] = set()
    entries: list[tuple[int, str, str]] = []
    for i in range(seeds):
        seed = start_seed + i
        program = generate_program(seed, mode=_mode_for(mode, i))
        summary.generated += 1
        if program.source in seen_sources:
            summary.duplicate_programs += 1
            continue
        seen_sources.add(program.source)
        entries.append((seed, program.mode, program.source))
    summary.unique_programs = len(entries)

    own_engine = engine is None
    if own_engine:
        engine = ExperimentEngine(use_disk_cache=False)
    cache = engine.cache
    keys: dict[int, str] = {}
    verdicts: dict[int, DifferentialReport] = {}
    missing = []
    for entry in entries:
        seed, _, source = entry
        if cache is not None:
            keys[seed] = _verdict_key(source, config_kwargs)
            report = cache.get(keys[seed])
            if report is not None:
                engine.stats.disk_hits += 1
                verdicts[seed] = report
                continue
        missing.append(entry)
    shards = _shard(missing, max(1, shard_size))

    def on_result(index: int, outcome) -> None:
        # Store each shard's verdicts the moment it finishes, so an
        # interrupt never loses completed work.  A JobFailure is not a
        # verdict: its programs stay missing and a rerun computes them.
        if isinstance(outcome, JobFailure):
            summary.job_failures.append(outcome.as_dict())
            return
        for seed, _, report in outcome:
            verdicts[seed] = report
            if cache is not None:
                cache.put(keys[seed], report)

    try:
        if shards:
            engine.map_jobs(_run_shard,
                            [(shard, config_kwargs) for shard in shards],
                            on_error="report",
                            labels=[f"shard-{i}" for i in range(len(shards))],
                            on_result=on_result)
    except KeyboardInterrupt:
        summary.interrupted = True
    finally:
        if own_engine:
            engine.close()
    summary.engine_stats = engine.stats.as_dict()

    # Fold verdicts in program order, whichever shard finished first.
    failures: list[tuple[int, str, str, DifferentialReport]] = []
    for seed, prog_mode, source in entries:
        report = verdicts.get(seed)
        if report is None:
            continue
        if report.ok:
            summary.ok += 1
        else:
            summary.failed += 1
            failures.append((seed, prog_mode, source, report))

    # Minimize + triage in the parent (failures are rare; the reducer is the
    # expensive part and wants deterministic, serial execution).  Runs on
    # whatever completed, so even an interrupted campaign reports its catch.
    for seed, prog_mode, source, report in failures:
        if minimize:
            if summary.minimized < max_minimize:
                reduced = minimize_source(source, report, config)
                source, report = reduced.source, reduced.report
                summary.minimized += 1
            else:
                summary.minimize_skipped += 1
        summary.triage.add(triage_failure(source, report,
                                          seed=seed, mode=prog_mode))

    if corpus_dir is not None and summary.triage.unique_failures:
        all_failures = [f for bucket in summary.triage.buckets.values()
                        for f in bucket]
        summary.corpus_files = write_corpus(all_failures, corpus_dir)
    return summary
