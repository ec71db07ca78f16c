"""Campaign driver: fan differential-fuzz shards out through the engine.

A campaign is ``--seeds N`` programs: the parent process *generates* them all
(generation is cheap and must stay deterministic), dedupes content-identical
sources (different seeds occasionally collapse to the same tiny program),
shards the survivors into batches of :data:`DEFAULT_SHARD_SIZE`, and submits
the shards through :meth:`ExperimentEngine.map_jobs` — the same process pool,
threshold, timeout/quarantine and serial-fallback machinery the
measurement batches use.

Campaigns are **resumable**: given a journal, every completed shard is
checkpointed to an append-only :class:`~repro.experiments.journal.
CampaignJournal` as it finishes, so a ``SIGINT`` (or a crash, or a deliberate
``stop_after_shards`` budget) loses nothing — ``resume=True`` replays the
journal and submits only the missing shards, and the merged summary matches
an uninterrupted run.  A shard whose worker the engine had to quarantine
comes back as a structured :class:`~repro.experiments.faults.JobFailure`
record on the summary instead of poisoning the campaign.

Failures flow back to the parent, are optionally minimized (serially — real
failures are rare and the reducer wants the whole machine), bucketed by
first-divergent stage via :mod:`repro.fuzz.triage`, and persisted as
replayable ``.repro`` reproducers when a corpus directory is given.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Optional, Sequence

from ..experiments.cache import _source_digest
from ..experiments.engine import ExperimentEngine
from ..experiments.faults import JobFailure, fault_point
from ..experiments.journal import CampaignJournal
from ..experiments.profiles import Profile
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
    #: Shards replayed from the journal instead of re-executed.
    resumed_shards: int = 0
    #: Shards actually executed (and journaled) by this invocation.
    executed_shards: int = 0
    #: True when a KeyboardInterrupt cut the campaign short (resumable).
    interrupted: bool = False
    #: True when a ``stop_after_shards`` budget left shards unsubmitted.
    stopped_early: bool = False
    journal_path: Optional[str] = None

    @property
    def clean(self) -> bool:
        """No divergences *and* no shard the engine had to give up on."""
        return self.failed == 0 and not self.job_failures

    @property
    def complete(self) -> bool:
        """Every shard ran to a verdict (nothing left to resume)."""
        return not self.interrupted and not self.stopped_early

    def as_dict(self) -> dict:
        return {"seeds": self.seeds, "start_seed": self.start_seed,
                "mode": self.mode, "generated": self.generated,
                "unique_programs": self.unique_programs,
                "duplicate_programs": self.duplicate_programs,
                "ok": self.ok, "failed": self.failed, "clean": self.clean,
                "complete": self.complete,
                "minimized": self.minimized,
                "minimize_skipped": self.minimize_skipped,
                "triage": self.triage.as_dict(),
                "corpus_files": list(self.corpus_files),
                "engine_stats": self.engine_stats,
                "job_failures": list(self.job_failures),
                "resumed_shards": self.resumed_shards,
                "executed_shards": self.executed_shards,
                "interrupted": self.interrupted,
                "stopped_early": self.stopped_early,
                "journal_path": self.journal_path}


def _mode_for(mode: str, index: int) -> str:
    if mode == "all":
        return MODES[index % len(MODES)]
    return mode


def _shard(entries: Sequence, size: int) -> list:
    return [tuple(entries[i:i + size]) for i in range(0, len(entries), size)]


def _campaign_fingerprint(seeds: int, start_seed: int, mode: str,
                          shard_size: int, config: HarnessConfig,
                          entries: list) -> dict:
    """Everything that shapes a campaign's work, for journal identity.

    Includes a digest of the generated programs themselves, so a generator
    change (new repro version, new modes) invalidates old journals even when
    the seed range looks identical, and a digest of every package source, so
    a resume after an edit to the compiler or emulator refuses instead of
    mixing verdicts from two versions of the code.
    """
    blob = "\x1e".join(f"{seed}\x1f{prog_mode}\x1f{source}"
                       for seed, prog_mode, source in entries)
    return {
        "kind": "fuzz", "seeds": seeds, "start_seed": start_seed,
        "mode": mode, "shard_size": shard_size,
        "profiles": [p.name if isinstance(p, Profile) else str(p)
                     for p in config.profiles],
        "interp_max_steps": config.interp_max_steps,
        "emulator_max_instructions": config.emulator_max_instructions,
        "verify_each_pass": config.verify_each_pass,
        "programs": hashlib.sha256(blob.encode("utf-8")).hexdigest(),
        "sources": _source_digest(),
    }


def run_campaign(seeds: int, mode: str = "all", start_seed: int = 0,
                 engine: Optional[ExperimentEngine] = None,
                 config: Optional[HarnessConfig] = None,
                 minimize: bool = False,
                 corpus_dir=None,
                 shard_size: int = DEFAULT_SHARD_SIZE,
                 max_minimize: int = DEFAULT_MAX_MINIMIZE,
                 journal=None, resume: bool = False,
                 stop_after_shards: Optional[int] = None) -> CampaignSummary:
    """Run one differential-fuzzing campaign; see the module docstring.

    ``mode`` is a generator mode name or ``"all"`` (round-robin over every
    mode).  ``engine=None`` builds a private engine with the default worker
    count and no disk cache (fuzz results are not measurements; nothing here
    is worth persisting in the measurement cache).

    ``journal`` (a path or :class:`CampaignJournal`) checkpoints every
    completed shard; with ``resume=True`` previously journaled shards are
    replayed instead of re-run (the journal must belong to this exact
    campaign, else :class:`~repro.experiments.journal.JournalMismatch`).
    ``stop_after_shards`` bounds how many shards this invocation submits —
    the journaled remainder is picked up by the next ``resume`` run.  A
    ``KeyboardInterrupt`` mid-campaign is absorbed: the summary comes back
    with ``interrupted=True`` and every already-finished shard intact.
    """
    if mode != "all" and mode not in MODES:
        raise ValueError(f"unknown fuzz mode {mode!r}; "
                         f"choose from {', '.join(MODES)} or 'all'")
    config = config or HarnessConfig()
    summary = CampaignSummary(seeds=seeds, start_seed=start_seed, mode=mode)

    # Generate + dedupe parent-side so every shard works on distinct programs.
    seen_sources: set[str] = set()
    entries: list[tuple[int, str, str]] = []
    sources: dict[int, str] = {}
    for i in range(seeds):
        seed = start_seed + i
        program = generate_program(seed, mode=_mode_for(mode, i))
        summary.generated += 1
        if program.source in seen_sources:
            summary.duplicate_programs += 1
            continue
        seen_sources.add(program.source)
        entries.append((seed, program.mode, program.source))
        sources[seed] = program.source
    summary.unique_programs = len(entries)

    shards = _shard(entries, max(1, shard_size))
    failures: list[tuple[int, str, DifferentialReport]] = []

    def absorb(results) -> None:
        """Fold one shard's (seed, mode, report) triples into the summary."""
        for seed, prog_mode, report in results:
            if report.ok:
                summary.ok += 1
            else:
                summary.failed += 1
                failures.append((seed, prog_mode, report))

    if journal is not None and not isinstance(journal, CampaignJournal):
        journal = CampaignJournal(journal)
    completed: set[int] = set()
    if journal is not None:
        summary.journal_path = str(journal.path)
        fingerprint = _campaign_fingerprint(seeds, start_seed, mode,
                                            shard_size, config, entries)
        for record in journal.open(fingerprint, resume=resume):
            if record.get("type") != "shard" or record.get("shard") in completed:
                continue
            completed.add(record["shard"])
            summary.resumed_shards += 1
            if "failure" in record:
                summary.job_failures.append(record["failure"])
            else:
                absorb((seed, prog_mode, DifferentialReport(**report_dict))
                       for seed, prog_mode, report_dict in record["results"])

    missing = [index for index in range(len(shards)) if index not in completed]
    to_submit = missing if stop_after_shards is None \
        else missing[:max(0, stop_after_shards)]
    summary.stopped_early = len(to_submit) < len(missing)

    own_engine = engine is None
    if own_engine:
        engine = ExperimentEngine(use_disk_cache=False)
    try:
        jobs = [(shards[index], config.as_kwargs()) for index in to_submit]

        def on_result(position: int, outcome) -> None:
            # Journal + absorb each shard the moment it finishes, so an
            # interrupt (or a later crash) never loses completed work.
            index = to_submit[position]
            summary.executed_shards += 1
            if isinstance(outcome, JobFailure):
                record = {"type": "shard", "shard": index,
                          "failure": outcome.as_dict()}
                summary.job_failures.append(outcome.as_dict())
            else:
                record = {"type": "shard", "shard": index,
                          "results": [[seed, prog_mode, report.as_dict()]
                                      for seed, prog_mode, report in outcome]}
                absorb(outcome)
            if journal is not None:
                journal.record(record)

        if jobs:
            try:
                engine.map_jobs(_run_shard, jobs, on_error="report",
                                labels=[f"shard-{index}" for index in to_submit],
                                on_result=on_result)
            except KeyboardInterrupt:
                summary.interrupted = True
    finally:
        if own_engine:
            engine.close()
        if journal is not None:
            journal.close()
    summary.engine_stats = engine.stats.as_dict()

    # Minimize + triage in the parent (failures are rare; the reducer is the
    # expensive part and wants deterministic, serial execution).  Runs on
    # whatever completed, so even an interrupted campaign reports its catch.
    for seed, prog_mode, report in failures:
        source = sources[seed]
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
