"""Append-only campaign journals: checkpoint/resume for fuzz campaigns.

A journal is a JSONL file under ``<cache root>/journals/``: the first line is
a header naming the campaign it belongs to (a *fingerprint* dict of every
parameter that shapes the campaign's work), and every subsequent line is one
completed unit of work, a fuzzing shard.  Records are flushed and fsynced as
they are written, so a ``SIGINT``, an OOM kill or a pulled plug loses at most
the record being written; ``--resume`` replays the journal and re-submits
only the missing work.  Fuzz verdicts are not measurements, so nothing else
keeps them; an autotune search resumes from the measurement cache instead.

Two guarantees make resumption safe:

* **Identity** — :meth:`CampaignJournal.open` refuses to resume a journal
  whose header fingerprint differs from the requested campaign (changed
  seeds, modes, profiles, generator output, package sources...), so stale
  journals can never silently splice foreign results into a run.
* **Torn tails** — a record interrupted mid-write (truncated last line) is
  skipped on load instead of poisoning the parse; its shard simply re-runs.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Optional

from .cache import default_cache_dir

#: Bump when the journal line format changes (old journals then refuse to
#: resume via the header mismatch path instead of misparsing).
JOURNAL_VERSION = 1


class JournalMismatch(RuntimeError):
    """``--resume`` pointed at a journal from a different campaign."""


def default_journal_dir(cache_dir=None) -> Path:
    """Where named journals live: ``<cache root>/journals``."""
    root = Path(cache_dir) if cache_dir is not None else default_cache_dir()
    return root / "journals"


def resolve_journal_path(name_or_path, cache_dir=None) -> Path:
    """A journal CLI argument: an explicit path, or a name under the root.

    Anything containing a path separator (or ending in ``.jsonl``) is taken
    literally; a bare name lands in :func:`default_journal_dir`.
    """
    text = str(name_or_path)
    if os.sep in text or "/" in text or text.endswith(".jsonl"):
        return Path(text)
    return default_journal_dir(cache_dir) / f"{text}.jsonl"


class CampaignJournal:
    """One campaign's append-only JSONL checkpoint file."""

    def __init__(self, path):
        self.path = Path(path)
        self._handle = None

    # -- lifecycle -------------------------------------------------------------
    def open(self, fingerprint: dict, resume: bool = False) -> list:
        """Begin (or resume) a campaign; returns previously recorded entries.

        * fresh run (``resume=False``): any existing journal is discarded and
          a new one started — an empty list comes back;
        * ``resume=True``: the existing journal's header must match
          ``fingerprint`` (else :class:`JournalMismatch`); its entries are
          returned and later :meth:`record` calls append to the same file.
        """
        entries: list = []
        if self.path.exists():
            header, recorded = self._read()
            matches = (header is not None
                       and header.get("campaign") == fingerprint
                       and header.get("version") == JOURNAL_VERSION)
            if resume:
                if not matches:
                    raise JournalMismatch(
                        f"journal {self.path} does not belong to this "
                        f"campaign (different parameters or journal "
                        f"version); delete it or drop --resume")
                entries = recorded
            else:
                self.path.unlink()
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._handle = open(self.path, "a", encoding="utf-8")
        if not entries and self._handle.tell() == 0:
            self._append({"type": "header", "version": JOURNAL_VERSION,
                          "campaign": fingerprint})
        return entries

    def record(self, entry: dict) -> None:
        """Append one completed unit of work; flushed and fsynced."""
        if self._handle is None:
            raise RuntimeError("journal not opened; call open() first")
        self._append(entry)

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "CampaignJournal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- internals -------------------------------------------------------------
    def _append(self, entry: dict) -> None:
        self._handle.write(json.dumps(entry, sort_keys=True) + "\n")
        self._handle.flush()
        os.fsync(self._handle.fileno())

    def _read(self):
        """Parse the file into (header, entries), skipping torn lines."""
        header = None
        entries = []
        with open(self.path, "r", encoding="utf-8") as handle:
            for line in handle:
                try:
                    record = json.loads(line)
                except ValueError:
                    continue  # torn tail from an interrupted write
                if record.get("type") == "header":
                    header = record
                else:
                    entries.append(record)
        return header, entries


__all__ = ["CampaignJournal", "JOURNAL_VERSION", "JournalMismatch",
           "default_journal_dir", "resolve_journal_path"]
