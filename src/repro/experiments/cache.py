"""Content-addressed on-disk cache for benchmark measurements.

A :class:`~repro.experiments.runner.Measurement` is a pure function of

* the benchmark's source text (plus its declared args/inputs/expected output),
* the optimization profile's pass list, :class:`~repro.passes.PassConfig`
  knobs and backend :class:`~repro.backend.cost_model.TargetCostModel`,
* the analytic cost models (RISC Zero, SP1, the x86 CPU model) together with
  the emulator's instruction budget, and
* the code that computes it: every ``.py`` source of the ``repro`` package.

:func:`measurement_fingerprint` hashes exactly those ingredients, so the cache
key is independent of the profile's *name*: an autotuner candidate that
rediscovers the ``-O2`` pass list hits the cache entry the level sweep already
paid for, while any change to a threshold, a model parameter or a benchmark
source invalidates only the affected entries, and any edit to the compiler,
emulator or models invalidates them all.

Entries are pickled ``(schema_version, Measurement)`` envelopes stored under
``<root>/<2-hex-shard>/<sha256>.pkl``.  Writes are atomic (temp file +
``os.replace``) so concurrent engines sharing one cache directory never
observe torn entries; corrupt, truncated, unreadable or wrong-schema entries
are treated as misses, counted on ``stats.errors`` and evicted, so a damaged
cache always degrades to recomputation instead of failing runs
(``repro cache verify`` runs that eviction as a batch scan).  The
differential fuzzer's verdicts share the store, one entry per distinct
program (:mod:`repro.fuzz.driver`).

:func:`module_key` and :func:`program_key` key the runner's in-process
memos one step later: on the optimized module and on the compiled program,
so recipes that produce the same code are measured once.  They never key
the disk cache.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import tempfile
from dataclasses import asdict, dataclass, field
from functools import lru_cache
from pathlib import Path
from typing import TYPE_CHECKING, Optional

from ..backend.isa import Label
from ..cpu import DEFAULT_CPU
from ..ir.instructions import (
    GEP, Alloca, BinaryOp, Branch, Call, Cast, CondBranch, ICmp, Load, Phi,
    Ret, Select, Store, Unreachable,
)
from ..ir.values import Constant, GlobalVariable, UndefValue
from ..zkvm.models import COST_MODEL_VERSION, ZKVMS
from .faults import fault_point

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from ..backend import AssemblyProgram, TargetCostModel
    from ..benchmarks import Benchmark
    from ..ir import Function, Module
    from .profiles import Profile
    from .runner import Measurement

#: Bump when the on-disk entry format (or Measurement's shape) changes.
#: Version 2 wraps every entry in a ``(schema, measurement)`` envelope so a
#: reader can reject entries written by an incompatible format instead of
#: unpickling them blind.  Version 3 adds ``Measurement.code_bytes`` (the
#: byte-accurate RV32/RVC code-size pair).  Version 4 moves the paging events
#: onto ``TraceStats``, drops its per-page access histogram and drops
#: ``ZkvmMetrics.detail``.
CACHE_SCHEMA_VERSION = 4


def default_cache_dir() -> Path:
    """The cache root: ``$REPRO_CACHE_DIR`` or ``~/.cache/repro/measurements``."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro" / "measurements"


#: Root of the ``repro`` package, whose sources :func:`_source_digest` hashes.
_PACKAGE_ROOT = Path(__file__).resolve().parent.parent


def _source_digest() -> str:
    """sha256 over every ``.py`` file of the ``repro`` package, path-sorted.

    Folded into every fingerprint, so a cached measurement never outlives
    the compiler, emulator or cost-model code that produced it.
    """
    digest = hashlib.sha256()
    for path in sorted(_PACKAGE_ROOT.rglob("*.py")):
        digest.update(path.relative_to(_PACKAGE_ROOT).as_posix().encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


@lru_cache(maxsize=1)
def _environment_blob() -> str:
    """Serialized code and cost-model environment (constant per process)."""
    return json.dumps({
        "schema": CACHE_SCHEMA_VERSION,
        "cost_model_version": COST_MODEL_VERSION,
        "zkvms": {name: repr(model) for name, model in sorted(ZKVMS.items())},
        "cpu": repr(DEFAULT_CPU),
        "sources": _source_digest(),
    }, sort_keys=True)


@lru_cache(maxsize=None)
def _benchmark_blob(benchmark: "Benchmark") -> str:
    """Serialized benchmark identity (registry entries are immutable)."""
    return json.dumps({
        "source": benchmark.source,
        "args": benchmark.args,
        "inputs": benchmark.inputs,
        "expected_output": benchmark.expected_output,
    }, sort_keys=True)


def profile_recipe(profile: "Profile") -> dict:
    """The profile ingredients that shape generated code (name excluded).

    The recipe half of :func:`measurement_fingerprint`: a new code-shaping
    ``Profile`` field belongs here, so it changes the fingerprint.
    """
    return {
        "passes": profile.passes,
        "config": asdict(profile.config),
        "cost_model": asdict(profile.cost_model),
    }


def measurement_fingerprint(benchmark: "Benchmark", profile: "Profile",
                            max_instructions: int,
                            translate: bool = False) -> str:
    """Content hash identifying one measurement.

    Every ingredient that can change the resulting numbers is included; the
    profile's display name deliberately is *not*, so identically configured
    profiles share one entry.  The environment and benchmark components are
    memoized — per call only the (small) profile recipe is serialized — so
    cache probes stay cheap on regenerator hot paths.
    """
    recipe = {**profile_recipe(profile), "max_instructions": max_instructions}
    if translate:
        # Translated measurements carry no CPU-model metrics (timing a run
        # takes the interpreter's timed loop, which superblocks skip), so
        # they must not share cache entries with interpreter measurements.
        # Keyed only when set so existing cache entries stay valid.
        recipe["engine"] = "translated"
    profile_blob = json.dumps(recipe, sort_keys=True, default=repr)
    blob = "\x1e".join([_environment_blob(), _benchmark_blob(benchmark),
                        profile_blob])
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


#: Per instruction class, the fields fixed at construction beyond the
#: opcode, as one string (block operands go through ``ref``).  A class
#: missing here fails :func:`module_key` loudly instead of hashing partly.
_FIXED_FIELDS = {
    BinaryOp: lambda inst, ref: "",
    ICmp: lambda inst, ref: inst.predicate,
    Select: lambda inst, ref: "",
    Alloca: lambda inst, ref: f"{inst.allocated_type} x {inst.count}",
    Load: lambda inst, ref: str(inst.loaded_type),
    Store: lambda inst, ref: "",
    GEP: lambda inst, ref: str(inst.element_size),
    Branch: lambda inst, ref: ref(inst.target),
    CondBranch: lambda inst, ref: f"{ref(inst.true_target)} "
                                  f"{ref(inst.false_target)}",
    Ret: lambda inst, ref: "",
    Unreachable: lambda inst, ref: "",
    Call: lambda inst, ref: "@" + inst.callee,
    Phi: lambda inst, ref: " ".join(map(ref, inst.incoming_blocks)),
    Cast: lambda inst, ref: "",
}


def _function_text(function: "Function") -> str:
    """Everything of ``function`` the backend reads, one line per item.

    Arguments, blocks and instructions are numbered in order of first
    appearance (``%n``), so a reference names one value whatever the
    names say; a constant carries its type (the lowering reads a ``sext``
    source's width), a global its name.
    """
    local: dict = {}

    def ref(value) -> str:
        text = local.get(value)
        if text is None:
            if isinstance(value, Constant):
                return f"i{value.type.bits}:{value.value}"
            if isinstance(value, GlobalVariable):
                return "@" + value.name
            if isinstance(value, UndefValue):
                return f"undef:{value.type}"
            text = local[value] = f"%{len(local)}"
        return text

    arguments = " ".join(f"{ref(a)}:{a.type}:{a.name}" for a in function.arguments)
    lines = [f"define {function.return_type} @{function.name}({arguments}) "
             f"{sorted(function.attributes)} {function.is_declaration}"]
    for block in function.blocks:
        lines.append(f"{ref(block)}:{block.name}")
        for inst in block.instructions:
            cls = type(inst)
            lines.append(
                f"  {ref(inst)} {cls.__name__} {inst.name} {inst.type} "
                f"{inst.opcode} {_FIXED_FIELDS[cls](inst, ref)} | "
                f"{' '.join(map(ref, inst._operands))}")
    lines.append("")
    return "\n".join(lines)


def module_key(module: "Module", cost_model: "TargetCostModel",
               run_inputs: tuple) -> str:
    """Content hash of an optimized module, its backend and its run.

    ``run_inputs`` is ``(args, inputs, max_instructions, translate)``.  Two
    recipes whose passes leave equal modules get one key, so the runner
    compiles and replays it once.  The serialization is complete: every
    global with its whole initializer, every function's signature,
    attributes and blocks in order, and every instruction's class, name,
    type, fixed fields and operands (see :func:`_function_text`).
    ``repro.ir.printer.format_module`` cannot serve: it cuts initializers at
    8 elements and prints constants without their type.  Each global and
    function is hashed as soon as it is serialized, so no whole-module
    string is built.
    """
    digest = hashlib.sha256(repr((cost_model, run_inputs)).encode())
    for gv in module.globals.values():
        digest.update(f"@{gv.name} {gv.element_type} {gv.count} "
                      f"{gv.initializer}\n".encode())
    for function in module.functions.values():
        digest.update(_function_text(function).encode())
    return digest.hexdigest()


def program_key(program: "AssemblyProgram", run_inputs: tuple) -> str:
    """Content hash of a compiled program and its run.

    Covers each function's name and body (labels, opcodes and operands;
    comments are not read by the emulator), the data image and
    ``run_inputs`` (as for :func:`module_key`).  ``code_bytes`` and
    ``static_instructions`` are functions of these.
    """
    digest = hashlib.sha256(repr(run_inputs).encode())
    for name, function in program.functions.items():
        lines = [f"function {name}"]
        for item in function.body:
            if isinstance(item, Label):
                lines.append(item.name + ":")
            else:
                lines.append(f"{item.opcode} {item.operands!r}")
        lines.append("")
        digest.update("\n".join(lines).encode())
    digest.update(repr((program.globals_init, program.globals_layout,
                        program.data_end)).encode())
    return digest.hexdigest()


@dataclass
class CacheStats:
    """Hit/miss counters for one :class:`MeasurementCache` instance."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    errors: int = 0

    def as_dict(self) -> dict:
        return {"hits": self.hits, "misses": self.misses,
                "stores": self.stores, "errors": self.errors}


class MeasurementCache:
    """Persistent store of measurements and fuzz verdicts, shared by every
    engine on this machine.

    ``get``/``put`` are keyed by :func:`measurement_fingerprint` digests for
    measurements and by :func:`repro.fuzz.driver._verdict_key` digests for
    :class:`~repro.fuzz.harness.DifferentialReport` verdicts; both hash
    :func:`_environment_blob`, so any source edit retires every entry.  The
    cache is safe to share between processes: entries are immutable once
    written and writes are atomic renames.
    """

    def __init__(self, root: Optional[os.PathLike] = None):
        self.root = Path(root) if root is not None else default_cache_dir()
        self.stats = CacheStats()

    # -- key -> path ---------------------------------------------------------
    def path_for(self, key: str) -> Path:
        """Where an entry with digest ``key`` lives (sharded by prefix)."""
        return self.root / key[:2] / f"{key}.pkl"

    def contains(self, key: str) -> bool:
        return self.path_for(key).is_file()

    # -- lookup / store ------------------------------------------------------
    def get(self, key: str) -> Optional["Measurement"]:
        """The entry (a measurement or a verdict) for ``key``, or None on a
        miss.

        Unreadable, truncated, corrupt or wrong-schema entries count as
        misses (and are removed), so a damaged cache degrades to
        recomputation instead of failing runs.
        """
        path = self.path_for(key)
        try:
            with open(path, "rb") as handle:
                envelope = pickle.load(handle)
            if not (isinstance(envelope, tuple) and len(envelope) == 2
                    and envelope[0] == CACHE_SCHEMA_VERSION):
                raise ValueError(f"cache entry schema mismatch: {envelope!r:.60}")
        except FileNotFoundError:
            self.stats.misses += 1
            return None
        except Exception:
            self.stats.errors += 1
            self.stats.misses += 1
            try:
                path.unlink()
            except OSError:
                pass
            return None
        self.stats.hits += 1
        return envelope[1]

    def put(self, key: str, measurement: "Measurement") -> None:
        """Persist ``measurement`` (or a verdict) under ``key`` (atomic,
        last-writer-wins)."""
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                pickle.dump((CACHE_SCHEMA_VERSION, measurement), handle,
                            protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp_name, path)
        except Exception:
            self.stats.errors += 1
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            return
        self.stats.stores += 1
        # Chaos-suite hook: lets a FaultPlan damage the entry it just wrote,
        # proving the read path degrades to a miss + recompute.
        fault_point("cache-put", key, path=path)

    # -- maintenance ---------------------------------------------------------
    def __len__(self) -> int:
        if not self.root.is_dir():
            return 0
        return sum(1 for _ in self.root.glob("*/*.pkl"))

    def clear(self) -> int:
        """Delete every entry; returns the number of entries removed."""
        removed = 0
        for entry in self.root.glob("*/*.pkl"):
            try:
                entry.unlink()
                removed += 1
            except OSError:
                pass
        return removed

    def size_report(self) -> dict:
        """Entry count and on-disk footprint (``repro cache stats``)."""
        entries = 0
        size = 0
        for path in self.root.glob("*/*.pkl"):
            entries += 1
            try:
                size += path.stat().st_size
            except OSError:
                pass
        return {"root": str(self.root), "schema": CACHE_SCHEMA_VERSION,
                "entries": entries, "bytes": size,
                "stats": self.stats.as_dict()}

    def verify(self) -> dict:
        """Load-check every entry, evicting damaged ones.

        Each entry goes through the normal :meth:`get` path, so corrupt,
        truncated or wrong-schema files are removed and counted on
        ``stats.errors`` exactly as a cache probe would have done — this is
        simply that degradation run eagerly over the whole store
        (``repro cache verify``).
        """
        checked = ok = corrupt_removed = 0
        for path in sorted(self.root.glob("*/*.pkl")):
            checked += 1
            errors_before = self.stats.errors
            if (self.get(path.stem) is not None
                    and self.stats.errors == errors_before):
                ok += 1
            elif not path.exists():
                corrupt_removed += 1
        return {"root": str(self.root), "checked": checked, "ok": ok,
                "corrupt_removed": corrupt_removed,
                "errors": self.stats.errors}


__all__ = ["CACHE_SCHEMA_VERSION", "CacheStats", "MeasurementCache",
           "default_cache_dir", "measurement_fingerprint", "module_key",
           "program_key"]
