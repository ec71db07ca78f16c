"""Fault tolerance primitives for the experiment engine.

Long campaigns (figure regenerations, autotune generations, thousand-seed
fuzzing runs) are exactly the workloads where individual worker failures stop
being exceptional: a candidate that compiles into a pathological program can
hang its worker, and an OOM-killed process takes the whole pool down with it.
Every job is deterministic, so a job that raises would raise again: the
engine records it once and never retries it.  This module gives
:class:`~repro.experiments.engine.ExperimentEngine` the vocabulary to treat
those events as data instead of crashes:

:class:`JobFailure`
    The structured quarantine record a failing job resolves to: job
    identity, failure stage, attempt count and the worker traceback.  Batch
    APIs return these instead of silently mapping a poisoned job to
    ``None``.
:class:`FaultPlan` / :func:`fault_point`
    A deterministic fault-injection harness for the chaos test suite.  A
    plan is a list of :class:`FaultSpec` triggers matched at named injection
    points inside the worker entry points and the measurement cache; each
    spec fires a bounded number of times (counted across processes through
    exclusive marker files), so every degradation path the engine claims to
    survive is exercised by tests rather than trusted on faith.

Nothing in this module imports the rest of the package, so the cache, the
engine and the campaign drivers can all use it without import cycles.
"""

from __future__ import annotations

import json
import os
import signal
import time
import traceback as traceback_module
from dataclasses import asdict, dataclass, field
from fnmatch import fnmatch
from pathlib import Path
from typing import Optional


class InjectedPermanentError(RuntimeError):
    """Raised by the fault-injection harness for a job that fails."""


@dataclass
class JobFailure:
    """Structured record of one job the engine gave up on.

    Returned by the batch APIs (``on_error="report"``) and accumulated on
    ``engine.failures`` so a campaign can report *which* job failed, at what
    stage, after how many attempts — instead of a bare ``None``.
    """

    #: Human-readable job identity, e.g. ``"fibonacci/-O3"`` or ``"shard-7"``.
    job: str
    #: Where the job died: ``compute`` (raised in the worker), ``timeout``
    #: (exceeded the wall-clock budget on every attempt), ``pool-kill``
    #: (killed its worker process and was bisected out as the poison job).
    stage: str
    attempts: int
    error_type: str = ""
    message: str = ""
    traceback: str = ""
    #: The original exception when one exists (compute failures); carried so
    #: ``on_error="raise"`` can re-raise it, excluded from the dict form.
    exception: Optional[BaseException] = field(default=None, repr=False,
                                               compare=False)

    def as_dict(self) -> dict:
        return {"job": self.job, "stage": self.stage,
                "attempts": self.attempts,
                "error_type": self.error_type, "message": self.message,
                "traceback": self.traceback}

    def to_exception(self) -> BaseException:
        """The original exception, or a :class:`PoisonJobError` wrapper."""
        if self.exception is not None:
            return self.exception
        return PoisonJobError(self)


class PoisonJobError(RuntimeError):
    """Raised (``on_error="raise"``) for a quarantined job with no exception
    object of its own — timeouts and worker-killing poison jobs."""

    def __init__(self, failure: JobFailure):
        super().__init__(
            f"job {failure.job!r} quarantined after {failure.attempts} "
            f"attempt(s): {failure.stage} ({failure.message or 'no detail'})")
        self.failure = failure


def failure_from_exception(job: str, exc: BaseException,
                           attempts: int) -> JobFailure:
    """Wrap a raised exception into a ``compute`` :class:`JobFailure`."""
    # Worker exceptions surfaced through concurrent.futures carry the remote
    # traceback as a chained _RemoteTraceback; format_exception renders both.
    tb = "".join(traceback_module.format_exception(
        type(exc), exc, exc.__traceback__))
    return JobFailure(job=job, stage="compute", attempts=attempts,
                      error_type=type(exc).__name__, message=str(exc),
                      traceback=tb, exception=exc)


# -- deterministic fault injection --------------------------------------------
#: Environment variable carrying the path of the active plan's JSON file.
#: Worker processes inherit it (fork) or receive it through the pool
#: initializer, so injection points fire on both sides of the pool boundary.
FAULT_PLAN_ENV = "REPRO_FAULT_PLAN"


@dataclass
class FaultSpec:
    """One trigger: at injection point ``point``, for job keys matching the
    glob ``match``, perform ``action`` the first ``times`` times seen
    (counted across every process sharing the plan)."""

    point: str
    match: str = "*"
    action: str = "permanent"
    times: int = 1
    #: Seconds for ``hang`` (default 3600) and pre-``kill`` delay.
    arg: float = 0.0

    def __post_init__(self):
        # An unknown action would inject nothing: a chaos test would pass
        # without its fault ever firing.
        if self.action not in ("permanent", "hang", "kill", "corrupt"):
            raise ValueError(f"unknown fault action {self.action!r}")


class FaultPlan:
    """A deterministic set of faults to inject, shared across processes.

    ``install()`` serializes the plan next to its cross-process fire-counter
    directory and exports :data:`FAULT_PLAN_ENV`; ``remove()`` undoes it.
    Tests use it as a context manager::

        with FaultPlan([FaultSpec("measure-job", match="fib*",
                                  action="permanent", times=2)],
                       state_dir=tmp_path):
            ...

    Fire counting claims one ``O_CREAT|O_EXCL`` marker file per shot, so a
    spec with ``times=2`` fires exactly twice even when the matching calls
    race across worker processes.
    """

    def __init__(self, specs, state_dir):
        self.specs = list(specs)
        self.state_dir = Path(state_dir)
        self.plan_path = self.state_dir / "fault-plan.json"

    def install(self) -> "FaultPlan":
        (self.state_dir / "fired").mkdir(parents=True, exist_ok=True)
        self.plan_path.write_text(json.dumps(
            {"state_dir": str(self.state_dir),
             "specs": [asdict(spec) for spec in self.specs]}))
        os.environ[FAULT_PLAN_ENV] = str(self.plan_path)
        return self

    def remove(self) -> None:
        os.environ.pop(FAULT_PLAN_ENV, None)

    def __enter__(self) -> "FaultPlan":
        return self.install()

    def __exit__(self, *exc_info) -> None:
        self.remove()

    # -- loading / firing (also used in worker processes) ---------------------
    @classmethod
    def _from_file(cls, path: str) -> Optional["FaultPlan"]:
        try:
            payload = json.loads(Path(path).read_text())
            return cls([FaultSpec(**spec) for spec in payload["specs"]],
                       payload["state_dir"])
        except Exception:
            return None  # stale env var / deleted tmpdir: injection disabled

    def _claim(self, spec_index: int, times: int) -> bool:
        """Atomically claim one of ``times`` shots for spec ``spec_index``."""
        fired = self.state_dir / "fired"
        for shot in range(times):
            try:
                fd = os.open(fired / f"{spec_index}.{shot}",
                             os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                continue
            except OSError:
                return False
            os.close(fd)
            return True
        return False

    def fire(self, point: str, key: str, path=None) -> None:
        for index, spec in enumerate(self.specs):
            if spec.point != point or not fnmatch(key, spec.match):
                continue
            if not self._claim(index, max(1, spec.times)):
                continue
            self._act(spec, point, key, path)

    @staticmethod
    def _act(spec: FaultSpec, point: str, key: str, path) -> None:
        where = f"{point}/{key}"
        if spec.action == "permanent":
            raise InjectedPermanentError(f"injected permanent fault at {where}")
        if spec.action == "hang":
            time.sleep(spec.arg or 3600.0)
        elif spec.action == "kill":
            if spec.arg:
                time.sleep(spec.arg)
            os.kill(os.getpid(), signal.SIGKILL)
        elif spec.action == "corrupt" and path is not None:
            Path(path).write_bytes(b"\x00corrupted-by-fault-plan")


#: Per-process cache of the parsed active plan, keyed by the env var value.
_ACTIVE_PLAN: tuple = (None, None)


def fault_point(point: str, key: str, path=None) -> None:
    """Injection hook: a no-op unless a :class:`FaultPlan` is installed.

    Sprinkled through the worker entry points (``measure-job``,
    ``fuzz-shard``) and the measurement cache (``cache-put``); ``path``
    gives file-targeting actions (``corrupt``) something to damage.
    """
    plan_path = os.environ.get(FAULT_PLAN_ENV)
    if not plan_path:
        return
    global _ACTIVE_PLAN
    if _ACTIVE_PLAN[0] != plan_path:
        _ACTIVE_PLAN = (plan_path, FaultPlan._from_file(plan_path))
    plan = _ACTIVE_PLAN[1]
    if plan is not None:
        plan.fire(point, key, path)


def worker_fault_init(plan_path: Optional[str]) -> None:
    """Pool-worker initializer: re-export the active plan's env var.

    Fork workers inherit the parent environment anyway; this keeps injection
    working under spawn/forkserver start methods too.
    """
    if plan_path:
        os.environ[FAULT_PLAN_ENV] = plan_path


__all__ = [
    "FAULT_PLAN_ENV", "FaultPlan", "FaultSpec",
    "InjectedPermanentError", "JobFailure", "PoisonJobError",
    "failure_from_exception", "fault_point", "worker_fault_init",
]
