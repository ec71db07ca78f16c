"""The cross-stage differential oracle harness.

One generated (or corpus) MiniC program is pushed through every independent
executable semantics the repository has, and the first stage whose behaviour
diverges is reported:

``frontend``
    the program fails to parse / codegen / verify (a generator bug — still
    bucketed, never silently dropped);
``step-limit``
    the IR interpreter exhausted its step budget on the *unoptimized*
    module (:class:`~repro.ir.interpreter.StepLimitExceeded` tells us which
    function was running and how many steps executed);
``pipeline``
    the pass pipeline crashed, produced IR the verifier rejects, or the
    analysis-cached pipeline and the fresh (``analysis_cache=False``) pipeline
    produced different IR bytes;
``passes``
    the optimized module's IR-interpreter behaviour differs from the
    unoptimized module's (a semantic miscompile inside the pass pipeline);
``backend``
    the backend crashed, or its compiled guest, replayed on the emulator's
    timed loop (the path every measurement takes), disagrees with the IR
    interpreter;
``emulator``
    the timed table-dispatch emulator or the superblock translator disagrees
    with the reference interpreter on outputs, memory or
    :class:`TraceStats` (the per-segment paging events RISC Zero charges
    for included) for the same guest, or the timed loop's
    :class:`~repro.cpu.x86_model.CpuMetrics` differ from those of the
    observer ``CpuTimingModel`` the reference interpreter drives.

Every check runs under **both** paper profiles (``-O3`` and the zkVM-aware
``-O3-zkvm``), so the cost-model-specific backend paths are both exercised.
With ``verify_each_pass=True`` (the reducer's configuration) the pipeline is
additionally re-run one pass at a time with the IR verifier between every
pass, so a verification failure names the exact pass that introduced it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

from ..backend import compile_module
from ..cpu import CpuTimingModel
from ..emulator import Machine, ReferenceMachine, TranslatedMachine
from ..experiments.profiles import Profile, profile_by_name
from ..frontend import compile_source
from ..frontend.errors import FrontendError
from ..ir import VerificationError, verify_module
from ..ir.interpreter import (
    ExecutionResult, InterpreterError, StepLimitExceeded, run_module,
)
from ..ir.printer import format_module
from ..passes import PassManager, PassPipelineError

#: Every bucket the harness can report, in pipeline order.
STAGES = ("frontend", "step-limit", "interp", "pipeline", "passes",
          "backend", "emulator")

#: Default profile names the harness compiles under.
DEFAULT_PROFILES = ("-O3", "-O3-zkvm")


@dataclass
class HarnessConfig:
    """Knobs for one differential run (all defaults are campaign-friendly)."""

    #: Profiles to compile under: names (resolved via the study registry) or
    #: ready-made :class:`Profile` objects (tests inject synthetic ones).
    profiles: Sequence[Union[str, Profile]] = DEFAULT_PROFILES
    #: IR-interpreter step budget (unoptimized module; optimized runs reuse it).
    interp_max_steps: int = 2_000_000
    #: Emulator budget per guest replay.
    emulator_max_instructions: int = 40_000_000
    #: Re-run the pipeline one pass at a time with the verifier in between
    #: (slow; the reducer turns this on so failures name the guilty pass).
    verify_each_pass: bool = False

    def as_kwargs(self) -> dict:
        """Picklable form for pool workers.

        Profiles stay as-is: names resolve in the worker via the study
        registry, and :class:`Profile` objects pickle whole (the measurement
        jobs already ship them across the pool boundary the same way).
        """
        return {"profiles": tuple(self.profiles),
                "interp_max_steps": self.interp_max_steps,
                "emulator_max_instructions": self.emulator_max_instructions,
                "verify_each_pass": self.verify_each_pass}


@dataclass
class DifferentialReport:
    """Outcome of one differential run."""

    ok: bool
    #: First divergent stage (one of :data:`STAGES`), or None when ok.
    stage: Optional[str] = None
    #: Profile under which the divergence appeared (None for profile-independent
    #: stages such as ``frontend``/``step-limit``).
    profile: Optional[str] = None
    detail: str = ""
    #: Steps the IR interpreter executed on the unoptimized module.
    interp_steps: int = 0

    @property
    def bucket(self) -> str:
        return self.stage if self.stage is not None else "ok"

    def as_dict(self) -> dict:
        return {"ok": self.ok, "stage": self.stage, "profile": self.profile,
                "detail": self.detail, "interp_steps": self.interp_steps}


def _behaviour(result: ExecutionResult) -> tuple:
    return (tuple(result.output), result.return_value)


def _divergence(expected: tuple, actual: tuple) -> str:
    """A compact first-difference description of two (output, return) pairs."""
    exp_out, exp_ret = expected
    act_out, act_ret = actual
    if exp_out != act_out:
        for i, (a, b) in enumerate(zip(exp_out, act_out)):
            if a != b:
                return f"output[{i}]: expected {a}, got {b}"
        return (f"output length: expected {len(exp_out)} values, "
                f"got {len(act_out)}")
    return f"return value: expected {exp_ret}, got {act_ret}"


def _optimize(module, profile: Profile, analysis_cache: bool):
    clone = module.clone()
    if profile.passes:
        PassManager(profile.passes, profile.config,
                    analysis_cache=analysis_cache).run(clone)
    return clone


def _localize_bad_pass(module, profile: Profile) -> Optional[str]:
    """Run the pipeline one pass at a time, verifying after every pass.

    Returns a human-readable description of the first pass whose output the
    verifier rejects (or that crashes), or None when the whole pipeline is
    verifier-clean.  Used when a mismatch is being reduced.
    """
    clone = module.clone()
    for index, name in enumerate(profile.passes):
        try:
            PassManager((name,), profile.config).run(clone)
        except Exception as exc:  # noqa: BLE001 - report, do not mask
            return f"pass '{name}' (index {index}) crashed: {exc}"
        try:
            verify_module(clone)
        except VerificationError as exc:
            return f"verifier rejects IR after pass '{name}' (index {index}): {exc}"
    return None


def _replay(program, machine_cls, max_instructions: int, observers=()):
    machine = machine_cls(program, max_instructions=max_instructions,
                          observers=observers)
    stats = machine.run("main")
    return machine, stats


def run_differential(source: str,
                     config: Optional[HarnessConfig] = None) -> DifferentialReport:
    """Push one MiniC program through every oracle; report the first divergence."""
    config = config or HarnessConfig()

    # Stage 1: frontend (parse + codegen + IR verifier).
    try:
        module = compile_source(source, module_name="fuzz")
    except FrontendError as exc:
        return DifferentialReport(ok=False, stage="frontend", detail=str(exc))
    except VerificationError as exc:
        return DifferentialReport(ok=False, stage="frontend",
                                  detail=f"frontend IR rejected: {exc}")

    # Stage 2: the IR interpreter on the unoptimized module is ground truth.
    try:
        base = run_module(module, max_steps=config.interp_max_steps)
    except StepLimitExceeded as exc:
        return DifferentialReport(
            ok=False, stage="step-limit",
            detail=f"unoptimized module: {exc}", interp_steps=exc.steps)
    except InterpreterError as exc:
        return DifferentialReport(ok=False, stage="interp",
                                  detail=f"unoptimized module: {exc}")
    expected = _behaviour(base)
    steps = base.instructions_executed
    # Optimized/compiled replays get generous multiples of the baseline cost.
    interp_budget = max(4 * steps + 100_000, 1_000_000)
    emu_budget = config.emulator_max_instructions

    for profile_like in config.profiles:
        profile = profile_like if isinstance(profile_like, Profile) \
            else profile_by_name(profile_like)
        name = profile.name

        # Stage 3: pass pipeline — crash, verifier, cached-vs-fresh bytes.
        if config.verify_each_pass:
            located = _localize_bad_pass(module, profile)
            if located is not None:
                return DifferentialReport(ok=False, stage="pipeline",
                                          profile=name, detail=located,
                                          interp_steps=steps)
        try:
            cached = _optimize(module, profile, analysis_cache=True)
            fresh = _optimize(module, profile, analysis_cache=False)
        except (PassPipelineError, VerificationError) as exc:
            return DifferentialReport(ok=False, stage="pipeline", profile=name,
                                      detail=str(exc), interp_steps=steps)
        if format_module(cached) != format_module(fresh):
            return DifferentialReport(
                ok=False, stage="pipeline", profile=name,
                detail="cached and fresh pipelines produced different IR bytes",
                interp_steps=steps)
        try:
            verify_module(cached)
        except VerificationError as exc:
            return DifferentialReport(ok=False, stage="pipeline", profile=name,
                                      detail=f"optimized IR rejected: {exc}",
                                      interp_steps=steps)

        # Stage 4: optimized IR behaviour must match the unoptimized module.
        try:
            optimized = run_module(cached, max_steps=interp_budget)
        except InterpreterError as exc:
            return DifferentialReport(ok=False, stage="passes", profile=name,
                                      detail=f"optimized module: {exc}",
                                      interp_steps=steps)
        if _behaviour(optimized) != expected:
            return DifferentialReport(
                ok=False, stage="passes", profile=name,
                detail=_divergence(expected, _behaviour(optimized)),
                interp_steps=steps)

        # Stage 5: the backend's guest must reproduce the IR behaviour.
        # The replay times the run, as every measurement does.
        timed_model = CpuTimingModel()
        try:
            program = compile_module(cached, profile.cost_model)
            timed, timed_stats = _replay(program, Machine, emu_budget,
                                         [timed_model])
        except Exception as exc:  # noqa: BLE001 - compile/replay crash
            return DifferentialReport(ok=False, stage="backend", profile=name,
                                      detail=str(exc), interp_steps=steps)
        behaviour = (tuple(timed.output), timed_stats.return_value)
        if behaviour != expected:
            return DifferentialReport(
                ok=False, stage="backend", profile=name,
                detail=_divergence(expected, behaviour), interp_steps=steps)

        # Stage 6: stage 5's timed run and the translated engine vs the
        # reference interpreter on the same guest — a three-way oracle, so
        # the superblock engine earns differential coverage from every fuzz
        # campaign — and the timed loop's CPU metrics vs the observer model
        # the reference drives.
        ref_model = CpuTimingModel()
        try:
            ref, ref_stats = _replay(program, ReferenceMachine, emu_budget,
                                     [ref_model])
            trans, trans_stats = _replay(program, TranslatedMachine,
                                         emu_budget)
        except Exception as exc:  # noqa: BLE001
            return DifferentialReport(ok=False, stage="emulator", profile=name,
                                      detail=str(exc), interp_steps=steps)
        for engine_name, machine, stats in (("timed", timed, timed_stats),
                                            ("translated", trans,
                                             trans_stats)):
            if machine.output != ref.output or stats != ref_stats \
                    or machine.memory != ref.memory:
                what = ("outputs" if machine.output != ref.output else
                        "TraceStats" if stats != ref_stats else "memory")
                return DifferentialReport(
                    ok=False, stage="emulator", profile=name,
                    detail=f"{engine_name} and reference emulators "
                           f"diverged on {what}",
                    interp_steps=steps)
        if timed_model.finalize() != ref_model.finalize():
            return DifferentialReport(
                ok=False, stage="emulator", profile=name,
                detail="timed and reference emulators diverged on CpuMetrics",
                interp_steps=steps)

    return DifferentialReport(ok=True, interp_steps=steps)
