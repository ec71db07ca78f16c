"""The measurement harness: compile a benchmark under a profile, execute it,
and evaluate every metric the paper reports (cycle count, zkVM execution
time, proving time for both zkVMs; native execution time on the CPU model).

:func:`measure_program` is the one measurement step: replay a compiled
program and cost its trace.  :class:`BenchmarkRunner` compiles registered
benchmarks, measures them through that step and memoizes each measurement
(not the compiled program) three ways: by recipe, by optimized module and
by compiled program.  The figure/table regenerators and the autotuner
submit work through its batch API (:meth:`BenchmarkRunner.measure_pairs`),
which the parallel, disk-cached
:class:`~repro.experiments.engine.ExperimentEngine` subclass overrides to
shard jobs across worker processes — substitute an engine anywhere a runner
is accepted to parallelize and persist a study."""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from ..backend import compile_module
from ..cpu import CpuTimingModel
from ..cpu.x86_model import CpuMetrics
from ..emulator import Machine, TraceStats
from ..frontend import compile_source
from ..ir import Module
from ..passes import PassManager
from ..zkvm.models import ZKVMS, ZkvmMetrics
from .cache import measurement_fingerprint, module_key, program_key
from .profiles import Profile, baseline_profile


@dataclass
class Measurement:
    """Everything measured for one (benchmark, profile) pair."""

    benchmark: str
    profile: str
    trace: TraceStats
    risc0: ZkvmMetrics
    sp1: ZkvmMetrics
    #: None for measurements taken through the translated engine: timing a
    #: run takes the interpreter's timed loop, which superblocks skip.
    cpu: Optional[CpuMetrics]
    static_instructions: int
    #: Byte-accurate binary footprint ``{"rv32": ..., "rvc": ...}`` from
    #: :func:`repro.backend.encoding.code_size_report`; None when the
    #: program carries something the encoder rejects.
    code_bytes: Optional[dict] = None

    @property
    def instructions(self) -> int:
        return self.trace.instructions

    def metric(self, zkvm: str, name: str) -> float:
        """One zkVM metric by name, e.g. ``metric("risc0", "proving_time")``."""
        source = {"risc0": self.risc0, "sp1": self.sp1}[zkvm]
        return getattr(source, name)

    def as_dict(self) -> dict:
        """JSON-shaped summary (used by the CLI and cache round-trip tests)."""
        return {
            "benchmark": self.benchmark,
            "profile": self.profile,
            "instructions": self.instructions,
            "risc0": self.risc0.as_dict(),
            "sp1": self.sp1.as_dict(),
            "cpu": self.cpu.as_dict() if self.cpu is not None else None,
            "code_bytes": self.code_bytes,
        }


def percent_change(baseline: float, value: float) -> float:
    """Performance gain in percent: positive = faster (smaller) than baseline."""
    if baseline == 0:
        return 0.0
    return (baseline - value) / baseline * 100.0


def warm_matrix(runner: "BenchmarkRunner", benchmarks: list[str],
                profiles: list[Profile], include_baseline: bool = True) -> None:
    """Submit a full benchmark × profile matrix as one batched shard.

    Every figure/table regenerator calls this before assembling rows: an
    :class:`~repro.experiments.engine.ExperimentEngine` computes the batch in
    parallel and persists it, after which the per-cell ``measure``/``gain``
    calls are pure cache lookups.  The baseline profile is included by default
    because every gain is computed against it.
    """
    profiles = list(profiles)
    if include_baseline:
        profiles.insert(0, baseline_profile())
    runner.measure_pairs([(benchmark, profile)
                          for benchmark in benchmarks for profile in profiles])


def _optimized(module: Module, profile: Profile) -> Module:
    """A copy of ``module`` after ``profile``'s passes."""
    module = module.clone()
    if profile.passes:
        PassManager(profile.passes, profile.config).run(module)
    return module


def compile_program(module: Module, profile: Profile):
    """Optimize a copy of ``module`` under ``profile`` and lower it to RV32IM."""
    return compile_module(_optimized(module, profile), profile.cost_model)


def measure_program(program, benchmark: str, profile: str,
                    args: Optional[tuple] = None,
                    inputs: Optional[tuple] = None,
                    max_instructions: int = 20_000_000,
                    translate: bool = False) -> Measurement:
    """Run ``program`` from ``main`` and cost its trace: the measurement step.

    The guest runs on :class:`~repro.emulator.Machine` with a fresh
    :class:`~repro.cpu.CpuTimingModel` attached, so one run yields the
    trace, both zkVM cost reports and the CPU timing.  ``translate=True``
    runs it on the superblock engine instead, which records no CPU timing.
    ``benchmark`` and ``profile`` only label the result.
    """
    if translate:
        from ..emulator import TranslatedMachine

        cpu_model = None
        machine = TranslatedMachine(program, max_instructions=max_instructions,
                                    input_values=inputs)
    else:
        cpu_model = CpuTimingModel()
        machine = Machine(program, max_instructions=max_instructions,
                          observers=[cpu_model], input_values=inputs)
    trace = machine.run("main", args)
    return Measurement(
        benchmark=benchmark,
        profile=profile,
        trace=trace,
        risc0=ZKVMS["risc0"].evaluate(trace),
        sp1=ZKVMS["sp1"].evaluate(trace),
        cpu=cpu_model.finalize() if cpu_model is not None else None,
        static_instructions=program.total_static_instructions(),
        code_bytes=getattr(program, "code_sizes", None),
    )


class BenchmarkRunner:
    """Compiles and measures benchmark programs under optimization profiles.

    Three memos, kept for the life of the runner, answer repeated work with
    an earlier measurement under the requested names:

    * the **recipe** memo (:meth:`fingerprint`: benchmark, passes, config,
      cost model, budget) answers a repeated recipe before anything runs, so
      content-equal profiles share one measurement whatever their names;
    * the **module** memo (:func:`~repro.experiments.cache.module_key`)
      answers a recipe whose passes left a module already measured with the
      same cost model and run inputs: the backend and the replay are
      skipped;
    * the **program** memo (:func:`~repro.experiments.cache.program_key`)
      answers a module whose backend produced a program already measured on
      the same run inputs: the replay and costing are skipped.

    Failures are never memoized.  Compiled programs are not kept: each
    :meth:`compile` compiles afresh.  Frontend modules are kept per
    benchmark, since every profile of a benchmark starts from the same one.
    """

    def __init__(self, max_instructions: int = 20_000_000,
                 translate: bool = False):
        self.max_instructions = max_instructions
        #: True replays guest programs through the superblock-translating
        #: :class:`~repro.emulator.translate.TranslatedMachine`: the same
        #: TraceStats and paging byte for byte, but no CPU timing
        #: (``Measurement.cpu`` is None), because timing a run takes the
        #: interpreter's timed loop.  It is not faster on a cold run: on
        #: Figure 6's autotune jobs (four benchmarks, 64 evaluations each,
        #: two workers on a 2-core host) a run took 7.9-8.2 s against
        #: 6.6-7.7 s on the timed interpreter, and the serial emulate step
        #: 3.6-4.5 s against 2.3-2.5 s.
        self.translate = translate
        self._source_cache: dict[str, Module] = {}
        #: Measurements by :meth:`fingerprint`.
        self._memory: dict[str, Measurement] = {}
        #: Measurements by :func:`module_key` and by :func:`program_key`.
        self._by_module: dict[str, Measurement] = {}
        self._by_program: dict[str, Measurement] = {}

    # -- compilation ---------------------------------------------------------
    def frontend_module(self, benchmark_name: str) -> Module:
        """The unoptimized IR module of a registered benchmark."""
        from ..benchmarks import get_benchmark

        if benchmark_name not in self._source_cache:
            benchmark = get_benchmark(benchmark_name)
            self._source_cache[benchmark_name] = compile_source(
                benchmark.source, module_name=benchmark_name)
        return self._source_cache[benchmark_name]

    def compile(self, benchmark_name: str, profile: Profile):
        """Apply the profile's passes and lower to RV32IM."""
        return compile_program(self.frontend_module(benchmark_name), profile)

    # -- measurement ----------------------------------------------------------
    def fingerprint(self, benchmark_name: str, profile: Profile) -> str:
        """The content hash of one (benchmark, profile) measurement."""
        from ..benchmarks import get_benchmark

        return measurement_fingerprint(get_benchmark(benchmark_name), profile,
                                       self.max_instructions, self.translate)

    def measure(self, benchmark_name: str, profile: Profile) -> Measurement:
        """Compile, emulate and cost one (benchmark, profile) pair.

        Results are memoized by :meth:`fingerprint` for the lifetime of this
        runner and come back under the requested names, so two profiles with
        one recipe share a measurement and two recipes with one name do not.
        A recipe miss goes through :meth:`_compute` and its content memos.
        """
        key = self.fingerprint(benchmark_name, profile)
        measurement = self._lookup(key)
        if measurement is None:
            measurement, _ = self._compute(benchmark_name, profile)
            self._store(key, measurement)
        return self._relabel(measurement, benchmark_name, profile)

    def _lookup(self, key: str) -> Optional[Measurement]:
        return self._memory.get(key)

    def _store(self, key: str, measurement: Measurement) -> None:
        self._memory[key] = measurement

    @staticmethod
    def _relabel(measurement: Measurement, benchmark_name: str,
                 profile: Profile) -> Measurement:
        """Return ``measurement`` under the requested display names."""
        if (measurement.benchmark == benchmark_name
                and measurement.profile == profile.name):
            return measurement
        return replace(measurement, benchmark=benchmark_name, profile=profile.name)

    def _compute(self, benchmark_name: str,
                 profile: Profile) -> tuple[Measurement, bool]:
        """Measure one recipe through the content memos; check the output.

        Runs the passes, then answers from the module memo, else compiles
        and answers from the program memo, else replays and costs the
        program; a new measurement is stored under both keys.  Returns the
        measurement under the requested names and whether a content key
        answered it.
        """
        from ..benchmarks import get_benchmark

        benchmark = get_benchmark(benchmark_name)
        run_inputs = (benchmark.args, benchmark.inputs, self.max_instructions,
                      self.translate)
        module = _optimized(self.frontend_module(benchmark_name), profile)
        by_module = module_key(module, profile.cost_model, run_inputs)
        measurement = self._by_module.get(by_module)
        reused = measurement is not None
        if not reused:
            program = compile_module(module, profile.cost_model)
            by_program = program_key(program, run_inputs)
            measurement = self._by_program.get(by_program)
            reused = measurement is not None
            if not reused:
                measurement = measure_program(
                    program, benchmark_name, profile.name, benchmark.args,
                    benchmark.inputs, self.max_instructions, self.translate)
                self._by_program[by_program] = measurement
            self._by_module[by_module] = measurement
        measurement = self._relabel(measurement, benchmark_name, profile)
        output = measurement.trace.output
        if benchmark.expected_output is not None and \
                output != benchmark.expected_output:
            raise AssertionError(
                f"{benchmark_name} under {profile.name}: output {output} "
                f"does not match expected {benchmark.expected_output}")
        return measurement, reused

    def measure_pairs(self, pairs: list[tuple[str, Profile]],
                      on_error: str = "raise") -> list[Optional[Measurement]]:
        """Measure a batch of (benchmark, profile) jobs in submission order.

        This is the batch entry point the regenerators and the autotuner use;
        here it simply loops, while :class:`ExperimentEngine` overrides it to
        shard the batch across worker processes and an on-disk cache with the
        same deterministic result ordering.  With ``on_error="none"`` a
        failing job yields ``None`` instead of propagating (used by the
        autotuner, whose candidates may exceed the instruction budget);
        ``on_error="report"`` yields a structured
        :class:`~repro.experiments.faults.JobFailure` record instead.
        """
        results: list[Optional[Measurement]] = []
        for benchmark_name, profile in pairs:
            try:
                results.append(self.measure(benchmark_name, profile))
            except Exception as exc:
                if on_error == "none":
                    results.append(None)
                elif on_error == "report":
                    from .faults import failure_from_exception

                    results.append(failure_from_exception(
                        f"{benchmark_name}/{profile.name}", exc, attempts=1))
                else:
                    raise
        return results

    def baseline(self, benchmark_name: str) -> Measurement:
        """The unoptimized reference measurement every gain is computed against."""
        return self.measure(benchmark_name, baseline_profile())

    # -- derived quantities ------------------------------------------------------
    def gain(self, benchmark_name: str, profile: Profile, zkvm: str,
             metric: str) -> float:
        """Percent improvement of ``profile`` over the baseline for a metric."""
        base = self.baseline(benchmark_name)
        value = self.measure(benchmark_name, profile)
        return percent_change(base.metric(zkvm, metric), value.metric(zkvm, metric))

    def cpu_gain(self, benchmark_name: str, profile: Profile) -> float:
        """Percent improvement over baseline on the x86 CPU timing model."""
        base = self.baseline(benchmark_name)
        value = self.measure(benchmark_name, profile)
        return percent_change(base.cpu.execution_time, value.cpu.execution_time)
