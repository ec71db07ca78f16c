"""The measurement harness: compile a benchmark under a profile, execute it,
and evaluate every metric the paper reports (cycle count, zkVM execution
time, proving time for both zkVMs; native execution time on the CPU model).

:class:`BenchmarkRunner` is the serial, in-memory-cached reference
implementation.  The figure/table regenerators and the autotuner submit work
through its batch API (:meth:`BenchmarkRunner.measure_pairs`), which the
parallel, disk-cached :class:`~repro.experiments.engine.ExperimentEngine`
subclass overrides to shard jobs across worker processes — substitute an
engine anywhere a runner is accepted to parallelize and persist a study."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Optional

from ..backend import compile_module
from ..cpu import CpuTimingModel
from ..cpu.x86_model import CpuMetrics
from ..emulator import Machine, TraceStats
from ..frontend import compile_source
from ..ir import Module, verify_module
from ..passes import PassManager
from ..zkvm.models import ZKVMS, ZkvmMetrics
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


#: Default capacity of the compiled-program cache (FIFO-evicted).  Compiled
#: ``AssemblyProgram`` objects carry their decoded instruction stream (see
#: :func:`repro.emulator.decode_program`), so reusing the program object across
#: measurements means each benchmark is compiled *and decoded* once per
#: process — the autotuner's re-measured elites and every repeated baseline
#: skip straight to the pre-decoded hot loop.
DEFAULT_PROGRAM_CACHE_SIZE = 128


def _program_key(benchmark_name: str, profile: Profile) -> str:
    """Content key for a compiled program: everything that shapes the code.

    Keyed by the profile's *recipe* (passes, config, cost model — shared with
    :func:`~repro.experiments.cache.measurement_fingerprint`), not its display
    name, so content-equal profiles (an autotuner candidate that rediscovers
    ``-O2``) share one compiled+decoded program.
    """
    from .cache import profile_recipe

    return json.dumps({"benchmark": benchmark_name, **profile_recipe(profile)},
                      sort_keys=True, default=repr)


class BenchmarkRunner:
    """Compiles and measures benchmark programs under optimization profiles.

    Compilation results are memoized per (benchmark, profile) so that the
    table/figure regenerators can share work, and compiled programs are kept
    in a bounded content-keyed cache so their decoded instruction streams are
    reused across measurements (decode once per process).
    """

    def __init__(self, max_instructions: int = 20_000_000, verify: bool = False,
                 program_cache_size: int = DEFAULT_PROGRAM_CACHE_SIZE,
                 analysis_cache: bool = True, translate: bool = False):
        self.max_instructions = max_instructions
        self.verify = verify
        self.program_cache_size = program_cache_size
        #: False routes every compile through the ``--no-analysis-cache``
        #: escape hatch (the seed-semantics recompute-everything pipeline).
        self.analysis_cache = analysis_cache
        #: True replays guest programs through the superblock-translating
        #: :class:`~repro.emulator.translate.TranslatedMachine` — same
        #: TraceStats/paging byte-for-byte, several times faster — at the
        #: cost of the CPU timing model (``Measurement.cpu`` is None): an
        #: attached ``CpuTimingModel`` makes every run take the
        #: interpreter's timed loop instead of superblocks.  The autotuner
        #: only consumes trace-derived zkVM metrics, so its measurement path
        #: uses this.
        self.translate = translate
        self._source_cache: dict[str, Module] = {}
        self._measure_cache: dict[tuple[str, str], Measurement] = {}
        self._program_cache: dict[str, object] = {}

    # -- compilation ---------------------------------------------------------
    def frontend_module(self, benchmark_name: str) -> Module:
        """The unoptimized IR module of a registered benchmark."""
        from ..benchmarks import get_benchmark

        if benchmark_name not in self._source_cache:
            benchmark = get_benchmark(benchmark_name)
            self._source_cache[benchmark_name] = compile_source(
                benchmark.source, module_name=benchmark_name)
        return self._source_cache[benchmark_name]

    def compile(self, benchmark_name: str, profile: Profile,
                use_cache: bool = True):
        """Apply the profile's passes and lower to RV32IM.

        The compiled ``AssemblyProgram`` is cached by content key so repeated
        measurements of the same recipe reuse one program object — and with
        it the emulator's per-program decoded instruction stream.  Emulation
        never mutates the program (machines copy ``globals_init``), so the
        shared object is safe across runs.
        """
        key = _program_key(benchmark_name, profile)
        if use_cache:
            program = self._program_cache.get(key)
            if program is not None:
                return program
        module = self.frontend_module(benchmark_name).clone()
        if profile.passes:
            PassManager(profile.passes, profile.config,
                        analysis_cache=self.analysis_cache).run(module)
        if self.verify:
            verify_module(module)
        program = compile_module(module, profile.cost_model)
        if use_cache and self.program_cache_size > 0:
            while len(self._program_cache) >= self.program_cache_size:
                self._program_cache.pop(next(iter(self._program_cache)))
            self._program_cache[key] = program
        return program

    # -- measurement ----------------------------------------------------------
    def measure(self, benchmark_name: str, profile: Profile,
                use_cache: bool = True) -> Measurement:
        """Compile, emulate and cost one (benchmark, profile) pair.

        Results are memoized per (benchmark, profile *name*) for the lifetime
        of this runner; ``use_cache=False`` forces a fresh computation and
        skips storing it.  The engine subclass replaces this name-keyed
        memoization with content-addressed memory + disk caches.
        """
        key = (benchmark_name, profile.name)
        if use_cache and key in self._measure_cache:
            return self._measure_cache[key]

        from ..benchmarks import get_benchmark

        benchmark = get_benchmark(benchmark_name)
        program = self.compile(benchmark_name, profile)
        if self.translate:
            from ..emulator import TranslatedMachine

            cpu_model = None
            machine = TranslatedMachine(
                program, max_instructions=self.max_instructions,
                input_values=benchmark.inputs)
        else:
            cpu_model = CpuTimingModel()
            machine = Machine(program, max_instructions=self.max_instructions,
                              observers=[cpu_model],
                              input_values=benchmark.inputs)
        trace = machine.run("main", benchmark.args)
        if benchmark.expected_output is not None and \
                trace.output != benchmark.expected_output:
            raise AssertionError(
                f"{benchmark_name} under {profile.name}: output {trace.output} "
                f"does not match expected {benchmark.expected_output}")

        risc0 = ZKVMS["risc0"].evaluate(trace, machine.page_in_events,
                                        machine.page_out_events)
        sp1 = ZKVMS["sp1"].evaluate(trace, machine.page_in_events,
                                    machine.page_out_events)
        measurement = Measurement(
            benchmark=benchmark_name,
            profile=profile.name,
            trace=trace,
            risc0=risc0,
            sp1=sp1,
            cpu=cpu_model.finalize() if cpu_model is not None else None,
            static_instructions=program.total_static_instructions(),
            code_bytes=getattr(program, "code_sizes", None),
        )
        if use_cache:
            self._measure_cache[key] = measurement
        return measurement

    def measure_pairs(self, pairs: list[tuple[str, Profile]],
                      use_cache: bool = True,
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
                results.append(self.measure(benchmark_name, profile,
                                            use_cache=use_cache))
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

    def measure_many(self, benchmark_names: list[str],
                     profiles: list[Profile]) -> list[Measurement]:
        """Measure the benchmark × profile cross product (benchmark-major)."""
        return self.measure_pairs([(benchmark_name, profile)
                                   for benchmark_name in benchmark_names
                                   for profile in profiles])

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
