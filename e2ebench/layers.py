"""Which entry point belongs to which layer, and the per-layer metrics.

:func:`install` wraps each layer's public entry point with a
:class:`~spans.Tracer` wrapper; :func:`layer_metrics` turns the recorded
spans and counters into the benchmark's per-layer numbers.  A span's self
time is its duration minus its children, so nested layers (the encoder
inside the backend, the emulators inside the engine) are each charged only
for their own work, and everything no span covers is reported as
``unattributed.s``.
"""

from __future__ import annotations

import time

from spans import Tracer, self_time_by_kind

#: Span kind -> per-layer time metric (seconds of self time).
TIME_METRICS = {
    "frontend": "frontend.s",
    "passes": "passes.s",
    "backend": "backend.s",
    "backend.encoding": "backend.encoding.s",
    "emulator": "emulator.s",
    "emulator.translate": "emulator.translate.s",
    "emulator.reference": "emulator.reference.s",
    "cpu": "cpu.s",
    "zkvm": "zkvm.s",
    "ir.interpreter": "ir.interpreter.s",
    "fuzz.genprog": "fuzz.genprog.s",
    "experiments.cache.get": "experiments.cache.get_s",
    "experiments.cache.put": "experiments.cache.put_s",
    "experiments.engine": "experiments.engine.s",
    "tracing": "tracing.s",
}

#: Layer counters that must repeat exactly across two runs of one seed.
COUNT_METRICS = (
    "frontend.calls", "passes.runs", "passes.ir_instrs_out",
    "backend.static_instrs", "backend.spilled_vregs", "emulator.instrs",
    "autotuner.evaluations", "autotuner.failed_candidates",
    "autotuner.duplicate_recipes",
)


def _count_frontend(tracer, args, kwargs, result) -> None:
    tracer.counts["frontend.calls"] += 1


def _count_passes(tracer, args, kwargs, result) -> None:
    tracer.counts["passes.runs"] += 1
    tracer.counts["passes.ir_instrs_out"] += args[1].instruction_count()


def _count_backend(tracer, args, kwargs, result) -> None:
    tracer.counts["backend.static_instrs"] += result.total_static_instructions()
    stats = getattr(result, "backend_stats", None) or {}
    tracer.counts["backend.spilled_vregs"] += sum(
        entry.get("spilled_vregs", 0) for entry in stats.values())


def _count_emulator(tracer, args, kwargs, result) -> None:
    tracer.counts["emulator.instrs"] += result.instructions


def _cpu_probe(machine_cls, init, run):
    """Split an observed ``Machine.run`` into emulation and CPU-model time.

    The CPU timing model is an observer inside the emulator loop, so it has
    no call of its own to wrap.  After each observed run the probe replays
    the same program once without observers (the original, unwrapped
    methods, inside a ``tracing`` span) and records the difference as a
    ``cpu`` child span at the start of the emulator span.
    """

    def probe(tracer, span, args, kwargs, result) -> None:
        machine = args[0]
        if not machine.observers or type(machine) is not machine_cls:
            return
        check = tracer.open("tracing")
        try:
            plain = machine_cls.__new__(machine_cls)
            init(plain, machine.program,
                 max_instructions=machine.max_instructions,
                 segment_size=machine.segment_size,
                 input_values=machine.input_values)
            start = time.perf_counter()
            trace = run(plain, *args[1:], **kwargs)
            unobserved = time.perf_counter() - start
        finally:
            tracer.close(check)
        if trace.instructions != result.instructions:
            tracer.problems.append(
                f"unobserved replay retired {trace.instructions} instructions, "
                f"observed run {result.instructions}")
        cpu = max(0.0, span.duration - unobserved)
        tracer.add_span("cpu", span, span.start, span.start + cpu)

    return probe


def _autotuner_counter():
    seen: dict = {}

    def count(tracer, args, kwargs, result) -> None:
        tuner, benchmark, candidates = args[0], args[1], args[2]
        recipes = seen.setdefault((id(tuner), benchmark), set())
        for candidate in candidates:
            tracer.counts["autotuner.evaluations"] += 1
            if candidate.fitness == float("inf"):
                tracer.counts["autotuner.failed_candidates"] += 1
            recipe = (tuple(candidate.passes), candidate.inline_threshold,
                      candidate.unroll_threshold)
            if recipe in recipes:
                tracer.counts["autotuner.duplicate_recipes"] += 1
            recipes.add(recipe)

    return count


def install(tracer: Tracer) -> Tracer:
    """Wrap every layer's entry point; undo with ``tracer.unpatch()``."""
    import repro.experiments.figures  # noqa: F401  (import so references get patched)
    import repro.fuzz  # noqa: F401  (the harness and the campaign runner)
    from repro.autotuner.search import GeneticAutotuner
    from repro.backend import compile_module
    from repro.backend.encoding import code_size_report
    from repro.cpu import CpuTimingModel
    from repro.emulator import Machine, ReferenceMachine, TranslatedMachine
    from repro.experiments.cache import MeasurementCache
    from repro.experiments.engine import ExperimentEngine
    from repro.frontend import compile_source
    from repro.fuzz.genprog import generate_program
    from repro.ir.interpreter import run_module
    from repro.passes import PassManager
    from repro.zkvm.models import ZkvmModel

    def emulator_kind(machine) -> str:
        return ("emulator.translate" if isinstance(machine, TranslatedMachine)
                else "emulator")

    probe = _cpu_probe(Machine, Machine.__init__, Machine.run)
    tracer.patch_function(compile_source, "frontend", after=_count_frontend)
    tracer.patch_method(PassManager, "run", "passes", after=_count_passes)
    tracer.patch_function(compile_module, "backend", after=_count_backend)
    tracer.patch_function(code_size_report, "backend.encoding")
    tracer.patch_method(Machine, "__init__", emulator_kind)
    tracer.patch_method(TranslatedMachine, "__init__", "emulator.translate")
    tracer.patch_method(Machine, "run", emulator_kind, probe=probe,
                        after=_count_emulator)
    tracer.patch_method(ReferenceMachine, "__init__", "emulator.reference")
    tracer.patch_method(ReferenceMachine, "run", "emulator.reference")
    tracer.patch_method(CpuTimingModel, "finalize", "cpu")
    tracer.patch_method(ZkvmModel, "evaluate", "zkvm")
    tracer.patch_function(run_module, "ir.interpreter")
    tracer.patch_function(generate_program, "fuzz.genprog")
    tracer.patch_method(MeasurementCache, "get", "experiments.cache.get")
    tracer.patch_method(MeasurementCache, "put", "experiments.cache.put")
    for name in ("measure", "measure_pairs", "map_jobs"):
        tracer.patch_method(ExperimentEngine, name, "experiments.engine")
    tracer.patch_method(GeneticAutotuner, "evaluate_generation", None,
                        after=_autotuner_counter())
    return tracer


def layer_metrics(tracer: Tracer, traced_wall: float) -> dict:
    """Self time per layer, the unattributed remainder and the layer counters.

    The self times of all spans plus ``unattributed.s`` add up to
    ``traced_wall`` (spans of a serial run nest and never overlap).
    """
    by_kind = self_time_by_kind(tracer.spans)
    metrics = {name: by_kind.get(kind, 0.0) for kind, name in TIME_METRICS.items()}
    metrics["unattributed.s"] = traced_wall - sum(by_kind.values())
    for name in COUNT_METRICS:
        metrics[name] = tracer.counts.get(name, 0)
    emulated = metrics["emulator.s"] + metrics["emulator.translate.s"]
    metrics["emulator.minstr_per_s"] = (
        metrics["emulator.instrs"] / emulated / 1e6 if emulated > 0 else 0.0)
    return metrics
