"""The runner's content memos: what the module and program keys must tell
apart, and that answering a job through them changes no measurement."""

import re
from collections import defaultdict

import pytest

from repro import cli
from repro.backend import compile_module
from repro.experiments import (
    BenchmarkRunner, ExperimentEngine, baseline_profile, pass_profiles,
)
from repro.experiments import runner as runner_module
from repro.experiments.cache import module_key, program_key
from repro.experiments.figures import DEFAULT_BENCHMARKS, DEFAULT_PASSES
from repro.ir import I8, I16, I32, Constant, IRBuilder, Module, format_module

#: ``(args, inputs, max_instructions, translate)`` of a plain run.
RUN = (None, None, 20_000_000, False)
#: Figure 8's profiles: the baseline and its 16 single passes.
FIGURE8_PROFILES = [baseline_profile(), *pass_profiles(DEFAULT_PASSES)]
SLICE_BENCHMARKS = ["fibonacci", "loop-sum", "polybench-gemm", "sha256"]


def _jobs(benchmarks):
    return [(b, p) for b in benchmarks for p in FIGURE8_PROFILES]


def _program_image(program):
    """Everything of a program a replay can read, comments included."""
    return ([(name, [str(item) for item in function.body])
             for name, function in program.functions.items()],
            program.globals_init, program.globals_layout, program.data_end)


def _sext_module(width):
    """``main`` returns ``sext(-3 as <width>)``: the width is in no name."""
    module = Module("sext")
    builder = IRBuilder(module.create_function("main", I32).add_block("entry"))
    builder.ret(builder.cast("sext", Constant(-3, width), I32))
    return module


class TestModuleKey:
    def test_initializer_beyond_the_eighth_element(self):
        module = BenchmarkRunner().frontend_module("sha256")
        first, second = module.clone(), module.clone()
        second.get_global("sha_k").initializer[8] ^= 1
        assert format_module(first) == format_module(second)
        assert module_key(first, baseline_profile().cost_model, RUN) != \
            module_key(second, baseline_profile().cost_model, RUN)

    def test_constant_width(self):
        narrow, wide = _sext_module(I8), _sext_module(I16)
        assert format_module(narrow) == format_module(wide)
        cost_model = baseline_profile().cost_model
        assert module_key(narrow, cost_model, RUN) != \
            module_key(wide, cost_model, RUN)
        assert _program_image(compile_module(narrow, cost_model)) != \
            _program_image(compile_module(wide, cost_model))

    def test_run_inputs(self):
        module = BenchmarkRunner().frontend_module("fibonacci")
        cost_model = baseline_profile().cost_model
        keys = {module_key(module, cost_model, run)
                for run in (RUN, ((1,), None, 20_000_000, False),
                            (None, (1,), 20_000_000, False))}
        assert len(keys) == 3

    def test_equal_keys_compile_to_identical_programs_on_figure8(self):
        runner = BenchmarkRunner()
        groups = defaultdict(list)
        for benchmark, profile in _jobs(DEFAULT_BENCHMARKS):
            module = runner_module._optimized(runner.frontend_module(benchmark),
                                              profile)
            key = module_key(module, profile.cost_model, RUN)
            groups[key].append(_program_image(
                compile_module(module, profile.cost_model)))
        assert len(groups) < len(_jobs(DEFAULT_BENCHMARKS))
        for images in groups.values():
            assert all(image == images[0] for image in images[1:])


class TestProgramKey:
    def test_run_inputs(self):
        program = BenchmarkRunner().compile("fibonacci", baseline_profile())
        keys = {program_key(program, run)
                for run in (RUN, ((1,), None, 20_000_000, False),
                            (None, (1,), 20_000_000, False),
                            (None, None, 1_000, False))}
        assert len(keys) == 4

    def test_comments_are_not_read(self):
        program = BenchmarkRunner().compile("fibonacci", baseline_profile())
        before = program_key(program, RUN)
        for function in program.functions.values():
            for item in function.instructions():
                item.comment = "renamed"
        assert program_key(program, RUN) == before


@pytest.fixture(scope="module")
def shared_slice():
    """The slice measured through one serial runner, with its call counts."""
    calls = defaultdict(int)
    patch = pytest.MonkeyPatch()
    for name in ("compile_module", "measure_program"):
        original = getattr(runner_module, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        patch.setattr(runner_module, name, counted)
    try:
        measurements = BenchmarkRunner().measure_pairs(_jobs(SLICE_BENCHMARKS))
    finally:
        patch.undo()
    return measurements, dict(calls)


class TestReuse:
    def test_one_runner_equals_a_fresh_runner_per_job(self, shared_slice):
        measurements, _ = shared_slice
        for (benchmark, profile), shared in zip(_jobs(SLICE_BENCHMARKS),
                                                measurements):
            fresh = BenchmarkRunner().measure(benchmark, profile)
            assert shared.as_dict() == fresh.as_dict()
            assert shared.trace == fresh.trace
            assert shared.static_instructions == fresh.static_instructions

    def test_serial_runner_compiles_and_replays_less_than_once_per_job(
            self, shared_slice):
        _, calls = shared_slice
        jobs = len(_jobs(SLICE_BENCHMARKS))
        assert calls["compile_module"] < jobs
        assert calls["measure_program"] < jobs

    def test_failures_are_not_memoized(self):
        runner = BenchmarkRunner(max_instructions=10)
        for _ in range(2):
            with pytest.raises(Exception):
                runner.measure("fibonacci", baseline_profile())
        assert runner._by_module == {} and runner._by_program == {}

    def test_pool_workers_reuse_and_match_a_serial_runner(self):
        jobs = _jobs(["fibonacci", "loop-sum"])
        engine = ExperimentEngine(workers=2, use_disk_cache=False)
        try:
            parallel = engine.measure_pairs(jobs)
        finally:
            engine.close()
        serial = BenchmarkRunner().measure_pairs(jobs)
        assert [m.as_dict() for m in parallel] == [m.as_dict() for m in serial]
        assert engine.stats.computed == len(jobs)
        assert engine.stats.reused > 0

    def test_engine_line_reports_reuse(self, capsys):
        assert cli.main(["--no-disk-cache", "--workers", "1", "measure",
                         "fibonacci", "--profile", "baseline",
                         "--profile", "mem2reg", "--profile", "reg2mem"]) == 0
        assert re.search(r"\[engine\] computed=3 reused=\d+ ",
                         capsys.readouterr().err)
