"""Tests for the differential harness, reducer, triage and campaign driver.

Planted-bug coverage: two deliberately evil passes are registered under
``fuzz-evil-*`` names and wrapped in synthetic profiles, proving the harness
buckets a semantic miscompile as ``passes`` and verifier-breaking IR as
``pipeline`` (naming the guilty pass when ``verify_each_pass`` is on), and
that the reducer shrinks such failures while preserving the stage.  A
patched backend, two patched emulators, a machine that skews its CPU
model's totals and one that miscounts paging events prove the ``backend``
and ``emulator`` buckets the same way.
"""

import pytest

from repro.backend import compile_module
from repro.emulator import Machine, TranslatedMachine
from repro.experiments.engine import ExperimentEngine
from repro.experiments.profiles import Profile
from repro.frontend import compile_source
from repro.fuzz import (
    HarnessConfig, STAGES, failure_fingerprint, format_repro, generate_program,
    load_corpus, minimize_source, parse_repro, run_campaign, run_differential,
    triage_failure, write_corpus,
)
from repro.fuzz import harness
from repro.fuzz.triage import TriageSummary
from repro.ir import BinaryOp
from repro.ir.interpreter import InterpreterError, StepLimitExceeded, run_module
from repro.passes import Pass, available_passes, register_pass

from support import REFERENCE_PROGRAM

INFINITE_LOOP = """
fn spin(x) -> int {
  while (1) {
    x = (x + 1);
  }
  return x;
}

fn main() -> int {
  print(spin(0));
  return 0;
}
"""

SMALL_SUM = """
global g0[2] = {40, 2};

fn junk(p0) -> int {
  return (p0 * 3);
}

fn main() -> int {
  var unused = junk(5);
  print((g0[0] + g0[1]));
  return 0;
}
"""


@pytest.fixture(scope="module", autouse=True)
def _unregister_evil_passes():
    """Planted-bug passes must not leak into other test modules.

    ``test_properties`` samples random pipelines from ``available_passes()``;
    an evil pass left in the global registry would (by design) miscompile its
    programs.
    """
    yield
    from repro.passes.pass_manager import _REGISTRY
    _REGISTRY.pop("fuzz-evil-flip-add", None)
    _REGISTRY.pop("fuzz-evil-drop-ret", None)


def _ensure_evil_passes():
    """Register the planted-bug passes once per process."""
    if "fuzz-evil-flip-add" in available_passes():
        return

    @register_pass
    class FlipFirstAdd(Pass):
        name = "fuzz-evil-flip-add"
        description = "planted bug: first 'add' in main becomes 'sub'"

        def run(self, module):
            function = module.get_function("main")
            for block in function.blocks:
                for inst in block.instructions:
                    if isinstance(inst, BinaryOp) and inst.opcode == "add":
                        inst.opcode = "sub"
                        return True
            return False

    @register_pass
    class DropMainTerminator(Pass):
        name = "fuzz-evil-drop-ret"
        description = "planted bug: main's entry block loses its terminator"

        def run(self, module):
            function = module.get_function("main")
            block = function.entry_block
            block.remove_instruction(block.instructions[-1])
            return True


def _evil_profile(pass_name: str) -> Profile:
    _ensure_evil_passes()
    return Profile(name=f"evil:{pass_name}", passes=(pass_name,), kind="custom")


def _diverging(machine_cls):
    """``machine_cls`` with one stray memory word written after every run.

    Outputs and the return value are untouched, so only the emulator
    stage's reference comparison can notice.
    """
    class Diverging(machine_cls):
        def run(self, *args, **kwargs):
            stats = super().run(*args, **kwargs)
            self.memory[0x7FF0] = 0xBAD
            return stats

    return Diverging


class SkewedTiming(Machine):
    """Times a run, then adds one instruction to the model's totals.

    The trace, outputs and memory stay exact, so only the comparison of the
    timed loop's CpuMetrics with the reference's observer model can notice.
    """

    def run(self, *args, **kwargs):
        stats = super().run(*args, **kwargs)
        for model in self.observers:
            model.instructions += 1
        return stats


class ExtraPageOut(Machine):
    """Counts one page-out event too many at every segment flush.

    Outputs, memory and the CPU model stay exact, so only the comparison of
    the trace's paging events with the reference's can notice.
    """

    def _flush_segment(self) -> None:
        super()._flush_segment()
        self.stats.page_out_events += 1


class TestStepLimitExceeded:
    """Satellite: the step-limit error reports function + executed steps."""

    def test_reports_function_and_steps(self):
        module = compile_source(INFINITE_LOOP, "spin")
        with pytest.raises(StepLimitExceeded) as exc:
            run_module(module, max_steps=500)
        error = exc.value
        assert error.function_name == "spin"
        assert error.steps > 500
        assert "spin" in str(error) and str(error.steps) in str(error)

    def test_is_an_interpreter_error(self):
        # Existing callers catching InterpreterError keep working.
        assert issubclass(StepLimitExceeded, InterpreterError)
        module = compile_source(INFINITE_LOOP, "spin")
        with pytest.raises(InterpreterError):
            run_module(module, max_steps=500)


class TestHarnessStages:
    def test_reference_program_is_clean(self):
        report = run_differential(REFERENCE_PROGRAM)
        assert report.ok and report.stage is None
        assert report.interp_steps > 0
        assert report.bucket == "ok"

    def test_frontend_bucket(self):
        report = run_differential("fn main( { ???")
        assert not report.ok and report.stage == "frontend"
        assert report.detail

    def test_step_limit_bucket(self):
        config = HarnessConfig(interp_max_steps=1_000)
        report = run_differential(INFINITE_LOOP, config)
        assert report.stage == "step-limit"
        assert "spin" in report.detail

    def test_planted_miscompile_buckets_as_passes(self):
        config = HarnessConfig(profiles=[_evil_profile("fuzz-evil-flip-add")])
        report = run_differential(SMALL_SUM, config)
        assert not report.ok
        assert report.stage == "passes"
        assert report.profile == "evil:fuzz-evil-flip-add"
        assert "expected" in report.detail  # names the diverging value

    def test_planted_verifier_break_buckets_as_pipeline(self):
        config = HarnessConfig(profiles=[_evil_profile("fuzz-evil-drop-ret")])
        report = run_differential(SMALL_SUM, config)
        assert not report.ok
        assert report.stage == "pipeline"

    def test_verify_each_pass_names_the_guilty_pass(self):
        config = HarnessConfig(profiles=[_evil_profile("fuzz-evil-drop-ret")],
                               verify_each_pass=True)
        report = run_differential(SMALL_SUM, config)
        assert report.stage == "pipeline"
        assert "fuzz-evil-drop-ret" in report.detail

    def test_planted_backend_fault_buckets_as_backend(self, monkeypatch):
        wrong = compile_source("fn main() -> int { print(42); return 1; }")
        monkeypatch.setattr(harness, "compile_module",
                            lambda module, cost_model:
                            compile_module(wrong, cost_model))
        report = run_differential(SMALL_SUM)
        assert not report.ok
        assert report.stage == "backend"
        assert report.detail == "return value: expected 0, got 1"

    @pytest.mark.parametrize("name, machine_cls", [
        ("translated", TranslatedMachine), ("timed", Machine)])
    def test_planted_emulator_fault_buckets_as_emulator(self, monkeypatch,
                                                        name, machine_cls):
        monkeypatch.setattr(harness, machine_cls.__name__,
                            _diverging(machine_cls))
        report = run_differential(SMALL_SUM)
        assert not report.ok
        assert report.stage == "emulator"
        assert name in report.detail and "memory" in report.detail

    def test_planted_cpu_timing_fault_buckets_as_emulator(self, monkeypatch):
        monkeypatch.setattr(harness, "Machine", SkewedTiming)
        report = run_differential(SMALL_SUM)
        assert not report.ok
        assert report.stage == "emulator"
        assert report.detail == ("timed and reference emulators diverged on "
                                 "CpuMetrics")

    def test_planted_paging_fault_buckets_as_emulator(self, monkeypatch):
        monkeypatch.setattr(harness, "Machine", ExtraPageOut)
        report = run_differential(SMALL_SUM)
        assert not report.ok
        assert report.stage == "emulator"
        assert "TraceStats" in report.detail

    def test_all_reported_stages_are_known(self):
        assert STAGES == ("frontend", "step-limit", "interp", "pipeline",
                          "passes", "backend", "emulator")


class TestMinimizer:
    def test_shrinks_planted_miscompile(self):
        config = HarnessConfig(profiles=[_evil_profile("fuzz-evil-flip-add")])
        report = run_differential(SMALL_SUM, config)
        assert report.stage == "passes"
        result = minimize_source(SMALL_SUM, report, config, max_evals=150)
        assert result.report.stage == "passes"
        assert len(result.source) < len(SMALL_SUM)
        assert "junk" not in result.source  # the unrelated helper is gone
        # The reduced program still fails the same way when replayed.
        replay = run_differential(result.source, config)
        assert replay.stage == "passes"

    def test_shrinks_generated_step_limit_failure(self):
        program = generate_program(3, mode="loop-heavy")
        config = HarnessConfig(interp_max_steps=200)
        report = run_differential(program.source, config)
        assert report.stage == "step-limit"
        result = minimize_source(program.source, report, config, max_evals=150)
        assert result.report.stage == "step-limit"
        assert len(result.source.splitlines()) < \
            len(program.source.splitlines()) // 2

    def test_refuses_passing_program(self):
        report = run_differential(REFERENCE_PROGRAM)
        with pytest.raises(ValueError):
            minimize_source(REFERENCE_PROGRAM, report)


class TestTriage:
    def _failing_report(self):
        config = HarnessConfig(interp_max_steps=1_000)
        return run_differential(INFINITE_LOOP, config)

    def test_fingerprint_is_content_addressed(self):
        assert failure_fingerprint("passes", "src") == \
            failure_fingerprint("passes", "src")
        assert failure_fingerprint("passes", "src") != \
            failure_fingerprint("emulator", "src")
        assert failure_fingerprint("passes", "src") != \
            failure_fingerprint("passes", "other")

    def test_triage_and_dedupe(self):
        report = self._failing_report()
        summary = TriageSummary()
        first = triage_failure(INFINITE_LOOP, report, seed=1, mode="mixed")
        duplicate = triage_failure(INFINITE_LOOP, report, seed=2, mode="mixed")
        assert summary.add(first) is True
        assert summary.add(duplicate) is False
        assert summary.unique_failures == 1 and summary.duplicates == 1
        assert summary.as_dict()["buckets"]["step-limit"][0]["seed"] == 1

    def test_repro_round_trip(self, tmp_path):
        report = self._failing_report()
        failure = triage_failure(INFINITE_LOOP, report, seed=9, mode="mixed")
        text = format_repro(failure)
        header, source = parse_repro(text)
        assert header["stage"] == "step-limit"
        assert header["seed"] == "9"
        assert source.strip() == INFINITE_LOOP.strip()
        # The whole .repro file is itself compilable (headers are comments).
        compile_source(text, "repro")

        paths = write_corpus([failure], tmp_path)
        assert paths == [str(tmp_path / failure.filename)]
        entries = load_corpus(tmp_path)
        assert len(entries) == 1
        _, loaded_header, loaded_source = entries[0]
        assert loaded_header == header and loaded_source == source

    def test_triage_refuses_passing_report(self):
        report = run_differential(REFERENCE_PROGRAM)
        with pytest.raises(ValueError):
            triage_failure(REFERENCE_PROGRAM, report)


class TestCampaignDriver:
    def test_clean_campaign(self):
        engine = ExperimentEngine(workers=1, use_disk_cache=False)
        summary = run_campaign(6, mode="all", engine=engine)
        assert summary.clean
        assert summary.ok == summary.unique_programs
        assert summary.generated == 6
        assert summary.as_dict()["failed"] == 0

    def test_campaign_with_planted_bug_triages_and_persists(self, tmp_path):
        config = HarnessConfig(profiles=[_evil_profile("fuzz-evil-flip-add")])
        engine = ExperimentEngine(workers=1, use_disk_cache=False)
        summary = run_campaign(3, mode="mixed", engine=engine, config=config,
                               corpus_dir=tmp_path)
        assert not summary.clean
        assert summary.failed > 0
        assert summary.triage.unique_failures >= 1
        assert summary.corpus_files
        # Every persisted reproducer replays to a failure of the same stage.
        for path, header, source in load_corpus(tmp_path):
            replay = run_differential(source, config)
            assert replay.stage == header["stage"]

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            run_campaign(1, mode="nope")
