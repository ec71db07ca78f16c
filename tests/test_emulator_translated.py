"""Seeded property suite for the superblock translator.

The translated engine already rides the engine-parametrized differential
battery (microprogram, all 58 seed benchmarks, segment/fault parity) in
``test_emulator_differential.py``; this file adds the translator-specific
properties: a 500-seed replay across every fuzz generator mode, the
checked-in fuzz corpus, faults landing *mid-superblock* (instruction limits
that expire inside a compiled region), segment boundaries pinned to the
exact dynamic run length, the interpreter fallback a CPU model forces, and
code-cache reuse across re-runs and machines.
"""

from pathlib import Path

import pytest

from engines import assert_runs_identical, run_engine
from repro.backend import compile_module
from repro.backend.isa import AssemblyFunction, AssemblyProgram, MachineInstr
from repro.cpu import CpuTimingModel
from repro.emulator import EmulationError, Machine, TranslatedMachine
from repro.frontend import compile_source
from repro.fuzz import load_corpus
from repro.fuzz.genprog import MODES, generate_program

#: 5 modes x 100 seeds = the 500-seed replay bar the translator must clear.
SEEDS_PER_MODE = 100

#: A tight counted loop whose body compiles into one superblock: the
#: instruction-limit sweep lands the fault at every offset inside it.
LOOP_SOURCE = """
fn main() -> int {
  var acc;
  var i;
  acc = 0;
  for (i = 0; i < 1000; i = i + 1) { acc = acc + i * 3 - (acc >> 1); }
  return acc;
}
"""


def _compile(source: str) -> AssemblyProgram:
    return compile_module(compile_source(source))


def _assert_translated_matches_fast(program, context="", **kwargs):
    """Run both scalar engines and require observational identity."""
    fast = run_engine("fast", program, **kwargs)
    translated = run_engine("translated", program, **kwargs)
    assert_runs_identical(translated, fast, context)
    return translated, fast


class TestFuzzModeReplay:
    @pytest.mark.parametrize("mode", MODES)
    def test_seeded_generated_programs_replay_identically(self, mode):
        for seed in range(SEEDS_PER_MODE):
            generated = generate_program(seed, mode=mode)
            program = _compile(generated.source)
            _assert_translated_matches_fast(
                program, f"mode={mode} seed={seed}")


class TestFuzzCorpusReplay:
    CORPUS = load_corpus(Path(__file__).parent / "corpus")

    @pytest.mark.parametrize(
        "path,header,source", CORPUS,
        ids=[Path(entry[0]).stem for entry in CORPUS])
    def test_corpus_entry_replays_identically(self, path, header, source):
        program = _compile(source)
        _assert_translated_matches_fast(program, Path(path).name)


class TestMidSuperblockFaults:
    def test_limit_expires_at_every_block_offset(self):
        # Sweep the instruction limit across a window wider than any
        # superblock in the loop: every limit lands the fault at a different
        # offset relative to block entry, and the partial trace (counts,
        # memory, paging) must still match the interpreter exactly.
        program = _compile(LOOP_SOURCE)
        run_length = Machine(program).run().instructions
        limits = list(range(1, 40)) + [run_length - 1]
        for limit in limits:
            translated, _ = _assert_translated_matches_fast(
                program, f"max_instructions={limit}",
                max_instructions=limit)
            assert isinstance(translated.error, EmulationError)
            assert translated.stats.instructions == limit

    def test_fault_after_straight_line_prefix(self):
        # An ebreak at the end of a straight-line region: the instructions
        # before the fault are mid-superblock work that must be folded into
        # the partial trace identically.
        body = [
            MachineInstr("li", ["t0", 7]),
            MachineInstr("addi", ["t1", "t0", 5]),
            MachineInstr("sw", ["t1", 0, "sp"]),
            MachineInstr("ebreak", []),
        ]
        program = AssemblyProgram(functions={
            "main": AssemblyFunction("main", body)})
        translated, _ = _assert_translated_matches_fast(
            program, "ebreak after straight-line prefix")
        assert isinstance(translated.error, EmulationError)
        assert translated.stats.instructions == 4


class TestSegmentBoundaries:
    def test_segment_sizes_straddling_the_run_length(self):
        # The fuel check must stop a superblock short of every segment
        # boundary: sizes pinned to the exact dynamic run length (and its
        # neighbours) land a boundary at the most awkward offsets.
        program = _compile(LOOP_SOURCE)
        run_length = Machine(program).run().instructions
        for segment_size in (1, 7, run_length - 1, run_length,
                             run_length + 1):
            _assert_translated_matches_fast(
                program,
                f"segment_size={segment_size} (run_length={run_length})",
                segment_size=segment_size)

    @pytest.mark.parametrize("mode", ["loop-heavy", "call-heavy"])
    def test_generated_programs_with_tiny_segments(self, mode):
        for seed in range(5):
            program = _compile(generate_program(seed, mode=mode).source)
            for segment_size in (1, 7, 100):
                _assert_translated_matches_fast(
                    program, f"mode={mode} seed={seed} seg={segment_size}",
                    segment_size=segment_size)


class TestObserverFallback:
    def test_cpu_model_forces_the_interpreter_path(self):
        # With a CpuTimingModel attached the translator must take the
        # inherited timed loop: no superblock runs, and the model times the
        # run exactly as it does on the fast interpreter.
        program = _compile(LOOP_SOURCE)
        fast_cpu, trans_cpu = CpuTimingModel(), CpuTimingModel()
        fast = Machine(program, observers=[fast_cpu])
        translated = TranslatedMachine(program, observers=[trans_cpu])
        assert fast.run() == translated.run()
        assert trans_cpu.finalize() == fast_cpu.finalize()
        # Superblocks compile lazily on first dispatch, so a timed run —
        # which never enters the block dispatcher — leaves the cache empty.
        assert translated._tcache.compiled_blocks == 0, \
            "timed run must not dispatch (or compile) superblocks"

    def test_unobserved_run_actually_uses_superblocks(self):
        # The fallback test above is only meaningful if the fast path really
        # does dispatch blocks when unobserved.
        program = _compile(LOOP_SOURCE)
        translated = TranslatedMachine(program)
        translated.run()
        assert translated._tcache.compiled_blocks > 0


class TestCodeCacheReuse:
    def test_reruns_reuse_compiled_blocks(self):
        program = _compile(LOOP_SOURCE)
        machine = TranslatedMachine(program)
        first = machine.run()
        compiled_after_first = machine._tcache.compiled_blocks
        second = machine.run()
        assert first == second
        assert machine._tcache.compiled_blocks == compiled_after_first, \
            "a re-run must not recompile cached superblocks"

    def test_machines_share_one_cache_per_program(self):
        program = _compile(LOOP_SOURCE)
        first = TranslatedMachine(program)
        first.run()
        compiled = first._tcache.compiled_blocks
        second = TranslatedMachine(program)
        assert second._tcache is first._tcache
        second.run()
        assert second._tcache.compiled_blocks == compiled

    def test_cache_survives_a_faulting_run(self):
        # A limit fault mid-run must leave the shared cache usable: a fresh
        # machine over the same program still replays to a clean halt.
        program = _compile(LOOP_SOURCE)
        faulting = TranslatedMachine(program, max_instructions=50)
        with pytest.raises(EmulationError):
            faulting.run()
        clean = TranslatedMachine(program).run()
        assert clean.instructions == Machine(program).run().instructions
