"""Differential tests: every execution engine vs the seed interpreter.

The production :class:`~repro.emulator.machine.Machine` replays guests through
a decode-once, table-dispatch pipeline, with a second loop that fuses the CPU
timing model into the dispatch; the original per-instruction interpreter
survives as :class:`~repro.emulator.reference.ReferenceMachine` and drives the
observer ``CpuTimingModel``; the superblock translator compiles hot regions to
Python closures.  These tests parametrize over the shared engine helpers in
``tests/engines.py`` so every engine — current and future — is held to
*identical* trace statistics, outputs, paging events, final memory, fault
behavior and (for the timed engine) ``CpuMetrics``, partial ones at a fault
included, across every seed benchmark (unoptimized, and as the ``-O3`` and
``-O3-zkvm`` pipelines compile it), divergence-heavy guests, the fuzz corpus
and an opcode-coverage microprogram that executes every implemented ALU,
branch, jump, memory and ecall opcode at least once.  Targeted guests pin the
timing rules the benchmarks may not reach: LRU eviction, predictor aliasing
and the latency drain.
"""

from functools import lru_cache
from pathlib import Path

import pytest

from engines import (
    DIFF_ENGINE_NAMES, EngineRun, assert_runs_identical, run_engine,
)
from repro.backend import compile_module
from repro.backend.isa import (
    AssemblyFunction, AssemblyProgram, Label, MachineInstr,
)
from repro.backend.lowering import HOST_CALL_IDS
from repro.benchmarks import all_benchmark_names, get_benchmark
from repro.cpu import CpuTimingModel
from repro.cpu.x86_model import CpuConfig
from repro.emulator import (
    EmulationError, Machine, ReferenceMachine, TranslatedMachine,
    decode_program,
)
from repro.emulator.decoder import ALU_IMM_IMPLS, _ALU_IMM_DECODED
from repro.experiments import BenchmarkRunner, profile_by_name
from repro.frontend import compile_source
from repro.fuzz import load_corpus
from repro.fuzz.genprog import generate_program

@lru_cache(maxsize=None)
def _compile_benchmark(name: str,
                       profile_name: str | None = None) -> AssemblyProgram:
    """One seed benchmark, unoptimized or as the measurements compile it
    under ``profile_name``."""
    if profile_name is not None:
        return BenchmarkRunner().compile(name, profile_by_name(profile_name))
    benchmark = get_benchmark(name)
    return compile_module(compile_source(benchmark.source, module_name=name))


@lru_cache(maxsize=None)
def _compile(source: str) -> AssemblyProgram:
    return compile_module(compile_source(source))


_reference_runs: dict = {}


def _reference_benchmark_run(name: str, profile_name: str | None = None):
    """The memoized reference-interpreter run of one seed benchmark, timed
    by the observer ``CpuTimingModel``."""
    key = (name, profile_name)
    if key not in _reference_runs:
        benchmark = get_benchmark(name)
        _reference_runs[key] = run_engine(
            "reference", _compile_benchmark(name, profile_name), "main",
            benchmark.args, input_values=benchmark.inputs)
    return _reference_runs[key]


# -- opcode-coverage microprogram ----------------------------------------------
#: Every opcode the emulator implements (decoded to a non-faulting handler).
IMPLEMENTED_OPCODES = frozenset({
    "add", "sub", "and", "or", "xor", "sll", "srl", "sra", "slt", "sltu",
    "mul", "div", "divu", "rem", "remu",
    "addi", "andi", "ori", "xori", "slli", "srli", "srai", "slti", "sltiu",
    "li", "lui", "mv", "lw", "sw",
    "beq", "bne", "blt", "bge", "bltu", "bgeu", "beqz", "bnez", "j",
    "call", "jal", "jalr", "ecall", "nop",
})


def _instr(opcode, *operands):
    return MachineInstr(opcode, list(operands))


def microprogram() -> AssemblyProgram:
    """A hand-written guest executing every implemented opcode at least once.

    Branches are exercised both taken and not-taken; signed/unsigned and
    negative-immediate corners are included so every decode-time immediate
    preparation is hit.
    """
    main = [
        # prologue: keep main's sentinel return address across calls
        _instr("addi", "sp", "sp", -8),
        _instr("sw", "ra", 4, "sp"),
        # register-register ALU, with a negative operand in t4
        _instr("li", "t0", 12),
        _instr("li", "t1", 5),
        _instr("li", "t4", -7),
        _instr("add", "t2", "t0", "t1"),
        _instr("sub", "t3", "t0", "t1"),
        _instr("and", "s1", "t0", "t1"),
        _instr("or", "s2", "t0", "t1"),
        _instr("xor", "s3", "t0", "t1"),
        _instr("sll", "s4", "t0", "t1"),
        _instr("srl", "s5", "s4", "t1"),
        _instr("sra", "s6", "t4", "t1"),
        _instr("slt", "s7", "t4", "t0"),
        _instr("sltu", "s8", "t4", "t0"),
        _instr("mul", "s9", "t0", "t1"),
        _instr("div", "s10", "t4", "t1"),
        _instr("divu", "s11", "t0", "t1"),
        _instr("rem", "t5", "t4", "t1"),
        _instr("remu", "t6", "t0", "t1"),
        # division corner: divisor zero
        _instr("li", "a1", 0),
        _instr("div", "a2", "t0", "a1"),
        _instr("divu", "a3", "t0", "a1"),
        _instr("rem", "a4", "t4", "a1"),
        _instr("remu", "a5", "t0", "a1"),
        # immediates, including negative / masked corners
        _instr("addi", "a1", "t0", -3),
        _instr("andi", "a2", "t4", 255),
        _instr("andi", "a3", "t4", -1),
        _instr("ori", "a4", "t4", -16),
        _instr("xori", "a5", "t4", -1),
        _instr("slli", "a6", "t0", 3),
        _instr("srli", "a7", "t4", 2),
        _instr("srai", "s1", "t4", 2),
        _instr("slti", "s2", "t4", -3),
        _instr("slti", "s3", "t4", 100),
        _instr("sltiu", "s4", "t4", -1),
        _instr("sltiu", "s5", "t0", 13),
        _instr("lui", "s6", 5),
        _instr("mv", "s7", "t0"),
        _instr("nop"),
        # memory: stores, loads, and a load from never-written address 0
        _instr("li", "s8", 0x1000),
        _instr("sw", "t0", 0, "s8"),
        _instr("lw", "s9", 0, "s8"),
        _instr("sw", "t1", 4, "s8"),
        _instr("lw", "s10", 4, "s8"),
        _instr("lw", "s11", 0, "zero"),
        # conditional branches: every predicate, taken and not taken
        _instr("beq", "t0", "t1", "Lnever"),
        _instr("beq", "t0", "t0", "L1"),
        Label("L1"),
        _instr("bne", "t0", "t0", "Lnever"),
        _instr("bne", "t0", "t1", "L2"),
        Label("L2"),
        _instr("blt", "t1", "t0", "L3"),
        Label("L3"),
        _instr("blt", "t0", "t1", "Lnext1"),
        Label("Lnext1"),
        _instr("bge", "t0", "t1", "L4"),
        Label("L4"),
        _instr("bge", "t4", "t0", "Lnext2"),   # t4 negative: not taken
        Label("Lnext2"),
        _instr("bltu", "t1", "t0", "L5"),
        Label("L5"),
        _instr("bltu", "t4", "t0", "Lnext3"),  # t4 huge unsigned: not taken
        Label("Lnext3"),
        _instr("bgeu", "t4", "t0", "L6"),      # taken (unsigned)
        Label("L6"),
        _instr("beqz", "zero", "L7"),
        Label("L7"),
        _instr("bnez", "t0", "L8"),
        Label("L8"),
        _instr("beqz", "t0", "Lnever"),
        _instr("bnez", "zero", "Lnever"),
        _instr("j", "L9"),
        Label("Lnever"),
        _instr("ebreak"),
        Label("L9"),
        # jumps and calls
        _instr("call", "helper"),
        _instr("call", "helper2"),
        _instr("jal", "t3", "Lj"),
        Label("Lj"),
        # host calls: print the accumulator, read one input word
        _instr("mv", "a0", "s9"),
        _instr("li", "a7", HOST_CALL_IDS["__print"]),
        _instr("ecall"),
        _instr("li", "a0", 0),
        _instr("li", "a7", HOST_CALL_IDS["__read_input"]),
        _instr("ecall"),
        # epilogue
        _instr("lw", "ra", 4, "sp"),
        _instr("addi", "sp", "sp", 8),
        _instr("jalr", "zero", "ra", 0),
    ]
    helper = [
        _instr("addi", "a0", "a0", 1),
        _instr("jalr", "zero", "ra", 0),
    ]
    helper2 = [
        _instr("jalr", "t4", "ra", 0),         # jalr with a live destination
    ]
    return AssemblyProgram(functions={
        "main": AssemblyFunction("main", main),
        "helper": AssemblyFunction("helper", helper),
        "helper2": AssemblyFunction("helper2", helper2),
    })


class TestMicroprogram:
    def test_covers_every_implemented_opcode(self):
        program = microprogram()
        stats = Machine(program, input_values=[77]).run()
        executed = set(stats.opcode_counts)
        missing = IMPLEMENTED_OPCODES - executed
        assert not missing, f"microprogram never executed: {sorted(missing)}"

    @pytest.mark.parametrize("engine", DIFF_ENGINE_NAMES)
    def test_every_engine_matches_reference(self, engine):
        program = microprogram()
        ref = run_engine("reference", program, input_values=[77])
        run = run_engine(engine, program, input_values=[77])
        assert_runs_identical(run, ref, "on the microprogram")

    def test_translated_machine_times_like_the_reference(self):
        # A TranslatedMachine with a model attached inherits Machine's timed
        # loop: it must time the run exactly like the reference observer and
        # never enter (or compile) a superblock.
        program = microprogram()
        ref = run_engine("reference", program, input_values=[77])
        machine = TranslatedMachine(program, observers=[CpuTimingModel()],
                                    input_values=[77])
        machine.run()
        assert_runs_identical(EngineRun("translated", machine, None), ref,
                              "timed translated run of the microprogram")
        assert machine._tcache.compiled_blocks == 0

    def test_branches_seen_taken_and_not_taken(self):
        stats = Machine(microprogram(), input_values=[77]).run()
        assert stats.branches_taken > 0
        assert stats.branches_not_taken > 0


#: Every seed benchmark unoptimized, then as the paper's two profiles compile
#: it.  The reported numbers come from optimized programs, whose instruction
#: mix (folded immediates, hoisted invariants, peephole rewrites, registers
#: recoloured for RVC) differs from the unoptimized one.
BENCHMARK_CASES = [(name, profile_name)
                   for profile_name in (None, "-O3", "-O3-zkvm")
                   for name in all_benchmark_names()]


class TestSeedBenchmarksDifferential:
    @pytest.mark.parametrize("engine", DIFF_ENGINE_NAMES)
    @pytest.mark.parametrize(
        "name,profile_name", BENCHMARK_CASES,
        ids=[name if profile_name is None else f"{name}@{profile_name}"
             for name, profile_name in BENCHMARK_CASES])
    def test_trace_stats_identical(self, name, profile_name, engine):
        benchmark = get_benchmark(name)
        run = run_engine(engine, _compile_benchmark(name, profile_name),
                         "main", benchmark.args, input_values=benchmark.inputs)
        ref = _reference_benchmark_run(name, profile_name)
        assert_runs_identical(
            run, ref,
            f"on benchmark {name} ({profile_name or 'unoptimized'})")
        assert run.stats.summary() == ref.stats.summary()


#: Heavily divergent control flow: Collatz walks plus a three-way modulo
#: dispatch, so neighbouring arguments take very different paths.
BRANCHY_SOURCE = """
fn collatz(n) -> int {
  var steps;
  steps = 0;
  while (n > 1 && steps < 200) {
    if (n % 2) { n = 3 * n + 1; } else { n = n / 2; }
    steps = steps + 1;
  }
  return steps;
}
fn main(n) -> int {
  var acc;
  var i;
  acc = 0;
  for (i = 0; i <= n; i = i + 1) {
    if (i % 3 == 0) {
      acc = acc + collatz(i + n);
    } else {
      if (i % 3 == 1) { acc = acc ^ (i * 2654435761); }
      else { acc = acc - i; }
    }
  }
  print(acc);
  return acc;
}
"""

#: Folds four host-call input words into printed running hashes.
INPUTS_SOURCE = """
fn main() -> int {
  var acc;
  var i;
  acc = 0;
  for (i = 0; i < 4; i = i + 1) {
    acc = acc * 31 + read_input(i);
    print(acc);
  }
  return acc;
}
"""


class TestDivergentGuests:
    """Argument-, input- and seed-dependent guests against the reference."""

    CORPUS = load_corpus(Path(__file__).parent / "corpus")

    @pytest.mark.parametrize("engine", DIFF_ENGINE_NAMES)
    @pytest.mark.parametrize("n", [0, 3, 17, 25, 39])
    def test_branchy_arguments(self, n, engine):
        program = _compile(BRANCHY_SOURCE)
        ref = run_engine("reference", program, args=[n])
        run = run_engine(engine, program, args=[n])
        assert_runs_identical(run, ref, f"args=[{n}]")
        assert run.output == [run.stats.return_value]

    @pytest.mark.parametrize("engine", DIFF_ENGINE_NAMES)
    @pytest.mark.parametrize("inputs", [
        [1, 2, 3, 4], [5, 5, 5, 5], [0, 0, 0, 7], [123456789, 1, 2, 3],
    ], ids=["ascending", "constant", "trailing", "large"])
    def test_host_call_inputs(self, inputs, engine):
        program = _compile(INPUTS_SOURCE)
        ref = run_engine("reference", program, input_values=inputs)
        run = run_engine(engine, program, input_values=inputs)
        assert_runs_identical(run, ref, f"inputs={inputs}")
        assert len(run.output) == 4

    @pytest.mark.parametrize("engine", DIFF_ENGINE_NAMES)
    @pytest.mark.parametrize("seed", range(6))
    def test_branchy_int_generated_program(self, seed, engine):
        program = _compile(generate_program(seed, mode="branchy-int").source)
        ref = run_engine("reference", program)
        run = run_engine(engine, program)
        assert_runs_identical(run, ref, f"branchy-int seed={seed}")

    @pytest.mark.parametrize("engine", DIFF_ENGINE_NAMES)
    @pytest.mark.parametrize(
        "path,header,source", CORPUS,
        ids=[Path(entry[0]).stem for entry in CORPUS])
    def test_corpus_entry(self, path, header, source, engine):
        program = _compile(source)
        ref = run_engine("reference", program)
        run = run_engine(engine, program)
        assert_runs_identical(run, ref, Path(path).name)


class TestSegmentPaging:
    SOURCE = """
    global big[2048];
    fn main() -> int {
      var i;
      for (i = 0; i < 2048; i = i + 32) { big[i] = i + big[i % 64]; }
      return big[0];
    }
    """

    @pytest.mark.parametrize("engine", DIFF_ENGINE_NAMES)
    @pytest.mark.parametrize("segment_size", [7, 100, 999, 1 << 16])
    def test_partial_trailing_segment_pages_correctly(self, segment_size,
                                                      engine):
        """Instruction counts that are not a multiple of segment_size must
        still flush the trailing partial segment exactly once."""
        program = _compile(self.SOURCE)
        ref = run_engine("reference", program, segment_size=segment_size)
        run = run_engine(engine, program, segment_size=segment_size)
        assert_runs_identical(run, ref, f"segment_size={segment_size}")
        assert run.stats.page_in_events > 0

    @pytest.mark.parametrize("engine", DIFF_ENGINE_NAMES)
    def test_segment_sizes_straddling_the_run_length(self, engine):
        """Sweep segment sizes pinned to the exact dynamic run length.

        segment_size == run_length means the run's only segment boundary
        lands exactly on the final instruction (no partial trailing segment);
        run_length +/- 1 puts the boundary one instruction to either side.
        All three — plus the degenerate size-1 and a tiny odd size — must
        page identically to the seed interpreter.
        """
        program = _compile(self.SOURCE)
        run_length = Machine(program).run().instructions
        for segment_size in (1, 7, run_length - 1, run_length,
                             run_length + 1):
            ref = run_engine("reference", program, segment_size=segment_size)
            run = run_engine(engine, program, segment_size=segment_size)
            assert_runs_identical(
                run, ref,
                f"segment_size={segment_size} (run_length={run_length})")

    @pytest.mark.parametrize("engine", DIFF_ENGINE_NAMES)
    def test_exact_multiple_has_no_partial_trailing_segment(self, engine):
        """When the run length divides evenly, both machines must count the
        same number of segment flushes — no spurious trailing flush."""
        program = _compile(self.SOURCE)
        run_length = Machine(program).run().instructions
        for divisor in (1, 2, 4):
            if run_length % divisor:
                continue
            size = run_length // divisor
            ref = run_engine("reference", program, segment_size=size)
            run = run_engine(engine, program, segment_size=size)
            assert_runs_identical(run, ref, f"segment_size={size}")

    @pytest.mark.parametrize("engine", DIFF_ENGINE_NAMES)
    def test_instruction_limit_parity(self, engine):
        program = _compile("fn main() -> int { while (1) { } return 0; }")
        ref = run_engine("reference", program, max_instructions=1000)
        run = run_engine(engine, program, max_instructions=1000)
        assert isinstance(run.error, EmulationError)
        assert_runs_identical(run, ref, "at the instruction limit")
        assert run.stats.instructions == 1000


class TestMachineReuse:
    """Re-running a Machine must behave exactly like a fresh Machine.

    Regression tests for the re-run state leak: ``run()`` used to accumulate
    statistics, memory, the segment countdown and page-event sets across
    calls, so a second ``run()`` reported double instruction counts and
    carried dirty pages into the new run's first segment.
    """

    @pytest.mark.parametrize("machine_cls",
                             [Machine, ReferenceMachine, TranslatedMachine],
                             ids=["fast", "reference", "translated"])
    def test_two_runs_equal_two_fresh_machines(self, machine_cls):
        benchmark = get_benchmark("fibonacci")
        program = _compile_benchmark("fibonacci")
        kwargs = dict(input_values=benchmark.inputs, segment_size=100)

        reused = machine_cls(program, **kwargs)
        first = reused.run("main", benchmark.args)
        second = reused.run("main", benchmark.args)

        fresh_a = machine_cls(program, **kwargs)
        fresh_b = machine_cls(program, **kwargs)
        fresh_first = fresh_a.run("main", benchmark.args)
        fresh_second = fresh_b.run("main", benchmark.args)

        assert first == fresh_first
        assert second == fresh_second
        assert first == second, "second run() accumulated state"
        assert (first.page_in_events, first.page_out_events) == \
            (fresh_first.page_in_events, fresh_first.page_out_events)
        assert (second.page_in_events, second.page_out_events) == \
            (fresh_second.page_in_events, fresh_second.page_out_events)
        assert reused.memory == fresh_b.memory
        assert reused.output == fresh_b.output

    @pytest.mark.parametrize("machine_cls", [Machine, TranslatedMachine],
                             ids=["fast", "translated"])
    def test_rerun_resets_segment_countdown(self, machine_cls):
        # An odd segment size whose countdown is mid-segment at halt: the
        # leftover countdown must not leak into the next run's first segment.
        program = _compile(TestSegmentPaging.SOURCE)
        reused = machine_cls(program, segment_size=999)
        first = reused.run()
        second = reused.run()
        assert first == second
        assert (second.page_in_events, second.page_out_events) == \
            (first.page_in_events, first.page_out_events)

    @pytest.mark.parametrize("machine_cls", [Machine, TranslatedMachine],
                             ids=["fast", "translated"])
    def test_rerun_after_fault_starts_clean(self, machine_cls):
        source = "fn main() -> int { while (1) { } return 0; }"
        program = _compile(source)
        machine = machine_cls(program, max_instructions=500)
        with pytest.raises(EmulationError):
            machine.run()
        with pytest.raises(EmulationError):
            machine.run()
        assert machine.stats.instructions == 500


class TestUnresolvedTargets:
    """Faulting control transfers must leave identical partial traces."""

    @pytest.mark.parametrize("engine", DIFF_ENGINE_NAMES)
    @pytest.mark.parametrize("body", [
        [_instr("li", "t0", 1), _instr("j", "nowhere")],
        [_instr("li", "t0", 1), _instr("call", "missing")],
        [_instr("li", "t0", 1), _instr("jal", "t1", "nowhere")],
        [_instr("li", "t0", 1), _instr("beqz", "zero", "nowhere")],
        [_instr("li", "t0", 1), _instr("bne", "t0", "zero", "nowhere")],
        [_instr("li", "t0", 1), _instr("ebreak")],
    ], ids=["j", "call", "jal", "beqz-taken", "bne-taken", "ebreak"])
    def test_pre_fault_side_effects_match_reference(self, body, engine):
        program = AssemblyProgram(functions={
            "main": AssemblyFunction("main", list(body))})
        ref = run_engine("reference", program)
        run = run_engine(engine, program)
        assert isinstance(run.error, EmulationError)
        assert_runs_identical(run, ref, "faulting control transfer")
        for name in ("t0", "t1", "ra"):
            assert run.machine.get(name) == ref.machine.get(name), name

    @pytest.mark.parametrize("engine", DIFF_ENGINE_NAMES)
    def test_malformed_dead_code_does_not_fault_at_decode(self, engine):
        # The reference only inspects operands when an instruction executes;
        # a malformed instruction in a never-called helper must not break
        # decoding (or the run).
        program = AssemblyProgram(functions={
            "main": AssemblyFunction("main", [
                _instr("li", "a0", 3),
                _instr("jalr", "zero", "ra", 0),
            ]),
            "dead": AssemblyFunction("dead", [
                _instr("add", "t0", "t1"),            # missing an operand
                _instr("mv", "a0", 123),              # non-string register
            ]),
        })
        ref = run_engine("reference", program)
        run = run_engine(engine, program)
        assert_runs_identical(run, ref, "with malformed dead code")
        assert run.stats.return_value == 3

    @pytest.mark.parametrize("machine_cls", [Machine, TranslatedMachine],
                             ids=["fast", "translated"])
    def test_malformed_instruction_faults_only_when_executed(self,
                                                             machine_cls):
        program = AssemblyProgram(functions={
            "main": AssemblyFunction("main", [
                _instr("li", "t0", 1),
                _instr("add", "t0", "t1"),            # executes: must fault
            ])})
        fast = machine_cls(program)                   # decode must succeed
        ref = ReferenceMachine(program)
        with pytest.raises(ValueError):
            fast.run()
        with pytest.raises(ValueError):
            ref.run()
        # Both counted the li and the faulting add before raising.
        assert fast.stats.instructions == ref.stats.instructions == 2

    @pytest.mark.parametrize("engine", DIFF_ENGINE_NAMES)
    def test_not_taken_branch_to_unknown_label_does_not_fault(self, engine):
        # The reference only resolves a branch label when the branch is
        # taken; a never-taken branch to a bogus label must run to completion.
        body = [
            _instr("li", "t0", 1),
            _instr("beqz", "t0", "nowhere"),
            _instr("bne", "t0", "t0", "nowhere"),
            _instr("li", "a0", 5),
            _instr("jalr", "zero", "ra", 0),
        ]
        program = AssemblyProgram(functions={
            "main": AssemblyFunction("main", body)})
        ref = run_engine("reference", program)
        run = run_engine(engine, program)
        assert_runs_identical(run, ref, "never-taken unresolved branch")
        assert run.stats.return_value == 5


class TestDecodePipeline:
    def test_decoded_program_cached_per_program(self):
        program = _compile_benchmark("fibonacci")
        assert decode_program(program) is decode_program(program)
        assert Machine(program).decoded is Machine(program).decoded

    def test_translation_cache_shared_across_machines(self):
        # Superblock closures are compiled once per decoded program, not per
        # TranslatedMachine: two machines over one program share the cache.
        program = _compile_benchmark("fibonacci")
        first = TranslatedMachine(program)
        second = TranslatedMachine(program)
        assert first._tcache is second._tcache

    def test_prepared_immediates_match_reference_semantics(self):
        """Decode-time immediate preparation must be observationally equal to
        the reference's raw-immediate application for every opcode."""
        values = [0, 1, 5, 31, 32, 1234, 0x7FFFFFFF, 0x80000000, 0xFFFFFFFE,
                  0xFFFFFFFF]
        immediates = [-2048, -33, -32, -7, -1, 0, 1, 5, 31, 32, 100, 2047]
        for opcode, (prepare, apply) in _ALU_IMM_DECODED.items():
            raw = ALU_IMM_IMPLS[opcode]
            for a in values:
                for imm in immediates:
                    assert apply(a, prepare(imm)) == raw(a, imm), \
                        f"{opcode}(a={a:#x}, imm={imm})"

    @pytest.mark.parametrize("engine", DIFF_ENGINE_NAMES)
    def test_unknown_register_names_get_fresh_slots(self, engine):
        # The reference treats any unknown name as a fresh zero register;
        # the decoder must intern such names instead of rejecting them.
        body = [
            _instr("li", "myreg", 9),
            _instr("mv", "a0", "myreg"),
            _instr("jalr", "zero", "ra", 0),
        ]
        program = AssemblyProgram(functions={
            "main": AssemblyFunction("main", body)})
        ref = run_engine("reference", program)
        run = run_engine(engine, program)
        assert_runs_identical(run, ref, "with interned custom register")
        assert run.stats.return_value == 9


def _line_cycling_guest() -> AssemblyProgram:
    """Nine cache lines (4 KiB apart, so one 8-way set) touched in an order
    whose misses depend on LRU order: fill the set, re-touch its oldest line,
    store to a ninth line (the eviction must spare the re-touched line), then
    load the evicted line and use it at once (a 40-cycle load miss)."""
    body = [
        _instr("li", "s0", 0x10000),
        _instr("li", "s1", 4096),
        _instr("li", "t6", 6),
        Label("Lcycle"),
        _instr("mv", "t0", "s0"),
    ]
    for way in range(8):
        body += [_instr("lw", "a0", 0, "t0"), _instr("add", "t0", "t0", "s1")]
    body += [
        _instr("lw", "a1", 0, "s0"),          # oldest line, hit: to the front
        _instr("sw", "a1", 0, "t0"),          # ninth line: store miss
        _instr("lw", "a2", 0, "s0"),          # still cached
        _instr("add", "t1", "s0", "s1"),
        _instr("lw", "a3", 0, "t1"),          # evicted by the store: miss
        _instr("add", "a4", "a3", "a3"),      # waits out the miss
        _instr("addi", "t6", "t6", -1),
        _instr("bnez", "t6", "Lcycle"),
        _instr("mv", "a0", "a4"),
        _instr("jalr", "zero", "ra", 0),
    ]
    return AssemblyProgram(functions={"main": AssemblyFunction("main", body)})


def _aliasing_branches_guest(table_size: int = 4096) -> AssemblyProgram:
    """Two hot branches ``table_size`` pcs apart with opposite outcomes, so
    they share (and fight over) one counter of the ``pc % table_size``
    predictor table.  Never-executed padding puts more than ``table_size``
    instructions in the program."""
    main = [
        _instr("addi", "sp", "sp", -8),
        _instr("sw", "ra", 4, "sp"),
        _instr("li", "t6", 40),
        Label("Lagain"),
        _instr("call", "far"),
        _instr("addi", "t6", "t6", -1),
        _instr("bnez", "t6", "Lagain"),       # taken 39 of 40 times
        _instr("lw", "ra", 4, "sp"),
        _instr("addi", "sp", "sp", 8),
        _instr("jalr", "zero", "ra", 0),
    ]
    far = [
        _instr("bnez", "zero", "Lfar_ret"),   # never taken
        Label("Lfar_ret"),
        _instr("jalr", "zero", "ra", 0),
    ]
    code = [item for item in main if isinstance(item, MachineInstr)]
    taken_pc = next(pc for pc, instr in enumerate(code)
                    if instr.opcode == "bnez")
    padding = [_instr("nop")] * (taken_pc + table_size - len(code))
    return AssemblyProgram(functions={
        "main": AssemblyFunction("main", main),
        "padding": AssemblyFunction("padding", padding),
        "far": AssemblyFunction("far", far),
    })


def _late_divide_guest() -> AssemblyProgram:
    """A ``div`` near the end whose result nothing reads: its 22-cycle
    latency outlasts the front end, so the drain decides ``cycles``."""
    body = [
        _instr("li", "t0", 1000),
        _instr("li", "t1", 7),
        _instr("li", "t2", 20),
        Label("Lspin"),
        _instr("addi", "t2", "t2", -1),
        _instr("bnez", "t2", "Lspin"),
        _instr("div", "t3", "t0", "t1"),
        _instr("li", "a0", 5),
        _instr("jalr", "zero", "ra", 0),
    ]
    return AssemblyProgram(functions={"main": AssemblyFunction("main", body)})


class TestCpuTimingRules:
    """Guests aimed at timing rules the benchmarks may not reach, and the
    rules for attaching a model to a machine."""

    def test_lru_eviction_order_and_load_miss_penalty(self):
        program = _line_cycling_guest()
        ref = run_engine("reference", program)
        run = run_engine("timed", program)
        assert_runs_identical(run, ref, "nine lines through one cache set")
        # More misses than the nine cold ones: evictions really happen.
        assert ref.cpu.cache_misses > 9
        assert 0 < ref.cpu.cache_hit_rate < 1

    def test_branches_alias_in_the_predictor_table(self):
        program = _aliasing_branches_guest()
        assert len(decode_program(program)) > 4096
        ref = run_engine("reference", program)
        run = run_engine("timed", program)
        assert_runs_identical(run, ref, "branches 4096 pcs apart")
        # Sharing one counter, the taken branch mispredicts on almost every
        # iteration; with a counter each, the two would mispredict twice.
        assert ref.cpu.mispredictions > 30

    def test_latency_drain_decides_cycles(self):
        program = _late_divide_guest()
        ref = run_engine("reference", program)
        run = run_engine("timed", program)
        assert_runs_identical(run, ref, "late divide")
        ref_model = ref.machine.observers[0]
        model = run.machine.observers[0]
        assert max(ref_model.register_ready.values()) > ref_model.current_cycle
        assert model.register_ready == ref_model.register_ready
        assert model.current_cycle == ref_model.current_cycle
        assert model.issued_this_cycle == ref_model.issued_this_cycle

    @pytest.mark.parametrize("machine_cls", [Machine, TranslatedMachine],
                             ids=["fast", "translated"])
    def test_only_one_cpu_model_may_observe(self, machine_cls):
        class Recorder:
            def on_instruction(self, *event):
                pass

        program = microprogram()
        for observers in ([Recorder()], [CpuTimingModel(), CpuTimingModel()]):
            with pytest.raises(TypeError, match="ReferenceMachine"):
                machine_cls(program, observers=observers)
        ReferenceMachine(program, observers=[Recorder()], input_values=[77]).run()

    def test_issue_width_below_one_is_rejected(self):
        model = CpuTimingModel(CpuConfig(issue_width=0))
        with pytest.raises(ValueError, match="issue_width"):
            Machine(microprogram(), observers=[model], input_values=[77]).run()

    def test_a_model_times_one_run(self):
        program = microprogram()
        model = CpuTimingModel()
        machine = Machine(program, observers=[model], input_values=[77])
        machine.run()
        timed = model.finalize()
        with pytest.raises(ValueError, match="already timed"):
            machine.run()
        with pytest.raises(ValueError, match="already timed"):
            Machine(program, observers=[model], input_values=[77]).run()
        assert model.finalize() == timed
