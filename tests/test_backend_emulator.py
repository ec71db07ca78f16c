"""Tests for the RISC-V backend (lowering, peephole, register allocation) and
emulator."""

import pytest

from repro.backend import (
    CPU_COST_MODEL, ZKVM_COST_MODEL, compile_module, lower_module,
    run_peephole,
)
from repro.backend.encoding import decode_words, encode_one, encode_program
from repro.backend.isa import (
    ALLOCATABLE, CALLEE_SAVED, OPERAND_ROLES, AssemblyFunction,
    AssemblyProgram, Label, MachineInstr, classify,
)
from repro.backend.lowering import HOST_CALL_IDS
from repro.backend.regalloc import (
    LinearScanAllocator, SPILL_SCRATCH, compute_live_intervals,
)
from repro.emulator import EmulationError, Machine, ReferenceMachine, run_program
from repro.frontend import compile_source
from repro.ir.interpreter import run_module
from repro.passes import run_passes

from support import REFERENCE_PROGRAM, execute


class TestLowering:
    def test_simple_program_round_trips(self):
        stats = execute("fn main() -> int { return 6 * 7; }")
        assert stats.return_value == 42

    def test_virtual_registers_eliminated(self):
        program = compile_module(compile_source(REFERENCE_PROGRAM))
        for asm in program.functions.values():
            for instr in asm.instructions():
                for op in instr.operands:
                    assert not (isinstance(op, str) and op.startswith("%")), \
                        f"virtual register leaked into final code: {instr}"

    def test_branch_fusion_avoids_materialized_compares(self):
        source = """
        fn main() -> int {
          var acc = 0; var i;
          for (i = 0; i < 10; i = i + 1) { acc = acc + i; }
          return acc;
        }
        """
        program = compile_module(compile_source(source))
        opcodes = [i.opcode for i in program.functions["main"].instructions()]
        assert any(op in ("blt", "bge", "bne", "beq", "bltu", "bgeu") for op in opcodes)

    def test_select_lowering_follows_cost_model(self):
        source = """
        fn main() -> int {
          var x = read_input(0) % 10;
          var y;
          if (x < 5) { y = 1; } else { y = 2; }
          return y;
        }
        """
        module = run_passes(compile_source(source), ["mem2reg", "simplifycfg"])
        branchless = lower_module(module, CPU_COST_MODEL)
        branchy = lower_module(module, ZKVM_COST_MODEL)
        branchless_ops = [i.opcode for i in branchless.functions["main"].instructions()]
        branchy_ops = [i.opcode for i in branchy.functions["main"].instructions()]
        assert branchy_ops.count("bnez") >= branchless_ops.count("bnez")

    def test_globals_are_laid_out_and_initialized(self):
        source = """
        global table[4] = {5, 6, 7, 8};
        fn main() -> int { return table[2]; }
        """
        program = compile_module(compile_source(source))
        assert "table" in program.globals_layout
        assert run_program(program).return_value == 7

    def test_host_calls_lower_to_ecall(self):
        program = compile_module(compile_source("fn main() -> int { print(3); return 0; }"))
        opcodes = [i.opcode for i in program.functions["main"].instructions()]
        assert "ecall" in opcodes

    def test_instruction_classification(self):
        assert classify("add") == "alu"
        assert classify("mul") == "mul"
        assert classify("div") == "div"
        assert classify("lw") == "load"
        assert classify("sw") == "store"
        assert classify("bne") == "branch"
        assert classify("ecall") == "system"
        with pytest.raises(ValueError):
            classify("vadd.vv")


#: Table opcodes that ``ReferenceMachine`` does not execute, with the reason.
#: Their roles are checked against the encoder only.
UNEXECUTED_OPCODES = {
    **dict.fromkeys(
        ["mulh", "mulhu", "mulhsu", "auipc", "neg", "seqz", "snez",
         "lb", "lbu", "lh", "lhu", "sb", "sh"],
        "the lowering never emits it, so ReferenceMachine has no semantics "
        "for it"),
    "ret": "finalize_frame expands ret into the epilogue's jalr, so no "
           "machine runs it",
    "ebreak": "ReferenceMachine faults on ebreak before reporting it",
}


def _role_program(opcode: str):
    """A two-function program whose ``f`` holds ``opcode`` once, with operands
    generated from its roles.

    Register roles take distinct registers in operand order, so each name
    the reference reports points at one position.  The immediate is 0, so
    every executed opcode lands on ``.L`` (index 0), returns into it or falls
    through.
    """
    registers = iter(["t0", "t1", "t2"])
    generated = {"i": 0, "l": ".L", "f": "helper"}
    operands = [next(registers) if role in "du" else generated[role]
                for role in OPERAND_ROLES[opcode]]
    instr = MachineInstr(opcode, operands)
    program = AssemblyProgram(functions={
        "f": AssemblyFunction("f", body=[Label(".L"), instr]),
        "helper": AssemblyFunction("helper", body=[
            MachineInstr("jalr", ["zero", "ra", 0])]),
    })
    return program, instr


class TestOperandRoles:
    """Each opcode's declared roles against the two independent readers of
    its operands: the reference interpreter and the binary encoder."""

    @pytest.mark.parametrize("opcode", [
        pytest.param(opcode, marks=pytest.mark.skip(
            reason=UNEXECUTED_OPCODES[opcode]))
        if opcode in UNEXECUTED_OPCODES else opcode
        for opcode in sorted(OPERAND_ROLES)])
    def test_defs_and_uses_match_reference_semantics(self, opcode):
        """``defs``/``uses`` name exactly the ``dest``/``sources`` the
        reference reports to its observers when it runs the instruction."""
        program, instr = _role_program(opcode)
        events = []

        class Recorder:
            def on_instruction(self, opcode, instruction_class, dest, sources,
                               *rest):
                events.append((dest, sources))

        # Execute exactly one instruction; a7 makes an ecall print a0.
        machine = ReferenceMachine(program, max_instructions=1,
                                   observers=[Recorder()])
        with pytest.raises(EmulationError, match="instruction limit"):
            machine.run("f", [0] * 7 + [HOST_CALL_IDS["__print"]])
        [(dest, sources)] = events
        defs = [instr.operands[pos] for pos in instr.defs]
        uses = [instr.operands[pos] for pos in instr.uses]
        if opcode in ("call", "ecall"):
            # call writes ra; ecall writes a0 and reads a0-a2/a7.  Those are
            # fixed registers, never operands, so neither property has them.
            assert defs == uses == []
            assert dest not in instr.operands
            assert not set(sources) & set(instr.operands)
            return
        assert defs == ([dest] if dest is not None else [])
        assert uses == sources

    @pytest.mark.parametrize("opcode", sorted(OPERAND_ROLES))
    def test_encodes_and_round_trips(self, opcode):
        """The encoder accepts operands built from the roles (registers,
        integer immediates, a label, a function), and the words decode and
        re-encode byte-identically, plain and compressed."""
        program, _ = _role_program(opcode)
        for rvc in (False, True):
            encoded = encode_program(program, rvc=rvc)
            decoded = decode_words(encoded.blob, encoded.base_address)
            assert b"".join(encode_one(i).to_bytes(i.size, "little")
                            for i in decoded) == encoded.blob
            assert [(i.word, i.opcode, i.operands, i.target)
                    for i in decoded] == \
                   [(i.word, i.opcode, i.operands, i.target)
                    for i in encoded.instrs]


class TestPeephole:
    def test_store_to_load_forwarding_in_block(self):
        # Unoptimized allocas: the value is stored then immediately reloaded;
        # the peephole must forward the stored register.
        source = """
        fn main() -> int {
          var x = read_input(0);
          var y = x + 1;
          return y;
        }
        """
        module = compile_source(source)
        program = lower_module(module, CPU_COST_MODEL)
        before = sum(1 for i in program.functions["main"].instructions()
                     if i.opcode == "lw")
        hits = run_peephole(program.functions["main"])
        after = sum(1 for i in program.functions["main"].instructions()
                    if i.opcode == "lw")
        assert hits["load_forwarded"] > 0
        assert after < before

    def test_branch_over_jump_is_flipped(self):
        source = """
        fn main() -> int {
          var x = read_input(0);
          if (x < 10) { x = x + 1; }
          return x;
        }
        """
        program = compile_module(compile_source(source))
        ops = [i.opcode for i in program.functions["main"].instructions()]
        # The flip leaves at most one unconditional jump per branch shape;
        # the seed emitted a `j` after every conditional branch.
        branches = sum(1 for op in ops if op in
                       ("beq", "bne", "blt", "bge", "bltu", "bgeu",
                        "beqz", "bnez"))
        jumps = ops.count("j")
        assert branches >= 1
        assert jumps < branches

    def test_constant_zero_uses_zero_register(self):
        program = compile_module(compile_source(
            "global g[4];\nfn main() -> int { g[0] = 0; return g[1]; }"))
        stores = [i for i in program.functions["main"].instructions()
                  if i.opcode == "sw" and i.operands[0] == "zero"]
        assert stores, "storing constant 0 should use the zero register"

    def test_behaviour_preserved_on_reference_program(self, reference_module,
                                                      reference_result):
        stats = run_program(compile_module(reference_module))
        assert stats.return_value == reference_result.return_value
        assert stats.output == reference_result.output

    def test_branchy_select_false_arm_does_not_poison_block_cache(self):
        # Regression: under the branchy (zkVM) select lowering, the false
        # arm's materialization is emitted *after* the bnez and only runs on
        # the false path.  It must not enter the per-block reuse cache, or a
        # later use of the same constant/address in the block reads a
        # register whose defining instruction was branched over.
        from repro.ir import I32, IRBuilder, Module

        module = Module("m")
        ga = module.add_global("ga", I32, 1, [32])
        gb = module.add_global("gb", I32, 1, [11])
        f = module.create_function("main", I32, [])
        entry = f.add_block("entry")
        builder = IRBuilder(entry)
        cond = builder.icmp("eq", builder.const(1), builder.const(1))
        # The false arm (ga, the region-aligned first global) is only
        # materialized on the skipped path; the later load of ga reuses the
        # same 2 KiB-region constant and must not hit a poisoned cache entry.
        chosen = builder.select(cond, gb, ga)          # always picks gb
        first = builder.load(chosen)                   # 11
        second = builder.load(ga)                      # must still read ga
        builder.ret(builder.add(first, second))        # 11 + 32

        program = compile_module(module, ZKVM_COST_MODEL)
        assert run_program(program).return_value == 43


class TestRegisterAllocation:
    def test_high_pressure_functions_spill_but_stay_correct(self):
        # 24 simultaneously live values exceed the allocatable register pool.
        names = [f"v{i}" for i in range(24)]
        decls = "\n".join(f"var {n} = read_input({i}) % 100 + {i};"
                          for i, n in enumerate(names))
        total = " + ".join(names)
        source = f"fn main() -> int {{\n{decls}\nvar blocker = read_input(99);\nreturn {total};\n}}"
        module = run_passes(compile_source(source), ["mem2reg"])
        program = compile_module(module)
        instrs = program.functions["main"].instructions()
        assert any("spill" in i.comment or "reload" in i.comment for i in instrs)
        expected = run_module(module).return_value
        assert run_program(program).return_value == expected

    def test_callee_saved_registers_are_saved_and_restored(self):
        source = """
        fn leaf(x) -> int { return x * 2; }
        fn main() -> int {
          var keep = read_input(0) % 50;
          var other = leaf(keep);
          return keep + other;
        }
        """
        module = run_passes(compile_source(source), ["mem2reg"])
        program = compile_module(module)
        main_instrs = program.functions["main"].instructions()
        saved = [i for i in main_instrs if i.opcode == "sw" and i.operands[0] in CALLEE_SAVED]
        restored = [i for i in main_instrs if i.opcode == "lw" and i.operands[0] in CALLEE_SAVED]
        assert len(saved) >= 1 and len(restored) >= len(saved)
        expected = run_module(module).return_value
        assert run_program(program).return_value == expected

    def test_call_crossing_intervals_use_callee_saved_or_spill(self):
        # Values live across a call must never sit in caller-saved registers.
        source = """
        fn leaf(x) -> int { return x * 3 + 1; }
        fn main() -> int {
          var a = read_input(0) % 7; var b = read_input(1) % 11;
          var c = read_input(2) % 13; var d = read_input(3) % 17;
          var r = leaf(a + b);
          return r + a + b + c + d;
        }
        """
        module = run_passes(compile_source(source), ["mem2reg"])
        program = lower_module(module)
        asm = program.functions["main"]
        run_peephole(asm)
        allocator = LinearScanAllocator(asm)
        allocator.run()
        crossing = [iv for iv in allocator.intervals.values()
                    if iv.crosses_call]
        assert crossing, "test program must have call-crossing values"
        # Every crossing interval must have ended up in a callee-saved
        # register or on the stack — never caller-saved.
        for iv in crossing:
            assert iv.assigned is None or iv.assigned in CALLEE_SAVED, \
                f"{iv.vreg} crosses a call but got {iv.assigned}"
        # End-to-end: the fully compiled program computes the right value.
        expected = run_module(module).return_value
        assert run_program(compile_module(module)).return_value == expected

    def test_spill_scratch_never_exhausted_on_two_spilled_uses(self):
        # A store whose value and base are both spilled needs two scratch
        # registers (t5/t6) — the worst case an RV32IM instruction can pose.
        # Build a function with far more simultaneously-live values than
        # registers so stores of spilled values through spilled bases occur.
        names = [f"v{i}" for i in range(30)]
        decls = "\n".join(f"var {n} = read_input({i}) + {i};"
                          for i, n in enumerate(names))
        stores = "\n".join(f"out[{i}] = {n};" for i, n in enumerate(names))
        total = " + ".join(names)
        source = (f"global out[32];\nfn main() -> int {{\n{decls}\n"
                  f"{stores}\nvar blocker = read_input(99);\n"
                  f"return {total} + out[7];\n}}")
        module = run_passes(compile_source(source), ["mem2reg"])
        program = compile_module(module)
        instrs = program.functions["main"].instructions()
        # No virtual register survives, and only t5/t6 appear as scratch.
        for instr in instrs:
            for op in instr.operands:
                assert not (isinstance(op, str) and op.startswith("%")), instr
        expected = run_module(module).return_value
        assert run_program(program).return_value == expected

    def test_more_than_16_live_values_round_trip(self):
        # >16 simultaneously-live loop-carried values force spilling inside
        # the loop; the emulator result must match the IR interpreter.
        names = [f"a{i}" for i in range(20)]
        decls = "\n".join(f"var {n} = read_input({i}) % 9 + {i};"
                          for i, n in enumerate(names))
        updates = "\n".join(
            f"{n} = {n} + {names[(i + 1) % len(names)]} % 5;"
            for i, n in enumerate(names))
        total = " + ".join(names)
        source = (f"fn main() -> int {{\n{decls}\nvar k;\n"
                  f"for (k = 0; k < 6; k = k + 1) {{\n{updates}\n}}\n"
                  f"return {total};\n}}")
        module = run_passes(compile_source(source), ["mem2reg"])
        program = compile_module(module)
        stats = program.backend_stats["main"]
        assert stats["spilled_vregs"] > 0, "the test must actually spill"
        expected = run_module(module).return_value
        assert run_program(program).return_value == expected

    def test_live_intervals_cover_loop_carried_values(self):
        source = """
        fn main() -> int {
          var acc = 0; var i;
          for (i = 0; i < 50; i = i + 1) { acc = acc + i; }
          return acc;
        }
        """
        module = run_passes(compile_source(source), ["mem2reg"])
        program = lower_module(module)
        intervals = compute_live_intervals(program.functions["main"].body)
        assert intervals
        # Loop-carried virtual registers must have ranges spanning the back edge
        # (end strictly after start).
        assert any(iv.end > iv.start + 5 for iv in intervals.values())


class TestEmulator:
    def test_reference_program_matches_interpreter(self, reference_module, reference_result):
        stats = run_program(compile_module(reference_module))
        assert stats.return_value == reference_result.return_value
        assert stats.output == reference_result.output

    def test_trace_statistics_are_collected(self):
        stats = execute(REFERENCE_PROGRAM)
        assert stats.instructions > 0
        assert stats.loads > 0 and stats.stores > 0
        assert stats.branches_taken > 0
        assert stats.calls > 0
        assert sum(stats.class_counts.values()) == stats.instructions

    def test_instruction_limit_enforced(self):
        source = "fn main() -> int { while (1) { } return 0; }"
        program = compile_module(compile_source(source))
        with pytest.raises(EmulationError):
            run_program(program, max_instructions=10_000)

    def test_unknown_entry_function_rejected(self):
        program = compile_module(compile_source("fn main() -> int { return 0; }"))
        with pytest.raises(EmulationError):
            run_program(program, entry="does_not_exist")

    def test_page_tracking(self):
        source = """
        global big[2048];
        fn main() -> int {
          var i;
          for (i = 0; i < 2048; i = i + 32) { big[i] = i; }
          return big[0];
        }
        """
        program = compile_module(compile_source(source))
        stats = Machine(program).run()
        assert stats.unique_pages >= 8  # 2048 words span 8 KiB = 8 pages
        assert stats.page_in_events >= stats.unique_pages - 1

    def test_precompile_host_calls(self):
        source = """
        global buffer[16];
        global digest[8];
        fn main() -> int {
          var i;
          for (i = 0; i < 16; i = i + 1) { buffer[i] = i; }
          sha256(buffer, 16, digest);
          return digest[0];
        }
        """
        stats = execute(source)
        assert stats.host_calls.get("__sha256") == 1
        assert stats.return_value != 0

    def test_read_input_values(self):
        source = "fn main() -> int { return read_input(0) + read_input(1); }"
        program = compile_module(compile_source(source))
        stats = run_program(program, input_values=[30, 12])
        assert stats.return_value == 42
