"""The reference RV32IM interpreter (the original seed semantics).

This is the straightforward opcode-string interpreter the reproduction
shipped with: a dict-based register file, per-instruction ``classify()`` and
dict-counter updates, and re-dispatch on opcode strings every step.  The
production :class:`~repro.emulator.machine.Machine` replaced it with a
pre-decoded table-dispatch hot loop; this implementation is kept verbatim as
the executable specification the differential tests (and the emulator
benchmark) compare against.  Do not optimize it — its value is that it is
obviously faithful to the original step semantics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Protocol

from ..backend.isa import AssemblyProgram, Label, MachineInstr, classify
from ..backend.lowering import STACK_TOP
from ..zkvm.precompiles import HOST_CALL_ARITY, interpret_host_call
from .machine import EmulationError, HOST_CALL_NAMES
from .trace import PAGE_SIZE, TraceStats

WORD_MASK = 0xFFFFFFFF
RETURN_SENTINEL = 0xFFFF_FFF0


def _to_signed(value: int) -> int:
    value &= WORD_MASK
    return value - (1 << 32) if value >= (1 << 31) else value


class Observer(Protocol):
    """Per-instruction event consumer, called after each completed instruction.

    Only this interpreter produces the event stream.  Its production consumer
    is :meth:`repro.cpu.CpuTimingModel.on_instruction`, which makes the
    observer model the oracle for the timing rules that
    :class:`~repro.emulator.machine.Machine` fuses into its dispatch loop.
    """

    def on_instruction(self, opcode: str, instruction_class: str,
                       dest: Optional[str], sources: list[str],
                       memory_address: Optional[int], is_store: bool,
                       branch_taken: Optional[bool], pc: int) -> None: ...


@dataclass
class _FlatProgram:
    """All functions concatenated into one indexable instruction stream."""

    instructions: list
    labels: dict
    entries: dict

    @classmethod
    def build(cls, program: AssemblyProgram) -> "_FlatProgram":
        instructions: list[MachineInstr] = []
        labels: dict[str, int] = {}
        entries: dict[str, int] = {}
        for name, asm in program.functions.items():
            entries[name] = len(instructions)
            for item in asm.body:
                if isinstance(item, Label):
                    labels[item.name] = len(instructions)
                else:
                    instructions.append(item)
        return cls(instructions, labels, entries)


class ReferenceMachine:
    """A single-hart RV32IM machine with a flat word-addressed memory.

    Interprets one :class:`MachineInstr` at a time, exactly as the seed
    emulator did.  API-compatible with :class:`~repro.emulator.machine.Machine`
    for everything the harness uses (``run``, ``stats`` with its paging
    events, ``output``, the host-call memory interface).
    """

    def __init__(self, program: AssemblyProgram, max_instructions: int = 50_000_000,
                 observers: Iterable[Observer] = (), segment_size: int = 1 << 16,
                 input_values: Optional[list[int]] = None):
        self.program = program
        self.flat = _FlatProgram.build(program)
        self.max_instructions = max_instructions
        self.observers = list(observers)
        self.segment_size = segment_size
        self.input_values = input_values
        self._ran = False
        self._reset_run_state()

    def _reset_run_state(self) -> None:
        """(Re-)initialise all per-run mutable state.

        Called from ``__init__`` and again from ``run()`` when the machine is
        reused, so a second ``run()`` behaves exactly like a fresh machine
        instead of accumulating statistics, memory and segment countdowns.
        """
        self.registers: dict[str, int] = {name: 0 for name in
                                          ("zero", "ra", "sp", "gp", "tp")}
        self.memory: dict[int, int] = dict(self.program.globals_init)
        self.stats = TraceStats()
        self.output: list[int] = []
        # Pages touched in the open segment (flushed into the stats' paging
        # events at each segment boundary and at halt).
        self._segment_pages_read: set[int] = set()
        self._segment_pages_written: set[int] = set()

    # -- memory interface shared with the host-call implementations ----------
    def _read_word(self, address: int) -> int:
        return self.memory.get(address & WORD_MASK & ~3, 0)

    def _write_word(self, address: int, value: int) -> None:
        self.memory[address & WORD_MASK & ~3] = value & WORD_MASK

    # -- register access -----------------------------------------------------
    def get(self, register: str) -> int:
        if register == "zero":
            return 0
        return self.registers.get(register, 0)

    def set(self, register: str, value: int) -> None:
        if register != "zero":
            self.registers[register] = value & WORD_MASK

    # -- main loop ------------------------------------------------------------
    def run(self, entry: str = "main", args: Optional[list[int]] = None) -> TraceStats:
        if entry not in self.flat.entries:
            raise EmulationError(f"no such function: {entry}")
        if self._ran:
            self._reset_run_state()
        self._ran = True
        args = args or []
        for index, value in enumerate(args[:8]):
            self.set(f"a{index}", value)
        self.set("sp", STACK_TOP)
        self.set("ra", RETURN_SENTINEL)
        pc = self.flat.entries[entry]
        instructions = self.flat.instructions
        stats = self.stats

        while True:
            if pc == RETURN_SENTINEL:
                break
            if pc < 0 or pc >= len(instructions):
                raise EmulationError(f"program counter out of range: {pc}")
            if stats.instructions >= self.max_instructions:
                raise EmulationError("instruction limit exceeded "
                                     f"({self.max_instructions})")
            instr = instructions[pc]
            pc = self._step(instr, pc)
            # Segment bookkeeping for the paging model.
            if stats.instructions % self.segment_size == 0:
                self._flush_segment()

        self._flush_segment()
        stats.return_value = _to_signed(self.get("a0"))
        stats.output = list(self.output)
        return stats

    def _flush_segment(self) -> None:
        stats = self.stats
        stats.page_in_events += len(self._segment_pages_read | self._segment_pages_written)
        stats.page_out_events += len(self._segment_pages_written)
        self._segment_pages_read.clear()
        self._segment_pages_written.clear()

    def _touch_page(self, address: int, is_write: bool) -> None:
        page = address // PAGE_SIZE
        if is_write:
            self._segment_pages_written.add(page)
        else:
            self._segment_pages_read.add(page)

    # -- single instruction ----------------------------------------------------
    def _step(self, instr: MachineInstr, pc: int) -> int:
        opcode = instr.opcode
        ops = instr.operands
        stats = self.stats
        instruction_class = classify(opcode)
        stats.record_instruction(opcode, instruction_class)

        memory_address: Optional[int] = None
        is_store = False
        branch_taken: Optional[bool] = None
        dest: Optional[str] = None
        sources: list[str] = []
        next_pc = pc + 1

        get, set_ = self.get, self.set

        if opcode in ("add", "sub", "and", "or", "xor", "sll", "srl", "sra",
                      "slt", "sltu", "mul", "div", "divu", "rem", "remu"):
            dest, rs1, rs2 = ops
            sources = [rs1, rs2]
            set_(dest, _ALU_OPS[opcode](get(rs1), get(rs2)))
        elif opcode in ("addi", "andi", "ori", "xori", "slli", "srli", "srai",
                        "slti", "sltiu"):
            dest, rs1, imm = ops
            sources = [rs1]
            set_(dest, _ALU_IMM_OPS[opcode](get(rs1), imm))
        elif opcode == "li":
            dest = ops[0]
            set_(dest, ops[1] & WORD_MASK)
        elif opcode == "lui":
            dest = ops[0]
            set_(dest, (ops[1] << 12) & WORD_MASK)
        elif opcode == "mv":
            dest, rs1 = ops
            sources = [rs1]
            set_(dest, get(rs1))
        elif opcode == "lw":
            dest, offset, base = ops
            sources = [base]
            memory_address = (get(base) + offset) & WORD_MASK
            set_(dest, self._read_word(memory_address))
            stats.record_memory(memory_address, False)
            self._touch_page(memory_address, False)
        elif opcode == "sw":
            value_reg, offset, base = ops
            sources = [value_reg, base]
            memory_address = (get(base) + offset) & WORD_MASK
            self._write_word(memory_address, get(value_reg))
            stats.record_memory(memory_address, True)
            self._touch_page(memory_address, True)
            is_store = True
        elif opcode in ("beq", "bne", "blt", "bge", "bltu", "bgeu"):
            rs1, rs2, label = ops
            sources = [rs1, rs2]
            taken = _BRANCH_OPS[opcode](get(rs1), get(rs2))
            branch_taken = taken
            if taken:
                stats.branches_taken += 1
                next_pc = self._label_target(label)
            else:
                stats.branches_not_taken += 1
        elif opcode in ("beqz", "bnez"):
            rs1, label = ops
            sources = [rs1]
            value = get(rs1)
            taken = (value == 0) if opcode == "beqz" else (value != 0)
            branch_taken = taken
            if taken:
                stats.branches_taken += 1
                next_pc = self._label_target(label)
            else:
                stats.branches_not_taken += 1
        elif opcode == "j":
            branch_taken = True
            stats.branches_taken += 1
            next_pc = self._label_target(ops[0])
        elif opcode == "call":
            stats.calls += 1
            target = ops[0]
            if target not in self.flat.entries:
                raise EmulationError(f"call to unknown function: {target}")
            set_("ra", pc + 1)
            dest = "ra"
            next_pc = self.flat.entries[target]
        elif opcode == "jalr":
            dest, base, offset = ops
            sources = [base]
            target = (get(base) + offset) & WORD_MASK
            set_(dest, pc + 1)
            next_pc = target
        elif opcode == "jal":
            dest, label = ops
            set_(dest, pc + 1)
            next_pc = self._label_target(label)
        elif opcode == "ecall":
            self._handle_ecall()
            dest = "a0"
            sources = ["a0", "a1", "a2", "a7"]
        elif opcode == "ebreak":
            raise EmulationError("guest executed ebreak (unreachable code)")
        elif opcode == "nop":
            pass
        else:
            raise EmulationError(f"unknown opcode: {opcode}")

        for observer in self.observers:
            observer.on_instruction(opcode, instruction_class, dest, sources,
                                    memory_address, is_store, branch_taken, pc)
        return next_pc

    def _label_target(self, label: str) -> int:
        target = self.flat.labels.get(label)
        if target is None:
            raise EmulationError(f"unknown label: {label}")
        return target

    def _handle_ecall(self) -> None:
        call_id = self.get("a7")
        name = HOST_CALL_NAMES.get(call_id)
        if name is None:
            raise EmulationError(f"unknown ecall id: {call_id}")
        self.stats.host_calls[name] = self.stats.host_calls.get(name, 0) + 1
        args = [_to_signed(self.get(f"a{i}")) & WORD_MASK for i in range(4)]
        arity = HOST_CALL_ARITY.get(name, 1)
        result = interpret_host_call(name, args[:arity], self)
        self.set("a0", result)


# -- scalar helpers (the seed's tables, kept verbatim and independent of the
# decoder's shared implementations so this oracle cannot drift with them) ------
def _div(a: int, b: int) -> int:
    sa, sb = _to_signed(a), _to_signed(b)
    if sb == 0:
        return WORD_MASK
    quotient = abs(sa) // abs(sb)
    if (sa < 0) != (sb < 0):
        quotient = -quotient
    return quotient & WORD_MASK


def _rem(a: int, b: int) -> int:
    sa, sb = _to_signed(a), _to_signed(b)
    if sb == 0:
        return a
    remainder = abs(sa) % abs(sb)
    if sa < 0:
        remainder = -remainder
    return remainder & WORD_MASK


_ALU_OPS = {
    "add": lambda a, b: (a + b) & WORD_MASK,
    "sub": lambda a, b: (a - b) & WORD_MASK,
    "and": lambda a, b: a & b,
    "or": lambda a, b: a | b,
    "xor": lambda a, b: a ^ b,
    "sll": lambda a, b: (a << (b & 31)) & WORD_MASK,
    "srl": lambda a, b: (a >> (b & 31)) & WORD_MASK,
    "sra": lambda a, b: (_to_signed(a) >> (b & 31)) & WORD_MASK,
    "slt": lambda a, b: int(_to_signed(a) < _to_signed(b)),
    "sltu": lambda a, b: int(a < b),
    "mul": lambda a, b: (a * b) & WORD_MASK,
    "div": _div,
    "divu": lambda a, b: (a // b) & WORD_MASK if b else WORD_MASK,
    "rem": _rem,
    "remu": lambda a, b: (a % b) & WORD_MASK if b else a,
}

_ALU_IMM_OPS = {
    "addi": lambda a, imm: (a + imm) & WORD_MASK,
    "andi": lambda a, imm: a & (imm & WORD_MASK),
    "ori": lambda a, imm: a | (imm & WORD_MASK),
    "xori": lambda a, imm: a ^ (imm & WORD_MASK),
    "slli": lambda a, imm: (a << (imm & 31)) & WORD_MASK,
    "srli": lambda a, imm: (a >> (imm & 31)) & WORD_MASK,
    "srai": lambda a, imm: (_to_signed(a) >> (imm & 31)) & WORD_MASK,
    "slti": lambda a, imm: int(_to_signed(a) < imm),
    "sltiu": lambda a, imm: int(a < (imm & WORD_MASK)),
}

_BRANCH_OPS = {
    "beq": lambda a, b: a == b,
    "bne": lambda a, b: a != b,
    "blt": lambda a, b: _to_signed(a) < _to_signed(b),
    "bge": lambda a, b: _to_signed(a) >= _to_signed(b),
    "bltu": lambda a, b: a < b,
    "bgeu": lambda a, b: a >= b,
}
