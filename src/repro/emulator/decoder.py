"""Decode-once lowering of an :class:`AssemblyProgram` for the emulator.

The seed interpreter re-parsed every dynamic instruction: opcode-string
membership chains, label lookups on every taken branch, a dict-based register
file keyed by names.  :func:`decode_program` pays all of that exactly once per
program instead, producing a flat stream of pre-decoded tuples:

* every function body is concatenated into one indexable instruction stream
  (the program counter is a plain list index);
* labels and call targets are resolved to integer indices at decode time;
* opcode strings are mapped to small integer *handler ids* (the ``K_*``
  kinds below) with the ALU / branch semantics bound as callables inside the
  tuple, so the hot loop dispatches on an int and never inspects a string;
* register names are interned to fixed slots of a list-based register file
  (``zero`` is always slot 0; unknown names get fresh slots, mirroring the
  reference interpreter's tolerance of arbitrary register names);
* immediates are pre-masked where the opcode semantics allow it (``li`` /
  ``lui`` values, logical immediates, shift amounts).

The decoded stream is immutable and carries no run state, so it is shared by
every :class:`~repro.emulator.machine.Machine` replaying the same program:
the result is cached on the ``AssemblyProgram`` instance, which is how the
experiment engine, runner, autotuner and CLI all decode each benchmark once
per process.

Alongside the decoded kinds this module owns the fast machine's scalar
operator tables (:data:`ALU_REG_IMPLS`, :data:`ALU_IMM_IMPLS`,
:data:`BRANCH_IMPLS`).  The reference interpreter deliberately keeps its own
verbatim copies of the seed's tables, so the differential tests compare two
*independent* implementations of the arithmetic rather than one shared one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from ..backend.isa import (
    AssemblyProgram, Label, MachineInstr, OPCODE_CLASS, REGISTER_NUMBERS,
)

WORD_MASK = 0xFFFFFFFF
#: ``ra`` value that makes ``main``'s return halt the machine.
RETURN_SENTINEL = 0xFFFF_FFF0


def to_signed(value: int) -> int:
    """Interpret a 32-bit word as a signed integer."""
    value &= WORD_MASK
    return value - (1 << 32) if value >= (1 << 31) else value


# -- scalar semantics (shared by the fast machine and the reference) ----------
def _div(a: int, b: int) -> int:
    sa, sb = to_signed(a), to_signed(b)
    if sb == 0:
        return WORD_MASK
    quotient = abs(sa) // abs(sb)
    if (sa < 0) != (sb < 0):
        quotient = -quotient
    return quotient & WORD_MASK


def _rem(a: int, b: int) -> int:
    sa, sb = to_signed(a), to_signed(b)
    if sb == 0:
        return a
    remainder = abs(sa) % abs(sb)
    if sa < 0:
        remainder = -remainder
    return remainder & WORD_MASK


#: Register-register ALU semantics, ``f(rs1_value, rs2_value) -> masked word``.
ALU_REG_IMPLS: dict[str, Callable[[int, int], int]] = {
    "add": lambda a, b: (a + b) & WORD_MASK,
    "sub": lambda a, b: (a - b) & WORD_MASK,
    "and": lambda a, b: a & b,
    "or": lambda a, b: a | b,
    "xor": lambda a, b: a ^ b,
    "sll": lambda a, b: (a << (b & 31)) & WORD_MASK,
    "srl": lambda a, b: (a >> (b & 31)) & WORD_MASK,
    "sra": lambda a, b: (to_signed(a) >> (b & 31)) & WORD_MASK,
    "slt": lambda a, b: int(to_signed(a) < to_signed(b)),
    "sltu": lambda a, b: int(a < b),
    "mul": lambda a, b: (a * b) & WORD_MASK,
    "div": _div,
    "divu": lambda a, b: (a // b) & WORD_MASK if b else WORD_MASK,
    "rem": _rem,
    "remu": lambda a, b: (a % b) & WORD_MASK if b else a,
}

#: Immediate ALU semantics over the *raw* (unprepared) immediate, exactly as
#: the reference interpreter applies them.
ALU_IMM_IMPLS: dict[str, Callable[[int, int], int]] = {
    "addi": lambda a, imm: (a + imm) & WORD_MASK,
    "andi": lambda a, imm: a & (imm & WORD_MASK),
    "ori": lambda a, imm: a | (imm & WORD_MASK),
    "xori": lambda a, imm: a ^ (imm & WORD_MASK),
    "slli": lambda a, imm: (a << (imm & 31)) & WORD_MASK,
    "srli": lambda a, imm: (a >> (imm & 31)) & WORD_MASK,
    "srai": lambda a, imm: (to_signed(a) >> (imm & 31)) & WORD_MASK,
    "slti": lambda a, imm: int(to_signed(a) < imm),
    "sltiu": lambda a, imm: int(a < (imm & WORD_MASK)),
}

#: Conditional-branch predicates, ``f(rs1_value, rs2_value) -> taken``.
BRANCH_IMPLS: dict[str, Callable[[int, int], bool]] = {
    "beq": lambda a, b: a == b,
    "bne": lambda a, b: a != b,
    "blt": lambda a, b: to_signed(a) < to_signed(b),
    "bge": lambda a, b: to_signed(a) >= to_signed(b),
    "bltu": lambda a, b: a < b,
    "bgeu": lambda a, b: a >= b,
}

#: Decode-time immediate preparation + matching prepared-immediate semantics.
#: Each entry is ``(prepare(imm), apply(a, prepared_imm))``; ``apply`` over the
#: prepared immediate is provably equal to ``ALU_IMM_IMPLS[op]`` over the raw
#: one (the differential tests exercise every pair).
_ALU_IMM_DECODED: dict[str, tuple[Callable[[int], int],
                                  Callable[[int, int], int]]] = {
    "andi": (lambda imm: imm & WORD_MASK, lambda a, i: a & i),
    "ori": (lambda imm: imm & WORD_MASK, lambda a, i: a | i),
    "xori": (lambda imm: imm & WORD_MASK, lambda a, i: a ^ i),
    "sltiu": (lambda imm: imm & WORD_MASK, lambda a, i: int(a < i)),
    "slti": (lambda imm: imm, lambda a, i: int(to_signed(a) < i)),
    "slli": (lambda imm: imm & 31, lambda a, i: (a << i) & WORD_MASK),
    "srli": (lambda imm: imm & 31, lambda a, i: a >> i),
    "srai": (lambda imm: imm & 31, lambda a, i: (to_signed(a) >> i) & WORD_MASK),
}

# -- handler ids ---------------------------------------------------------------
# Small contiguous ints; the hot loop's dispatch ladder tests them roughly in
# descending dynamic frequency.
K_ADDI = 0    # (k, rd, rs1, raw_imm)                inline add-immediate
K_ALU_RR = 1  # (k, rd, rs1, rs2, fn)                fn from ALU_REG_IMPLS
K_ALU_RI = 2  # (k, rd, rs1, prepared_imm, fn)       fn from _ALU_IMM_DECODED
K_ADD = 3     # (k, rd, rs1, rs2)                    inline register add
K_LI = 4      # (k, rd, masked_value)                li and lui
K_MV = 5      # (k, rd, rs1)
K_LW = 6      # (k, rd, offset, base)
K_SW = 7      # (k, rs_value, offset, base)
K_BR = 8      # (k, rs1, rs2, target, fn)            fn from BRANCH_IMPLS
K_BEQZ = 9    # (k, rs1, target)
K_BNEZ = 10   # (k, rs1, target)
K_J = 11      # (k, target)
K_CALL = 12   # (k, target, link)                    link == pc + 1
K_JAL = 13    # (k, rd, target, link)
K_JALR = 14   # (k, rd, base, offset, link)
K_ECALL = 15  # (k,)
K_NOP = 16    # (k,)
K_BAD = 17    # (k, is_emulation_error, message, counted)  raises when executed

#: Kinds whose execution count folds into ``TraceStats`` memory/branch/call
#: counters (see ``Machine._fold_stats``).
CONDITIONAL_KINDS = frozenset({K_BR, K_BEQZ, K_BNEZ})

_ALU_RR_OPCODES = frozenset(ALU_REG_IMPLS)
_ALU_RI_OPCODES = frozenset(ALU_IMM_IMPLS)
_BRANCH_OPCODES = frozenset(BRANCH_IMPLS)


class DecodeError(Exception):
    """Raised when a program cannot be lowered to the decoded form."""


@dataclass
class DecodedProgram:
    """An :class:`AssemblyProgram` lowered for table dispatch.

    Everything here is static (no run state), so one decoded program is
    shared by any number of machines and runs.
    """

    #: Pre-decoded instruction tuples, indexed by flat pc.
    code: list
    #: Function name -> flat entry index.
    entries: dict
    #: Label name -> flat target index.
    labels: dict
    #: Per-pc opcode string / instruction class (CPU latencies + stats folding).
    opcodes: list
    classes: list
    #: Per-pc destination register name and source names, exactly as the
    #: reference interpreter reports them to its observers.
    dests: list
    sources: list
    #: Control transfers whose label / callee did not resolve statically
    #: (pc -> name).  They fault at execution time — conditional branches
    #: only when taken — reproducing the reference interpreter's pre-fault
    #: side effects (counted instruction, branch/call counters, jal link).
    unresolved: dict = field(default_factory=dict)
    #: Register name -> slot in the list-based register file (>= the 32 ABI
    #: registers; unknown names seen at decode time get fresh slots).
    slots: dict = field(default_factory=lambda: dict(REGISTER_NUMBERS))

    @property
    def num_slots(self) -> int:
        return len(self.slots)

    def __len__(self) -> int:
        return len(self.code)


def _flatten(program: AssemblyProgram):
    """Concatenate all function bodies; collect entry and label indices."""
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
    return instructions, labels, entries


def decode_program(program: AssemblyProgram) -> DecodedProgram:
    """Lower ``program`` to its decoded form, caching the result on the program.

    The cache makes "decode once per process" automatic wherever the same
    ``AssemblyProgram`` object is replayed repeatedly (experiment engine
    re-measurements, CLI runs, benchmark harness reruns).  Mutating a
    program's functions after its first emulation is not supported — recompile
    instead (the compilation pipeline always produces fresh programs).
    """
    cached = getattr(program, "_decoded_cache", None)
    if cached is not None:
        return cached
    decoded = _decode(program)
    try:
        program._decoded_cache = decoded
    except (AttributeError, TypeError):  # frozen/slotted program: still works
        pass
    return decoded


def _decode(program: AssemblyProgram) -> DecodedProgram:
    instructions, labels, entries = _flatten(program)
    slots = dict(REGISTER_NUMBERS)

    def intern(name) -> int:
        if not isinstance(name, str):
            raise DecodeError(f"expected register name, got {name!r}")
        slot = slots.get(name)
        if slot is None:
            # Mirror the reference interpreter: any unknown name is simply a
            # fresh, zero-initialised register.
            slot = slots[name] = len(slots)
        return slot

    code: list = []
    opcodes: list = []
    classes: list = []
    dests: list = []
    sources: list = []
    unresolved: dict[int, str] = {}

    for pc, instr in enumerate(instructions):
        op = instr.opcode
        ops = instr.operands
        opcodes.append(op)
        classes.append(OPCODE_CLASS.get(op))
        try:
            decoded, dest, srcs = _decode_instr(op, ops, pc, labels, entries,
                                                intern, unresolved)
        except Exception as exc:
            # Mirror the reference's laziness for malformed operands too: it
            # only faults when the instruction executes, so malformed dead
            # code must not fail at decode time.  (The exception message may
            # differ from the reference's raw unpack error.)
            decoded = _bad(f"malformed instruction {str(instr)!r}: {exc}",
                           emulation_error=False)
            dest, srcs = None, []

        code.append(decoded)
        dests.append(dest)
        sources.append(srcs)

    return DecodedProgram(code=code, entries=entries, labels=labels,
                          opcodes=opcodes, classes=classes, dests=dests,
                          sources=sources, unresolved=unresolved, slots=slots)


def _decode_instr(op, ops, pc, labels, entries, intern, unresolved):
    """Lower one instruction; returns ``(decoded_tuple, dest_name, sources)``."""
    dest: Optional[str] = None
    srcs: list[str] = []

    if op in _ALU_RR_OPCODES:
        dest, rs1, rs2 = ops
        srcs = [rs1, rs2]
        rd_s, rs1_s, rs2_s = intern(dest), intern(rs1), intern(rs2)
        if op == "add":
            decoded = (K_ADD, rd_s, rs1_s, rs2_s)
        else:
            decoded = (K_ALU_RR, rd_s, rs1_s, rs2_s, ALU_REG_IMPLS[op])
    elif op == "addi":
        dest, rs1, imm = ops
        srcs = [rs1]
        decoded = (K_ADDI, intern(dest), intern(rs1), imm)
    elif op in _ALU_RI_OPCODES:
        dest, rs1, imm = ops
        srcs = [rs1]
        prepare, apply = _ALU_IMM_DECODED[op]
        decoded = (K_ALU_RI, intern(dest), intern(rs1), prepare(imm), apply)
    elif op == "li":
        dest = ops[0]
        decoded = (K_LI, intern(dest), ops[1] & WORD_MASK)
    elif op == "lui":
        dest = ops[0]
        decoded = (K_LI, intern(dest), (ops[1] << 12) & WORD_MASK)
    elif op == "mv":
        dest, rs1 = ops
        srcs = [rs1]
        decoded = (K_MV, intern(dest), intern(rs1))
    elif op == "lw":
        dest, offset, base = ops
        srcs = [base]
        decoded = (K_LW, intern(dest), offset, intern(base))
    elif op == "sw":
        value_reg, offset, base = ops
        srcs = [value_reg, base]
        decoded = (K_SW, intern(value_reg), offset, intern(base))
    elif op in _BRANCH_OPCODES:
        rs1, rs2, label = ops
        srcs = [rs1, rs2]
        target = labels.get(label, -1)
        if target < 0:
            unresolved[pc] = label
        decoded = (K_BR, intern(rs1), intern(rs2), target, BRANCH_IMPLS[op])
    elif op in ("beqz", "bnez"):
        rs1, label = ops
        srcs = [rs1]
        target = labels.get(label, -1)
        if target < 0:
            unresolved[pc] = label
        decoded = (K_BEQZ if op == "beqz" else K_BNEZ, intern(rs1), target)
    elif op == "j":
        label = ops[0]
        target = labels.get(label, -1)
        if target < 0:
            # Fault lazily at execution so the reference's pre-fault side
            # effects (the instruction and its taken-branch count) match.
            unresolved[pc] = label
        decoded = (K_J, target)
    elif op == "call":
        dest = "ra"
        target = entries.get(ops[0], -1)
        if target < 0:
            unresolved[pc] = ops[0]
        decoded = (K_CALL, target, pc + 1)
    elif op == "jal":
        dest, label = ops
        target = labels.get(label, -1)
        if target < 0:
            unresolved[pc] = label
        decoded = (K_JAL, intern(dest), target, pc + 1)
    elif op == "jalr":
        dest, base, offset = ops
        srcs = [base]
        decoded = (K_JALR, intern(dest), intern(base), offset, pc + 1)
    elif op == "ecall":
        dest = "a0"
        srcs = ["a0", "a1", "a2", "a7"]
        decoded = (K_ECALL,)
    elif op == "nop":
        decoded = (K_NOP,)
    elif op == "ebreak":
        decoded = _bad("guest executed ebreak (unreachable code)")
    elif op in OPCODE_CLASS:
        # Classified but not implemented by the emulator (lb, auipc, ...):
        # the reference counts the instruction, then faults.
        decoded = _bad(f"unknown opcode: {op}")
    else:
        # Entirely unknown opcode: the reference faults inside classify()
        # *before* recording the instruction, hence counted=False.
        decoded = _bad(f"unknown opcode: {op}", counted=False,
                       emulation_error=False)

    return decoded, dest, srcs


def _bad(message: str, counted: bool = True,
         emulation_error: bool = True) -> tuple:
    """A ``K_BAD`` tuple: faults when executed.

    ``emulation_error`` selects :class:`~repro.emulator.machine.EmulationError`
    over :class:`ValueError` (the reference raises the latter, from
    ``classify``, for opcodes no class knows — without counting them first,
    hence ``counted``).
    """
    return (K_BAD, emulation_error, message, counted)
