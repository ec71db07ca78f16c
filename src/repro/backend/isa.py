"""RV32IM instruction and register definitions used by the backend and emulator."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

# -- registers ---------------------------------------------------------------
#: ABI register names, indexed by register number.
REGISTER_NAMES = [
    "zero", "ra", "sp", "gp", "tp",
    "t0", "t1", "t2",
    "s0", "s1",
    "a0", "a1", "a2", "a3", "a4", "a5", "a6", "a7",
    "s2", "s3", "s4", "s5", "s6", "s7", "s8", "s9", "s10", "s11",
    "t3", "t4", "t5", "t6",
]
REGISTER_NUMBERS = {name: i for i, name in enumerate(REGISTER_NAMES)}

#: Registers the register allocator may assign to virtual registers.
ALLOCATABLE = [
    "t0", "t1", "t2", "t3", "t4", "t5", "t6",
    "a0", "a1", "a2", "a3", "a4", "a5", "a6", "a7",
    "s1", "s2", "s3", "s4", "s5", "s6", "s7", "s8", "s9", "s10", "s11",
]
CALLER_SAVED = frozenset(["ra", "t0", "t1", "t2", "t3", "t4", "t5", "t6",
                          "a0", "a1", "a2", "a3", "a4", "a5", "a6", "a7"])
CALLEE_SAVED = frozenset(["s0", "s1", "s2", "s3", "s4", "s5", "s6", "s7",
                          "s8", "s9", "s10", "s11"])
ARGUMENT_REGISTERS = ["a0", "a1", "a2", "a3", "a4", "a5", "a6", "a7"]

# -- opcode classes ------------------------------------------------------------
ALU_OPS = frozenset([
    "add", "addi", "sub", "and", "andi", "or", "ori", "xor", "xori",
    "sll", "slli", "srl", "srli", "sra", "srai",
    "slt", "slti", "sltu", "sltiu", "lui", "auipc", "li", "mv", "neg", "seqz", "snez",
])
#: Conditional-branch inversions (``taken`` and ``not taken`` swapped),
#: shared by the lowering's copy-free-edge inversion and the peephole's
#: branch-over-jump flip so the two can never drift apart.
INVERTED_BRANCHES = {"beq": "bne", "bne": "beq", "blt": "bge", "bge": "blt",
                     "bltu": "bgeu", "bgeu": "bltu",
                     "beqz": "bnez", "bnez": "beqz"}
MUL_OPS = frozenset(["mul", "mulh", "mulhu", "mulhsu"])
DIV_OPS = frozenset(["div", "divu", "rem", "remu"])
LOAD_OPS = frozenset(["lw", "lb", "lbu", "lh", "lhu"])
STORE_OPS = frozenset(["sw", "sb", "sh"])
BRANCH_OPS = frozenset(["beq", "bne", "blt", "bge", "bltu", "bgeu", "beqz", "bnez", "j"])
JUMP_OPS = frozenset(["jal", "jalr", "call", "ret"])
SYSTEM_OPS = frozenset(["ecall", "ebreak", "nop"])


@dataclass
class MachineInstr:
    """One RISC-V instruction (or pseudo-instruction).

    ``operands`` holds register names (strings such as ``"a0"`` or virtual
    registers ``"%v12"``), integers (immediates) and label names, in the usual
    assembler order for the opcode.
    """

    opcode: str
    operands: list = field(default_factory=list)
    comment: str = ""

    def __str__(self) -> str:
        ops = ", ".join(str(o) for o in self.operands)
        text = f"{self.opcode} {ops}".rstrip()
        return f"{text}    # {self.comment}" if self.comment else text

    @property
    def is_branch(self) -> bool:
        """True for conditional branches and the unconditional ``j``."""
        return self.opcode in BRANCH_OPS

    @property
    def is_jump(self) -> bool:
        """True for ``jal``/``jalr``/``call``/``ret``."""
        return self.opcode in JUMP_OPS

    @property
    def is_store(self) -> bool:
        """True for memory stores (``sw``/``sb``/``sh``)."""
        return self.opcode in STORE_OPS

    @property
    def is_terminator_like(self) -> bool:
        """True when the instruction ends a machine basic block."""
        return self.is_branch or self.is_jump


@dataclass
class Label:
    """A branch target inside a function's instruction stream."""

    name: str

    def __str__(self) -> str:
        return f"{self.name}:"


@dataclass
class AssemblyFunction:
    """Lowered machine code for one function.

    ``label_depths`` maps each block label to its IR loop depth (0 = not in a
    loop); the lowering records it so the register allocator can weight spill
    decisions by how hot a use position is without re-deriving loop structure
    at the machine level.
    """

    name: str
    body: list = field(default_factory=list)  # MachineInstr | Label
    frame_size: int = 0
    label_depths: dict = field(default_factory=dict)  # label name -> loop depth

    def instructions(self) -> list[MachineInstr]:
        """The function's instructions, with labels filtered out."""
        return [item for item in self.body if isinstance(item, MachineInstr)]

    def __str__(self) -> str:
        lines = [f"{self.name}:"]
        for item in self.body:
            if isinstance(item, Label):
                lines.append(f"{item.name}:")
            else:
                lines.append(f"    {item}")
        return "\n".join(lines)


@dataclass
class AssemblyProgram:
    """A fully lowered module: functions plus global data layout.

    Programs compiled by the optimizing backend additionally carry a
    ``backend_stats`` attribute (per-function static counts, spill and
    peephole statistics) — see :func:`repro.backend.compile_module`.
    """

    functions: dict[str, AssemblyFunction] = field(default_factory=dict)
    globals_layout: dict[str, int] = field(default_factory=dict)  # name -> address
    globals_init: dict[int, int] = field(default_factory=dict)    # address -> word
    data_end: int = 0

    def total_static_instructions(self) -> int:
        """Static instruction count across all functions (labels excluded)."""
        return sum(len(f.instructions()) for f in self.functions.values())

    def __getstate__(self) -> dict:
        # The emulator caches its decoded instruction stream on the program
        # (see repro.emulator.decoder.decode_program); the stream holds bound
        # callables, so drop it from pickles — it is re-decoded on demand.
        state = self.__dict__.copy()
        state.pop("_decoded_cache", None)
        return state

    def __str__(self) -> str:
        parts = [f"# data end: {hex(self.data_end)}"]
        for name, addr in self.globals_layout.items():
            parts.append(f"# {name} @ {hex(addr)}")
        parts.extend(str(f) for f in self.functions.values())
        return "\n\n".join(parts)


#: Precomputed opcode -> class table.  The emulator's decoder and the cost
#: models share this so classification is a single dict probe instead of a
#: linear membership chain.
OPCODE_CLASS: dict[str, str] = {}
for _ops, _cls in ((ALU_OPS, "alu"), (MUL_OPS, "mul"), (DIV_OPS, "div"),
                   (LOAD_OPS, "load"), (STORE_OPS, "store"),
                   (BRANCH_OPS, "branch"), (JUMP_OPS, "jump"),
                   (SYSTEM_OPS, "system")):
    for _op in _ops:
        OPCODE_CLASS[_op] = _cls
del _ops, _cls, _op


class UnknownOpcodeError(ValueError):
    """An opcode with no ``OPCODE_CLASS`` entry.

    Subclasses :class:`ValueError` so pre-existing ``except ValueError``
    call sites keep working; carries the offending mnemonic as ``opcode``
    so batch tooling (encoder coverage tests, fuzz triage) can report
    *which* opcode fell through instead of parsing the message.
    """

    def __init__(self, opcode: str):
        super().__init__(f"unknown opcode: {opcode!r} (no OPCODE_CLASS entry; "
                         f"add it to the opcode sets in repro.backend.isa)")
        self.opcode = opcode


def classify(opcode: str) -> str:
    """Coarse instruction class used by the cost models.

    Raises :class:`UnknownOpcodeError` for mnemonics outside the ISA.
    """
    try:
        return OPCODE_CLASS[opcode]
    except KeyError:
        raise UnknownOpcodeError(opcode) from None
