"""RV32IM instruction and register definitions used by the backend and emulator."""

from __future__ import annotations

from dataclasses import dataclass, field

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

# -- opcodes -------------------------------------------------------------------
#: Every opcode, declared once: ``(cost class, operand roles, opcodes)``.  The
#: roles name each operand in assembler order: ``d`` a register written,
#: ``u`` a register read, ``i`` an immediate, ``l`` a label and ``f`` a
#: function symbol.  ``call`` and ``ecall`` also write ``ra``/``a0`` (and
#: ``ecall`` reads ``a0``-``a2``/``a7``), but those are fixed physical
#: registers, never operands.  Register allocation, the peephole passes and
#: the encoder read the roles; the emulators keep their own semantics, which
#: ``tests/test_backend_emulator.py`` checks the table against.
_OPCODE_TABLE = (
    ("alu", "duu", "add sub and or xor sll srl sra slt sltu"),
    ("alu", "dui", "addi andi ori xori slli srli srai slti sltiu"),
    ("alu", "di", "lui auipc li"),
    ("alu", "du", "mv neg seqz snez"),
    ("mul", "duu", "mul mulh mulhu mulhsu"),
    ("div", "duu", "div divu rem remu"),
    ("load", "diu", "lw lb lbu lh lhu"),
    ("store", "uiu", "sw sb sh"),
    ("branch", "uul", "beq bne blt bge bltu bgeu"),
    ("branch", "ul", "beqz bnez"),
    ("branch", "l", "j"),
    ("jump", "dl", "jal"),
    ("jump", "dui", "jalr"),
    ("jump", "f", "call"),
    ("jump", "", "ret"),
    ("system", "", "ecall ebreak nop"),
)
#: opcode -> coarse instruction class, read by the cost models and emulators.
OPCODE_CLASS: dict[str, str] = {op: cls for cls, _, ops in _OPCODE_TABLE
                                for op in ops.split()}
#: opcode -> operand roles, one letter per operand.
OPERAND_ROLES: dict[str, str] = {op: roles for _, roles, ops in _OPCODE_TABLE
                                 for op in ops.split()}


def role_positions(role: str) -> dict[str, tuple[int, ...]]:
    """opcode -> the positions of its operands that play ``role``."""
    return {op: tuple(i for i, r in enumerate(roles) if r == role)
            for op, roles in OPERAND_ROLES.items()}


_DEFS = role_positions("d")
_USES = role_positions("u")

#: Conditional-branch inversions (``taken`` and ``not taken`` swapped),
#: shared by the lowering's copy-free-edge inversion and the peephole's
#: branch-over-jump flip so the two can never drift apart.
INVERTED_BRANCHES = {"beq": "bne", "bne": "beq", "blt": "bge", "bge": "blt",
                     "bltu": "bgeu", "bgeu": "bltu",
                     "beqz": "bnez", "bnez": "beqz"}


@dataclass
class MachineInstr:
    """One RISC-V instruction (or pseudo-instruction).

    ``operands`` holds register names (strings such as ``"a0"`` or virtual
    registers ``"%v12"``), integers (immediates) and label or function names,
    in the usual assembler order for the opcode; ``OPERAND_ROLES`` gives each
    position's role.
    """

    opcode: str
    operands: list = field(default_factory=list)
    comment: str = ""

    def __str__(self) -> str:
        ops = ", ".join(str(o) for o in self.operands)
        text = f"{self.opcode} {ops}".rstrip()
        return f"{text}    # {self.comment}" if self.comment else text

    @property
    def defs(self) -> tuple[int, ...]:
        """Positions of the register operands this instruction writes."""
        return _DEFS[self.opcode]

    @property
    def uses(self) -> tuple[int, ...]:
        """Positions of the register operands this instruction reads."""
        return _USES[self.opcode]

    @property
    def is_branch(self) -> bool:
        """True for conditional branches and the unconditional ``j``."""
        return OPCODE_CLASS.get(self.opcode) == "branch"

    @property
    def is_jump(self) -> bool:
        """True for ``jal``/``jalr``/``call``/``ret``."""
        return OPCODE_CLASS.get(self.opcode) == "jump"

    @property
    def is_store(self) -> bool:
        """True for memory stores (``sw``/``sb``/``sh``)."""
        return OPCODE_CLASS.get(self.opcode) == "store"

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


class UnknownOpcodeError(ValueError):
    """An opcode with no ``OPCODE_CLASS`` entry.

    Subclasses :class:`ValueError` so pre-existing ``except ValueError``
    call sites keep working; carries the offending mnemonic as ``opcode``
    so batch tooling (encoder coverage tests, fuzz triage) can report
    *which* opcode fell through instead of parsing the message.
    """

    def __init__(self, opcode: str):
        super().__init__(f"unknown opcode: {opcode!r} (no OPCODE_CLASS entry; "
                         f"add it to the opcode table in repro.backend.isa)")
        self.opcode = opcode


def classify(opcode: str) -> str:
    """Coarse instruction class used by the cost models.

    Raises :class:`UnknownOpcodeError` for mnemonics outside the ISA.
    """
    try:
        return OPCODE_CLASS[opcode]
    except KeyError:
        raise UnknownOpcodeError(opcode) from None
