"""Real RV32I binary encoding for lowered :class:`AssemblyProgram`\\ s.

The backend stops at textual assembly; this module turns that assembly into
actual machine words so code size is a measurable artifact, not a string
convention:

* :func:`encode_program` expands every pseudo-instruction into canonical
  RV32I *atoms* (``li`` into ``addi``/``lui``+``addi``, ``call`` into
  ``jal ra``, ``ret`` into ``jalr zero, ra, 0``, ...), lays the atoms out at
  byte addresses, resolves label and call relocations, and packs each atom
  through the R/I/S/B/U/J bitfield encoders.  Conditional branches whose
  target drifts outside the ±4 KiB B-format range are relaxed into an
  inverted branch over a ``jal`` (one atom, eight bytes); relaxation and RVC
  widening are monotone, so the address-assignment fixpoint terminates.
* With ``rvc=True`` eligible atoms are rewritten into 16-bit compressed
  halfwords via :mod:`repro.backend.rvc`; branch/jump compression depends on
  the very offsets that compression changes, so sizing iterates until stable.
* :func:`decode_words` is the matching disassembler: it turns the byte blob
  back into :class:`EncodedInstr` atoms, and :func:`encode_one` re-encodes a
  decoded atom so tests can assert encode → decode → re-encode is
  byte-identical.
* :func:`reassemble` lifts a decoded stream back into an
  :class:`AssemblyProgram` the emulator can run, closing the loop against
  :mod:`repro.emulator.decoder` semantics.

The module deliberately depends only on :mod:`repro.backend.isa` (and
:mod:`repro.backend.rvc`): the emulator imports the backend package, so
importing the emulator from here would be circular.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

from . import rvc as _rvc
from .isa import (AssemblyFunction, AssemblyProgram, INVERTED_BRANCHES, Label,
                  MachineInstr, REGISTER_NUMBERS, role_positions)

#: Where the text segment starts.  Anything below ``DATA_SEGMENT_BASE``
#: (0x10000) works; 0x1000 leaves a null page unmapped like a real linker.
BASE_ADDRESS = 0x1000


# -- errors --------------------------------------------------------------------
class EncodeError(Exception):
    """Base class for every binary-encoding failure."""


class UnsupportedOpcodeError(EncodeError):
    """An opcode with no RV32 encoding (carries ``.opcode``)."""

    def __init__(self, opcode: str):
        super().__init__(f"no RV32 binary encoding for opcode {opcode!r}")
        self.opcode = opcode


class UnencodableOperandError(EncodeError):
    """An operand that cannot appear in a machine word (e.g. a vreg)."""


class ImmediateRangeError(EncodeError):
    """An immediate outside its bitfield's range."""


class RelocationError(EncodeError):
    """A label or call target that does not resolve."""


class DisassemblyError(EncodeError):
    """A 32-bit word outside the encoded subset."""


# -- bitfield packers ----------------------------------------------------------
def _reg(name) -> int:
    number = REGISTER_NUMBERS.get(name)
    if number is None:
        raise UnencodableOperandError(
            f"{name!r} is not a physical RV32 register")
    return number


def _signed(value: int, bits: int, what: str) -> int:
    lo, hi = -(1 << (bits - 1)), (1 << (bits - 1)) - 1
    if not isinstance(value, int) or isinstance(value, bool):
        raise UnencodableOperandError(f"{what} must be an integer, got "
                                      f"{value!r}")
    if not lo <= value <= hi:
        raise ImmediateRangeError(
            f"{what} {value} outside [{lo}, {hi}]")
    return value & ((1 << bits) - 1)


def _even(offset: int, bits: int, what: str) -> int:
    if offset % 2:
        raise ImmediateRangeError(f"{what} {offset} is not 2-byte aligned")
    return _signed(offset, bits, what)


def encode_r(funct7: int, rs2: int, rs1: int, funct3: int, rd: int) -> int:
    return (funct7 << 25 | rs2 << 20 | rs1 << 15 | funct3 << 12 | rd << 7
            | 0x33)


def encode_i(imm: int, rs1: int, funct3: int, rd: int, opcode: int) -> int:
    return (_signed(imm, 12, "I-type immediate") << 20 | rs1 << 15
            | funct3 << 12 | rd << 7 | opcode)


def encode_s(imm: int, rs2: int, rs1: int, funct3: int) -> int:
    imm12 = _signed(imm, 12, "S-type immediate")
    return ((imm12 >> 5) << 25 | rs2 << 20 | rs1 << 15 | funct3 << 12
            | (imm12 & 0x1F) << 7 | 0x23)


def encode_b(offset: int, rs2: int, rs1: int, funct3: int) -> int:
    imm13 = _even(offset, 13, "branch offset")
    return (((imm13 >> 12) & 1) << 31 | ((imm13 >> 5) & 0x3F) << 25
            | rs2 << 20 | rs1 << 15 | funct3 << 12
            | ((imm13 >> 1) & 0xF) << 8 | ((imm13 >> 11) & 1) << 7 | 0x63)


def encode_u(imm: int, rd: int, opcode: int) -> int:
    if not isinstance(imm, int) or isinstance(imm, bool):
        raise UnencodableOperandError(f"U-type immediate must be an integer, "
                                      f"got {imm!r}")
    if not -(1 << 19) <= imm < (1 << 20):
        raise ImmediateRangeError(
            f"U-type immediate {imm} outside [-524288, 1048575]")
    return (imm & 0xFFFFF) << 12 | rd << 7 | opcode


def encode_j(offset: int, rd: int) -> int:
    imm21 = _even(offset, 21, "jal offset")
    return (((imm21 >> 20) & 1) << 31 | ((imm21 >> 1) & 0x3FF) << 21
            | ((imm21 >> 11) & 1) << 20 | ((imm21 >> 12) & 0xFF) << 12
            | rd << 7 | 0x6F)


# -- opcode tables -------------------------------------------------------------
_R_FUNCT = {
    "add": (0x00, 0), "sub": (0x20, 0), "sll": (0x00, 1), "slt": (0x00, 2),
    "sltu": (0x00, 3), "xor": (0x00, 4), "srl": (0x00, 5), "sra": (0x20, 5),
    "or": (0x00, 6), "and": (0x00, 7),
    "mul": (0x01, 0), "mulh": (0x01, 1), "mulhsu": (0x01, 2),
    "mulhu": (0x01, 3), "div": (0x01, 4), "divu": (0x01, 5),
    "rem": (0x01, 6), "remu": (0x01, 7),
}
_I_FUNCT = {"addi": 0, "slti": 2, "sltiu": 3, "xori": 4, "ori": 6, "andi": 7}
_SHIFT_FUNCT = {"slli": (0x00, 1), "srli": (0x00, 5), "srai": (0x20, 5)}
_LOAD_FUNCT = {"lb": 0, "lh": 1, "lw": 2, "lbu": 4, "lhu": 5}
_STORE_FUNCT = {"sb": 0, "sh": 1, "sw": 2}
_BRANCH_FUNCT = {"beq": 0, "bne": 1, "blt": 4, "bge": 5, "bltu": 6, "bgeu": 7}

_R_NAME = {v: k for k, v in _R_FUNCT.items()}
_I_NAME = {v: k for k, v in _I_FUNCT.items()}
_LOAD_NAME = {v: k for k, v in _LOAD_FUNCT.items()}
_STORE_NAME = {v: k for k, v in _STORE_FUNCT.items()}
_BRANCH_NAME = {v: k for k, v in _BRANCH_FUNCT.items()}

#: opcode -> positions of its immediate operands (role ``i``), checked once
#: before expansion.
_IMMEDIATES = role_positions("i")


# -- canonical atoms -----------------------------------------------------------
@dataclass
class _Atom:
    """One canonical RV32 instruction between expansion and emission.

    ``relaxed`` (branch became branch-over-``jal``) and ``wide`` (RVC
    candidate forced back to 32 bits) are monotone: once set they stay set,
    which is what makes the layout fixpoint terminate.
    """

    opcode: str
    operands: tuple
    target: Optional[str] = None      # label or function symbol
    is_call: bool = False             # target names a function entry
    source: int = -1                  # flat MachineInstr index
    size: int = 4
    address: int = 0
    relaxed: bool = False
    wide: bool = False
    target_index: Optional[int] = None


@dataclass
class EncodedInstr:
    """One emitted machine word (or halfword) with its decoded meaning."""

    address: int
    size: int                         # 2 or 4 bytes
    word: int
    opcode: str
    operands: tuple
    target: Optional[int] = None      # absolute address for branches/jumps
    source: int = field(default=-1, compare=False)

    def __str__(self) -> str:
        word = f"{self.word:08x}" if self.size == 4 else f"    {self.word:04x}"
        ops = ", ".join(str(o) for o in self.operands)
        text = f"{self.address:#07x}:  {word}  {self.opcode} {ops}".rstrip()
        if self.target is not None:
            text += f" -> {self.target:#x}"
        return text


@dataclass
class EncodedProgram:
    """A fully encoded program: the byte blob plus its symbol/size tables."""

    instrs: list
    blob: bytes
    symbols: dict                     # function name -> entry address
    labels: dict                      # label name -> address
    function_sizes: dict              # function name -> bytes
    base_address: int = BASE_ADDRESS
    rvc: bool = False

    @property
    def code_bytes(self) -> int:
        return len(self.blob)

    def hexdump(self) -> str:
        entry_at = {addr: name for name, addr in self.symbols.items()}
        lines = []
        for instr in self.instrs:
            name = entry_at.get(instr.address)
            if name is not None:
                lines.append(f"{name}:")
            lines.append(f"  {instr}")
        return "\n".join(lines)


def _expand(instr: MachineInstr, source: int) -> list:
    """Pseudo-expansion: one ``MachineInstr`` into canonical atoms.

    Expansions only use opcodes :mod:`repro.emulator.decoder` executes
    (never ``auipc``), so a reassembled round-trip stays runnable.
    """
    op, ops = instr.opcode, instr.operands
    for pos in _IMMEDIATES.get(op, ()):
        value = ops[pos]
        if not isinstance(value, int) or isinstance(value, bool):
            raise UnencodableOperandError(
                f"{op} immediate must be an integer, got {value!r}")

    def atom(opcode, operands, target=None, is_call=False):
        return _Atom(opcode, tuple(operands), target=target, is_call=is_call,
                     source=source)

    if op in _R_FUNCT:
        if op in ("add", "xor", "or", "and") \
                and ops[0] == ops[2] and ops[0] != ops[1]:
            # Commutative canonicalization: rd==rs2 blocks the 2-address
            # compressed forms (c.add needs rd==rs1), so swap the sources.
            return [atom(op, (ops[0], ops[2], ops[1]))]
        return [atom(op, (ops[0], ops[1], ops[2]))]
    if op in _I_FUNCT:
        return [atom(op, (ops[0], ops[1], ops[2]))]
    if op in _SHIFT_FUNCT:
        return [atom(op, (ops[0], ops[1], ops[2] & 31))]
    if op in _LOAD_FUNCT:
        return [atom(op, (ops[0], ops[1], ops[2]))]
    if op in _STORE_FUNCT:
        return [atom(op, (ops[0], ops[1], ops[2]))]
    if op in _BRANCH_FUNCT:
        return [atom(op, (ops[0], ops[1]), target=ops[2])]
    if op in ("beqz", "bnez"):
        return [atom("beq" if op == "beqz" else "bne", (ops[0], "zero"),
                     target=ops[1])]
    if op == "j":
        return [atom("jal", ("zero",), target=ops[0])]
    if op == "jal":
        return [atom("jal", (ops[0],), target=ops[1])]
    if op == "call":
        return [atom("jal", ("ra",), target=ops[0], is_call=True)]
    if op == "ret":
        return [atom("jalr", ("zero", "ra", 0))]
    if op == "jalr":
        return [atom("jalr", (ops[0], ops[1], ops[2]))]
    if op == "lui":
        return [atom("lui", (ops[0], ops[1]))]
    if op == "auipc":
        return [atom("auipc", (ops[0], ops[1]))]
    if op == "li":
        value = ops[1] & 0xFFFFFFFF
        if value >= 1 << 31:
            value -= 1 << 32
        if -2048 <= value <= 2047:
            return [atom("addi", (ops[0], "zero", value))]
        low = value & 0xFFF
        if low >= 0x800:
            low -= 0x1000
        high = ((value - low) >> 12) & 0xFFFFF
        if low == 0:
            return [atom("lui", (ops[0], high))]
        return [atom("lui", (ops[0], high)),
                atom("addi", (ops[0], ops[0], low))]
    if op == "mv":
        return [atom("addi", (ops[0], ops[1], 0))]
    if op == "neg":
        return [atom("sub", (ops[0], "zero", ops[1]))]
    if op == "seqz":
        return [atom("sltiu", (ops[0], ops[1], 1))]
    if op == "snez":
        return [atom("sltu", (ops[0], "zero", ops[1]))]
    if op == "nop":
        return [atom("addi", ("zero", "zero", 0))]
    if op == "ecall":
        return [atom("ecall", ())]
    if op == "ebreak":
        return [atom("ebreak", ())]
    raise UnsupportedOpcodeError(op)


def _encode32(opcode: str, operands: tuple,
              offset: Optional[int] = None) -> int:
    """Pack one canonical atom into a 32-bit word."""
    if opcode in _R_FUNCT:
        funct7, funct3 = _R_FUNCT[opcode]
        rd, rs1, rs2 = operands
        return encode_r(funct7, _reg(rs2), _reg(rs1), funct3, _reg(rd))
    if opcode in _I_FUNCT:
        rd, rs1, imm = operands
        return encode_i(imm, _reg(rs1), _I_FUNCT[opcode], _reg(rd), 0x13)
    if opcode in _SHIFT_FUNCT:
        funct7, funct3 = _SHIFT_FUNCT[opcode]
        rd, rs1, shamt = operands
        if not 0 <= shamt <= 31:
            raise ImmediateRangeError(f"shift amount {shamt} outside [0, 31]")
        return (funct7 << 25 | shamt << 20 | _reg(rs1) << 15 | funct3 << 12
                | _reg(rd) << 7 | 0x13)
    if opcode in _LOAD_FUNCT:
        rd, off, base = operands
        return encode_i(off, _reg(base), _LOAD_FUNCT[opcode], _reg(rd), 0x03)
    if opcode in _STORE_FUNCT:
        rs2, off, base = operands
        return encode_s(off, _reg(rs2), _reg(base), _STORE_FUNCT[opcode])
    if opcode in _BRANCH_FUNCT:
        rs1, rs2 = operands
        return encode_b(offset, _reg(rs2), _reg(rs1), _BRANCH_FUNCT[opcode])
    if opcode == "jal":
        (rd,) = operands
        return encode_j(offset, _reg(rd))
    if opcode == "jalr":
        rd, base, imm = operands
        return encode_i(imm, _reg(base), 0, _reg(rd), 0x67)
    if opcode == "lui":
        rd, imm = operands
        return encode_u(imm, _reg(rd), 0x37)
    if opcode == "auipc":
        rd, imm = operands
        return encode_u(imm, _reg(rd), 0x17)
    if opcode == "ecall":
        return 0x00000073
    if opcode == "ebreak":
        return 0x00100073
    raise UnsupportedOpcodeError(opcode)


# -- program encoding ----------------------------------------------------------
def _collect_atoms(program: AssemblyProgram):
    """Expand the whole program; returns atoms plus symbol/label indices."""
    atoms: list = []
    function_starts: dict = {}
    function_ends: dict = {}
    label_at: dict = {}
    source = 0
    for name, function in program.functions.items():
        function_starts[name] = len(atoms)
        for item in function.body:
            if isinstance(item, Label):
                label_at[item.name] = len(atoms)
            else:
                atoms.extend(_expand(item, source))
                source += 1
        function_ends[name] = len(atoms)
    for atom in atoms:
        if atom.target is None:
            continue
        table = function_starts if atom.is_call else label_at
        index = table.get(atom.target)
        if index is None:
            kind = "function" if atom.is_call else "label"
            raise RelocationError(
                f"{kind} {atom.target!r} is referenced but never defined")
        atom.target_index = index
    return atoms, function_starts, function_ends, label_at


def _layout(atoms: list, base_address: int, rvc: bool) -> int:
    """Assign sizes and addresses; returns the end address.

    Widening (``wide``/``relaxed``) is monotone, so each iteration either
    changes nothing (done) or grows at least one atom — the loop runs at
    most ``len(atoms)`` times.
    """
    for atom in atoms:
        if rvc:
            probe = 0 if atom.target_index is not None else None
            compressed = _rvc.compress(atom.opcode, atom.operands, probe)
            atom.size = 2 if compressed is not None else 4
        else:
            atom.size = 4
    while True:
        address = base_address
        for atom in atoms:
            atom.address = address
            address += atom.size
        end_address = address
        changed = False
        for atom in atoms:
            if atom.target_index is None or atom.relaxed:
                continue
            if atom.target_index < len(atoms):
                target = atoms[atom.target_index].address
            else:
                target = end_address
            offset = target - atom.address
            if atom.size == 2 and not atom.wide:
                if _rvc.compress(atom.opcode, atom.operands, offset) is None:
                    atom.wide, atom.size, changed = True, 4, True
                    continue
            if atom.size == 4 and atom.opcode in _BRANCH_FUNCT:
                if not -4096 <= offset <= 4094:
                    atom.relaxed, atom.size, changed = True, 8, True
        if not changed:
            return end_address


def encode_program(program: AssemblyProgram, rvc: bool = False,
                   base_address: int = BASE_ADDRESS) -> EncodedProgram:
    """Encode every function of ``program`` into real RV32(C) machine words.

    Functions are laid out contiguously in dictionary order starting at
    ``base_address``; a label at the end of a function resolves to the next
    function's entry, mirroring the emulator's flattened-stream semantics.
    """
    atoms, function_starts, function_ends, label_at = _collect_atoms(program)
    end_address = _layout(atoms, base_address, rvc)

    def address_of(index: int) -> int:
        return atoms[index].address if index < len(atoms) else end_address

    instrs = []
    blob = bytearray()
    for atom in atoms:
        target = (address_of(atom.target_index)
                  if atom.target_index is not None else None)
        if atom.relaxed:
            inverted = INVERTED_BRANCHES[atom.opcode]
            over = atom.address + 8
            instrs.append(EncodedInstr(
                atom.address, 4, _encode32(inverted, atom.operands, 8),
                inverted, atom.operands, target=over, source=atom.source))
            jal_address = atom.address + 4
            instrs.append(EncodedInstr(
                jal_address, 4,
                _encode32("jal", ("zero",), target - jal_address),
                "jal", ("zero",), target=target, source=atom.source))
        else:
            offset = target - atom.address if target is not None else None
            if atom.size == 2:
                word = _rvc.compress(atom.opcode, atom.operands, offset)
                if word is None:  # layout() guarantees eligibility
                    raise EncodeError(
                        f"layout marked {atom.opcode} compressed but "
                        f"compression failed at {atom.address:#x}")
            else:
                word = _encode32(atom.opcode, atom.operands, offset)
            instrs.append(EncodedInstr(atom.address, atom.size, word,
                                       atom.opcode, atom.operands,
                                       target=target, source=atom.source))
    for instr in instrs:
        blob += instr.word.to_bytes(instr.size, "little")

    symbols = {name: address_of(index)
               for name, index in function_starts.items()}
    function_sizes = {
        name: (address_of(function_ends[name]) - address_of(start))
        for name, start in function_starts.items()}
    labels = {name: address_of(index) for name, index in label_at.items()}
    return EncodedProgram(instrs=instrs, blob=bytes(blob), symbols=symbols,
                          labels=labels, function_sizes=function_sizes,
                          base_address=base_address, rvc=rvc)


# -- disassembly ---------------------------------------------------------------
def _decode32(word: int):
    """Invert :func:`_encode32`: ``(opcode, operands, offset_or_None)``."""
    opcode = word & 0x7F
    rd = (word >> 7) & 0x1F
    funct3 = (word >> 12) & 0x7
    rs1 = (word >> 15) & 0x1F
    rs2 = (word >> 20) & 0x1F
    funct7 = (word >> 25) & 0x7F
    names = _rvc.REGISTER_NAMES

    def imm_i():
        imm = word >> 20
        return imm - 4096 if imm & 0x800 else imm

    if opcode == 0x33:
        name = _R_NAME.get((funct7, funct3))
        if name is None:
            raise DisassemblyError(f"unknown R-type word {word:#010x}")
        return name, (names[rd], names[rs1], names[rs2]), None
    if opcode == 0x13:
        if funct3 == 1 or funct3 == 5:
            shamt = rs2
            if funct3 == 1 and funct7 == 0x00:
                name = "slli"
            elif funct3 == 5 and funct7 == 0x00:
                name = "srli"
            elif funct3 == 5 and funct7 == 0x20:
                name = "srai"
            else:
                raise DisassemblyError(f"unknown shift word {word:#010x}")
            return name, (names[rd], names[rs1], shamt), None
        return _I_NAME[funct3], (names[rd], names[rs1], imm_i()), None
    if opcode == 0x03:
        name = _LOAD_NAME.get(funct3)
        if name is None:
            raise DisassemblyError(f"unknown load word {word:#010x}")
        return name, (names[rd], imm_i(), names[rs1]), None
    if opcode == 0x23:
        name = _STORE_NAME.get(funct3)
        if name is None:
            raise DisassemblyError(f"unknown store word {word:#010x}")
        imm = (funct7 << 5) | rd
        imm = imm - 4096 if imm & 0x800 else imm
        return name, (names[rs2], imm, names[rs1]), None
    if opcode == 0x63:
        name = _BRANCH_NAME.get(funct3)
        if name is None:
            raise DisassemblyError(f"unknown branch word {word:#010x}")
        offset = (((word >> 31) & 1) << 12 | ((word >> 7) & 1) << 11
                  | ((word >> 25) & 0x3F) << 5 | ((word >> 8) & 0xF) << 1)
        offset = offset - 8192 if offset & 0x1000 else offset
        return name, (names[rs1], names[rs2]), offset
    if opcode == 0x37:
        return "lui", (names[rd], (word >> 12) & 0xFFFFF), None
    if opcode == 0x17:
        return "auipc", (names[rd], (word >> 12) & 0xFFFFF), None
    if opcode == 0x6F:
        offset = (((word >> 31) & 1) << 20 | ((word >> 12) & 0xFF) << 12
                  | ((word >> 20) & 1) << 11 | ((word >> 21) & 0x3FF) << 1)
        offset = offset - (1 << 21) if offset & (1 << 20) else offset
        return "jal", (names[rd],), offset
    if opcode == 0x67:
        if funct3 != 0:
            raise DisassemblyError(f"unknown jalr word {word:#010x}")
        return "jalr", (names[rd], names[rs1], imm_i()), None
    if opcode == 0x73:
        if word == 0x00000073:
            return "ecall", (), None
        if word == 0x00100073:
            return "ebreak", (), None
        raise DisassemblyError(f"unknown system word {word:#010x}")
    raise DisassemblyError(f"unknown major opcode in word {word:#010x}")


def decode_words(blob: Union[bytes, bytearray],
                 base_address: int = BASE_ADDRESS) -> list:
    """Disassemble a byte blob back into :class:`EncodedInstr` atoms.

    16-bit halfwords (low two bits != ``11``) go through
    :func:`repro.backend.rvc.decode_compressed`; everything else is a 32-bit
    word.  Branch/jump offsets come back as absolute ``target`` addresses.
    """
    data = bytes(blob)
    instrs = []
    index = 0
    while index < len(data):
        if index + 2 > len(data):
            raise DisassemblyError(f"trailing byte at offset {index}")
        address = base_address + index
        half = data[index] | data[index + 1] << 8
        if half & 0b11 == 0b11:
            if index + 4 > len(data):
                raise DisassemblyError(
                    f"truncated 32-bit instruction at offset {index}")
            word = int.from_bytes(data[index:index + 4], "little")
            opcode, operands, rel = _decode32(word)
            size = 4
        else:
            word, size = half, 2
            opcode, operands, rel = _rvc.decode_compressed(half)
        target = address + rel if rel is not None else None
        instrs.append(EncodedInstr(address, size, word, opcode, operands,
                                   target=target))
        index += size
    return instrs


def fold_relaxed_branches(instrs: list) -> list:
    """The ``(opcode, operands)`` stream with far-branch relaxation undone.

    Relaxation rewrites ``branch target`` into ``inverted-branch +8; jal
    zero, target`` when the offset exceeds the B-format's ±4 KiB.  Whether
    it fires depends on layout, so an RVC-compressed program (smaller, so
    offsets shrink) may relax fewer branches than its uncompressed twin.
    Folding each pair back into the original conditional jump gives a
    layout-independent stream the round-trip tests can compare
    instruction for instruction across encodings.
    """
    out = []
    index = 0
    while index < len(instrs):
        cur = instrs[index]
        nxt = instrs[index + 1] if index + 1 < len(instrs) else None
        if (nxt is not None and cur.opcode in _BRANCH_FUNCT
                and nxt.opcode == "jal" and nxt.operands == ("zero",)
                and cur.target == nxt.address + nxt.size):
            out.append((INVERTED_BRANCHES[cur.opcode], cur.operands))
            index += 2
            continue
        out.append((cur.opcode, cur.operands))
        index += 1
    return out


def encode_one(instr: EncodedInstr) -> int:
    """Re-encode a (possibly decoded) :class:`EncodedInstr` to its word."""
    offset = (instr.target - instr.address
              if instr.target is not None else None)
    if instr.size == 2:
        word = _rvc.compress(instr.opcode, instr.operands, offset)
        if word is None:
            raise EncodeError(f"{instr.opcode} {instr.operands} at "
                              f"{instr.address:#x} is not compressible")
        return word
    return _encode32(instr.opcode, instr.operands, offset)


# -- reassembly ----------------------------------------------------------------
def reassemble(instrs: list, symbols: dict,
               like: Optional[AssemblyProgram] = None) -> AssemblyProgram:
    """Lift a decoded instruction stream back into an ``AssemblyProgram``.

    ``jal ra`` to a function entry becomes ``call``; every other resolved
    target becomes a local label.  ``like`` supplies the data segment
    (globals layout/init) so the emulator can run the result.
    """
    entry_at = {address: name for name, address in symbols.items()}
    if not entry_at:
        raise RelocationError("reassemble needs at least one symbol")
    label_addresses = set()
    for instr in instrs:
        if instr.target is None:
            continue
        if (instr.opcode == "jal" and instr.operands[0] == "ra"
                and instr.target in entry_at):
            continue
        label_addresses.add(instr.target)
    label_name = {address: f".L{address:05x}" for address in label_addresses}

    program = AssemblyProgram()
    if like is not None:
        program.globals_layout = dict(like.globals_layout)
        program.globals_init = dict(like.globals_init)
        program.data_end = like.data_end
    function = None
    for instr in instrs:
        entry = entry_at.get(instr.address)
        if entry is not None:
            function = AssemblyFunction(name=entry)
            program.functions[entry] = function
        if function is None:
            raise RelocationError(
                f"instruction at {instr.address:#x} precedes every symbol")
        label = label_name.get(instr.address)
        if label is not None:
            function.body.append(Label(label))
        function.body.append(_lift(instr, entry_at, label_name))
    return program


def _lift(instr: EncodedInstr, entry_at: dict, label_name: dict):
    opcode, operands = instr.opcode, instr.operands
    if opcode == "jal":
        (rd,) = operands
        if rd == "ra" and instr.target in entry_at:
            return MachineInstr("call", [entry_at[instr.target]])
        label = label_name[instr.target]
        if rd == "zero":
            return MachineInstr("j", [label])
        return MachineInstr("jal", [rd, label])
    if opcode in _BRANCH_FUNCT:
        return MachineInstr(opcode, [operands[0], operands[1],
                                     label_name[instr.target]])
    return MachineInstr(opcode, list(operands))


# -- code-size reporting -------------------------------------------------------
def code_size_report(program: AssemblyProgram) -> dict:
    """Byte-accurate code sizes (plain RV32 and RVC), cached on the program."""
    cached = getattr(program, "_code_sizes", None)
    if cached is not None:
        return cached
    plain = encode_program(program)
    packed = encode_program(program, rvc=True)
    report = {
        "rv32": plain.code_bytes,
        "rvc": packed.code_bytes,
        "functions": {
            name: {"rv32": plain.function_sizes[name],
                   "rvc": packed.function_sizes[name]}
            for name in plain.function_sizes},
    }
    program._code_sizes = report
    return report
