"""Binary-encoding test battery: golden words, boundaries, round-trips.

Locks down :mod:`repro.backend.encoding` and :mod:`repro.backend.rvc` from
three directions:

* **Golden words** — one hand-assembled reference word per instruction
  format (R/I/S/B/U/J and the compressed quadrants), so a regression in a
  bitfield packer fails with the offending mnemonic, not a mysterious
  downstream divergence.
* **Boundaries** — every immediate field is exercised at both ends of its
  range and rejected one past it (±2^11 I/S, ±2^12 B, ±2^20 J, the RVC
  6-bit/offset edges), plus the register-class and pseudo-expansion edges.
* **Round-trips** — all seed benchmarks and 500 fuzz-generated programs
  (100 seeds x all 5 generator modes) must ``encode → decode → re-encode``
  byte-identically in both plain-RV32I and RVC mode, the compressed stream
  must carry the same canonical instructions as the uncompressed one, and a
  reassembled subset must replay on the emulator with identical guest
  behaviour (the decoded operands/immediates/targets therefore mean exactly
  what :mod:`repro.emulator.decoder` thinks they mean).

``benchmarks/bench_encoding.py`` (``make bench-encoding``) extends the
replay to every benchmark and enforces the RVC size bar on top.
"""

from __future__ import annotations

import pytest

from repro.backend import compile_module
from repro.backend.encoding import (
    BASE_ADDRESS, DisassemblyError, EncodeError, ImmediateRangeError,
    RelocationError, UnencodableOperandError, UnsupportedOpcodeError,
    _encode32, decode_words, encode_one, encode_program,
    fold_relaxed_branches, reassemble,
)
from repro.backend.isa import (
    AssemblyFunction, AssemblyProgram, MachineInstr, UnknownOpcodeError,
    classify,
)
from repro.backend.rvc import (
    COMPRESSED_REGISTERS, CompressedDecodeError, compress, decode_compressed,
    is_compressed_reg,
)
from repro.benchmarks import all_benchmark_names, get_benchmark
from repro.emulator import run_program
from repro.experiments.profiles import profile_by_name
from repro.frontend import compile_source
from repro.fuzz.genprog import MODES, generate_program
from repro.passes import PassManager

# ---------------------------------------------------------------------------
# Golden words: one hand-assembled reference per format.
# ---------------------------------------------------------------------------

#: (opcode, canonical operands, pc-relative offset, expected word).  Words
#: were assembled by hand from the RV32I/M base-opcode tables; they are the
#: ground truth the packers are tested against, not derived from them.
GOLDEN_WORDS = [
    ("add",   ("a0", "a1", "a2"), None, 0x00C58533),   # R
    ("sub",   ("a0", "a1", "a2"), None, 0x40C58533),   # R, funct7=0x20
    ("mul",   ("a0", "a1", "a2"), None, 0x02C58533),   # R, M extension
    ("addi",  ("a0", "a1", -1),   None, 0xFFF58513),   # I
    ("slli",  ("a0", "a1", 3),    None, 0x00359513),   # I, shift
    ("srai",  ("a0", "a1", 3),    None, 0x4035D513),   # I, funct7=0x20
    ("lw",    ("a0", 8, "sp"),    None, 0x00812503),   # I, load
    ("sw",    ("a0", 8, "sp"),    None, 0x00A12423),   # S
    ("beq",   ("a0", "a1"),       8,    0x00B50463),   # B
    ("jal",   ("ra",),            16,   0x010000EF),   # J
    ("lui",   ("a0", 0x12345),    None, 0x12345537),   # U
    ("jalr",  ("zero", "ra", 0),  None, 0x00008067),   # I, jump
    ("ecall", (),                 None, 0x00000073),   # SYSTEM
    ("ebreak", (),                None, 0x00100073),   # SYSTEM
]

#: (opcode, canonical operands, offset, expected halfword) for the
#: compressed forms, hand-assembled from the RVC quadrant tables.
GOLDEN_HALFWORDS = [
    ("addi", ("a0", "a0", 1),     None, 0x0505),       # c.addi
    ("addi", ("a0", "zero", 5),   None, 0x4515),       # c.li
    ("addi", ("a0", "a1", 0),     None, 0x852E),       # c.mv
    ("addi", ("zero", "zero", 0), None, 0x0001),       # c.nop
    ("addi", ("sp", "sp", 48),    None, 0x6145),       # c.addi16sp
    ("add",  ("a0", "a0", "a1"),  None, 0x952E),       # c.add
    ("lw",   ("a0", 4, "a1"),     None, 0x41C8),       # c.lw
    ("ebreak", (),                None, 0x9002),       # c.ebreak
]


@pytest.mark.parametrize("opcode,operands,offset,expected", GOLDEN_WORDS,
                         ids=[g[0] for g in GOLDEN_WORDS])
def test_golden_word(opcode, operands, offset, expected):
    assert _encode32(opcode, operands, offset) == expected


@pytest.mark.parametrize("opcode,operands,offset,expected", GOLDEN_HALFWORDS,
                         ids=[f"{g[0]}-{g[3]:#06x}" for g in GOLDEN_HALFWORDS])
def test_golden_halfword(opcode, operands, offset, expected):
    assert compress(opcode, operands, offset) == expected
    decoded_op, decoded_ops, decoded_off = decode_compressed(expected)
    assert (decoded_op, decoded_ops) == (opcode, operands)
    assert decoded_off == offset


def test_golden_words_decode_back():
    """The 32-bit goldens survive decode → re-encode through the blob path."""
    blob = bytearray()
    for _, _, _, word in GOLDEN_WORDS:
        blob += word.to_bytes(4, "little")
    decoded = decode_words(bytes(blob), BASE_ADDRESS)
    assert [i.word for i in decoded] == [g[3] for g in GOLDEN_WORDS]
    assert [encode_one(i) for i in decoded] == [g[3] for g in GOLDEN_WORDS]


# ---------------------------------------------------------------------------
# Boundary immediates and rejections.
# ---------------------------------------------------------------------------

def test_i_type_immediate_boundaries():
    assert _encode32("addi", ("a0", "a0", 2047)) == 0x7FF50513
    assert _encode32("addi", ("a0", "a0", -2048)) == 0x80050513
    for bad in (2048, -2049):
        with pytest.raises(ImmediateRangeError):
            _encode32("addi", ("a0", "a0", bad))


def test_s_type_immediate_boundaries():
    assert _encode32("sw", ("a0", 2047, "sp"))
    assert _encode32("sw", ("a0", -2048, "sp"))
    for bad in (2048, -2049):
        with pytest.raises(ImmediateRangeError):
            _encode32("sw", ("a0", bad, "sp"))


def test_b_type_offset_boundaries():
    assert _encode32("beq", ("a0", "a1"), 4094)
    assert _encode32("beq", ("a0", "a1"), -4096)
    for bad in (4096, -4098):
        with pytest.raises(ImmediateRangeError):
            _encode32("beq", ("a0", "a1"), bad)
    with pytest.raises(ImmediateRangeError):
        _encode32("beq", ("a0", "a1"), 3)   # odd offsets are unencodable


def test_j_type_offset_boundaries():
    assert _encode32("jal", ("ra",), (1 << 20) - 2)
    assert _encode32("jal", ("ra",), -(1 << 20))
    for bad in (1 << 20, -(1 << 20) - 2, 5):
        with pytest.raises(ImmediateRangeError):
            _encode32("jal", ("ra",), bad)


def test_u_type_immediate_boundaries():
    assert _encode32("lui", ("a0", 0xFFFFF)) == 0xFFFFF537
    assert _encode32("lui", ("a0", 0)) == 0x00000537
    for bad in (1 << 20, -(1 << 19) - 1):
        with pytest.raises(ImmediateRangeError):
            _encode32("lui", ("a0", bad))


def test_unknown_register_is_rejected():
    with pytest.raises(UnencodableOperandError):
        _encode32("add", ("a0", "a1", "x99"))


@pytest.mark.parametrize("instr", [
    MachineInstr("li", ["a0", "table"]),
    MachineInstr("slli", ["a0", "a1", "4"]),
    MachineInstr("sw", ["a0", None, "sp"]),
], ids=lambda instr: instr.opcode)
def test_non_integer_immediate_is_rejected(instr):
    """The operands the ISA table marks as immediates are checked once,
    before pseudo-expansion does arithmetic on them."""
    program = AssemblyProgram(functions={
        "f": AssemblyFunction("f", body=[instr])})
    with pytest.raises(UnencodableOperandError,
                       match=f"{instr.opcode} immediate"):
        encode_program(program)


def test_unsupported_opcode_is_rejected_by_name():
    with pytest.raises(UnsupportedOpcodeError) as excinfo:
        _encode32("fmadd.s", ("a0", "a1", "a2"))
    assert excinfo.value.opcode == "fmadd.s"


def test_rvc_immediate_edges():
    # c.addi / c.li carry a signed 6-bit immediate.
    assert compress("addi", ("a0", "a0", 31)) is not None
    assert compress("addi", ("a0", "a0", -32)) is not None
    assert compress("addi", ("a0", "a0", 32)) is None
    assert compress("addi", ("a0", "a0", -33)) is None
    assert compress("addi", ("a0", "zero", -32)) is not None
    # c.addi16sp: multiples of 16 in [-512, 496], disjoint from c.addi.
    assert compress("addi", ("sp", "sp", 496)) == 0x617D
    assert compress("addi", ("sp", "sp", -512)) == 0x7101
    assert compress("addi", ("sp", "sp", 512)) is None
    assert compress("addi", ("sp", "sp", -528)) is None
    assert compress("addi", ("sp", "sp", 40)) is None      # not 16-aligned
    assert decode_compressed(0x617D) == ("addi", ("sp", "sp", 496), None)
    assert decode_compressed(0x7101) == ("addi", ("sp", "sp", -512), None)
    # c.lwsp/c.swsp: word-aligned offsets 0..252; c.lw/c.sw: 0..124.
    assert compress("lw", ("a0", 252, "sp")) is not None
    assert compress("lw", ("a0", 256, "sp")) is None
    assert compress("lw", ("a0", 2, "sp")) is None
    assert compress("lw", ("a0", 124, "a1")) is not None
    assert compress("lw", ("a0", 128, "a1")) is None
    # c.j / c.jal: ±2 KiB, even.
    assert compress("jal", ("zero",), 2046) is not None
    assert compress("jal", ("zero",), 2048) is None
    assert compress("jal", ("ra",), -2048) is not None
    # c.beqz / c.bnez: ±256 B, rs1 must be a prime register.
    assert compress("beq", ("a0", "zero"), 254) is not None
    assert compress("beq", ("a0", "zero"), 256) is None
    assert compress("beq", ("t0", "zero"), 4) is None
    assert compress("beq", ("a0", "a1"), 4) is None


def test_rvc_register_classes():
    assert COMPRESSED_REGISTERS == ("s0", "s1", "a0", "a1", "a2", "a3",
                                    "a4", "a5")
    for reg in COMPRESSED_REGISTERS:
        assert is_compressed_reg(reg)
    for reg in ("zero", "ra", "sp", "t0", "t6", "s2", "a6", "a7"):
        assert not is_compressed_reg(reg)
    # 3-operand forms need prime registers; c.add only needs rd == rs1.
    assert compress("sub", ("a0", "a0", "a1")) is not None
    assert compress("sub", ("t0", "t0", "a1")) is None
    assert compress("add", ("t0", "t0", "t1")) is not None
    assert compress("add", ("a0", "a1", "a2")) is None


def test_compressed_decode_rejects_unknown_halfwords():
    with pytest.raises(CompressedDecodeError):
        decode_compressed(0x0000)          # the all-zero illegal instruction
    with pytest.raises(CompressedDecodeError):
        decode_compressed(0x2000)          # quadrant 0, funct3=001 (c.fld)


def test_decode_words_rejects_truncated_blob():
    with pytest.raises(DisassemblyError):
        decode_words(b"\x33", BASE_ADDRESS)          # dangling 32-bit prefix
    with pytest.raises(DisassemblyError):
        decode_words(b"\x93\x05", BASE_ADDRESS)      # half of an addi word


# ---------------------------------------------------------------------------
# Opcode coverage.  Every opcode in the ISA table encodes and round-trips:
# TestOperandRoles in test_backend_emulator.py builds each from its roles.
# ---------------------------------------------------------------------------

def test_classify_raises_named_error():
    with pytest.raises(UnknownOpcodeError) as excinfo:
        classify("bogus-op")
    assert excinfo.value.opcode == "bogus-op"
    assert isinstance(excinfo.value, ValueError)   # compat with old callers


def test_lowered_benchmarks_use_only_classified_opcodes():
    program = _compiled("fibonacci")
    for asm in program.functions.values():
        for instr in asm.instructions():
            assert classify(instr.opcode)          # raises if unknown


# ---------------------------------------------------------------------------
# Round-trips: benchmarks and fuzz-generated programs.
# ---------------------------------------------------------------------------

_PROGRAM_CACHE: dict[str, object] = {}


def _compiled(benchmark_name: str):
    if benchmark_name not in _PROGRAM_CACHE:
        benchmark = get_benchmark(benchmark_name)
        profile = profile_by_name("-O3")
        module = compile_source(benchmark.source, module_name=benchmark_name)
        PassManager(profile.passes, profile.config).run(module)
        _PROGRAM_CACHE[benchmark_name] = compile_module(module,
                                                        profile.cost_model)
    return _PROGRAM_CACHE[benchmark_name]


def _assert_round_trip(program, context: str):
    """Both encodings round-trip byte-identically and agree on the stream."""
    streams = {}
    for rvc in (False, True):
        encoded = encode_program(program, rvc=rvc)
        decoded = decode_words(encoded.blob, encoded.base_address)
        blob = bytearray()
        for instr in decoded:
            blob += encode_one(instr).to_bytes(instr.size, "little")
        assert bytes(blob) == encoded.blob, \
            f"{context}: rvc={rvc} re-encode is not byte-identical"
        assert [(i.size, i.word, i.opcode, i.operands, i.target)
                for i in decoded] == \
               [(i.size, i.word, i.opcode, i.operands, i.target)
                for i in encoded.instrs], \
            f"{context}: rvc={rvc} decoded stream differs"
        streams[rvc] = fold_relaxed_branches(encoded.instrs)
        assert len(encoded.blob) == encoded.code_bytes
    # Modulo far-branch relaxation (layout-dependent), compression must not
    # change what the program says — only how many bytes it takes.
    assert streams[False] == streams[True], \
        f"{context}: RVC compression changed the instruction stream"
    return encoded, decoded


@pytest.mark.parametrize("benchmark_name", all_benchmark_names())
def test_benchmark_round_trip(benchmark_name):
    _assert_round_trip(_compiled(benchmark_name), benchmark_name)


#: Benchmarks whose reassembled binaries are additionally replayed on the
#: emulator here (bench_encoding.py replays all 58; this keeps tier-1 quick).
REPLAY_BENCHMARKS = ("fibonacci", "loop-sum", "tailcall", "regex-match",
                     "spec-631")


@pytest.mark.parametrize("benchmark_name", REPLAY_BENCHMARKS)
def test_reassembled_binary_replays_identically(benchmark_name):
    benchmark = get_benchmark(benchmark_name)
    program = _compiled(benchmark_name)
    packed = encode_program(program, rvc=True)
    decoded = decode_words(packed.blob, packed.base_address)
    lifted = reassemble(decoded, packed.symbols, like=program)
    base = run_program(program, args=benchmark.args,
                       input_values=benchmark.inputs,
                       max_instructions=80_000_000)
    replay = run_program(lifted, args=benchmark.args,
                         input_values=benchmark.inputs,
                         max_instructions=80_000_000)
    assert (base.output, base.return_value) == \
           (replay.output, replay.return_value)


#: 100 seeds x 5 generator modes = the 500-program fuzz battery.
FUZZ_SEEDS_PER_MODE = 100


@pytest.mark.parametrize("mode", MODES)
def test_fuzz_round_trip(mode):
    profile = profile_by_name("-O3")
    for seed in range(FUZZ_SEEDS_PER_MODE):
        generated = generate_program(seed, mode)
        module = compile_source(generated.source,
                                module_name=f"fuzz-{mode}-{seed}")
        PassManager(profile.passes, profile.config).run(module)
        program = compile_module(module, profile.cost_model)
        _assert_round_trip(program, f"{mode} seed {seed}")


@pytest.mark.parametrize("mode", MODES)
def test_fuzz_reassembled_replay(mode):
    """A slice of the fuzz battery is replayed end to end on the emulator."""
    profile = profile_by_name("-O3")
    for seed in range(0, FUZZ_SEEDS_PER_MODE, 25):
        generated = generate_program(seed, mode)
        module = compile_source(generated.source,
                                module_name=f"fuzz-{mode}-{seed}")
        PassManager(profile.passes, profile.config).run(module)
        program = compile_module(module, profile.cost_model)
        packed = encode_program(program, rvc=True)
        decoded = decode_words(packed.blob, packed.base_address)
        lifted = reassemble(decoded, packed.symbols, like=program)
        base = run_program(program, max_instructions=80_000_000)
        replay = run_program(lifted, max_instructions=80_000_000)
        assert (base.output, base.return_value) == \
               (replay.output, replay.return_value), \
            f"{mode} seed {seed}: reassembled binary diverges"


def test_relocation_error_names_the_label():
    program = _compiled("fibonacci")
    func = next(iter(program.functions.values()))
    broken = MachineInstr("j", [".Lnowhere"])
    func.body.append(broken)
    try:
        with pytest.raises(RelocationError) as excinfo:
            encode_program(program)
        assert ".Lnowhere" in str(excinfo.value)
    finally:
        func.body.remove(broken)
        _PROGRAM_CACHE.pop("fibonacci", None)

    assert issubclass(RelocationError, EncodeError)
