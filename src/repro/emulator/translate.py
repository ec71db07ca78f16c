"""Ahead-of-time superblock translation for single-stream guest execution.

The table-dispatch loop in :class:`~repro.emulator.machine.Machine` pays the
full decode-tuple dance — list index, tuple unpack, a dispatch ladder, two
counter bumps, a segment countdown — for every dynamic instruction.  This
module removes that per-instruction tax for straight-line code by compiling
decoded *superblocks* into specialized Python closures once per program:

* :func:`form_region` walks the decoded tuple stream from an entry pc and
  forms a single-entry straight-line region, extended across statically
  resolved fall-throughs and direct jumps (``j``/``call``/``jal``), with
  conditional branches becoming in-block *side exits* and ``jalr`` a dynamic
  terminal exit.  Regions end before anything irregular: ``ecall``, faulting
  ``K_BAD`` tuples, unresolved control transfers, a pc already in the region
  (a cycle), or the region length cap.
* :func:`compile_region` lowers the region to Python source — register slots
  resolved to function locals, immediates and branch targets baked in as
  literals, ALU/branch semantics inlined as expressions (signed compares use
  the ``x ^ 0x80000000`` order-preserving trick), memory operations inlined
  against the paged store — and ``exec``-compiles it into one closure.  The
  closure takes the machine's run state as arguments (so one compiled block
  serves every machine and run), bumps exactly one per-*exit* counter, and
  returns ``(executed_count << 32) | next_pc`` packed in a single int.
* :class:`TranslatedMachine` dispatches superblock-to-superblock through a
  :class:`TranslationCache` keyed by entry pc (cached on the shared
  :class:`~repro.emulator.decoder.DecodedProgram`, so the code cache is
  reused across machines and re-runs), checking the instruction limit and
  the per-segment countdown **once per block** against the region's maximum
  length.  Anything the block path cannot serve byte-for-byte — irregular
  instructions, a segment or limit boundary inside the block's reach —
  falls back to the interpreter ladder, which is kept verbatim from
  :class:`Machine` so fault behaviour, paging and counting are identical
  down to the partial trace a mid-run fault leaves behind.  A run with a
  CPU timing model attached never dispatches blocks: it takes the inherited
  timed loop.

Per-pc execution statistics are recovered losslessly at halt: every exit
knows the pcs its path executed (and the conditional branch it took, if
any), so :meth:`TranslatedMachine._fold_stats` expands the per-exit counters
into the same flat per-pc arrays :class:`Machine` folds — the resulting
:class:`~repro.emulator.trace.TraceStats`, page events, memory and fault
behaviour are required (and differentially tested) to be byte-for-byte
identical to the interpreter's.
"""

from __future__ import annotations

from typing import Optional

from .decoder import (
    DecodedProgram, K_ADD, K_ADDI, K_ALU_RI, K_ALU_RR, K_BAD, K_BEQZ, K_BNEZ,
    K_BR, K_CALL, K_ECALL, K_J, K_JAL, K_JALR, K_LI, K_LW, K_MV, K_NOP, K_SW,
    RETURN_SENTINEL, WORD_MASK,
)
from .machine import _PAGE_SHIFT, EmulationError, Machine

#: Region length cap: bounds compile time per block and keeps the once-per-
#: block segment/limit pre-check from starving on small segment sizes.  Long
#: enough that fully unrolled hash-round bodies stay in one block (splitting
#: pays a register reload/writeback at every seam).
MAX_REGION_LENGTH = 256

#: Straight-line kinds a superblock can contain (side effects fully known at
#: translation time).
_STRAIGHT_KINDS = frozenset({
    K_ADDI, K_ADD, K_ALU_RR, K_ALU_RI, K_LI, K_MV, K_LW, K_SW, K_NOP,
})

#: Conditional-branch kinds (in-block side exits).
_BRANCH_KINDS = frozenset({K_BR, K_BEQZ, K_BNEZ})

#: Inline expression templates for register-register ALU opcodes.  ``{a}`` /
#: ``{b}`` are the operand locals; opcodes missing here (div/divu/rem/remu)
#: call the decoder's bound implementation instead.
_RR_EXPR = {
    "add": "({a} + {b}) & 0xFFFFFFFF",
    "sub": "({a} - {b}) & 0xFFFFFFFF",
    "and": "{a} & {b}",
    "or": "{a} | {b}",
    "xor": "{a} ^ {b}",
    "sll": "({a} << ({b} & 31)) & 0xFFFFFFFF",
    "srl": "{a} >> ({b} & 31)",
    "sra": "(({a} - 0x100000000 if {a} > 0x7FFFFFFF else {a}) >> ({b} & 31))"
           " & 0xFFFFFFFF",
    "slt": "1 if ({a} ^ 0x80000000) < ({b} ^ 0x80000000) else 0",
    "sltu": "1 if {a} < {b} else 0",
    "mul": "({a} * {b}) & 0xFFFFFFFF",
}

#: Inline expression templates over the *prepared* immediate ``{i}`` (exactly
#: the value the decoder baked into the tuple — see ``_ALU_IMM_DECODED``).
_RI_EXPR = {
    "andi": "{a} & {i}",
    "ori": "{a} | {i}",
    "xori": "{a} ^ {i}",
    "slli": "({a} << {i}) & 0xFFFFFFFF",
    "srli": "{a} >> {i}",
    "srai": "(({a} - 0x100000000 if {a} > 0x7FFFFFFF else {a}) >> {i})"
            " & 0xFFFFFFFF",
    "slti": "1 if ({a} - 0x100000000 if {a} > 0x7FFFFFFF else {a}) < {i}"
            " else 0",
    "sltiu": "1 if {a} < {i} else 0",
}

#: Inline predicates for conditional branches.
_BR_EXPR = {
    "beq": "{a} == {b}",
    "bne": "{a} != {b}",
    "blt": "({a} ^ 0x80000000) < ({b} ^ 0x80000000)",
    "bge": "({a} ^ 0x80000000) >= ({b} ^ 0x80000000)",
    "bltu": "{a} < {b}",
    "bgeu": "{a} >= {b}",
}


class SuperblockExit:
    """One way out of a compiled superblock.

    ``pcs`` are the decoded-stream indices the exit's path executed (in
    order), so folding ``count`` into the per-pc statistics is exact;
    ``taken_pc`` names the conditional branch this exit takes, if any.
    """

    __slots__ = ("slot", "pcs", "taken_pc")

    def __init__(self, slot: int, pcs: tuple, taken_pc: Optional[int]):
        self.slot = slot
        self.pcs = pcs
        self.taken_pc = taken_pc


class Superblock:
    """A compiled region: the closure plus the dispatch metadata."""

    __slots__ = ("entry", "fn", "max_len", "exits", "source")

    def __init__(self, entry: int, fn, max_len: int, exits: list, source: str):
        self.entry = entry
        self.fn = fn
        self.max_len = max_len
        self.exits = exits
        self.source = source


class Region:
    """A formed (not yet compiled) straight-line region."""

    __slots__ = ("entry", "pcs", "instrs", "final_pc", "dynamic_exit")

    def __init__(self, entry: int):
        self.entry = entry
        #: Decoded-stream indices in execution order.
        self.pcs: list = []
        #: The decoded tuples at those indices.
        self.instrs: list = []
        #: Statically known continuation pc of the fall-through exit
        #: (meaningless when ``dynamic_exit`` — the jalr computes it).
        self.final_pc: int = entry
        #: True when the region ends in a ``jalr`` (computed target).
        self.dynamic_exit: bool = False

    def __len__(self) -> int:
        return len(self.pcs)


def form_region(decoded: DecodedProgram, entry: int,
                max_length: int = MAX_REGION_LENGTH) -> Region:
    """Walk the decoded stream from ``entry`` and form a superblock region.

    The walk follows fall-throughs and statically resolved direct jumps
    (``j``/``call``/``jal``), treats resolved conditional branches as side
    exits (continuing on the not-taken path), and stops — *excluding* the
    stopping instruction — at anything irregular: ``ecall``, ``K_BAD``,
    unresolved targets, a revisited pc, or the length cap.  A ``jalr`` is
    included as the region's dynamic terminal exit.  The returned region may
    be empty (entry instruction itself is irregular).
    """
    code = decoded.code
    size = len(code)
    region = Region(entry)
    seen = set()
    pc = entry
    while len(region.pcs) < max_length and 0 <= pc < size and pc not in seen:
        ins = code[pc]
        k = ins[0]
        if k in _STRAIGHT_KINDS:
            seen.add(pc)
            region.pcs.append(pc)
            region.instrs.append(ins)
            pc += 1
        elif k in _BRANCH_KINDS:
            target = ins[3] if k == K_BR else ins[2]
            if target < 0:          # unresolved label: faults when taken
                break
            seen.add(pc)
            region.pcs.append(pc)
            region.instrs.append(ins)
            pc += 1
        elif k == K_J:
            if ins[1] < 0:
                break
            seen.add(pc)
            region.pcs.append(pc)
            region.instrs.append(ins)
            pc = ins[1]
        elif k == K_CALL:
            if ins[1] < 0:
                break
            seen.add(pc)
            region.pcs.append(pc)
            region.instrs.append(ins)
            pc = ins[1]
        elif k == K_JAL:
            if ins[2] < 0:
                break
            seen.add(pc)
            region.pcs.append(pc)
            region.instrs.append(ins)
            pc = ins[2]
        elif k == K_JALR:
            region.pcs.append(pc)
            region.instrs.append(ins)
            region.dynamic_exit = True
            break
        else:                        # ecall / bad / unknown: interpreter-only
            break
    region.final_pc = pc
    return region


def _instr_effects(ins) -> tuple:
    """``(reads, writes)`` register-slot tuples of one decoded tuple.

    Mirrors exactly what the interpreter ladder touches: an instruction whose
    destination is slot 0 (``zero``) is skipped entirely for ALU/LI/MV kinds,
    while loads still compute their address (and page bookkeeping) first.
    """
    k = ins[0]
    if k in (K_ADDI, K_ALU_RI, K_MV):
        return ((ins[2],), (ins[1],)) if ins[1] else ((), ())
    if k in (K_ADD, K_ALU_RR):
        return ((ins[2], ins[3]), (ins[1],)) if ins[1] else ((), ())
    if k == K_LI:
        return ((), (ins[1],))
    if k == K_LW:
        return ((ins[3],), (ins[1],) if ins[1] else ())
    if k == K_SW:
        return ((ins[1], ins[3]), ())
    if k == K_BR:
        return ((ins[1], ins[2]), ())
    if k in (K_BEQZ, K_BNEZ):
        return ((ins[1],), ())
    if k == K_CALL:
        return ((), (1,))
    if k == K_JAL:
        return ((), (ins[1],) if ins[1] else ())
    if k == K_JALR:
        return ((ins[2],), (ins[1],) if ins[1] else ())
    return ((), ())                                  # K_J, K_NOP


def compile_region(decoded: DecodedProgram, region: Region,
                   first_exit_slot: int,
                   masked_memory: bool = False) -> Superblock:
    """Lower ``region`` to Python source and ``exec``-compile the closure.

    Exit-counter slots are allocated contiguously from ``first_exit_slot``
    (the cache passes its current total), so one flat per-run counter array
    covers every block.

    Two shapes are generated.  *Prefix form* is a straight run of statements
    whose exits return packed constants.  *Loop form* is chosen when some
    exit re-enters the region at its own entry pc (a self back-edge — the
    common shape of every compiled loop): the body is wrapped in ``while
    True`` and back-edges ``continue`` in place of returning, with register
    locals staying live across iterations, as long as the ``fuel`` argument
    (min of segment room and instruction-limit room, pre-checked to be at
    least ``max_len`` by the dispatcher) still admits a worst-case iteration.
    In loop form every exit writes back the *full* written set — an early
    side exit on iteration N must flush registers that only later positions
    wrote on iteration N-1 — so all written slots are also pre-loaded, which
    keeps them bound on a first-iteration exit.
    """
    opcodes = decoded.opcodes
    entry = region.entry
    length = len(region)
    namespace: dict = {}
    exits: list = []
    needs_memget = False
    needs_pacget = False

    # Pre-pass: slots read before any write (these need a header load) and
    # the full ordered written set.
    reads_first: list = []
    written_full: list = []
    written_set: set = set()
    for ins in region.instrs:
        reads, writes = _instr_effects(ins)
        for slot in reads:
            # Slot 0 (``zero``) is never loaded: reads fold to the literal 0.
            if slot and slot not in written_set and slot not in reads_first:
                reads_first.append(slot)
        for slot in writes:
            if slot not in written_set:
                written_set.add(slot)
                written_full.append(slot)

    back_targets = set()
    for ins in region.instrs:
        k = ins[0]
        if k in _BRANCH_KINDS:
            back_targets.add(ins[3] if k == K_BR else ins[2])
    loop_form = (entry in back_targets
                 or (not region.dynamic_exit and region.final_pc == entry))
    bi = "        " if loop_form else "    "         # body indent
    lines: list = []           # function body (after register loads)
    loads: list = []           # `rN = regs[N]` header lines
    loaded: set = set()
    written: set = set()       # written so far (prefix-form writebacks)
    if loop_form:
        loaded = set(reads_first) | written_set
        for slot in reads_first + written_full:
            loads.append(f"    r{slot} = regs[{slot}]")

    # Redundancy elimination for the memory-op bookkeeping (the dominant
    # per-instruction cost).  Each access eagerly emits only its word-aligned
    # address local ``w = (base + off) & 0xFFFFFFFC`` (reused for repeated
    # (base-register *version*, offset) pairs; the page is just ``w >> 10``)
    # plus the load/store itself.  The page bookkeeping — per-page access
    # counts and the per-segment read/write page sets — is deferred to the
    # next *flush point*: any point control can leave the straight-line run
    # (a side exit's accesses-so-far must count even when the fall-through is
    # not taken; nothing can fault in between, and a block never straddles a
    # segment flush, so deferral is invisible).  At a flush, accesses are
    # grouped by base-register version; a group spanning several offsets
    # almost always lands on one page (stack frames, small array windows), so
    # the fast path is a single lowest-page == highest-page check (pages are
    # monotone in the offset, wraparound falls through) followed by one
    # merged count bump and one set add per kind, with the exact per-offset
    # bookkeeping as the rare else-branch.
    reg_gen: dict = {}         # slot -> version (bumped on every write)
    addr_cache: dict = {}      # (slot, version, offset) -> word-address local
    addr_seq = 0
    page_seq = 0
    #: (slot, version) -> {offset: [w local, access count, reads?, writes?]}
    mem_pending: dict = {}
    #: Store-to-load forwarding / redundant-load elimination.  Keyed like the
    #: address cache by (base slot, base version, byte offset); the value is
    #: ``(expression, version)`` — a register local (validity checked lazily
    #: against its current version) or the literal "0".  Two accesses with
    #: the same base version are statically distinct words iff their offsets
    #: differ by >= 4, so a store keeps exactly those entries and
    #: conservatively drops everything else (a different base version may
    #: alias anything).  Page bookkeeping is unaffected: forwarded loads
    #: still record their access.
    value_cache: dict = {}

    def read(slot: int) -> str:
        if slot == 0:
            # ``zero`` is architecturally 0 (no handler ever writes slot 0),
            # so reads fold to a literal and comparisons against it fold at
            # Python compile time.
            return "0"
        name = f"r{slot}"
        if slot not in loaded and slot not in written:
            loaded.add(slot)
            loads.append(f"    {name} = regs[{slot}]")
        return name

    def write(slot: int) -> str:
        written.add(slot)
        reg_gen[slot] = reg_gen.get(slot, 0) + 1
        return f"r{slot}"

    def addr(base_slot: int, offset: int) -> str:
        nonlocal addr_seq
        base = read(base_slot)
        key = (base_slot, reg_gen.get(base_slot, 0), offset)
        name = addr_cache.get(key)
        if name is None:
            name = f"w{addr_seq}_"
            addr_seq += 1
            if offset:
                lines.append(f"{bi}{name} = ({base} + {offset}) & 0xFFFFFFFC")
            else:
                lines.append(f"{bi}{name} = {base} & 0xFFFFFFFC")
            addr_cache[key] = name
        return name

    def access(base_slot: int, offset: int, is_store: bool) -> str:
        word = addr(base_slot, offset)
        group = mem_pending.setdefault(
            (base_slot, reg_gen.get(base_slot, 0)), {})
        record = group.get(offset)
        if record is None:
            record = group[offset] = [word, 0, False, False]
        record[1] += 1
        record[2 + is_store] = True
        return word

    def value_current(entry) -> bool:
        expression, version = entry
        return version is None or \
            reg_gen.get(int(expression[1:]), 0) == version

    def note_store(base_slot: int, offset: int, value: str) -> None:
        base_key = (base_slot, reg_gen.get(base_slot, 0))
        for key in list(value_cache):
            if key[:2] != base_key or abs(key[2] - offset) < 4:
                del value_cache[key]
        value_cache[base_key + (offset,)] = (
            value, None if value == "0" else reg_gen.get(int(value[1:]), 0))

    def emit_page(indent: str, word: str, count: int,
                  has_read: bool, has_write: bool) -> None:
        nonlocal page_seq
        page = f"p{page_seq}_"
        page_seq += 1
        lines.append(f"{indent}{page} = {word} >> {_PAGE_SHIFT}")
        lines.append(f"{indent}pac[{page}] = pg({page}, 0) + {count}")
        if has_read:
            lines.append(f"{indent}srd({page})")
        if has_write:
            lines.append(f"{indent}swr({page})")

    def flush_mem() -> None:
        nonlocal needs_pacget, page_seq
        for group in mem_pending.values():
            needs_pacget = True
            items = sorted(group.items())
            if len(items) == 1:
                word, count, has_read, has_write = items[0][1]
                emit_page(bi, word, count, has_read, has_write)
                continue
            total = sum(record[1] for _, record in items)
            any_read = any(record[2] for _, record in items)
            any_write = any(record[3] for _, record in items)
            low, high = f"p{page_seq}_", f"p{page_seq + 1}_"
            page_seq += 2
            lines.append(f"{bi}{low} = {items[0][1][0]} >> {_PAGE_SHIFT}")
            lines.append(f"{bi}{high} = {items[-1][1][0]} >> {_PAGE_SHIFT}")
            lines.append(f"{bi}if {low} == {high}:")
            lines.append(f"{bi}    pac[{low}] = pg({low}, 0) + {total}")
            if any_read:
                lines.append(f"{bi}    srd({low})")
            if any_write:
                lines.append(f"{bi}    swr({low})")
            lines.append(f"{bi}else:")
            for _, (word, count, has_read, has_write) in items:
                emit_page(bi + "    ", word, count, has_read, has_write)
        mem_pending.clear()

    def emit_exit(indent: str, count: int, pcs: tuple,
                  taken_pc: Optional[int], target: str,
                  backedge: bool = False) -> None:
        slot = first_exit_slot + len(exits)
        exits.append(SuperblockExit(slot, pcs, taken_pc))
        lines.append(f"{indent}xc[{slot}] += 1")
        if loop_form and backedge:
            lines.append(f"{indent}base += {count}")
            lines.append(f"{indent}if fuel - base >= {length}:")
            lines.append(f"{indent}    continue")
            for reg_slot in written_full:
                lines.append(f"{indent}regs[{reg_slot}] = r{reg_slot}")
            lines.append(f"{indent}return (base << 32) | {entry}")
            return
        if loop_form:
            for reg_slot in written_full:
                lines.append(f"{indent}regs[{reg_slot}] = r{reg_slot}")
            lines.append(f"{indent}return ((base + {count}) << 32) | {target}")
            return
        for reg_slot in sorted(written):
            lines.append(f"{indent}regs[{reg_slot}] = r{reg_slot}")
        if target.isdigit():     # static continuation: fold into one literal
            lines.append(f"{indent}return {(count << 32) | int(target)}")
        else:
            lines.append(f"{indent}return {count << 32} | {target}")

    for position, (pc, ins) in enumerate(zip(region.pcs, region.instrs)):
        k = ins[0]
        if k == K_ADDI:
            if ins[1]:
                a = read(ins[2])
                lines.append(f"{bi}{write(ins[1])} = "
                             f"({a} + {ins[3]}) & 0xFFFFFFFF")
        elif k == K_ADD:
            if ins[1]:
                a, b = read(ins[2]), read(ins[3])
                lines.append(f"{bi}{write(ins[1])} = "
                             f"({a} + {b}) & 0xFFFFFFFF")
        elif k == K_ALU_RR:
            if ins[1]:
                a, b = read(ins[2]), read(ins[3])
                template = _RR_EXPR.get(opcodes[pc])
                if template is None:   # div/divu/rem/remu: bound callable
                    name = f"op{pc}"
                    namespace[name] = ins[4]
                    expression = f"{name}({a}, {b})"
                else:
                    expression = template.format(a=a, b=b)
                lines.append(f"{bi}{write(ins[1])} = {expression}")
        elif k == K_ALU_RI:
            if ins[1]:
                a = read(ins[2])
                template = _RI_EXPR[opcodes[pc]]
                lines.append(f"{bi}{write(ins[1])} = "
                             f"{template.format(a=a, i=repr(ins[3]))}")
        elif k == K_LI:
            if ins[1]:
                lines.append(f"{bi}{write(ins[1])} = {ins[2]}")
        elif k == K_MV:
            if ins[1]:
                a = read(ins[2])
                lines.append(f"{bi}{write(ins[1])} = {a}")
        elif k == K_LW:
            word = access(ins[3], ins[2], is_store=False)
            if ins[1]:
                key = (ins[3], reg_gen.get(ins[3], 0), ins[2])
                cached = value_cache.get(key)
                if cached is not None and value_current(cached):
                    destination = write(ins[1])
                    if cached[0] != destination:
                        lines.append(f"{bi}{destination} = {cached[0]}")
                else:
                    needs_memget = True
                    # Stores and host-call writes always mask, so when the
                    # initial globals are masked too the load mask is
                    # redundant.
                    mask = "" if masked_memory else " & 0xFFFFFFFF"
                    destination = write(ins[1])
                    lines.append(f"{bi}{destination} = mg({word}, 0){mask}")
                value_cache[key] = (destination, reg_gen.get(ins[1], 0))
        elif k == K_SW:
            value = read(ins[1])
            word = access(ins[3], ins[2], is_store=True)
            lines.append(f"{bi}memory[{word}] = {value}")
            note_store(ins[3], ins[2], value)
        elif k == K_NOP:
            pass
        elif k in _BRANCH_KINDS:
            if k == K_BR:
                a, b = read(ins[1]), read(ins[2])
                condition = _BR_EXPR[opcodes[pc]].format(a=a, b=b)
                target = ins[3]
            else:
                a = read(ins[1])
                condition = (f"{a} == 0" if k == K_BEQZ else f"{a} != 0")
                target = ins[2]
            flush_mem()
            lines.append(f"{bi}if {condition}:")
            emit_exit(bi + "    ", position + 1,
                      tuple(region.pcs[:position + 1]), pc,
                      str(target), backedge=(target == entry))
        elif k == K_J:
            pass                      # taken count folds from the exec count
        elif k == K_CALL:
            lines.append(f"{bi}{write(1)} = {ins[2]}")       # ra = link
        elif k == K_JAL:
            if ins[1]:
                lines.append(f"{bi}{write(ins[1])} = {ins[3]}")
        elif k == K_JALR:
            base = read(ins[2])
            flush_mem()
            if ins[3] == 0:
                # Register locals are always masked, so a zero-offset target
                # (the universal function-return shape) needs no arithmetic.
                lines.append(f"{bi}t_ = {base}")
            else:
                lines.append(f"{bi}t_ = ({base} + {ins[3]}) & 0xFFFFFFFF")
            if ins[1]:
                lines.append(f"{bi}{write(ins[1])} = {ins[4]}")
            emit_exit(bi, position + 1, tuple(region.pcs), None, "t_")
        else:  # pragma: no cover - form_region admits only the kinds above
            raise EmulationError(f"untranslatable kind in region: {k}")

    if not region.dynamic_exit:
        # Fall-through exit: continuation pc is statically known.
        flush_mem()
        emit_exit(bi, length, tuple(region.pcs), None,
                  str(region.final_pc),
                  backedge=(region.final_pc == entry))

    header = ["def _superblock(regs, memory, pac, srd, swr, xc, fuel):"]
    if needs_memget:
        header.append("    mg = memory.get")
    if needs_pacget:
        header.append("    pg = pac.get")
    body = list(loads)
    if loop_form:
        body.append("    base = 0")
        body.append("    while True:")
    source = "\n".join(header + body + lines) + "\n"
    code_object = compile(source, f"<superblock@{entry}>", "exec")
    exec(code_object, namespace)       # noqa: S102 - our own generated source
    return Superblock(entry, namespace["_superblock"], length, exits, source)


class TranslationCache:
    """The per-program code cache: entry pc -> compiled superblock.

    ``blocks[pc]`` is ``None`` (never dispatched), ``False`` (irregular — the
    entry instruction cannot head a superblock), or a :class:`Superblock`.
    The cache lives on the shared :class:`DecodedProgram` (see
    :func:`translation_cache`), so every machine and every run of the same
    program reuses one set of compiled closures; exit-counter *slots* are
    allocated here so each run's flat counter array lines up.
    """

    def __init__(self, decoded: DecodedProgram, masked_memory: bool = False):
        self.decoded = decoded
        self.blocks: list = [None] * len(decoded.code)
        # Flat dispatch mirrors of ``blocks``: the hot loop reads one list
        # entry instead of two attribute lookups per dispatched block.
        self.fns: list = [None] * len(decoded.code)
        self.lens: list = [0] * len(decoded.code)
        self.exits: list = []
        #: True when every value memory can ever hold is already 32-bit
        #: masked (initial globals checked at construction; stores and
        #: host-call writes always mask) — lets loads skip their mask.
        self.masked_memory = masked_memory

    @property
    def compiled_blocks(self) -> int:
        return sum(1 for block in self.blocks if block)

    def block_at(self, pc: int):
        """The superblock entered at ``pc``, compiling it on first dispatch.

        Returns ``False`` for irregular entries (the caller falls back to the
        interpreter ladder for that instruction).
        """
        block = self.blocks[pc]
        if block is None:
            region = form_region(self.decoded, pc)
            if len(region) == 0:
                block = False
                self.fns[pc] = False
            else:
                block = compile_region(self.decoded, region, len(self.exits),
                                       self.masked_memory)
                self.exits.extend(block.exits)
                self.fns[pc] = block.fn
                self.lens[pc] = block.max_len
            self.blocks[pc] = block
        return block


def translation_cache(decoded: DecodedProgram,
                      program=None) -> TranslationCache:
    """The (shared) translation cache of a decoded program.

    Cached on the ``DecodedProgram`` the same way the decoded stream is
    cached on the ``AssemblyProgram``: one code cache per program per
    process, reused across machines and runs.  ``program`` (when given)
    enables the masked-memory load optimization if its initial globals are
    all 32-bit masked; a decoded program maps to exactly one
    ``AssemblyProgram``, so the flag is stable across machines.
    """
    cache = getattr(decoded, "_translation_cache", None)
    if cache is None:
        masked = program is not None and all(
            0 <= value <= WORD_MASK
            for value in program.globals_init.values())
        cache = TranslationCache(decoded, masked)
        try:
            decoded._translation_cache = cache
        except (AttributeError, TypeError):  # pragma: no cover - not slotted
            pass
    return cache


class TranslatedMachine(Machine):
    """A :class:`Machine` whose untimed fast path runs superblocks.

    Everything else — construction, register/memory interface, the timed
    path, host calls, segment flushing — is inherited unchanged, so any run
    the block dispatcher cannot serve (a CPU model attached, irregular code,
    boundary-straddling blocks) behaves *exactly* like the interpreter.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._tcache = translation_cache(self.decoded, self.program)
        self._sb_exit_counts: list = [0] * len(self._tcache.exits)

    def _reset_run_state(self) -> None:
        super()._reset_run_state()
        cache = getattr(self, "_tcache", None)
        if cache is not None:   # __init__'s first reset runs before the cache
            self._sb_exit_counts = [0] * len(cache.exits)

    # -- the superblock dispatcher ---------------------------------------------
    def _run_fast(self, pc: int) -> None:
        """Superblock-to-superblock dispatch with an inline interpreter ladder.

        Per iteration: if ``pc`` heads a compiled block *and* the block's
        maximum length fits inside both the instruction limit and the current
        segment countdown, run the whole block in one closure call; otherwise
        interpret exactly one instruction with the ladder below (verbatim
        from :class:`Machine`), which re-checks the cache on the next pc.
        """
        decoded = self.decoded
        code = decoded.code
        regs = self.registers
        memory = self.memory
        mem_get = memory.get
        pac = self.stats.page_access_counts
        pac_get = pac.get
        seg_read_add = self._segment_pages_read.add
        seg_write_add = self._segment_pages_written.add
        ec = self._exec_counts
        tc = self._taken_counts
        seg_size = self.segment_size
        limit = self.max_instructions
        executed = self._executed
        seg_left = seg_size - executed % seg_size
        M = WORD_MASK
        SENTINEL = RETURN_SENTINEL
        cache = self._tcache
        fns = cache.fns
        lens = cache.lens
        block_at = cache.block_at
        xc = self._sb_exit_counts
        exits = cache.exits
        ADDI, ADD, ALU_RR, ALU_RI, LW, SW, BR, MV, LI, BEQZ, BNEZ, J, CALL, \
            JAL, JALR, ECALL, NOP, BAD = (
                K_ADDI, K_ADD, K_ALU_RR, K_ALU_RI, K_LW, K_SW, K_BR, K_MV,
                K_LI, K_BEQZ, K_BNEZ, K_J, K_CALL, K_JAL, K_JALR, K_ECALL,
                K_NOP, K_BAD)

        try:
            while pc != SENTINEL:
                fn = fns[pc]
                if fn is None:
                    block_at(pc)
                    fn = fns[pc]
                    if len(xc) < len(exits):
                        xc.extend([0] * (len(exits) - len(xc)))
                if fn is not False:
                    room = limit - executed
                    fuel = seg_left if seg_left < room else room
                    if lens[pc] <= fuel:
                        packed = fn(regs, memory, pac, seg_read_add,
                                    seg_write_add, xc, fuel)
                        n = packed >> 32
                        executed += n
                        seg_left -= n
                        pc = packed & M
                        if not seg_left:
                            seg_left = seg_size
                            self._flush_segment()
                        continue

                # -- interpreter ladder, verbatim from Machine._run_fast ------
                ins = code[pc]
                if executed >= limit:
                    raise EmulationError(
                        f"instruction limit exceeded ({limit})")
                ec[pc] += 1
                executed += 1
                k = ins[0]
                if k == ADDI:
                    rd = ins[1]
                    if rd:
                        regs[rd] = (regs[ins[2]] + ins[3]) & M
                    pc += 1
                elif k == ADD:
                    rd = ins[1]
                    if rd:
                        regs[rd] = (regs[ins[2]] + regs[ins[3]]) & M
                    pc += 1
                elif k == ALU_RR:
                    rd = ins[1]
                    if rd:
                        regs[rd] = ins[4](regs[ins[2]], regs[ins[3]])
                    pc += 1
                elif k == ALU_RI:
                    rd = ins[1]
                    if rd:
                        regs[rd] = ins[4](regs[ins[2]], ins[3])
                    pc += 1
                elif k == LW:
                    address = (regs[ins[3]] + ins[2]) & M
                    page = address >> _PAGE_SHIFT
                    pac[page] = pac_get(page, 0) + 1
                    seg_read_add(page)
                    rd = ins[1]
                    if rd:
                        regs[rd] = mem_get(address & 0xFFFFFFFC, 0) & M
                    pc += 1
                elif k == SW:
                    address = (regs[ins[3]] + ins[2]) & M
                    page = address >> _PAGE_SHIFT
                    pac[page] = pac_get(page, 0) + 1
                    seg_write_add(page)
                    memory[address & 0xFFFFFFFC] = regs[ins[1]]
                    pc += 1
                elif k == BR:
                    if ins[4](regs[ins[1]], regs[ins[2]]):
                        tc[pc] += 1
                        target = ins[3]
                        if target < 0:
                            raise EmulationError(
                                f"unknown label: {decoded.unresolved[pc]}")
                        pc = target
                    else:
                        pc += 1
                elif k == MV:
                    rd = ins[1]
                    if rd:
                        regs[rd] = regs[ins[2]]
                    pc += 1
                elif k == LI:
                    rd = ins[1]
                    if rd:
                        regs[rd] = ins[2]
                    pc += 1
                elif k == BEQZ:
                    if regs[ins[1]] == 0:
                        tc[pc] += 1
                        target = ins[2]
                        if target < 0:
                            raise EmulationError(
                                f"unknown label: {decoded.unresolved[pc]}")
                        pc = target
                    else:
                        pc += 1
                elif k == BNEZ:
                    if regs[ins[1]] != 0:
                        tc[pc] += 1
                        target = ins[2]
                        if target < 0:
                            raise EmulationError(
                                f"unknown label: {decoded.unresolved[pc]}")
                        pc = target
                    else:
                        pc += 1
                elif k == J:
                    target = ins[1]
                    if target < 0:
                        raise EmulationError(
                            f"unknown label: {decoded.unresolved[pc]}")
                    pc = target
                elif k == CALL:
                    target = ins[1]
                    if target < 0:   # faults before the link write (ref order)
                        raise EmulationError(
                            f"call to unknown function: "
                            f"{decoded.unresolved[pc]}")
                    regs[1] = ins[2]                        # ra = link
                    pc = target
                elif k == JAL:
                    rd = ins[1]
                    if rd:           # link is written before the fault check,
                        regs[rd] = ins[3]                   # as in the reference
                    target = ins[2]
                    if target < 0:
                        raise EmulationError(
                            f"unknown label: {decoded.unresolved[pc]}")
                    pc = target
                elif k == JALR:
                    target = (regs[ins[2]] + ins[3]) & M
                    rd = ins[1]
                    if rd:
                        regs[rd] = ins[4]
                    pc = target
                elif k == ECALL:
                    self._ecall()
                    pc += 1
                elif k == NOP:
                    pc += 1
                elif k == BAD:
                    if not ins[3]:
                        ec[pc] -= 1
                        executed -= 1
                    raise (EmulationError(ins[2]) if ins[1]
                           else ValueError(ins[2]))
                else:  # pragma: no cover - decoder emits only known kinds
                    raise EmulationError(f"unknown handler id: {k}")

                seg_left -= 1
                if not seg_left:
                    seg_left = seg_size
                    self._flush_segment()
        except IndexError:
            if not 0 <= pc < len(code):
                raise EmulationError(
                    f"program counter out of range: {pc}") from None
            raise
        finally:
            self._executed = executed

    # -- statistics -------------------------------------------------------------
    def _fold_stats(self) -> None:
        """Expand per-exit counters into the per-pc arrays, then fold as usual.

        Counters are zeroed as they are expanded so re-folding stays
        idempotent (``Machine._fold_stats`` rebuilds the dicts from the flat
        arrays, which now carry the block-path executions too).
        """
        xc = self._sb_exit_counts
        ec = self._exec_counts
        tc = self._taken_counts
        for block_exit in self._tcache.exits[:len(xc)]:
            count = xc[block_exit.slot]
            if not count:
                continue
            for pc in block_exit.pcs:
                ec[pc] += count
            if block_exit.taken_pc is not None:
                tc[block_exit.taken_pc] += count
            xc[block_exit.slot] = 0
        super()._fold_stats()


def run_program_translated(program, entry: str = "main",
                           args: Optional[list] = None,
                           max_instructions: int = 50_000_000,
                           input_values: Optional[list] = None):
    """Execute ``program`` through the superblock engine; return TraceStats."""
    machine = TranslatedMachine(program, max_instructions=max_instructions,
                                input_values=input_values)
    return machine.run(entry, args)
