"""Register allocation: lifetime-hole-aware linear scan with spilling.

This is where the register-pressure effects the paper discusses become real:
transformations that lengthen live ranges (aggressive inlining, hoisting by
licm) can push the number of simultaneously live values past the physical
register file, forcing spill loads/stores inside hot loops — cheap on a CPU
with a store buffer and an L1 hit, expensive on a zkVM where every spill is
another proven instruction and a potential page touch.

The allocator (rewritten in the backend code-quality overhaul) improves on
classic linear scan in three ways:

* **Lifetime holes.**  A virtual register's liveness is a list of disjoint
  segments, not one [start, end] envelope; a physical register is free for
  reuse inside another interval's holes (second-chance binpacking), which
  matters for the long, sparsely-used values produced by loop-invariant
  hoisting.
* **Loop-aware spill weights.**  Every use/def position is weighted by
  ``10 ** loop_depth`` (depths come from the lowering via
  ``AssemblyFunction.label_depths``); when registers run out, the victim is
  the cheapest conflicting interval, so spill code lands outside hot loops.
* **Callee-saved preference for call-crossing intervals.**  An interval live
  across a ``call``/``ecall`` only ever gets a callee-saved register (the
  seed rule), and non-crossing intervals prefer caller-saved registers so
  the callee-saved pool — which costs a save/restore pair in the frame —
  stays available for the values that need it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .isa import (
    ARGUMENT_REGISTERS, AssemblyFunction, CALLEE_SAVED, CALLER_SAVED, Label,
    MachineInstr,
)

#: Registers handed out by the allocator.  t5/t6 are reserved as spill scratch.
ALLOCATABLE_CALLER = ["t0", "t1", "t2", "t3", "t4"]
ALLOCATABLE_CALLEE = ["s1", "s2", "s3", "s4", "s5", "s6", "s7", "s8", "s9", "s10", "s11"]
SPILL_SCRATCH = ["t5", "t6"]


def _is_vreg(operand) -> bool:
    return isinstance(operand, str) and operand.startswith("%")


@dataclass
class LiveInterval:
    """Liveness of one virtual register as disjoint [start, end] segments."""

    vreg: str
    segments: list = field(default_factory=list)  # sorted (start, end) pairs
    weight: float = 0.0
    crosses_call: bool = False
    assigned: str | None = None
    spill_slot: int | None = None

    @property
    def start(self) -> int:
        return self.segments[0][0]

    @property
    def end(self) -> int:
        return self.segments[-1][1]

    def overlaps(self, other_segments: list) -> bool:
        """True when any of this interval's segments intersects any of
        ``other_segments`` (both sorted)."""
        i = j = 0
        mine = self.segments
        while i < len(mine) and j < len(other_segments):
            a_start, a_end = mine[i]
            b_start, b_end = other_segments[j]
            if a_end < b_start:
                i += 1
            elif b_end < a_start:
                j += 1
            else:
                return True
        return False


def _block_boundaries(body: list) -> list[tuple[int, int]]:
    """(start, end) instruction-index ranges of the machine basic blocks."""
    boundaries = []
    start = 0
    for index, item in enumerate(body):
        if isinstance(item, Label) and index > start:
            boundaries.append((start, index))
            start = index
        elif isinstance(item, MachineInstr) and item.is_terminator_like:
            boundaries.append((start, index + 1))
            start = index + 1
    if start < len(body):
        boundaries.append((start, len(body)))
    return [b for b in boundaries if b[0] < b[1]]


def position_depths(asm: AssemblyFunction) -> list[int]:
    """Loop depth per body position, derived from the lowering's label depths."""
    depths = []
    current = 0
    for item in asm.body:
        if isinstance(item, Label):
            current = asm.label_depths.get(item.name, current)
        depths.append(current)
    return depths


def weighted_static_cost(asm: AssemblyFunction) -> float:
    """A loop-weighted proxy for a function's dynamic instruction count.

    Each instruction counts ``10 ** loop_depth`` — the same weighting the
    spill heuristic uses — so two compiled variants of one function can be
    compared without emulating them (see the hoist-retry in
    :func:`repro.backend.compile_module`).
    """
    depths = position_depths(asm)
    return sum(10 ** depths[index]
               for index, item in enumerate(asm.body)
               if isinstance(item, MachineInstr))


def compute_live_intervals(body: list,
                           depths: list | None = None) -> dict[str, LiveInterval]:
    """Hole-aware live intervals with CFG-aware extension.

    Runs iterative liveness over the machine basic blocks, then walks each
    block backwards to carve every vreg's liveness into precise [start, end]
    segments — the holes between segments are what the allocator binpacks.
    ``depths`` (per-position loop depth) feeds the spill weights; omitted,
    every position weighs 1.
    """
    blocks = _block_boundaries(body)
    label_to_block = {}
    for block_index, (start, end) in enumerate(blocks):
        for position in range(start, end):
            item = body[position]
            if isinstance(item, Label):
                label_to_block[item.name] = block_index
            else:
                break

    def successors(block_index: int) -> list[int]:
        start, end = blocks[block_index]
        result = []
        fallthrough = True
        for position in range(end - 1, start - 1, -1):
            item = body[position]
            if not isinstance(item, MachineInstr):
                continue
            if item.opcode in ("j",):
                target = label_to_block.get(item.operands[0])
                if target is not None:
                    result.append(target)
                fallthrough = False
            elif item.is_branch and item.opcode != "j":
                target = label_to_block.get(item.operands[-1])
                if target is not None:
                    result.append(target)
            elif item.opcode in ("ret",):
                fallthrough = False
            break
        if fallthrough and block_index + 1 < len(blocks):
            result.append(block_index + 1)
        return result

    # Per-block def/use sets for virtual registers.
    defs: list[set] = [set() for _ in blocks]
    uses: list[set] = [set() for _ in blocks]
    for block_index, (start, end) in enumerate(blocks):
        for position in range(start, end):
            item = body[position]
            if not isinstance(item, MachineInstr):
                continue
            for pos in item.uses:
                reg = item.operands[pos]
                if _is_vreg(reg) and reg not in defs[block_index]:
                    uses[block_index].add(reg)
            for pos in item.defs:
                reg = item.operands[pos]
                if _is_vreg(reg):
                    defs[block_index].add(reg)

    live_in: list[set] = [set() for _ in blocks]
    live_out: list[set] = [set() for _ in blocks]
    changed = True
    while changed:
        changed = False
        for block_index in range(len(blocks) - 1, -1, -1):
            out = set()
            for succ in successors(block_index):
                out |= live_in[succ]
            new_in = uses[block_index] | (out - defs[block_index])
            if out != live_out[block_index] or new_in != live_in[block_index]:
                live_out[block_index] = out
                live_in[block_index] = new_in
                changed = True

    intervals: dict[str, LiveInterval] = {}
    raw_segments: dict[str, list] = {}

    def interval_for(vreg: str) -> LiveInterval:
        interval = intervals.get(vreg)
        if interval is None:
            interval = intervals[vreg] = LiveInterval(vreg)
            raw_segments[vreg] = []
        return interval

    # Backward walk per block: carve per-vreg live segments.
    for block_index, (start, end) in enumerate(blocks):
        open_end: dict[str, int] = {vreg: end - 1 for vreg in live_out[block_index]}
        for vreg in open_end:
            interval_for(vreg)
        for position in range(end - 1, start - 1, -1):
            item = body[position]
            if not isinstance(item, MachineInstr):
                continue
            for pos in item.defs:
                reg = item.operands[pos]
                if not _is_vreg(reg):
                    continue
                interval = interval_for(reg)
                weight = 10 ** depths[position] if depths else 1
                interval.weight += weight
                segment_end = open_end.pop(reg, position)
                raw_segments[reg].append((position, segment_end))
            for pos in item.uses:
                reg = item.operands[pos]
                if not _is_vreg(reg):
                    continue
                interval = interval_for(reg)
                weight = 10 ** depths[position] if depths else 1
                interval.weight += weight
                if reg not in open_end:
                    open_end[reg] = position
        for vreg, segment_end in open_end.items():
            # Live into the block: the segment spans from the block start.
            raw_segments[vreg].append((start, segment_end))

    # Sort and merge touching segments.
    call_positions = [i for i, item in enumerate(body)
                      if isinstance(item, MachineInstr)
                      and item.opcode in ("call", "ecall")]
    for vreg, interval in intervals.items():
        merged: list[tuple[int, int]] = []
        for seg_start, seg_end in sorted(raw_segments[vreg]):
            if merged and seg_start <= merged[-1][1] + 1:
                merged[-1] = (merged[-1][0],
                              max(merged[-1][1], seg_end))
            else:
                merged.append((seg_start, seg_end))
        interval.segments = merged
        # A call/ecall has no virtual-register operands, so a segment that
        # covers the call position (inclusively: ``call`` terminates a
        # machine block, ending live-through segments exactly at it) can only
        # be a value that must survive the call.
        interval.crosses_call = any(
            seg_start <= p <= seg_end
            for p in call_positions
            for seg_start, seg_end in merged)
    return intervals


class LinearScanAllocator:
    """Hole-aware linear scan with weighted eviction.

    Intervals are visited in start order; each tries the registers of its
    preferred pool (callee-saved for call-crossing intervals, caller-saved
    otherwise) and takes the first whose already-assigned segments leave its
    own segments free — the "second chance" that packs short intervals into
    the lifetime holes of long ones.  When nothing fits, the conflicting
    intervals on the cheapest register are evicted if their combined spill
    weight is lower than the newcomer's; otherwise the newcomer spills.
    """

    def __init__(self, asm: AssemblyFunction):
        self.asm = asm
        self.used_callee_saved: set[str] = set()
        self.spill_slots: dict[str, int] = {}
        self.next_spill_slot = 0
        #: Statistics surfaced by ``repro lower --stats``.
        self.spilled_vregs = 0
        self.spill_loads = 0
        self.spill_stores = 0

    def run(self) -> None:
        body = self.asm.body
        depths = position_depths(self.asm)
        #: Exposed for tests and diagnostics: vreg -> final LiveInterval.
        self.intervals = intervals = compute_live_intervals(body, depths)
        # Spilling a rematerializable value costs one ALU op per use (no
        # store, no memory traffic), roughly half the price of a genuine
        # reload-plus-spill — discount it so the allocator prefers dropping
        # a cached constant over spilling a loop-carried value.  The scan is
        # shared with _rewrite(), which consults the same table.
        self._remat_templates = self._rematerializable()
        for vreg in self._remat_templates:
            if vreg in intervals:
                intervals[vreg].weight *= 0.5
        ordered = sorted(intervals.values(),
                         key=lambda iv: (iv.start, -iv.weight))

        #: register -> list of (segments, interval) assigned to it.
        occupancy: dict[str, list] = {
            reg: [] for reg in ALLOCATABLE_CALLER + ALLOCATABLE_CALLEE}

        def fits(interval: LiveInterval, register: str) -> bool:
            return not any(interval.overlaps(segments)
                           for segments, _ in occupancy[register])

        def assign(interval: LiveInterval, register: str) -> None:
            interval.assigned = register
            occupancy[register].append((interval.segments, interval))
            if register in CALLEE_SAVED:
                self.used_callee_saved.add(register)

        for interval in ordered:
            if interval.crosses_call:
                candidates = ALLOCATABLE_CALLEE
            else:
                candidates = ALLOCATABLE_CALLER + ALLOCATABLE_CALLEE
            register = next((reg for reg in candidates
                             if fits(interval, reg)), None)
            if register is not None:
                assign(interval, register)
                continue
            # Eviction: spill the cheapest conflicting set if it is cheaper
            # than spilling the newcomer.
            best_register = None
            best_weight = None
            for reg in candidates:
                conflicting = [iv for segments, iv in occupancy[reg]
                               if interval.overlaps(segments)]
                conflict_weight = sum(iv.weight for iv in conflicting)
                if best_weight is None or conflict_weight < best_weight:
                    best_register, best_weight = reg, conflict_weight
            if best_register is not None and best_weight < interval.weight:
                for segments, victim in list(occupancy[best_register]):
                    if interval.overlaps(segments):
                        occupancy[best_register].remove((segments, victim))
                        victim.assigned = None
                        self._assign_spill_slot(victim)
                assign(interval, best_register)
            else:
                self._assign_spill_slot(interval)

        self._rewrite(intervals)

    def _assign_spill_slot(self, interval: LiveInterval) -> None:
        if interval.vreg not in self.spill_slots:
            self.spill_slots[interval.vreg] = self.asm.frame_size + 4 * self.next_spill_slot
            self.next_spill_slot += 1
        interval.spill_slot = self.spill_slots[interval.vreg]

    def _rematerializable(self) -> dict[str, MachineInstr]:
        """Spilled-value definitions that can be recomputed at each use.

        A virtual register defined exactly once by ``li`` (a constant) or by
        ``addi …, sp, imm`` (a frame address; ``sp`` only moves in the
        prologue/epilogue, outside the allocated body) never needs a stack
        slot: its defining instruction is deleted and re-emitted into the
        scratch register at each use.  This is what makes the lowering's
        loop-invariant hoisting safe under register pressure — a hoisted
        constant that loses its register degrades back to the seed's
        materialize-per-use, never to a reload-per-use plus store.
        """
        def_counts: dict[str, int] = {}
        templates: dict[str, MachineInstr] = {}
        for item in self.asm.body:
            if not isinstance(item, MachineInstr):
                continue
            for pos in item.defs:
                reg = item.operands[pos]
                if not _is_vreg(reg):
                    continue
                def_counts[reg] = def_counts.get(reg, 0) + 1
                if item.opcode == "li" and isinstance(item.operands[1], int):
                    templates[reg] = item
                elif item.opcode == "addi" and item.operands[1] == "sp" \
                        and isinstance(item.operands[2], int):
                    templates[reg] = item
        return {reg: instr for reg, instr in templates.items()
                if def_counts.get(reg) == 1}

    def _rewrite(self, intervals: dict[str, LiveInterval]) -> None:
        """Replace virtual registers with physical ones; insert spill code."""
        assignment = {iv.vreg: iv.assigned for iv in intervals.values()}
        spilled = {iv.vreg for iv in intervals.values() if iv.assigned is None}
        remat = {reg: instr for reg, instr in self._remat_templates.items()
                 if reg in spilled}
        slots: dict[str, int] = {}
        for interval in intervals.values():
            if interval.assigned is None and interval.vreg not in remat:
                self._assign_spill_slot(interval)
                slots[interval.vreg] = interval.spill_slot
        self.spilled_vregs = len(spilled)

        new_body: list = []
        for item in self.asm.body:
            if not isinstance(item, MachineInstr):
                new_body.append(item)
                continue
            scratch_pool = list(SPILL_SCRATCH)
            reloads: list[MachineInstr] = []
            stores: list[MachineInstr] = []
            replacements: dict[int, str] = {}
            reloaded: dict[str, str] = {}  # spilled vreg -> scratch this instr
            drop_instruction = False

            for pos in item.uses:
                reg = item.operands[pos]
                if not _is_vreg(reg):
                    continue
                if assignment.get(reg):
                    replacements[pos] = assignment[reg]
                elif reg in reloaded:
                    replacements[pos] = reloaded[reg]
                else:
                    scratch = scratch_pool.pop(0) if scratch_pool else SPILL_SCRATCH[0]
                    template = remat.get(reg)
                    if template is not None:
                        reloads.append(MachineInstr(
                            template.opcode, [scratch, *template.operands[1:]],
                            comment=f"remat {reg}"))
                    else:
                        reloads.append(MachineInstr(
                            "lw", [scratch, slots.get(reg, 0), "sp"],
                            comment=f"reload {reg}"))
                    replacements[pos] = reloaded[reg] = scratch

            for pos in item.defs:
                reg = item.operands[pos]
                if not _is_vreg(reg):
                    continue
                if assignment.get(reg):
                    replacements[pos] = assignment[reg]
                elif reg in remat:
                    # The value is recomputed at each use; its one definition
                    # carries no other side effect and simply disappears.
                    drop_instruction = True
                else:
                    replacements[pos] = SPILL_SCRATCH[-1]
                    stores.append(MachineInstr(
                        "sw", [SPILL_SCRATCH[-1], slots.get(reg, 0), "sp"],
                        comment=f"spill {reg}"))

            if drop_instruction:
                continue
            for pos, reg in replacements.items():
                item.operands[pos] = reg
            self.spill_loads += len(reloads)
            self.spill_stores += len(stores)
            new_body.extend(reloads)
            new_body.append(item)
            new_body.extend(stores)

        self.asm.body = new_body
        self.asm.frame_size += 4 * self.next_spill_slot


def finalize_frame(asm: AssemblyFunction, used_callee_saved: set[str]) -> None:
    """Insert the prologue/epilogue and expand ``ret`` pseudo-instructions."""
    saved = sorted(used_callee_saved) + ["ra"]
    frame = asm.frame_size + 4 * len(saved)
    frame = (frame + 15) & ~15  # 16-byte stack alignment, as the RISC-V ABI requires
    save_base = asm.frame_size

    prologue: list[MachineInstr] = []
    if frame:
        prologue.append(MachineInstr("addi", ["sp", "sp", -frame], comment="prologue"))
    for index, reg in enumerate(saved):
        prologue.append(MachineInstr("sw", [reg, save_base + 4 * index, "sp"],
                                     comment=f"save {reg}"))

    epilogue: list[MachineInstr] = []
    for index, reg in enumerate(saved):
        epilogue.append(MachineInstr("lw", [reg, save_base + 4 * index, "sp"],
                                     comment=f"restore {reg}"))
    if frame:
        epilogue.append(MachineInstr("addi", ["sp", "sp", frame], comment="epilogue"))
    epilogue.append(MachineInstr("jalr", ["zero", "ra", 0], comment="return"))

    new_body: list = list(prologue)
    for item in asm.body:
        if isinstance(item, MachineInstr) and item.opcode == "ret":
            new_body.extend(MachineInstr(i.opcode, list(i.operands), i.comment)
                            for i in epilogue)
        else:
            new_body.append(item)
    asm.body = new_body
    asm.frame_size = frame


def allocate_registers(asm: AssemblyFunction) -> AssemblyFunction:
    """Run register allocation and frame finalization on a lowered function."""
    allocator = LinearScanAllocator(asm)
    allocator.run()
    finalize_frame(asm, allocator.used_callee_saved)
    return asm
