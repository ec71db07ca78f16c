"""Machine-level peephole optimization over lowered RV32IM code.

Runs between instruction selection and register allocation (plus a light
post-allocation cleanup), removing the redundancy that survives even careful
lowering — every instruction deleted here is one fewer *proven* instruction
per execution on the zkVM:

* **Copy propagation** — uses of ``mv`` destinations read the original
  source while both stay unchanged, which strands the copy for dead-code
  removal (phi copies, ABI moves, GEP aliases).
* **Constant re-materialization CSE** — a second ``li`` of a value some
  register already holds becomes a copy of that register (then usually dies).
* **Store-to-load forwarding** — a load from a (base, offset) the block just
  stored to reads the stored register instead of memory; loads from the same
  address forward to the first load.  Conservative aliasing: any store
  through a *different* base register, and any call, invalidates tracking.
* **Dead store elimination** — a store overwritten by another store to the
  same (base, offset) with no possibly-aliasing read or call in between.
* **Branch-over-jump flips** — ``bCC …, L1; j L2; L1:`` becomes the inverted
  branch straight to ``L2`` with fallthrough to ``L1``.
* **Dead code removal** — instructions defining a virtual register with no
  remaining uses (and no side effects) are deleted, cascading.

All transformations preserve guest-visible behaviour (outputs, return value,
host-call sequence); they deliberately *change* the instruction stream and
therefore dynamic instruction/load/store counts — that is the point.  The
backend differential suite (``tests/test_backend_differential.py``) pins the
behavioural equivalence against the IR interpreter for every benchmark under
both paper profiles.

Hit counters for every rule are accumulated into a plain dict (see
:func:`run_peephole` / :func:`cleanup_after_regalloc`) and surfaced by
``repro lower --stats``.
"""

from __future__ import annotations

from .isa import CALLER_SAVED, INVERTED_BRANCHES, OPCODE_CLASS, Label, MachineInstr

#: Instruction classes whose definitions may be deleted when their
#: destination register is unused.  Loads are included: dropping a dead load
#: changes paging/load counters but never guest-visible behaviour.
_REMOVABLE_CLASSES = frozenset(["alu", "mul", "div", "load"])

#: Conditional branch inversions used by the branch-over-jump flip (the
#: same table the lowering uses for copy-free-edge inversion).
_INVERTED = INVERTED_BRANCHES

#: Instructions that end the local-analysis window within a function body.
_BARRIER_OPS = frozenset(["call", "ecall", "jal", "jalr"])


def _is_vreg(operand) -> bool:
    return isinstance(operand, str) and operand.startswith("%")


def _new_stats() -> dict:
    return {
        "copy_propagated": 0,
        "li_cse": 0,
        "load_forwarded": 0,
        "dead_stores": 0,
        "dead_instructions": 0,
        "branch_flips": 0,
        "redundant_jumps": 0,
        "self_moves": 0,
        "redundant_li": 0,
    }


# -- pre-allocation pass -------------------------------------------------------
def run_peephole(asm, max_rounds: int = 4) -> dict:
    """Optimize ``asm`` (virtual-register form) in place; returns hit counts.

    Iterates the local rules and the global dead-code sweep until a round
    changes nothing (bounded by ``max_rounds``).
    """
    stats = _new_stats()
    for _ in range(max_rounds):
        before = sum(stats.values())
        _local_pass(asm, stats)
        _dead_code_pass(asm, stats)
        _flip_branches(asm, stats)
        stats["redundant_jumps"] += drop_redundant_jumps(asm)
        if sum(stats.values()) == before:
            break
    return stats


class _BlockState:
    """Forward-scan tracking state, reset at labels and control transfers."""

    def __init__(self):
        self.copy_of: dict[str, str] = {}     # reg -> equivalent source reg
        self.const_of: dict[str, int] = {}    # reg -> known constant value
        self.const_holder: dict[int, str] = {}  # value -> register holding it
        self.mem: dict[tuple, str] = {}       # (base, offset) -> value reg
        self.pending_store: dict[tuple, int] = {}  # (base, offset) -> body idx

    def reset(self):
        self.__init__()

    def clobber_memory(self):
        self.mem.clear()
        self.pending_store.clear()

    def kill_register(self, reg: str) -> None:
        """Invalidate every fact that mentions ``reg``."""
        self.copy_of.pop(reg, None)
        for key, source in list(self.copy_of.items()):
            if source == reg:
                del self.copy_of[key]
        value = self.const_of.pop(reg, None)
        if value is not None and self.const_holder.get(value) == reg:
            del self.const_holder[value]
        for key in [k for k, v in self.mem.items()
                    if k[0] == reg or v == reg]:
            del self.mem[key]
        for key in [k for k in self.pending_store if k[0] == reg]:
            del self.pending_store[key]


def _resolve(state: _BlockState, reg: str) -> str:
    """Follow the copy chain of ``reg`` to its oldest live equivalent."""
    seen = set()
    while reg in state.copy_of and reg not in seen:
        seen.add(reg)
        reg = state.copy_of[reg]
    return reg


def _local_pass(asm, stats: dict) -> None:
    """One forward scan: copy propagation, li CSE, store/load forwarding and
    dead-store elimination, block by block."""
    state = _BlockState()
    delete: set[int] = set()

    for index, item in enumerate(asm.body):
        if isinstance(item, Label):
            state.reset()
            continue
        opcode = item.opcode
        ops = item.operands

        # 1. Rewrite uses through the copy chain (virtual sources only: a
        # physical register may be clobbered by calls the chain cannot see).
        # Control transfers and calls take part too; their state handling
        # below is conservative.
        for pos in item.uses:
            reg = ops[pos]
            resolved = _resolve(state, reg)
            if resolved != reg:
                ops[pos] = resolved
                stats["copy_propagated"] += 1

        if opcode in _BARRIER_OPS:
            state.clobber_memory()
            # A call clobbers caller-saved physical registers.
            for reg in list(state.copy_of):
                if state.copy_of[reg] in CALLER_SAVED or reg in CALLER_SAVED:
                    del state.copy_of[reg]
            for reg in list(state.const_of):
                if reg in CALLER_SAVED:
                    value = state.const_of.pop(reg)
                    if state.const_holder.get(value) == reg:
                        del state.const_holder[value]
            continue
        if item.is_branch:
            # Branch targets leave the block; facts die at the boundary.
            state.reset()
            continue

        # 2. Memory tracking.
        if opcode == "sw":
            value_reg, offset, base = ops[0], ops[1], ops[2]
            key = (base, offset)
            pending = state.pending_store.get(key)
            if pending is not None:
                delete.add(pending)
                stats["dead_stores"] += 1
            # A store through base B cannot alias (B, other-offset): word
            # aligned, same dynamic base.  Anything through a different base
            # register might alias — drop those facts.
            for other in [k for k in state.mem if k[0] != base]:
                del state.mem[other]
            for other in [k for k in state.pending_store if k[0] != base]:
                del state.pending_store[other]
            state.mem[key] = value_reg
            state.pending_store[key] = index
            continue
        if opcode == "lw":
            dest, offset, base = ops[0], ops[1], ops[2]
            key = (base, offset)
            known = state.mem.get(key)
            if known == dest:
                # The register already holds exactly this memory word.
                delete.add(index)
                stats["load_forwarded"] += 1
                continue
            if known is not None:
                asm.body[index] = MachineInstr("mv", [dest, known],
                                               comment=item.comment)
                item = asm.body[index]
                stats["load_forwarded"] += 1
                # Fall through to the mv bookkeeping below.
                opcode, ops = "mv", item.operands
            else:
                # A real memory read: it may observe any pending store whose
                # address we cannot prove distinct (different base register,
                # or this very address).
                for other in [k for k in state.pending_store if k[0] != base]:
                    del state.pending_store[other]
                state.pending_store.pop(key, None)
                state.kill_register(dest)
                state.mem[key] = dest
                continue

        # 3. li CSE: a constant some register already holds becomes a copy.
        if opcode == "li":
            dest, value = ops[0], ops[1]
            holder = state.const_holder.get(value)
            state.kill_register(dest)
            if holder is not None and holder != dest and _is_vreg(holder):
                asm.body[index] = MachineInstr("mv", [dest, holder],
                                               comment=item.comment)
                state.copy_of[dest] = holder
                stats["li_cse"] += 1
            else:
                state.const_of[dest] = value
                state.const_holder.setdefault(value, dest)
            continue

        # 4. Generic def bookkeeping (+ copy facts for mv).
        for pos in item.defs:
            state.kill_register(ops[pos])
        if opcode == "mv":
            dest, source = ops[0], ops[1]
            if dest != source and (_is_vreg(source) or source == "zero"):
                state.copy_of[dest] = source
                value = state.const_of.get(source)
                if value is not None:
                    state.const_of[dest] = value

    if delete:
        asm.body = [item for i, item in enumerate(asm.body) if i not in delete]


def _dead_code_pass(asm, stats: dict) -> None:
    """Remove side-effect-free instructions whose virtual destination is
    never used, cascading through operands."""
    while True:
        uses: dict[str, int] = {}
        for item in asm.body:
            if not isinstance(item, MachineInstr):
                continue
            for pos in item.uses:
                reg = item.operands[pos]
                if _is_vreg(reg):
                    uses[reg] = uses.get(reg, 0) + 1
        removed = 0
        kept = []
        for item in asm.body:
            if isinstance(item, MachineInstr) \
                    and OPCODE_CLASS[item.opcode] in _REMOVABLE_CLASSES:
                dest = item.operands[item.defs[0]]
                if _is_vreg(dest) and not uses.get(dest):
                    removed += 1
                    continue
            kept.append(item)
        if not removed:
            break
        asm.body = kept
        stats["dead_instructions"] += removed


def _flip_branches(asm, stats: dict) -> None:
    """``bCC …, L1; j L2; L1:``  →  ``b!CC …, L2; L1:``."""
    body = asm.body
    cleaned = []
    index = 0
    while index < len(body):
        item = body[index]
        if (isinstance(item, MachineInstr) and item.opcode in _INVERTED
                and index + 2 < len(body)):
            jump, label = body[index + 1], body[index + 2]
            if (isinstance(jump, MachineInstr) and jump.opcode == "j"
                    and isinstance(label, Label)
                    and label.name == item.operands[-1]):
                flipped = MachineInstr(
                    _INVERTED[item.opcode],
                    item.operands[:-1] + [jump.operands[0]], item.comment)
                cleaned.extend([flipped, label])
                index += 3
                stats["branch_flips"] += 1
                continue
        cleaned.append(item)
        index += 1
    asm.body = cleaned


def drop_redundant_jumps(asm) -> int:
    """Delete jumps to the label that immediately follows them; returns how
    many were deleted."""
    body = asm.body
    kept = []
    for index, item in enumerate(body):
        following = body[index + 1] if index + 1 < len(body) else None
        if (isinstance(item, MachineInstr) and item.opcode == "j"
                and isinstance(following, Label)
                and following.name == item.operands[0]):
            continue
        kept.append(item)
    asm.body = kept
    return len(body) - len(kept)


# -- post-allocation cleanup ---------------------------------------------------
def cleanup_after_regalloc(asm) -> dict:
    """Physical-register cleanup after allocation; returns hit counts.

    Coalesced copies (``mv x, x``), constants re-loaded into a register that
    already holds them, spill-slot store-to-load forwarding, and the branch
    shapes re-exposed by allocation are cleaned here.  Everything is local to
    a label-to-control-transfer window, with the same conservative aliasing
    rules as the pre-allocation pass.
    """
    stats = _new_stats()
    const_of: dict[str, int] = {}
    mem: dict[tuple, str] = {}

    def window_reset():
        const_of.clear()
        mem.clear()

    kept = []
    for item in asm.body:
        if isinstance(item, Label):
            window_reset()
            kept.append(item)
            continue
        opcode = item.opcode
        ops = item.operands
        if opcode in _BARRIER_OPS or item.is_branch:
            window_reset()
            kept.append(item)
            continue
        if opcode == "mv" and ops[0] == ops[1]:
            stats["self_moves"] += 1
            continue
        if opcode == "li":
            dest, value = ops[0], ops[1]
            if const_of.get(dest) == value:
                stats["redundant_li"] += 1
                continue
            _kill_physical(dest, const_of, mem)
            const_of[dest] = value
            kept.append(item)
            continue
        if opcode == "sw":
            value_reg, offset, base = ops
            for other in [k for k in mem if k[0] != base]:
                del mem[other]
            mem[(base, offset)] = value_reg
            kept.append(item)
            continue
        if opcode == "lw":
            dest, offset, base = ops
            known = mem.get((base, offset))
            if known is not None:
                if known == dest:
                    stats["load_forwarded"] += 1
                    continue
                kept.append(MachineInstr("mv", [dest, known],
                                         comment=item.comment))
                stats["load_forwarded"] += 1
                _kill_physical(dest, const_of, mem)
                value = const_of.get(known)
                if value is not None:
                    const_of[dest] = value
                continue
            _kill_physical(dest, const_of, mem)
            mem[(base, offset)] = dest
            kept.append(item)
            continue
        for pos in item.defs:
            _kill_physical(ops[pos], const_of, mem)
        if opcode == "mv":
            value = const_of.get(ops[1])
            if value is not None:
                const_of[ops[0]] = value
        kept.append(item)
    asm.body = kept

    _flip_branches(asm, stats)
    stats["redundant_jumps"] += drop_redundant_jumps(asm)
    return stats


def _kill_physical(reg: str, const_of: dict, mem: dict) -> None:
    const_of.pop(reg, None)
    for key in [k for k, v in mem.items() if k[0] == reg or v == reg]:
        del mem[key]


#: Registers the RVC recoloring may rename away: the allocator's caller-saved
#: pool plus its spill scratch — all outside the compressed (x8–x15) class.
RVC_RENAMEABLE = ("t0", "t1", "t2", "t3", "t4", "t5", "t6")
#: Rename destinations, most-preferred first: caller-saved registers inside
#: the compressed class.  a0/a1 come last — they usually carry arguments or
#: the return value and so are rarely free anyway.
RVC_TARGETS = ("a2", "a3", "a4", "a5", "a1", "a0")


def recolor_for_rvc(asm) -> int:
    """Rename t-registers onto free a-registers for RVC compressibility.

    The RVC compressed forms (:mod:`repro.backend.rvc`) can only address
    x8–x15 (``s0``/``s1``/``a0``–``a5``) in their 3-bit register fields, but
    the allocator's caller-saved pool is ``t0``–``t4`` — entirely outside
    that class.  After allocation and frame finalization every operand is
    physical, so a *consistent whole-function* rename of one caller-saved
    register to another unused caller-saved register is semantics-preserving:

    * the target register appears nowhere in the function, so no explicit
      def/use collides;
    * implicit clobbers (a callee or host call trashing caller-saved state)
      can only differ for values live across a ``call``/``ecall``, and the
      allocator never assigns caller-saved registers to such intervals.

    Only register operands (roles ``d`` and ``u``) are renamed, so a call
    to a function named like a register keeps its target.  Renames the
    most-frequently-used t-registers onto free a-registers (most uses
    first) and returns how many registers were remapped.
    ``repro lower --stats`` surfaces the count as ``rvc_recolored``.
    """
    instrs = asm.instructions()
    counts: dict[str, int] = {}
    for instr in instrs:
        for pos in instr.defs + instr.uses:
            reg = instr.operands[pos]
            counts[reg] = counts.get(reg, 0) + 1
    free = [reg for reg in RVC_TARGETS if reg not in counts]
    sources = sorted((reg for reg in RVC_RENAMEABLE if reg in counts),
                     key=lambda reg: (-counts[reg], reg))
    mapping = dict(zip(sources, free))
    if not mapping:
        return 0
    for instr in instrs:
        for pos in instr.defs + instr.uses:
            reg = instr.operands[pos]
            instr.operands[pos] = mapping.get(reg, reg)
    return len(mapping)
