"""loop-extract: outline natural loops into separate functions.

LLVM ships this as a utility pass (it was designed for bug isolation), and
the paper finds it is one of the most harmful passes on zkVMs: every extracted
loop adds call/return and argument-marshalling instructions on a hot path.
We outline innermost-to-outermost, passing live-in values as arguments.
"""

from __future__ import annotations

from ..ir import (
    Argument, BasicBlock, Branch, Call, CondBranch, Constant, Function,
    GlobalVariable, Instruction, Loop, LoopInfo, Module, Phi, Ret, Value,
    remove_unreachable_blocks, I32, VOID,
)
from .pass_manager import ModulePass, register_pass
from .loop_utils import ensure_preheader


def _live_ins(loop: Loop) -> list[Value]:
    """Values defined outside the loop but used inside (excluding constants and
    globals, which remain directly accessible)."""
    live: list[Value] = []
    seen: set[int] = set()
    for block in loop.blocks:
        for inst in block.instructions:
            for op in inst.operands:
                if isinstance(op, (Constant, GlobalVariable, BasicBlock, Function)):
                    continue
                if isinstance(op, Instruction) and op.parent in loop.blocks:
                    continue
                if isinstance(op, Phi) and op.parent in loop.blocks:
                    continue
                if id(op) in seen:
                    continue
                seen.add(id(op))
                live.append(op)
    return live


def _has_live_outs(loop: Loop) -> bool:
    for block in loop.blocks:
        for inst in block.instructions:
            for user in inst.users:
                if isinstance(user, Instruction) and user.parent is not None \
                        and user.parent not in loop.blocks:
                    return True
    return False


def extract_loop(loop: Loop, function: Function, module: Module,
                 counter: int) -> bool:
    """Outline ``loop`` into a new function.  Returns True on success."""
    preheader = ensure_preheader(loop, function)
    if preheader is None:
        return False
    exits = loop.exit_blocks()
    if len(exits) != 1:
        return False
    exit_block = exits[0]
    if exit_block.phis():
        return False
    if _has_live_outs(loop):
        return False
    # Header phis may only depend on the preheader and in-loop blocks.
    header = loop.header
    for phi in header.phis():
        for _, pred in phi.incoming:
            if pred is not preheader and pred not in loop.blocks:
                return False
    live_ins = _live_ins(loop)
    if any(isinstance(v, BasicBlock) for v in live_ins):
        return False
    # The RISC-V calling convention passes the first eight arguments in
    # registers; loops needing more live-ins are not outlined.
    if len(live_ins) > 8:
        return False

    name = module_unique_name(module, f"{function.name}.loop{counter}")
    outlined = module.create_function(name, VOID, [I32] * len(live_ins),
                                      [f"in{i}" for i in range(len(live_ins))])
    outlined.attributes.add("noinline")
    value_map: dict = {v: a for v, a in zip(live_ins, outlined.arguments)}

    entry = outlined.add_block("entry")
    return_block = outlined.add_block("loop.exit")
    return_block.append(Ret(None))

    # Move the loop blocks into the outlined function.
    loop_blocks = list(loop.blocks)
    for block in loop_blocks:
        function.blocks.remove(block)
        block.parent = outlined
        outlined.blocks.append(block)
    function.invalidate_cfg()
    outlined.invalidate_cfg()
    entry.append(Branch(header))

    # Rewrite references: live-ins become arguments, exits return.
    for block in loop_blocks:
        for inst in block.instructions:
            for old, new in value_map.items():
                inst.replace_operand(old, new)
            if isinstance(inst, (Branch, CondBranch)):
                inst.replace_successor(exit_block, return_block)
        for phi in block.phis():
            phi.replace_incoming_block(preheader, entry)

    # The caller now calls the outlined loop and continues at the exit block.
    call = Call(name, list(live_ins), VOID)
    preheader.insert_before_terminator(call)
    preheader.replace_successor(header, exit_block)
    remove_unreachable_blocks(function)
    return True


def module_unique_name(module: Module, base: str) -> str:
    name = base
    suffix = 0
    while module.get_function(name) is not None:
        suffix += 1
        name = f"{base}.{suffix}"
    return name


@register_pass
class LoopExtract(ModulePass):
    """Extract every natural loop into its own function."""

    name = "loop-extract"
    description = "Outline natural loops into separate functions"

    def run(self, module: Module) -> bool:
        changed = False
        counter = 0
        for function in list(module.defined_functions()):
            # Extract innermost loops first; re-discover after each extraction
            # because the CFG (and loop forest) changes — the analysis manager
            # recomputes automatically once the CFG version has moved.
            for _ in range(16):
                loop_info = self.analysis.loop_info(function)
                loops = sorted(loop_info.loops(), key=lambda l: -l.depth)
                extracted = False
                for loop in loops:
                    counter += 1
                    if extract_loop(loop, function, module, counter):
                        extracted = True
                        changed = True
                        break
                if not extracted:
                    break
        return changed
