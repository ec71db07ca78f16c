"""reg2mem: demote SSA registers (and phi nodes) back into stack slots.

This is the inverse of mem2reg.  LLVM ships it mostly as a utility pass; the
paper includes it because it is a clean way to observe the cost of extra
memory traffic on each platform (cheap on x86 thanks to the store buffer and
L1 hits, expensive on zkVMs because of paging).
"""

from __future__ import annotations

from ..ir import (
    Alloca, BasicBlock, Function, Instruction, Load, Module, Phi, Store, I32,
)
from .pass_manager import FunctionPass, register_pass


def _needs_demotion(inst: Instruction) -> bool:
    """Demote values that are used outside their defining block (or by phis)."""
    if not inst.has_result or isinstance(inst, (Alloca, Phi)):
        return False
    for user in inst.users:
        if isinstance(user, Phi) or (isinstance(user, Instruction) and user.parent is not inst.parent):
            return True
    return False


@register_pass
class Reg2Mem(FunctionPass):
    """Demote registers to memory (the inverse of mem2reg)."""

    name = "reg2mem"
    module_independent = True
    description = "Demote cross-block SSA values and phi nodes into stack slots"

    def run_on_function(self, function: Function, module: Module) -> bool:
        changed = False
        entry = function.entry_block

        # 1. Demote phi nodes: store the incoming value at the end of each
        #    predecessor, load at the start of the phi's block.
        for block in list(function.blocks):
            for phi in list(block.phis()):
                slot = Alloca(I32, 1, f"{phi.name}.slot")
                entry.insert(0, slot)
                for value, pred in phi.incoming:
                    pred.insert_before_terminator(Store(value, slot))
                load = Load(slot, I32, f"{phi.name}.reload")
                block.insert(block.first_non_phi_index(), load)
                phi.replace_all_uses_with(load)
                phi.erase()
                changed = True

        # 2. Demote values that live across basic blocks.
        for block in list(function.blocks):
            for inst in list(block.instructions):
                if not _needs_demotion(inst):
                    continue
                slot = Alloca(I32, 1, f"{inst.name}.slot")
                entry.insert(0, slot)
                # Store right after the definition.
                index = block.instructions.index(inst) + 1
                block.insert(index, Store(inst, slot))
                # Reload before every out-of-block user.
                for user in list(inst.users):
                    if not isinstance(user, Instruction) or user.parent is None:
                        continue
                    if user.parent is block and not isinstance(user, Phi):
                        continue
                    if isinstance(user, Store) and user is block.instructions[index]:
                        continue
                    load = Load(slot, I32, f"{inst.name}.reload")
                    if isinstance(user, Phi):
                        # Load at the end of the incoming block.
                        for value, pred in user.incoming:
                            if value is inst:
                                pred.insert_before_terminator(load)
                                break
                        else:
                            continue
                    else:
                        user.parent.insert(user.parent.instructions.index(user), load)
                    user.replace_operand(inst, load)
                changed = True
        return changed
