"""Dead code elimination passes: dce and adce."""

from __future__ import annotations

from ..ir import Branch, CondBranch, Function, Module, remove_unreachable_blocks
from .pass_manager import FunctionPass, register_pass
from .utils import is_trivially_dead


def eliminate_dead_code(function: Function) -> bool:
    """Iteratively remove instructions with no users and no side effects."""
    changed = False
    progress = True
    while progress:
        progress = False
        for block in function.blocks:
            for inst in list(block.instructions):
                if is_trivially_dead(inst):
                    inst.erase()
                    progress = True
                    changed = True
    return changed


@register_pass
class DCE(FunctionPass):
    """Classic dead-code elimination."""

    name = "dce"
    module_independent = True
    description = "Remove side-effect-free instructions whose results are unused"

    def run_on_function(self, function: Function, module: Module) -> bool:
        return eliminate_dead_code(function)


@register_pass
class ADCE(FunctionPass):
    """Aggressive DCE: dead instructions, unreachable blocks and degenerate branches."""

    name = "adce"
    module_independent = True
    description = "Aggressive dead-code elimination"

    def run_on_function(self, function: Function, module: Module) -> bool:
        changed = eliminate_dead_code(function)
        changed |= remove_unreachable_blocks(function) > 0
        # Conditional branches whose two targets coincide become unconditional.
        for block in function.blocks:
            term = block.terminator
            if isinstance(term, CondBranch) and term.true_target is term.false_target:
                target = term.true_target
                # A phi in the target may have two entries for this block; they
                # must agree for the rewrite to be sound.
                entries_agree = True
                for phi in target.phis():
                    values = [v for v, b in phi.incoming if b is block]
                    if len(set(map(id, values))) > 1:
                        entries_agree = False
                        break
                if not entries_agree:
                    continue
                for phi in target.phis():
                    blocks_seen = 0
                    for value, pred in list(phi.incoming):
                        if pred is block:
                            blocks_seen += 1
                            if blocks_seen > 1:
                                phi.remove_incoming(block)
                term.erase()
                block.append(Branch(target))
                changed = True
        changed |= eliminate_dead_code(function)
        return changed
