"""Function inlining passes: inline, always-inline and partial-inliner.

Inlining is the most beneficial pass for zkVMs in the paper's study because
it removes call/return and argument-marshalling instructions — every one of
which has real proving cost.  The cost model here mirrors LLVM's: a callee is
inlined when its estimated size is below ``inline_threshold`` plus bonuses
for constant arguments; ``alwaysinline`` functions are always inlined.
"""

from __future__ import annotations

from typing import Optional

from ..ir import (
    Alloca, BasicBlock, Branch, Call, Constant, Function, Instruction, Module,
    Phi, Ret, Unreachable, clone_function_body, I32, VOID,
)
from ..ir.cloning import clone_instruction
from .pass_manager import ModulePass, PassConfig, register_pass
from .utils import constant_value


# ---------------------------------------------------------------------------
# Cost model
# ---------------------------------------------------------------------------
def callee_cost(callee: Function) -> int:
    """LLVM-style size estimate: instructions excluding debug-ish overhead."""
    cost = 0
    for inst in callee.instructions():
        if isinstance(inst, (Alloca, Phi)):
            continue
        if isinstance(inst, Call):
            cost += 5  # calls are weighted heavier, as in LLVM's InlineCost
        else:
            cost += 1
    return cost


def is_recursive(function: Function) -> bool:
    return any(isinstance(i, Call) and i.callee == function.name
               for i in function.instructions())


def should_inline(site: Call, caller: Function, callee: Function,
                  config: PassConfig, always_only: bool) -> bool:
    if callee.is_declaration or is_recursive(callee) or callee is caller:
        return False
    if "noinline" in callee.attributes:
        return False
    if "alwaysinline" in callee.attributes:
        return True
    if always_only:
        return callee_cost(callee) <= config.always_inline_threshold
    cost = callee_cost(callee)
    threshold = config.inline_threshold
    # Bonus for constant arguments (they usually unlock further simplification).
    constant_args = sum(1 for a in site.args if constant_value(a) is not None)
    threshold += 2 * config.inline_call_penalty * constant_args
    # A call instruction we remove is itself worth the call penalty.
    cost -= config.inline_call_penalty
    return cost <= threshold


# ---------------------------------------------------------------------------
# Mechanics
# ---------------------------------------------------------------------------
def inline_call_site(site: Call, caller: Function, callee: Function) -> bool:
    """Inline ``callee`` at ``site``.  Returns True on success."""
    block = site.parent
    if block is None or block.parent is not caller:
        return False

    # 1. Split the caller block after the call.
    site_index = block.instructions.index(site)
    after = caller.add_block(f"{callee.name}.after", after=block)
    for inst in list(block.instructions[site_index + 1:]):
        block.remove_instruction(inst)
        after.append(inst)
    # Successor phis must now refer to the continuation block.
    for succ in after.successors:
        for phi in succ.phis():
            phi.replace_incoming_block(block, after)

    # 2. Clone the callee body into a scratch function, mapping arguments.
    scratch = Function(f"{callee.name}.inlined", callee.return_type,
                       [a.type for a in callee.arguments],
                       [a.name for a in callee.arguments], caller.module)
    value_map = {arg: actual for arg, actual in zip(callee.arguments, site.args)}
    # clone_function_body maps formal->formal by default; pre-seed with actuals.
    cloned_map, block_map = clone_function_body(callee, scratch, value_map)

    # The scratch function's own arguments are unused placeholders; rewire any
    # use of them to the actual call arguments.
    for formal, scratch_arg in zip(callee.arguments, scratch.arguments):
        scratch_arg.replace_all_uses_with(value_map.get(formal, scratch_arg))

    # 3. Move cloned blocks into the caller (renaming to stay unique).
    cloned_blocks = [block_map[b] for b in callee.blocks]
    insert_at = caller.blocks.index(block) + 1
    for offset, cloned in enumerate(cloned_blocks):
        cloned.name = caller.unique_name(f"{callee.name}.{cloned.name}")
        cloned.parent = caller
        caller.blocks.insert(insert_at + offset, cloned)
    caller.invalidate_cfg()

    # Hoist the callee's allocas into the caller entry block.
    entry = caller.entry_block
    for cloned in cloned_blocks:
        for inst in list(cloned.instructions):
            if isinstance(inst, Alloca):
                cloned.remove_instruction(inst)
                entry.insert(0, inst)

    # 4. Rewrite returns into branches to the continuation block.
    return_values: list[tuple] = []
    for cloned in cloned_blocks:
        term = cloned.terminator
        if isinstance(term, Ret):
            if term.value is not None:
                return_values.append((term.value, cloned))
            term.erase()
            cloned.append(Branch(after))

    # 5. The original block now falls through into the cloned entry.
    block.append(Branch(cloned_blocks[0]))

    # 6. Replace uses of the call's result.
    if site.users:
        if len(return_values) == 1:
            replacement = return_values[0][0]
            site.replace_all_uses_with(replacement)
        elif return_values:
            phi = Phi(I32, f"{callee.name}.retval")
            for value, pred in return_values:
                phi.add_incoming(value, pred)
            after.insert(0, phi)
            site.replace_all_uses_with(phi)
        else:
            site.replace_all_uses_with(Constant(0))
    site.erase()
    return True


def _call_sites(module: Module):
    for function in module.defined_functions():
        for block in function.blocks:
            for inst in block.instructions:
                if isinstance(inst, Call) and not inst.callee.startswith("__"):
                    yield function, inst


class _InlinerBase(ModulePass):
    """Shared driver for the inlining passes.

    Inlining rewrites the *caller* only (the callee body is read, never
    mutated), so the pass reports the exact callers it touched and the
    analysis manager keeps every other function's analyses alive.
    """

    always_only = False
    max_rounds = 4

    def run(self, module: Module) -> bool:
        changed = False
        for _ in range(self.max_rounds):
            round_changed = False
            for caller, site in list(_call_sites(module)):
                if site.parent is None:
                    continue
                callee = module.get_function(site.callee)
                if callee is None:
                    continue
                if should_inline(site, caller, callee, self.config, self.always_only):
                    if inline_call_site(site, caller, callee):
                        round_changed = True
            changed |= round_changed
            if not round_changed:
                break
        return changed


@register_pass
class Inline(_InlinerBase):
    """Threshold-driven function inlining."""

    name = "inline"
    description = "Inline functions whose size estimate is below the threshold"
    always_only = False


@register_pass
class AlwaysInline(_InlinerBase):
    """Inline only functions marked alwaysinline (or trivially small ones)."""

    name = "always-inline"
    description = "Inline alwaysinline and trivially small functions"
    always_only = True


@register_pass
class PartialInliner(ModulePass):
    """Partial inlining: peel a callee's early-return guard into the caller.

    When a callee starts with ``if (cond) return K;`` and the guard block
    contains only speculatable instructions, the guard is evaluated at the
    call site and the (expensive) call is only made on the slow path.
    """

    name = "partial-inliner"
    description = "Inline early-return guards of callees at their call sites"

    def run(self, module: Module) -> bool:
        changed = False
        for caller, site in list(_call_sites(module)):
            if site.parent is None:
                continue
            callee = module.get_function(site.callee)
            if callee is None or callee.is_declaration or callee is caller:
                continue
            guard = self._early_return_guard(callee)
            if guard is None:
                continue
            if self._apply(site, caller, callee, guard):
                changed = True
        return changed

    @staticmethod
    def _early_return_guard(callee: Function):
        """Return (guard instructions, condition, early block, early constant,
        continue-on-true?) if the callee starts with a guard, else None."""
        from ..ir import CondBranch

        entry = callee.entry_block
        body = [i for i in entry.instructions if not i.is_terminator]
        if len(body) > 4 or any(not i.is_safe_to_speculate() for i in body):
            return None
        term = entry.terminator
        if not isinstance(term, CondBranch):
            return None
        for early, taken_on_true in ((term.true_target, True), (term.false_target, False)):
            instructions = early.instructions
            if len(instructions) == 1 and isinstance(instructions[0], Ret):
                ret = instructions[0]
                value = ret.value if ret.value is not None else Constant(0)
                if constant_value(value) is None and value not in callee.arguments:
                    continue
                return body, term.condition, value, taken_on_true
        return None

    @staticmethod
    def _apply(site: Call, caller: Function, callee: Function, guard) -> bool:
        from ..ir import CondBranch

        body, condition, early_value, taken_on_true = guard
        block = site.parent
        site_index = block.instructions.index(site)

        # Clone the guard computation at the call site, mapping formals to actuals.
        value_map = {arg: actual for arg, actual in zip(callee.arguments, site.args)}
        cloned_condition = condition
        for inst in body:
            cloned = clone_instruction(inst, value_map, {})
            block.insert(block.instructions.index(site), cloned)
            value_map[inst] = cloned
        cloned_condition = value_map.get(condition, condition)
        mapped_early = value_map.get(early_value, early_value)

        # Split: head -> (early path | call path) -> continue.
        call_block = caller.add_block(f"{callee.name}.call", after=block)
        cont_block = caller.add_block(f"{callee.name}.cont", after=call_block)
        for inst in list(block.instructions[block.instructions.index(site):]):
            block.remove_instruction(inst)
            call_block.append(inst)
        for succ in call_block.successors:
            for phi in succ.phis():
                phi.replace_incoming_block(block, call_block)
        # Move everything after the call into the continuation block.
        call_index = call_block.instructions.index(site)
        for inst in list(call_block.instructions[call_index + 1:]):
            call_block.remove_instruction(inst)
            cont_block.append(inst)
        for succ in cont_block.successors:
            for phi in succ.phis():
                phi.replace_incoming_block(call_block, cont_block)
        call_block.append(Branch(cont_block))

        if taken_on_true:
            block.append(CondBranch(cloned_condition, cont_block, call_block))
        else:
            block.append(CondBranch(cloned_condition, call_block, cont_block))

        # The call's result is either the callee result or the early constant.
        if site.users:
            phi = Phi(I32, f"{callee.name}.partial")
            phi.add_incoming(mapped_early, block)
            phi.add_incoming(site, call_block)
            cont_block.insert(0, phi)
            for user in list(site.users):
                if user is not phi:
                    user.replace_operand(site, phi)
        return True
