"""Smaller passes: sink, mldst-motion, attributor, speculative-execution and
bounds-checking."""

from __future__ import annotations

from typing import Optional

from ..ir import (
    Alloca, BasicBlock, BinaryOp, Branch, Call, Cast, CondBranch, Constant,
    Function, GEP, GlobalVariable, ICmp, Instruction, Load,
    Module, Phi, Ret, Select, Store, Unreachable, I1, I32,
)
from .analysis import AnalysisManager
from .pass_manager import FunctionPass, ModulePass, register_pass
from .utils import constant_value, underlying_object


@register_pass
class Sink(FunctionPass):
    """Sink instructions closer to their (unique) use block.

    Moving a computation into the block that uses it avoids executing it on
    paths that do not need the value.
    """

    name = "sink"
    module_independent = True
    description = "Move instructions into the successor blocks that use them"

    def run_on_function(self, function: Function, module: Module) -> bool:
        changed = False
        domtree = self.analysis.domtree(function)
        for block in list(function.blocks):
            for inst in reversed(list(block.instructions)):
                if inst.is_terminator or isinstance(inst, (Phi, Alloca)):
                    continue
                if not inst.is_safe_to_speculate():
                    continue
                user_blocks = {u.parent for u in inst.users
                               if isinstance(u, Instruction) and u.parent is not None}
                if len(user_blocks) != 1:
                    continue
                target = user_blocks.pop()
                if target is block or target is None:
                    continue
                if any(isinstance(u, Phi) for u in inst.users):
                    continue
                # Only sink into a block dominated by this one (never across a
                # back edge into a loop, which would re-execute the instruction).
                if not domtree.strictly_dominates(block, target):
                    continue
                block.remove_instruction(inst)
                target.insert(target.first_non_phi_index(), inst)
                inst.parent = target
                changed = True
        return changed


@register_pass
class MergedLoadStoreMotion(FunctionPass):
    """mldst-motion: hoist identical loads from both arms of a diamond into the
    head block (and remove the duplicate)."""

    name = "mldst-motion"
    module_independent = True
    description = "Merge identical memory accesses from both sides of a diamond"

    def run_on_function(self, function: Function, module: Module) -> bool:
        changed = False
        for head in function.blocks:
            term = head.terminator
            if not isinstance(term, CondBranch):
                continue
            left, right = term.true_target, term.false_target
            if left is right:
                continue
            if len(left.predecessors) != 1 or len(right.predecessors) != 1:
                continue
            left_loads = [i for i in left.instructions if isinstance(i, Load)]
            right_loads = [i for i in right.instructions if isinstance(i, Load)]
            for lload in left_loads:
                if lload.parent is None:
                    continue
                # A matching load on the other side from the same pointer, with no
                # stores/calls before either load in its block.
                match = next((r for r in right_loads
                              if r.parent is not None and r.pointer is lload.pointer), None)
                if match is None:
                    continue
                if _memory_write_before(left, lload) or _memory_write_before(right, match):
                    continue
                left.remove_instruction(lload)
                head.insert_before_terminator(lload)
                inst_parent_fix(lload, head)
                match.replace_all_uses_with(lload)
                match.erase()
                changed = True
        return changed


def _memory_write_before(block: BasicBlock, until: Instruction) -> bool:
    for inst in block.instructions:
        if inst is until:
            return False
        if isinstance(inst, (Store, Call)):
            return True
    return False


def inst_parent_fix(inst: Instruction, block: BasicBlock) -> None:
    inst.parent = block


@register_pass
class Attributor(ModulePass):
    """Infer function attributes (readnone, norecurse, willreturn) and exploit
    them: calls to pure functions whose results are unused are deleted."""

    name = "attributor"
    description = "Infer and exploit function attributes"

    def run(self, module: Module) -> bool:
        changed = False
        # 1. Infer attributes.
        for function in module.defined_functions():
            accesses_memory = False
            calls_others = False
            recursive = False
            for inst in function.instructions():
                if isinstance(inst, (Load, Store)):
                    accesses_memory = True
                elif isinstance(inst, Call):
                    if inst.callee == function.name:
                        recursive = True
                    else:
                        calls_others = True
            if not accesses_memory and not calls_others and not recursive:
                if "readnone" not in function.attributes:
                    function.attributes.add("readnone")
                    changed = True
            if not recursive and "norecurse" not in function.attributes:
                function.attributes.add("norecurse")
                changed = True

        # 2. Delete unused calls to readnone functions (they cannot have effects).
        for function in module.defined_functions():
            for block in function.blocks:
                for inst in list(block.instructions):
                    if not isinstance(inst, Call) or inst.users:
                        continue
                    callee = module.get_function(inst.callee)
                    if callee is not None and "readnone" in callee.attributes \
                            and not _may_diverge(callee, self.analysis):
                        inst.erase()
                        changed = True
        return changed


def _may_diverge(function: Function,
                 analysis: Optional[AnalysisManager] = None) -> bool:
    """Conservatively true if the function contains any loop (might not return)."""
    from ..ir import LoopInfo

    if analysis is not None:
        return bool(analysis.loop_info(function).loops())
    return bool(LoopInfo(function).loops())


@register_pass
class SpeculativeExecution(FunctionPass):
    """Hoist cheap side-effect-free instructions above conditional branches.

    On out-of-order CPUs this hides latency behind the branch; on zkVMs it
    only ever adds executed instructions (the hoisted work runs even when its
    branch arm is not taken), which is why the zkVM-aware profile disables it.
    """

    name = "speculative-execution"
    module_independent = True
    description = "Hoist side-effect-free instructions above branches"

    MAX_SPECULATED = 4

    def run_on_function(self, function: Function, module: Module) -> bool:
        changed = False
        for head in function.blocks:
            term = head.terminator
            if not isinstance(term, CondBranch):
                continue
            for target in (term.true_target, term.false_target):
                if len(target.predecessors) != 1:
                    continue
                hoisted = 0
                for inst in list(target.instructions):
                    if hoisted >= self.MAX_SPECULATED:
                        break
                    if isinstance(inst, Phi) or inst.is_terminator:
                        continue
                    if not inst.is_safe_to_speculate():
                        break
                    if any(isinstance(op, Instruction) and op.parent is target
                           for op in inst.operands):
                        break
                    target.remove_instruction(inst)
                    head.insert_before_terminator(inst)
                    inst.parent = head
                    hoisted += 1
                    changed = True
        return changed


@register_pass
class BoundsChecking(FunctionPass):
    """Insert bounds checks before indexed accesses to objects of known size
    (a sanitizer-style pass; it always adds executed instructions)."""

    name = "bounds-checking"
    module_independent = True
    description = "Insert array bounds checks before indexed memory accesses"

    def run_on_function(self, function: Function, module: Module) -> bool:
        changed = False
        trap_block: BasicBlock | None = None
        guarded: set[int] = set()
        worklist = list(function.blocks)
        while worklist:
            block = worklist.pop(0)
            for inst in list(block.instructions):
                if inst.parent is not block or not isinstance(inst, GEP):
                    continue
                if id(inst) in guarded:
                    continue
                base = underlying_object(inst.base)
                if isinstance(base, (Alloca, GlobalVariable)):
                    count = base.count
                else:
                    continue
                if constant_value(inst.index) is not None:
                    continue  # statically known indices are not instrumented
                if trap_block is None:
                    trap_block = function.add_block("bounds.trap")
                    trap_block.append(Unreachable())
                # Split the block before the GEP and guard it.
                index = block.instructions.index(inst)
                cont = function.add_block(f"{block.name}.bounds", after=block)
                for moved in list(block.instructions[index:]):
                    block.remove_instruction(moved)
                    cont.append(moved)
                for succ in cont.successors:
                    for phi in succ.phis():
                        phi.replace_incoming_block(block, cont)
                check = ICmp("ult", inst.index, Constant(count), "bounds.ok")
                block.append(check)
                block.append(CondBranch(check, cont, trap_block))
                changed = True
                guarded.add(id(inst))
                # The rest of the original block now lives in `cont`.
                worklist.insert(0, cont)
                break
        return changed
