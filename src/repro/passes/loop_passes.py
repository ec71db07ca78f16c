"""Loop optimization passes: licm, loop-rotate, loop-deletion,
loop-instsimplify, indvars, loop-reduce, loop-idiom and irce.

All loop passes first canonicalize the loop (preheader insertion, LCSSA),
exactly as LLVM's loop pass manager does.  That canonicalization is not free:
it adds blocks, branches and phi nodes, which is one of the sources of the
zkVM regressions the paper reports for loop passes applied in isolation.
"""

from __future__ import annotations

from ..ir import (
    BasicBlock, BinaryOp, Branch, Call, CondBranch, Constant, Function, GEP,
    ICmp, Instruction, Load, Loop, Module, Phi, Store, Value,
    remove_unreachable_blocks, I1,
)
from ..ir.cloning import clone_instruction
from .pass_manager import FunctionPass, register_pass
from .loop_utils import (
    ensure_preheader, find_induction_variable, form_lcssa, loop_is_invariant,
)
from .simplify import run_instsimplify
from .utils import constant_value, fold_icmp, to_signed


class _LoopPassBase(FunctionPass):
    """Iterates over loops (innermost first) applying :meth:`run_on_loop`.

    The loop forest is requested from the analysis manager once per function
    (exactly where the seed constructed it) and — matching the seed — is *not*
    refreshed between loops, even though canonicalization may grow the CFG.
    """

    canonicalize = True

    def run_on_function(self, function: Function, module: Module) -> bool:
        changed = False
        loop_info = self.analysis.loop_info(function)
        loops = sorted(loop_info.loops(), key=lambda l: -l.depth)
        for loop in loops:
            if self.canonicalize:
                # ensure_preheader may create a block: detect that as a change
                # (the seed under-reported it, which was harmless only because
                # nothing cached analyses across passes).
                blocks_before = len(function.blocks)
                preheader = ensure_preheader(loop, function)
                changed |= len(function.blocks) != blocks_before
                if preheader is None:
                    continue
                changed_lcssa = form_lcssa(loop, function)
                changed |= changed_lcssa
            changed |= bool(self.run_on_loop(loop, function, module))
        return changed

    def run_on_loop(self, loop: Loop, function: Function, module: Module) -> bool:
        raise NotImplementedError


@register_pass
class LICM(_LoopPassBase):
    """Loop-invariant code motion."""

    name = "licm"
    module_independent = True
    description = "Hoist loop-invariant computations into the loop preheader"

    def run_on_loop(self, loop: Loop, function: Function, module: Module) -> bool:
        preheader = loop.preheader()
        if preheader is None:
            return False
        changed = False
        loop_has_memory_writes = any(
            isinstance(i, (Store, Call))
            for block in loop.blocks for i in block.instructions)

        progress = True
        while progress:
            progress = False
            for block in list(loop.blocks):
                for inst in list(block.instructions):
                    if inst.parent is None or isinstance(inst, Phi) or inst.is_terminator:
                        continue
                    if not all(loop_is_invariant(op, loop) for op in inst.operands):
                        continue
                    hoistable = inst.is_safe_to_speculate()
                    if isinstance(inst, Load) and not loop_has_memory_writes:
                        hoistable = True
                    if not hoistable:
                        continue
                    block.remove_instruction(inst)
                    preheader.insert_before_terminator(inst)
                    progress = True
                    changed = True
        return changed


@register_pass
class LoopInstSimplify(_LoopPassBase):
    """Run instruction simplification on loop bodies only."""

    name = "loop-instsimplify"
    module_independent = True
    description = "Simplify instructions inside loops"
    canonicalize = False

    def run_on_loop(self, loop: Loop, function: Function, module: Module) -> bool:
        return run_instsimplify(function, only_blocks=loop.blocks)


@register_pass
class LoopRotate(_LoopPassBase):
    """Rotate top-tested loops into bottom-tested (do-while) form."""

    name = "loop-rotate"
    module_independent = True
    description = "Rotate while-style loops into do-while form"

    MAX_HEADER_SIZE = 16

    def run_on_loop(self, loop: Loop, function: Function, module: Module) -> bool:
        header = loop.header
        term = header.terminator
        if not isinstance(term, CondBranch) or header.phis():
            return False
        in_loop = [s for s in term.successors if s in loop.blocks]
        out_loop = [s for s in term.successors if s not in loop.blocks]
        if len(in_loop) != 1 or len(out_loop) != 1:
            return False
        if in_loop[0].phis() or out_loop[0].phis():
            return False
        body = [i for i in header.instructions if not i.is_terminator]
        if len(body) > self.MAX_HEADER_SIZE:
            return False
        if any(isinstance(i, (Store, Call)) for i in body):
            return False
        # Every predecessor must reach the header through an unconditional branch.
        preds = header.predecessors
        if not preds or any(not isinstance(p.terminator, Branch) for p in preds):
            return False
        # Results of header instructions must not be used elsewhere (no phis yet,
        # so any outside use would break when the header is duplicated).
        for inst in body:
            for user in inst.users:
                if isinstance(user, Instruction) and user.parent is not header:
                    return False

        for pred in preds:
            value_map: dict = {}
            for inst in body:
                cloned = clone_instruction(inst, value_map, {})
                pred.insert_before_terminator(cloned)
                value_map[inst] = cloned
            new_term = clone_instruction(term, value_map, {})
            pred.terminator.erase()
            pred.append(new_term)

        # The original header is now bypassed by every predecessor.
        remove_unreachable_blocks(function)
        return True


@register_pass
class LoopDeletion(_LoopPassBase):
    """Delete loops with no observable effects and a provably finite trip count."""

    name = "loop-deletion"
    module_independent = True
    description = "Remove side-effect-free loops whose results are unused"

    def run_on_loop(self, loop: Loop, function: Function, module: Module) -> bool:
        preheader = loop.preheader()
        if preheader is None:
            return False
        iv = find_induction_variable(loop)
        if iv is None or iv.trip_count(1 << 16) is None:
            return False
        # No stores, calls, or values used outside the loop.
        for block in loop.blocks:
            for inst in block.instructions:
                if isinstance(inst, (Store, Call)):
                    return False
                for user in inst.users:
                    if isinstance(user, Instruction) and user.parent is not None \
                            and user.parent not in loop.blocks:
                        return False
        exits = loop.exit_blocks()
        if len(exits) != 1 or exits[0].phis():
            return False
        exit_block = exits[0]
        if any(p not in loop.blocks for p in exit_block.predecessors):
            return False
        preheader.replace_successor(loop.header, exit_block)
        remove_unreachable_blocks(function)
        return True


@register_pass
class IndVarSimplify(_LoopPassBase):
    """Induction variable simplification: strength-reduce ``iv * c`` into a
    separate additive induction variable."""

    name = "indvars"
    module_independent = True
    description = "Canonicalize and strength-reduce induction variables"

    def run_on_loop(self, loop: Loop, function: Function, module: Module) -> bool:
        preheader = loop.preheader()
        if preheader is None:
            return False
        iv = find_induction_variable(loop)
        if iv is None:
            return False
        changed = False
        update_block = iv.update.parent
        if update_block is None:
            return False
        for block in list(loop.blocks):
            for inst in list(block.instructions):
                if not isinstance(inst, BinaryOp) or inst.opcode != "mul":
                    continue
                if inst.lhs is iv.phi and constant_value(inst.rhs) is not None:
                    factor = to_signed(constant_value(inst.rhs))
                elif inst.rhs is iv.phi and constant_value(inst.lhs) is not None:
                    factor = to_signed(constant_value(inst.lhs))
                else:
                    continue
                init_const = constant_value(iv.init)
                if init_const is None:
                    continue
                derived = Phi(inst.type, f"{inst.name}.iv")
                loop.header.insert(0, derived)
                step = BinaryOp("add", derived, Constant(iv.step * factor), f"{inst.name}.iv.next")
                update_block.insert(update_block.instructions.index(iv.update) + 1, step)
                derived.add_incoming(Constant(to_signed(init_const) * factor), preheader)
                for latch in loop.latches:
                    derived.add_incoming(step, latch)
                inst.replace_all_uses_with(derived)
                inst.erase()
                changed = True
        return changed


@register_pass
class LoopStrengthReduce(_LoopPassBase):
    """loop-reduce (LSR): rewrite ``gep(base, iv)`` into a strided pointer IV."""

    name = "loop-reduce"
    module_independent = True
    description = "Strength-reduce array addressing inside loops"

    def run_on_loop(self, loop: Loop, function: Function, module: Module) -> bool:
        preheader = loop.preheader()
        if preheader is None:
            return False
        iv = find_induction_variable(loop)
        if iv is None or len(loop.latches) != 1:
            return False
        latch = loop.latches[0]
        changed = False
        for block in list(loop.blocks):
            for inst in list(block.instructions):
                if not isinstance(inst, GEP) or inst.parent is None:
                    continue
                if inst.index is not iv.phi or not loop_is_invariant(inst.base, loop):
                    continue
                pointer_phi = Phi(inst.type, f"{inst.name}.lsr")
                loop.header.insert(0, pointer_phi)
                initial = GEP(inst.base, iv.init, inst.element_size, f"{inst.name}.lsr.init")
                preheader.insert_before_terminator(initial)
                stride = GEP(pointer_phi, Constant(iv.step), inst.element_size,
                             f"{inst.name}.lsr.next")
                latch.insert_before_terminator(stride)
                pointer_phi.add_incoming(initial, preheader)
                pointer_phi.add_incoming(stride, latch)
                inst.replace_all_uses_with(pointer_phi)
                inst.erase()
                changed = True
        return changed


@register_pass
class LoopIdiom(_LoopPassBase):
    """loop-idiom: recognize memset-style initialisation loops and unroll them
    by four (emulating the wide-store rewrite LLVM performs)."""

    name = "loop-idiom"
    module_independent = True
    description = "Rewrite memset-style loops into wider unrolled stores"

    def run_on_loop(self, loop: Loop, function: Function, module: Module) -> bool:
        from .loop_unroll import fully_unroll_loop

        if loop.subloops:
            return False
        iv = find_induction_variable(loop)
        if iv is None or iv.step != 1:
            return False
        trip_count = iv.trip_count(1 << 12)
        if trip_count is None or not 4 <= trip_count <= 64:
            return False
        # The loop body must consist only of IV bookkeeping plus a single store
        # of a loop-invariant value through a gep indexed by the IV.
        stores = []
        for block in loop.blocks:
            for inst in block.instructions:
                if isinstance(inst, Store):
                    stores.append(inst)
                elif isinstance(inst, Call):
                    return False
        if len(stores) != 1:
            return False
        store = stores[0]
        if not loop_is_invariant(store.value, loop):
            return False
        if not isinstance(store.pointer, GEP) or store.pointer.index is not iv.phi:
            return False
        return fully_unroll_loop(loop, function, trip_count)


@register_pass
class IRCE(_LoopPassBase):
    """Inductive range check elimination: fold in-loop range checks implied by
    the loop bounds."""

    name = "irce"
    module_independent = True
    description = "Eliminate range checks implied by loop bounds"

    def run_on_loop(self, loop: Loop, function: Function, module: Module) -> bool:
        iv = find_induction_variable(loop)
        if iv is None:
            return False
        init = constant_value(iv.init)
        bound = constant_value(iv.bound)
        if init is None or bound is None or iv.step <= 0:
            return False
        if iv.compare.predicate not in ("slt", "ult"):
            return False
        changed = False
        for block in loop.blocks:
            for inst in list(block.instructions):
                if not isinstance(inst, ICmp) or inst is iv.compare:
                    continue
                if inst.lhs is not iv.phi:
                    continue
                limit = constant_value(inst.rhs)
                if limit is None:
                    continue
                # i in [init, bound) with positive step: i < limit is always true
                # when limit >= bound; i >= 0 style checks hold when init >= 0.
                always_true = None
                if inst.predicate in ("slt", "ult") and to_signed(limit) >= to_signed(bound):
                    always_true = True
                elif inst.predicate in ("sge", "uge") and to_signed(limit) <= to_signed(init):
                    always_true = True
                if always_true:
                    inst.replace_all_uses_with(Constant(1, I1))
                    inst.erase()
                    changed = True
        return changed
