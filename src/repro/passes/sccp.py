"""Sparse conditional constant propagation (sccp) and its interprocedural
variant (ipsccp)."""

from __future__ import annotations

from typing import Optional

from ..ir import (
    Argument, BasicBlock, BinaryOp, Branch, Call, Cast, CondBranch, Constant,
    Function, ICmp, Instruction, Load, Module, Phi, Ret, Select, Value, I1, I32,
    remove_unreachable_blocks,
)
from .pass_manager import FunctionPass, ModulePass, register_pass
from .simplify import simplify_instruction
from .utils import constant_value, fold_binary, fold_icmp

# Lattice: None = unknown (bottom), int = constant, "over" = overdefined (top).
_OVER = "over"


class _SCCPSolver:
    """Standard SCCP over SSA values with executable-edge tracking."""

    def __init__(self, function: Function, argument_values: Optional[dict] = None):
        self.function = function
        self.lattice: dict[Value, object] = {}
        self.executable_blocks: set[BasicBlock] = set()
        self.edge_worklist: list[tuple[Optional[BasicBlock], BasicBlock]] = []
        self.value_worklist: list[Instruction] = []
        if argument_values:
            for arg, value in argument_values.items():
                self.lattice[arg] = value

    # -- lattice helpers -------------------------------------------------------
    def value_of(self, value: Value):
        if isinstance(value, Constant):
            return value.value
        if isinstance(value, Argument):
            return self.lattice.get(value, _OVER)
        if isinstance(value, Instruction):
            return self.lattice.get(value)
        return _OVER

    def mark(self, inst: Instruction, new_value) -> None:
        old = self.lattice.get(inst)
        if old == new_value:
            return
        if old == _OVER:
            return
        self.lattice[inst] = new_value if old is None or old == new_value else _OVER
        for user in inst.users:
            if isinstance(user, Instruction) and user.parent is not None \
                    and user.parent in self.executable_blocks:
                self.value_worklist.append(user)

    # -- solving ------------------------------------------------------------------
    def solve(self) -> None:
        self.edge_worklist.append((None, self.function.entry_block))
        while self.edge_worklist or self.value_worklist:
            while self.edge_worklist:
                _, target = self.edge_worklist.pop()
                if target in self.executable_blocks:
                    # Re-evaluate phis: a new incoming edge may change them.
                    for phi in target.phis():
                        self.value_worklist.append(phi)
                    continue
                self.executable_blocks.add(target)
                for inst in target.instructions:
                    self.visit(inst)
            while self.value_worklist:
                inst = self.value_worklist.pop()
                if inst.parent is not None and inst.parent in self.executable_blocks:
                    self.visit(inst)

    def visit(self, inst: Instruction) -> None:
        # Ordered by visit frequency (binops/compares dominate -O0-style IR).
        if isinstance(inst, BinaryOp):
            lhs, rhs = self.value_of(inst.lhs), self.value_of(inst.rhs)
            if lhs == _OVER or rhs == _OVER:
                self.mark(inst, _OVER)
            elif lhs is not None and rhs is not None:
                self.mark(inst, fold_binary(inst.opcode, lhs, rhs))
        elif isinstance(inst, ICmp):
            lhs, rhs = self.value_of(inst.lhs), self.value_of(inst.rhs)
            if lhs == _OVER or rhs == _OVER:
                self.mark(inst, _OVER)
            elif lhs is not None and rhs is not None:
                self.mark(inst, fold_icmp(inst.predicate, lhs, rhs))
        elif isinstance(inst, Select):
            cond = self.value_of(inst.condition)
            if cond == _OVER:
                self.mark(inst, _OVER)
            elif cond is not None:
                chosen = inst.true_value if cond & 1 else inst.false_value
                value = self.value_of(chosen)
                self.mark(inst, value if value is not None else None)
        elif isinstance(inst, Cast):
            value = self.value_of(inst.value)
            if value == _OVER:
                self.mark(inst, _OVER)
            elif value is not None:
                bits = getattr(inst.type, "bits", 32)
                if inst.opcode in ("zext", "trunc"):
                    self.mark(inst, value & ((1 << bits) - 1))
                else:  # sext
                    src_bits = getattr(inst.value.type, "bits", 32)
                    value &= (1 << src_bits) - 1
                    if value >= (1 << (src_bits - 1)):
                        value -= 1 << src_bits
                    self.mark(inst, value & 0xFFFFFFFF)
        elif isinstance(inst, Phi):
            self.visit_phi(inst)
        elif isinstance(inst, (Load, Call)):
            if inst.has_result:
                self.mark(inst, _OVER)
        elif isinstance(inst, CondBranch):
            cond = self.value_of(inst.condition)
            if cond == _OVER or cond is None:
                self.edge_worklist.append((inst.parent, inst.true_target))
                self.edge_worklist.append((inst.parent, inst.false_target))
            else:
                target = inst.true_target if cond & 1 else inst.false_target
                self.edge_worklist.append((inst.parent, target))
        elif isinstance(inst, Branch):
            self.edge_worklist.append((inst.parent, inst.target))

    def visit_phi(self, phi: Phi) -> None:
        result = None
        for value, block in phi.incoming:
            if block not in self.executable_blocks:
                continue
            incoming = self.value_of(value)
            if incoming == _OVER:
                result = _OVER
                break
            if incoming is None:
                continue
            if result is None:
                result = incoming
            elif result != incoming:
                result = _OVER
                break
        if result is not None:
            self.mark(phi, result)


def apply_sccp(function: Function, argument_values: Optional[dict] = None) -> bool:
    """Run the SCCP solver and rewrite the function with its conclusions."""
    if not function.blocks:
        return False
    solver = _SCCPSolver(function, argument_values)
    solver.solve()
    changed = False

    # Replace instructions proven constant.
    for block in list(function.blocks):
        if block not in solver.executable_blocks:
            continue
        for inst in list(block.instructions):
            value = solver.lattice.get(inst)
            if value is None or value == _OVER or not inst.has_result:
                continue
            if isinstance(inst, (Load, Call)):
                continue
            constant = Constant(int(value), I1 if inst.type is I1 else I32)
            inst.replace_all_uses_with(constant)
            if not inst.has_side_effects:
                inst.erase()
                changed = True

    # Fold conditional branches whose condition is now a constant.
    for block in list(function.blocks):
        term = block.terminator
        if isinstance(term, CondBranch):
            cond = constant_value(term.condition)
            if cond is None:
                continue
            taken = term.true_target if cond & 1 else term.false_target
            not_taken = term.false_target if cond & 1 else term.true_target
            if taken is not not_taken:
                for phi in not_taken.phis():
                    phi.remove_incoming(block)
            term.erase()
            block.append(Branch(taken))
            changed = True

    changed |= remove_unreachable_blocks(function) > 0
    return changed


@register_pass
class SCCP(FunctionPass):
    """Sparse conditional constant propagation."""

    name = "sccp"
    module_independent = True
    description = "Constant propagation with executable-edge tracking"

    def run_on_function(self, function: Function, module: Module) -> bool:
        return apply_sccp(function)


@register_pass
class IPSCCP(ModulePass):
    """Interprocedural SCCP: propagates constant arguments and return values."""

    name = "ipsccp"
    description = "Interprocedural sparse conditional constant propagation"

    def run(self, module: Module) -> bool:
        changed = False
        # 1. Arguments that receive the same constant at every call site.
        call_sites: dict[str, list[Call]] = {}
        for function in module.defined_functions():
            for inst in function.instructions():
                if isinstance(inst, Call):
                    call_sites.setdefault(inst.callee, []).append(inst)

        argument_constants: dict[Function, dict] = {}
        for function in module.defined_functions():
            if function.name == "main":
                continue
            sites = call_sites.get(function.name, [])
            if not sites:
                continue
            constants = {}
            for index, argument in enumerate(function.arguments):
                values = {constant_value(site.args[index]) for site in sites
                          if index < len(site.args)}
                if len(values) == 1:
                    value = values.pop()
                    if value is not None:
                        constants[argument] = value
            if constants:
                argument_constants[function] = constants
                for argument, value in constants.items():
                    argument.replace_all_uses_with(Constant(value))
                    changed = True

        # 2. Per-function SCCP, seeded with the propagated argument constants.
        for function in module.defined_functions():
            if apply_sccp(function, argument_constants.get(function)):
                changed = True

        # 3. Functions that provably return a single constant.
        for function in module.defined_functions():
            return_values = set()
            for inst in function.instructions():
                if isinstance(inst, Ret) and inst.value is not None:
                    return_values.add(constant_value(inst.value))
            if len(return_values) == 1:
                value = return_values.pop()
                if value is None:
                    continue
                for site in call_sites.get(function.name, []):
                    if site.users:
                        site.replace_all_uses_with(Constant(value))
                        changed = True
        return changed
