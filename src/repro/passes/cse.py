"""Redundancy elimination passes: early-cse, gvn and newgvn.

All three are value-numbering passes with different scopes and power:

* ``early-cse``   — dominator-scoped hash CSE of pure expressions plus
                    block-local load CSE / store-to-load forwarding.
* ``gvn``         — everything early-cse does, plus elimination of loads from
                    memory objects that are provably never written in the
                    function (cross-block).
* ``newgvn``      — RPO-based value numbering of pure expressions only.
"""

from __future__ import annotations

from typing import Optional

from ..ir import (
    Alloca, Argument, BasicBlock, BinaryOp, Call, Cast, Constant, DominatorTree,
    Function, GEP, GlobalVariable, ICmp, Instruction, Load, Module, Phi, Select,
    Store, Value, COMMUTATIVE_OPS,
)
from .analysis import AnalysisManager
from .pass_manager import FunctionPass, register_pass
from .utils import replace_and_erase, underlying_object


def _operand_key(value: Value):
    if isinstance(value, Constant):
        return ("const", value.value)
    return ("val", id(value))


def expression_key(inst: Instruction) -> Optional[tuple]:
    """A hashable key identifying the pure expression an instruction computes."""
    if isinstance(inst, BinaryOp):
        lhs, rhs = _operand_key(inst.lhs), _operand_key(inst.rhs)
        if inst.opcode in COMMUTATIVE_OPS and rhs < lhs:
            lhs, rhs = rhs, lhs
        return ("binop", inst.opcode, lhs, rhs)
    if isinstance(inst, ICmp):
        return ("icmp", inst.predicate, _operand_key(inst.lhs), _operand_key(inst.rhs))
    if isinstance(inst, Select):
        return ("select", _operand_key(inst.condition),
                _operand_key(inst.true_value), _operand_key(inst.false_value))
    if isinstance(inst, GEP):
        return ("gep", _operand_key(inst.base), _operand_key(inst.index), inst.element_size)
    if isinstance(inst, Cast):
        return ("cast", inst.opcode, _operand_key(inst.value), str(inst.type))
    return None


class _ScopedTable:
    """A stack of hash scopes following the dominator tree walk."""

    def __init__(self):
        self.scopes: list[dict] = [{}]

    def push(self) -> None:
        self.scopes.append({})

    def pop(self) -> None:
        self.scopes.pop()

    def lookup(self, key):
        for scope in reversed(self.scopes):
            if key in scope:
                return scope[key]
        return None

    def insert(self, key, value) -> None:
        self.scopes[-1][key] = value


def module_store_summary(module) -> tuple[set[int], set[int]]:
    """(ids of globals written anywhere, ids of objects escaping via stores).

    The module-wide half of :func:`never_written_objects`.  Load elimination
    never adds/removes stores, so one summary stays valid for a whole GVN run
    instead of rescanning every function per optimized function.
    """
    written_globals: set[int] = set()
    escaped: set[int] = set()
    for scanned in module.defined_functions():
        for inst in scanned.instructions():
            if isinstance(inst, Store):
                target = underlying_object(inst.pointer)
                if isinstance(target, GlobalVariable):
                    written_globals.add(id(target))
                escaped.add(id(underlying_object(inst.value)))
    return written_globals, escaped


def never_written_objects(function: Function,
                          module_summary: Optional[tuple[set[int], set[int]]] = None
                          ) -> set[int]:
    """ids of allocas/globals that are never stored to and never escape.

    Loads from such objects can be safely eliminated across basic blocks.
    ``module_summary`` (see :func:`module_store_summary`) supplies the
    module-wide global-write/escape sets; without one, only this function is
    scanned (matching the seed's behaviour for module-less functions).
    """
    candidates: dict[int, Value] = {}
    for inst in function.instructions():
        if isinstance(inst, Alloca):
            candidates[id(inst)] = inst
    if function.module is not None:
        for gv in function.module.globals.values():
            candidates[id(gv)] = gv

    if module_summary is None and function.module is not None:
        module_summary = module_store_summary(function.module)
    written: set[int] = set(module_summary[0]) if module_summary else set()
    escaped: set[int] = set(module_summary[1]) if module_summary else set()
    for inst in function.instructions():
        if isinstance(inst, Store):
            written.add(id(underlying_object(inst.pointer)))
            escaped.add(id(underlying_object(inst.value)))
        elif isinstance(inst, Call):
            for arg in inst.args:
                escaped.add(id(underlying_object(arg)))
    return {oid for oid in candidates if oid not in written and oid not in escaped}


def _block_local_load_cse(block: BasicBlock, safe_objects: set[int],
                          available_safe_loads: dict,
                          domtree: Optional[DominatorTree] = None) -> bool:
    """Forward loads/stores within one block; extend across blocks only for
    objects in ``safe_objects`` (never written in the function)."""
    changed = False
    available: dict = {}
    for inst in list(block.instructions):
        if inst.parent is None:
            continue
        if isinstance(inst, Load):
            key = _operand_key(inst.pointer)
            existing = available.get(key)
            if existing is None and id(underlying_object(inst.pointer)) in safe_objects:
                candidate = available_safe_loads.get(key)
                # The cached load must dominate this use to keep SSA well formed.
                if candidate is not None and candidate.parent is not None \
                        and domtree is not None \
                        and domtree.instruction_dominates(candidate, inst):
                    existing = candidate
            if existing is not None and getattr(existing, "parent", True) is not None:
                replace_and_erase(inst, existing)
                changed = True
                continue
            available[key] = inst
            if id(underlying_object(inst.pointer)) in safe_objects:
                available_safe_loads[key] = inst
        elif isinstance(inst, Store):
            # Conservative: a store invalidates every cached load except the
            # one it itself establishes (store-to-load forwarding).
            available.clear()
            available[_operand_key(inst.pointer)] = inst.value
        elif isinstance(inst, Call):
            available.clear()
    return changed


def _dominator_scoped_cse(function: Function, eliminate_loads: bool,
                          cross_block_loads: bool,
                          analysis: Optional[AnalysisManager] = None,
                          module_summary=None) -> bool:
    """Shared engine for early-cse and gvn."""
    if not function.blocks:
        return False
    domtree = analysis.domtree(function) if analysis is not None \
        else DominatorTree(function)
    expressions = _ScopedTable()
    changed = False
    safe_objects = never_written_objects(function, module_summary) \
        if cross_block_loads else set()
    available_safe_loads: dict = {}

    def visit(block: BasicBlock) -> None:
        nonlocal changed
        expressions.push()
        for inst in list(block.instructions):
            if inst.parent is None:
                continue
            key = expression_key(inst)
            if key is None:
                continue
            existing = expressions.lookup(key)
            if existing is not None and existing.parent is not None:
                replace_and_erase(inst, existing)
                changed = True
            else:
                expressions.insert(key, inst)
        if eliminate_loads:
            changed |= _block_local_load_cse(block, safe_objects, available_safe_loads, domtree)
        for child in domtree.children(block):
            visit(child)
        expressions.pop()

    import sys
    old_limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old_limit, 10_000))
    try:
        visit(function.entry_block)
    finally:
        sys.setrecursionlimit(old_limit)
    return changed


@register_pass
class EarlyCSE(FunctionPass):
    """Fast dominator-scoped common-subexpression elimination."""

    name = "early-cse"
    module_independent = True
    description = "Dominator-scoped CSE with block-local load elimination"

    def run_on_function(self, function: Function, module: Module) -> bool:
        return _dominator_scoped_cse(function, eliminate_loads=True,
                                     cross_block_loads=False,
                                     analysis=self.analysis)


@register_pass
class GVN(FunctionPass):
    """Global value numbering with redundant-load elimination.

    Module-dependent (it consults the whole module's global writes), so it is
    excluded from no-op skipping; the module-wide summary is computed once
    per run — load elimination never changes the store set it summarizes.
    """

    name = "gvn"
    description = "Global value numbering and load elimination"

    def run(self, module: Module) -> bool:
        self._module_summary = module_store_summary(module)
        try:
            return super().run(module)
        finally:
            self._module_summary = None

    def run_on_function(self, function: Function, module: Module) -> bool:
        summary = getattr(self, "_module_summary", None)
        return _dominator_scoped_cse(function, eliminate_loads=True,
                                     cross_block_loads=True,
                                     analysis=self.analysis,
                                     module_summary=summary)


@register_pass
class NewGVN(FunctionPass):
    """RPO-based value numbering of pure expressions (no memory optimization)."""

    name = "newgvn"
    module_independent = True
    description = "Value numbering of pure expressions over the whole function"

    def run_on_function(self, function: Function, module: Module) -> bool:
        if not function.blocks:
            return False
        changed = False
        domtree = self.analysis.domtree(function)
        leader: dict[tuple, Instruction] = {}
        for block in domtree.rpo:
            for inst in list(block.instructions):
                if inst.parent is None:
                    continue
                key = expression_key(inst)
                if key is None:
                    continue
                existing = leader.get(key)
                if existing is not None and existing.parent is not None \
                        and domtree.instruction_dominates(existing, inst):
                    replace_and_erase(inst, existing)
                    changed = True
                else:
                    leader[key] = inst
        return changed
