"""mem2reg: promote stack slots to SSA registers.

Implements the classic SSA-construction algorithm: phi placement at iterated
dominance frontiers followed by a renaming walk over the dominator tree.
This is the pass every optimization level runs first; individual passes in
the study instead operate directly on the alloca-heavy -O0-style IR, exactly
as the paper applies single LLVM passes to ``mir-opt-level=0`` output.
"""

from __future__ import annotations

from typing import Optional

from ..ir import (
    Alloca, BasicBlock, DominatorTree, Function, Load, Module, Phi, Store,
    UndefValue, dominance_frontiers, remove_unreachable_blocks, I32,
)
from .analysis import AnalysisManager
from .pass_manager import FunctionPass, register_pass


def promotable_allocas(function: Function) -> list[Alloca]:
    """Scalar allocas whose address never escapes (only direct loads/stores)."""
    result = []
    for block in function.blocks:
        for inst in block.instructions:
            if not isinstance(inst, Alloca) or inst.count != 1:
                continue
            ok = True
            for user in inst.users:
                if isinstance(user, Load) and user.pointer is inst:
                    continue
                if isinstance(user, Store) and user.pointer is inst and user.value is not inst:
                    continue
                ok = False
                break
            if ok:
                result.append(inst)
    return result


def promote_allocas(function: Function, allocas: list[Alloca],
                    analysis: Optional[AnalysisManager] = None) -> bool:
    """Promote the given allocas to SSA values.  Returns True if any changed.

    The unreachable-block sweep happens *before* the analyses are requested,
    so the dominator tree and frontiers computed here describe the function's
    final CFG (everything after is phi/load/store surgery).
    """
    if not allocas:
        return False
    remove_unreachable_blocks(function)
    allocas = [a for a in allocas if a.parent is not None]
    if not allocas:
        return False

    if analysis is not None:
        domtree = analysis.domtree(function)
        frontiers = analysis.frontiers(function)
    else:
        domtree = DominatorTree(function)
        frontiers = dominance_frontiers(function, domtree)
    alloca_set = set(allocas)

    # 1. Place phi nodes at the iterated dominance frontier of every store.
    phi_for: dict[tuple[BasicBlock, Alloca], Phi] = {}
    for alloca in allocas:
        # Insertion-ordered (use-list order) so phi placement is deterministic.
        def_blocks = dict.fromkeys(u.parent for u in alloca.users
                                   if isinstance(u, Store) and u.parent is not None)
        worklist = list(def_blocks)
        placed: set[BasicBlock] = set()
        while worklist:
            block = worklist.pop()
            for frontier_block in frontiers.get(block, ()):
                if frontier_block in placed:
                    continue
                placed.add(frontier_block)
                phi = Phi(I32, f"{alloca.name}.phi")
                frontier_block.insert(0, phi)
                phi_for[(frontier_block, alloca)] = phi
                if frontier_block not in def_blocks:
                    worklist.append(frontier_block)

    # 2. Rename along the dominator tree.
    undef = UndefValue(I32)

    def rename(block: BasicBlock, incoming: dict[Alloca, object]) -> None:
        incoming = dict(incoming)
        for inst in list(block.instructions):
            if isinstance(inst, Phi):
                for alloca in allocas:
                    if phi_for.get((block, alloca)) is inst:
                        incoming[alloca] = inst
                        break
                continue
            if isinstance(inst, Load) and inst.pointer in alloca_set:
                value = incoming.get(inst.pointer, undef)  # type: ignore[arg-type]
                inst.replace_all_uses_with(value)  # type: ignore[arg-type]
                inst.erase()
            elif isinstance(inst, Store) and inst.pointer in alloca_set:
                incoming[inst.pointer] = inst.value  # type: ignore[index]
                inst.erase()

        for successor in block.successors:
            for alloca in allocas:
                phi = phi_for.get((successor, alloca))
                if phi is not None:
                    phi.add_incoming(incoming.get(alloca, undef), block)  # type: ignore[arg-type]

        for child in domtree.children(block):
            rename(child, incoming)

    # Iterative driver to avoid Python recursion limits on deep CFGs.
    import sys
    old_limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old_limit, 10_000))
    try:
        rename(function.entry_block, {})
    finally:
        sys.setrecursionlimit(old_limit)

    # 3. Remove the now-dead allocas and any phis that only feed themselves.
    for alloca in allocas:
        if not alloca.users and alloca.parent is not None:
            alloca.erase()
    _prune_trivial_phis(function)
    return True


def _prune_trivial_phis(function: Function) -> None:
    """Remove phis whose incoming values are all identical (or the phi itself)."""
    changed = True
    while changed:
        changed = False
        for block in function.blocks:
            for phi in list(block.phis()):
                values = {v for v in phi.operands if v is not phi}
                if len(values) == 1:
                    replacement = values.pop()
                    phi.replace_all_uses_with(replacement)
                    phi.erase()
                    changed = True
                elif not values:
                    phi.erase()
                    changed = True


@register_pass
class Mem2Reg(FunctionPass):
    """Promote memory to registers (SSA construction)."""

    name = "mem2reg"
    module_independent = True
    description = "Promote alloca'd scalars into SSA registers"

    def run_on_function(self, function: Function, module: Module) -> bool:
        return promote_allocas(function, promotable_allocas(function),
                               analysis=self.analysis)
