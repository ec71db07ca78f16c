"""SROA: scalar replacement of aggregates.

Splits small stack arrays whose elements are only accessed through
constant-index GEPs into individual scalar slots, then promotes every
promotable scalar to SSA (LLVM's SROA subsumes mem2reg in the same way).
"""

from __future__ import annotations

from ..ir import Alloca, Constant, Function, GEP, Load, Module, Store, I32
from .pass_manager import FunctionPass, register_pass
from .mem2reg import promotable_allocas, promote_allocas

# Arrays larger than this are left alone (LLVM's limit is in bytes; ours in elements).
MAX_SPLIT_ELEMENTS = 16


def _splittable(alloca: Alloca) -> bool:
    """True if every use is a constant-index GEP that is only loaded/stored."""
    if alloca.count < 2 or alloca.count > MAX_SPLIT_ELEMENTS:
        return False
    for user in alloca.users:
        if not isinstance(user, GEP) or user.base is not alloca:
            return False
        if not isinstance(user.index, Constant):
            return False
        if not (0 <= user.index.signed_value < alloca.count):
            return False
        for gep_user in user.users:
            if isinstance(gep_user, Load) and gep_user.pointer is user:
                continue
            if isinstance(gep_user, Store) and gep_user.pointer is user and gep_user.value is not user:
                continue
            return False
    return True


@register_pass
class SROA(FunctionPass):
    """Scalar replacement of aggregates + promotion to SSA."""

    name = "sroa"
    module_independent = True
    description = "Split constant-indexed stack arrays into scalars and promote them"

    def run_on_function(self, function: Function, module: Module) -> bool:
        changed = False
        entry = function.entry_block

        for block in list(function.blocks):
            for inst in list(block.instructions):
                if not isinstance(inst, Alloca) or not _splittable(inst):
                    continue
                scalars = [Alloca(I32, 1, f"{inst.name}.elem{i}") for i in range(inst.count)]
                for i, scalar in enumerate(scalars):
                    entry.insert(0, scalar)
                for gep in list(inst.users):
                    assert isinstance(gep, GEP)
                    index = gep.index.signed_value  # type: ignore[union-attr]
                    gep.replace_all_uses_with(scalars[index])
                    gep.erase()
                inst.erase()
                changed = True

        changed |= promote_allocas(function, promotable_allocas(function),
                                   analysis=self.analysis)
        return changed
