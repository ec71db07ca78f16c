"""Peephole passes: instsimplify and instcombine.

``instsimplify`` only folds instructions into existing values or constants.
``instcombine`` additionally *rewrites* instructions into cheaper forms; its
most consequential rewrite for this study is strength reduction of division
by a power of two into the shift/add sequence of Figure 2a — profitable on
CPUs where division is slow, counterproductive on zkVMs where every
instruction has near-uniform cost.  The zkVM-aware configuration disables
that expansion (Change Set 1/2 of the paper).
"""

from __future__ import annotations

from typing import Optional

from ..ir import (
    BinaryOp, Cast, Constant, Function, GEP, ICmp, Instruction, Module, Phi,
    Select, Value, I1, I32,
)
from .pass_manager import FunctionPass, register_pass
from .utils import (
    constant_value, fold_binary, fold_icmp, is_power_of_two, log2_exact,
    replace_and_erase, to_signed,
)


def simplify_instruction(inst: Instruction) -> Optional[Value]:
    """Return an existing value or constant equivalent to ``inst``, or None."""
    if isinstance(inst, BinaryOp):
        return _simplify_binop(inst)
    if isinstance(inst, ICmp):
        return _simplify_icmp(inst)
    if isinstance(inst, Select):
        return _simplify_select(inst)
    if isinstance(inst, Cast):
        return _simplify_cast(inst)
    if isinstance(inst, GEP):
        index = constant_value(inst.index)
        if index == 0:
            return inst.base
    if isinstance(inst, Phi):
        values = {v for v in inst.operands if v is not inst}
        if len(values) == 1:
            return values.pop()
    return None


def _simplify_binop(inst: BinaryOp) -> Optional[Value]:
    lhs, rhs = inst.lhs, inst.rhs
    clhs, crhs = constant_value(lhs), constant_value(rhs)
    op = inst.opcode

    if clhs is not None and crhs is not None:
        return Constant(fold_binary(op, clhs, crhs), I32)

    # Identities with a constant on either side.
    if op == "add":
        if crhs == 0:
            return lhs
        if clhs == 0:
            return rhs
    elif op == "sub":
        if crhs == 0:
            return lhs
        if lhs is rhs:
            return Constant(0)
    elif op == "mul":
        if crhs == 1:
            return lhs
        if clhs == 1:
            return rhs
        if crhs == 0 or clhs == 0:
            return Constant(0)
    elif op in ("sdiv", "udiv"):
        if crhs == 1:
            return lhs
    elif op in ("srem", "urem"):
        if crhs == 1:
            return Constant(0)
    elif op == "and":
        if crhs == 0 or clhs == 0:
            return Constant(0)
        if crhs == 0xFFFFFFFF:
            return lhs
        if clhs == 0xFFFFFFFF:
            return rhs
        if lhs is rhs:
            return lhs
    elif op == "or":
        if crhs == 0:
            return lhs
        if clhs == 0:
            return rhs
        if lhs is rhs:
            return lhs
    elif op == "xor":
        if crhs == 0:
            return lhs
        if clhs == 0:
            return rhs
        if lhs is rhs:
            return Constant(0)
    elif op in ("shl", "lshr", "ashr"):
        if crhs == 0:
            return lhs
        if clhs == 0:
            return Constant(0)
    return None


def _simplify_icmp(inst: ICmp) -> Optional[Value]:
    clhs, crhs = constant_value(inst.lhs), constant_value(inst.rhs)
    if clhs is not None and crhs is not None:
        return Constant(fold_icmp(inst.predicate, clhs, crhs), I1)
    if inst.lhs is inst.rhs:
        always_true = inst.predicate in ("eq", "sle", "sge", "ule", "uge")
        return Constant(int(always_true), I1)
    return None


def _simplify_select(inst: Select) -> Optional[Value]:
    cond = constant_value(inst.condition)
    if cond is not None:
        return inst.true_value if cond & 1 else inst.false_value
    if inst.true_value is inst.false_value:
        return inst.true_value
    return None


def _simplify_cast(inst: Cast) -> Optional[Value]:
    value = constant_value(inst.value)
    if value is None:
        return None
    bits = inst.type.bits  # type: ignore[attr-defined]
    if inst.opcode == "trunc":
        return Constant(value & ((1 << bits) - 1), inst.type)  # type: ignore[arg-type]
    if inst.opcode == "zext":
        return Constant(value, inst.type)  # type: ignore[arg-type]
    # sext from i1/i8/i16.
    src_bits = getattr(inst.value.type, "bits", 32)
    if value >= (1 << (src_bits - 1)):
        value -= 1 << src_bits
    return Constant(value, inst.type)  # type: ignore[arg-type]


def run_instsimplify(function: Function, only_blocks=None) -> bool:
    """Apply :func:`simplify_instruction` to a fixpoint."""
    changed = False
    progress = True
    rounds = 0
    while progress and rounds < 8:
        progress = False
        rounds += 1
        for block in function.blocks:
            if only_blocks is not None and block not in only_blocks:
                continue
            for inst in list(block.instructions):
                replacement = simplify_instruction(inst)
                if replacement is not None and replacement is not inst:
                    replace_and_erase(inst, replacement)
                    progress = True
                    changed = True
    return changed


@register_pass
class InstSimplify(FunctionPass):
    """Fold instructions into existing values; never creates new instructions."""

    name = "instsimplify"
    module_independent = True
    description = "Remove redundant instructions by local simplification"

    def run_on_function(self, function: Function, module: Module) -> bool:
        return run_instsimplify(function)


# ---------------------------------------------------------------------------
# instcombine
# ---------------------------------------------------------------------------
class _Combiner:
    """One instcombine visit: may replace an instruction with new instructions."""

    def __init__(self, config):
        self.config = config

    def combine(self, inst: Instruction) -> bool:
        """Try to rewrite ``inst``.  Returns True if the IR changed."""
        simplified = simplify_instruction(inst)
        if simplified is not None and simplified is not inst:
            replace_and_erase(inst, simplified)
            return True
        if isinstance(inst, BinaryOp):
            return self._combine_binop(inst)
        if isinstance(inst, ICmp):
            return self._combine_icmp(inst)
        if isinstance(inst, Select):
            return self._combine_select(inst)
        return False

    # -- helpers ------------------------------------------------------------
    @staticmethod
    def _insert_before(anchor: Instruction, new: Instruction) -> Instruction:
        block = anchor.parent
        block.insert(block.instructions.index(anchor), new)
        return new

    def _combine_binop(self, inst: BinaryOp) -> bool:
        # Canonicalize: constants go to the right for commutative operations.
        if inst.is_commutative and isinstance(inst.lhs, Constant) \
                and not isinstance(inst.rhs, Constant):
            lhs, rhs = inst.lhs, inst.rhs
            inst.set_operands([rhs, lhs])
            return True

        crhs = constant_value(inst.rhs)
        op = inst.opcode

        # Reassociate (x op c1) op c2 -> x op (c1 op c2) for add/mul/and/or/xor.
        if crhs is not None and isinstance(inst.lhs, BinaryOp) \
                and inst.lhs.opcode == op and op in ("add", "mul", "and", "or", "xor"):
            inner = inst.lhs
            c_inner = constant_value(inner.rhs)
            if c_inner is not None and len(inner.users) == 1:
                folded = Constant(fold_binary(op, c_inner, crhs))
                new = BinaryOp(op, inner.lhs, folded, inst.name)
                self._insert_before(inst, new)
                replace_and_erase(inst, new)
                return True

        # x + x -> x << 1
        if op == "add" and inst.lhs is inst.rhs:
            new = BinaryOp("shl", inst.lhs, Constant(1), inst.name)
            self._insert_before(inst, new)
            replace_and_erase(inst, new)
            return True

        if crhs is None:
            return False

        # Multiplication by a power of two -> shift.
        if op == "mul" and is_power_of_two(crhs):
            new = BinaryOp("shl", inst.lhs, Constant(log2_exact(crhs)), inst.name)
            self._insert_before(inst, new)
            replace_and_erase(inst, new)
            return True

        # Unsigned division / remainder by a power of two -> single shift / mask.
        if op == "udiv" and is_power_of_two(crhs):
            new = BinaryOp("lshr", inst.lhs, Constant(log2_exact(crhs)), inst.name)
            self._insert_before(inst, new)
            replace_and_erase(inst, new)
            return True
        if op == "urem" and is_power_of_two(crhs):
            new = BinaryOp("and", inst.lhs, Constant(crhs - 1), inst.name)
            self._insert_before(inst, new)
            replace_and_erase(inst, new)
            return True

        # Signed division by a power of two: the Figure 2a shift/add expansion.
        # Beneficial on CPUs (division is slow), harmful on zkVMs (4 uniform-cost
        # instructions replace 1).  Disabled by the zkVM-aware cost model.
        if op == "sdiv" and is_power_of_two(crhs) and crhs > 1 \
                and self.config.expand_div_by_constant and not self.config.zkvm_aware:
            k = log2_exact(crhs)
            sign = self._insert_before(inst, BinaryOp("ashr", inst.lhs, Constant(31), "div.sign"))
            bias = self._insert_before(inst, BinaryOp("lshr", sign, Constant(32 - k), "div.bias"))
            adjusted = self._insert_before(inst, BinaryOp("add", inst.lhs, bias, "div.adj"))
            new = BinaryOp("ashr", adjusted, Constant(k), inst.name)
            self._insert_before(inst, new)
            replace_and_erase(inst, new)
            return True

        # Signed remainder by a power of two: expanded similarly on CPUs.
        if op == "srem" and is_power_of_two(crhs) and crhs > 1 \
                and self.config.expand_div_by_constant and not self.config.zkvm_aware:
            k = log2_exact(crhs)
            sign = self._insert_before(inst, BinaryOp("ashr", inst.lhs, Constant(31), "rem.sign"))
            bias = self._insert_before(inst, BinaryOp("lshr", sign, Constant(32 - k), "rem.bias"))
            adjusted = self._insert_before(inst, BinaryOp("add", inst.lhs, bias, "rem.adj"))
            masked = self._insert_before(inst, BinaryOp("and", adjusted, Constant(~(crhs - 1)), "rem.mask"))
            new = BinaryOp("sub", inst.lhs, masked, inst.name)
            self._insert_before(inst, new)
            replace_and_erase(inst, new)
            return True

        return False

    def _combine_icmp(self, inst: ICmp) -> bool:
        # icmp ne (zext i1 %c), 0  ->  %c      (the frontend's "tobool" pattern)
        # icmp eq (zext i1 %c), 0  ->  icmp eq %c, false
        if isinstance(inst.lhs, Cast) and inst.lhs.opcode == "zext" \
                and inst.lhs.value.type is I1 and constant_value(inst.rhs) == 0:
            source = inst.lhs.value
            if inst.predicate == "ne":
                replace_and_erase(inst, source)
                return True
            if inst.predicate == "eq":
                new = ICmp("eq", source, Constant(0, I1), inst.name)
                self._insert_before(inst, new)
                replace_and_erase(inst, new)
                return True
        return False

    def _combine_select(self, inst: Select) -> bool:
        # select %c, 1, 0 -> zext %c ; select %c, 0, 1 -> zext (icmp eq %c, 0)
        tv, fv = constant_value(inst.true_value), constant_value(inst.false_value)
        if inst.condition.type is I1 and tv == 1 and fv == 0:
            new = Cast("zext", inst.condition, I32, inst.name)
            self._insert_before(inst, new)
            replace_and_erase(inst, new)
            return True
        return False


@register_pass
class InstCombine(FunctionPass):
    """Combine and canonicalize instructions (includes strength reduction)."""

    name = "instcombine"
    module_independent = True
    description = "Algebraic rewrites, canonicalization and strength reduction"

    def run_on_function(self, function: Function, module: Module) -> bool:
        combiner = _Combiner(self.config)
        changed = False
        progress = True
        rounds = 0
        while progress and rounds < 8:
            progress = False
            rounds += 1
            for block in function.blocks:
                for inst in list(block.instructions):
                    if inst.parent is None:
                        continue
                    if combiner.combine(inst):
                        progress = True
                        changed = True
        return changed
