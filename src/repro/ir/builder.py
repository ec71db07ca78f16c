"""A convenience builder for constructing IR, similar to llvmlite's IRBuilder."""

from __future__ import annotations

from typing import Optional, Sequence

from .basic_block import BasicBlock
from .instructions import (
    Alloca, BinaryOp, Branch, Call, Cast, CondBranch, GEP, ICmp, Instruction,
    Load, Phi, Ret, Select, Store, Unreachable,
)
from .types import IntType, Type, I1, I32, VOID
from .values import Constant, Value


class IRBuilder:
    """Appends instructions to a basic block, tracking an insertion point."""

    def __init__(self, block: Optional[BasicBlock] = None):
        self.block = block
        self._counter = 0

    def position_at_end(self, block: BasicBlock) -> None:
        self.block = block

    def _fresh(self, hint: str) -> str:
        self._counter += 1
        return f"{hint}{self._counter}"

    def _insert(self, inst: Instruction) -> Instruction:
        if self.block is None:
            raise RuntimeError("builder has no insertion block")
        return self.block.append(inst)

    # -- constants ---------------------------------------------------------
    def const(self, value: int, type_: IntType = I32) -> Constant:
        return Constant(value, type_)

    # -- arithmetic ----------------------------------------------------------
    def binop(self, opcode: str, lhs: Value, rhs: Value, name: str = "") -> BinaryOp:
        return self._insert(BinaryOp(opcode, lhs, rhs, name or self._fresh(opcode)))  # type: ignore[return-value]

    def add(self, lhs: Value, rhs: Value, name: str = "") -> BinaryOp:
        return self.binop("add", lhs, rhs, name)

    def sub(self, lhs: Value, rhs: Value, name: str = "") -> BinaryOp:
        return self.binop("sub", lhs, rhs, name)

    def mul(self, lhs: Value, rhs: Value, name: str = "") -> BinaryOp:
        return self.binop("mul", lhs, rhs, name)

    def sdiv(self, lhs: Value, rhs: Value, name: str = "") -> BinaryOp:
        return self.binop("sdiv", lhs, rhs, name)

    def udiv(self, lhs: Value, rhs: Value, name: str = "") -> BinaryOp:
        return self.binop("udiv", lhs, rhs, name)

    def srem(self, lhs: Value, rhs: Value, name: str = "") -> BinaryOp:
        return self.binop("srem", lhs, rhs, name)

    def urem(self, lhs: Value, rhs: Value, name: str = "") -> BinaryOp:
        return self.binop("urem", lhs, rhs, name)

    def xor(self, lhs: Value, rhs: Value, name: str = "") -> BinaryOp:
        return self.binop("xor", lhs, rhs, name)

    def shl(self, lhs: Value, rhs: Value, name: str = "") -> BinaryOp:
        return self.binop("shl", lhs, rhs, name)

    def lshr(self, lhs: Value, rhs: Value, name: str = "") -> BinaryOp:
        return self.binop("lshr", lhs, rhs, name)

    def ashr(self, lhs: Value, rhs: Value, name: str = "") -> BinaryOp:
        return self.binop("ashr", lhs, rhs, name)

    # -- comparisons / select -----------------------------------------------
    def icmp(self, predicate: str, lhs: Value, rhs: Value, name: str = "") -> ICmp:
        return self._insert(ICmp(predicate, lhs, rhs, name or self._fresh("cmp")))  # type: ignore[return-value]

    def select(self, cond: Value, true_value: Value, false_value: Value, name: str = "") -> Select:
        return self._insert(Select(cond, true_value, false_value, name or self._fresh("sel")))  # type: ignore[return-value]

    # -- memory --------------------------------------------------------------
    def alloca(self, allocated_type: Type = I32, count: int = 1, name: str = "") -> Alloca:
        return self._insert(Alloca(allocated_type, count, name or self._fresh("slot")))  # type: ignore[return-value]

    def load(self, pointer: Value, loaded_type: Type = I32, name: str = "") -> Load:
        return self._insert(Load(pointer, loaded_type, name or self._fresh("ld")))  # type: ignore[return-value]

    def store(self, value: Value, pointer: Value) -> Store:
        return self._insert(Store(value, pointer))  # type: ignore[return-value]

    def gep(self, base: Value, index: Value, element_size: int = 4, name: str = "") -> GEP:
        return self._insert(GEP(base, index, element_size, name or self._fresh("gep")))  # type: ignore[return-value]

    # -- control flow ----------------------------------------------------------
    def br(self, target: BasicBlock) -> Branch:
        return self._insert(Branch(target))  # type: ignore[return-value]

    def cond_br(self, condition: Value, true_target: BasicBlock, false_target: BasicBlock) -> CondBranch:
        return self._insert(CondBranch(condition, true_target, false_target))  # type: ignore[return-value]

    def ret(self, value: Optional[Value] = None) -> Ret:
        return self._insert(Ret(value))  # type: ignore[return-value]

    def unreachable(self) -> Unreachable:
        return self._insert(Unreachable())  # type: ignore[return-value]

    def call(self, callee: str, args: Sequence[Value], return_type: Type = I32, name: str = "") -> Call:
        return self._insert(Call(callee, args, return_type, name or self._fresh("call")))  # type: ignore[return-value]

    def phi(self, type_: Type = I32, name: str = "") -> Phi:
        phi = Phi(type_, name or self._fresh("phi"))
        if self.block is None:
            raise RuntimeError("builder has no insertion block")
        self.block.insert(self.block.first_non_phi_index(), phi)
        return phi

    def cast(self, opcode: str, value: Value, to_type: IntType, name: str = "") -> Cast:
        return self._insert(Cast(opcode, value, to_type, name or self._fresh(opcode)))  # type: ignore[return-value]
