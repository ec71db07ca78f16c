"""Shared helpers used by multiple passes: constant folding, triviality checks
and the base-object chase behind their pointer reasoning."""

from __future__ import annotations

from typing import Optional

from ..ir import (
    Argument, BinaryOp, Call, Cast, Constant, GEP, ICmp, Instruction, Phi,
    Select, Store, Value, I1, I32,
)
from ..ir.interpreter import Interpreter

WORD_MASK = 0xFFFFFFFF

_BINOP = Interpreter._binop
_ICMP = Interpreter._icmp


def to_signed(value: int) -> int:
    value &= WORD_MASK
    return value - (1 << 32) if value >= (1 << 31) else value


def fold_binary(opcode: str, lhs: int, rhs: int) -> int:
    """Constant-fold a binary operation on 32-bit values (RISC-V semantics)."""
    return _BINOP(opcode, lhs & WORD_MASK, rhs & WORD_MASK)


def fold_icmp(predicate: str, lhs: int, rhs: int) -> int:
    """Constant-fold an integer comparison; returns 0 or 1."""
    return int(_ICMP(predicate, lhs & WORD_MASK, rhs & WORD_MASK))


def constant_value(value: Value) -> Optional[int]:
    """The unsigned constant value of ``value``, or None."""
    if isinstance(value, Constant):
        return value.value
    return None


def is_power_of_two(value: int) -> bool:
    return value > 0 and (value & (value - 1)) == 0


def log2_exact(value: int) -> int:
    return value.bit_length() - 1


def replace_and_erase(inst: Instruction, replacement: Value) -> None:
    """RAUW + erase, the workhorse of most peephole rewrites."""
    inst.replace_all_uses_with(replacement)
    inst.erase()


def is_trivially_dead(inst: Instruction) -> bool:
    """Dead if it has no users and no side effects (allocas count as dead too)."""
    if inst.users:
        return False
    if isinstance(inst, (Store, Call)) or inst.is_terminator:
        return False
    return True


def underlying_object(pointer: Value) -> Value:
    """Chase GEPs back to the allocation or global the pointer is based on."""
    seen = 0
    while isinstance(pointer, GEP) and seen < 64:
        pointer = pointer.base
        seen += 1
    return pointer
