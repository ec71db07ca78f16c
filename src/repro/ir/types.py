"""Type system for the repro IR.

The IR is deliberately small: integer types, pointers, arrays, void and
function types.  It mirrors the subset of LLVM's type system that the paper's
guest programs exercise (32-bit integer arithmetic, arrays, and calls).
"""

from __future__ import annotations


class Type:
    """Base class of all IR types."""

    def __eq__(self, other: object) -> bool:
        return type(self) is type(other) and self.__dict__ == getattr(other, "__dict__", None)

    def __hash__(self) -> int:
        return hash((type(self).__name__, tuple(sorted(self.__dict__.items()))))

    @property
    def size_bytes(self) -> int:
        """Storage size of a value of this type, in bytes."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return str(self)


class VoidType(Type):
    """The type of functions that return nothing."""

    @property
    def size_bytes(self) -> int:
        return 0

    def __str__(self) -> str:
        return "void"


class IntType(Type):
    """An integer type of a fixed bit width (i1, i8, i32)."""

    def __init__(self, bits: int):
        if bits not in (1, 8, 16, 32, 64):
            raise ValueError(f"unsupported integer width: {bits}")
        self.bits = bits

    @property
    def size_bytes(self) -> int:
        return max(1, self.bits // 8)

    @property
    def mask(self) -> int:
        return (1 << self.bits) - 1

    def wrap(self, value: int) -> int:
        """Wrap ``value`` to this width, interpreted as unsigned."""
        return value & self.mask

    def to_signed(self, value: int) -> int:
        """Interpret the unsigned representation ``value`` as signed."""
        value &= self.mask
        if value >= (1 << (self.bits - 1)):
            value -= 1 << self.bits
        return value

    def __str__(self) -> str:
        return f"i{self.bits}"


class PointerType(Type):
    """An untyped (byte-addressed) pointer, as in opaque-pointer LLVM."""

    @property
    def size_bytes(self) -> int:
        return 4  # RV32 pointers are 32-bit

    def __str__(self) -> str:
        return "ptr"


class ArrayType(Type):
    """A fixed-size array of a scalar element type."""

    def __init__(self, element: Type, count: int):
        if count < 0:
            raise ValueError("array count must be non-negative")
        self.element = element
        self.count = count

    @property
    def size_bytes(self) -> int:
        return self.element.size_bytes * self.count

    def __str__(self) -> str:
        return f"[{self.count} x {self.element}]"


class FunctionType(Type):
    """The type of a function: a return type and parameter types."""

    def __init__(self, return_type: Type, param_types: tuple[Type, ...]):
        self.return_type = return_type
        self.param_types = tuple(param_types)

    @property
    def size_bytes(self) -> int:
        return 0

    def __str__(self) -> str:
        params = ", ".join(str(p) for p in self.param_types)
        return f"{self.return_type} ({params})"


# Singletons for the common types.
VOID = VoidType()
I1 = IntType(1)
I8 = IntType(8)
I16 = IntType(16)
I32 = IntType(32)
I64 = IntType(64)
PTR = PointerType()


def int_type(bits: int) -> IntType:
    """Return the canonical integer type of the given width."""
    return {1: I1, 8: I8, 16: I16, 32: I32, 64: I64}[bits]
