"""Core value classes of the repro IR.

Everything that can appear as an operand is a :class:`Value`.  Values track
their users so that passes can perform replace-all-uses-with efficiently.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

from .types import IntType, PointerType, Type, I32, PTR

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .instructions import Instruction


class Value:
    """Base class of everything that can be used as an operand."""

    def __init__(self, type_: Type, name: str = ""):
        self.type = type_
        self.name = name
        self.users: list["User"] = []

    def add_user(self, user: "User") -> None:
        self.users.append(user)

    def remove_user(self, user: "User") -> None:
        try:
            self.users.remove(user)
        except ValueError:
            pass

    def replace_all_uses_with(self, new: "Value") -> None:
        """Rewrite every use of ``self`` to use ``new`` instead."""
        if new is self:
            return
        for user in list(self.users):
            user.replace_operand(self, new)

    def short_name(self) -> str:
        return f"%{self.name}" if self.name else "%<anon>"

    def __str__(self) -> str:
        return self.short_name()


class User(Value):
    """A value that uses other values as operands."""

    def __init__(self, type_: Type, name: str = ""):
        super().__init__(type_, name)
        self._operands: list[Value] = []

    def _note_mutation(self) -> None:
        """Bump the owning function's IR epoch after an operand rewrite.

        Users are instructions in practice; detached ones (not yet in a
        block/function) have nothing to notify.
        """
        block = getattr(self, "parent", None)
        if block is not None:
            function = block.parent
            if function is not None:
                function._ir_version += 1

    @property
    def operands(self) -> list[Value]:
        return list(self._operands)

    def set_operands(self, operands: Iterable[Value]) -> None:
        for op in self._operands:
            op.remove_user(self)
        self._operands = list(operands)
        for op in self._operands:
            op.add_user(self)
        self._note_mutation()

    def get_operand(self, index: int) -> Value:
        return self._operands[index]

    def replace_operand(self, old: Value, new: Value) -> None:
        replaced = False
        for i, op in enumerate(self._operands):
            if op is old:
                self._operands[i] = new
                old.remove_user(self)
                new.add_user(self)
                replaced = True
        if replaced:
            self._note_mutation()

    def drop_all_references(self) -> None:
        """Remove this user from the use lists of all of its operands."""
        for op in self._operands:
            op.remove_user(self)
        self._operands = []


class Constant(Value):
    """An integer constant of a given width."""

    def __init__(self, value: int, type_: IntType = I32):
        super().__init__(type_)
        if not isinstance(type_, IntType):
            raise TypeError("constants must have integer type")
        self.value = type_.wrap(value)

    @property
    def signed_value(self) -> int:
        return self.type.to_signed(self.value)  # type: ignore[attr-defined]

    def __str__(self) -> str:
        return str(self.signed_value)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"Constant({self.signed_value}, {self.type})"


class Argument(Value):
    """A formal parameter of a function."""

    def __init__(self, type_: Type, name: str, index: int):
        super().__init__(type_, name)
        self.index = index


class GlobalVariable(Value):
    """A module-level array or scalar with optional initial data."""

    def __init__(self, name: str, element_type: Type, count: int,
                 initializer: list[int] | None = None):
        super().__init__(PTR, name)
        self.element_type = element_type
        self.count = count
        self.initializer = list(initializer) if initializer is not None else None
        if self.initializer is not None and len(self.initializer) != count:
            raise ValueError("initializer length does not match count")

    @property
    def size_bytes(self) -> int:
        return self.element_type.size_bytes * self.count

    def short_name(self) -> str:
        return f"@{self.name}"


class UndefValue(Value):
    """An undefined value (used when promoting uninitialised memory)."""

    def __init__(self, type_: Type = I32):
        super().__init__(type_, "undef")

    def __str__(self) -> str:
        return "undef"
