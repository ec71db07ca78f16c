"""Lexer for MiniC, the small C-like guest language used by the benchmarks."""

from __future__ import annotations

from dataclasses import dataclass

from .errors import LexerError

KEYWORDS = frozenset({
    "fn", "var", "global", "int", "if", "else", "while", "for", "return",
    "break", "continue", "const",
})

# Multi-character operators must be listed before their prefixes.
OPERATORS = (
    ">>>", "<<", ">>", "<=", ">=", "==", "!=", "&&", "||",
    "+", "-", "*", "/", "%", "&", "|", "^", "~", "!", "<", ">", "=",
    "(", ")", "{", "}", "[", "]", ",", ";", ":", "->",
)
# '->' must be matched before '-'; rebuild the list in greedy order.
_SORTED_OPERATORS = sorted(OPERATORS, key=len, reverse=True)


@dataclass(frozen=True)
class Token:
    """A single lexical token."""

    kind: str  # 'ident', 'number', 'keyword', 'op', 'eof'
    value: str
    line: int
    column: int

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"Token({self.kind}, {self.value!r}, {self.line}:{self.column})"


def tokenize(source: str) -> list[Token]:
    """Convert MiniC source text into a list of tokens (ending with 'eof')."""
    tokens: list[Token] = []
    line, column = 1, 1
    i = 0
    length = len(source)

    while i < length:
        ch = source[i]

        # Whitespace.
        if ch in " \t\r":
            i += 1
            column += 1
            continue
        if ch == "\n":
            i += 1
            line += 1
            column = 1
            continue

        # Comments: // to end of line, /* ... */ block comments.
        if source.startswith("//", i):
            while i < length and source[i] != "\n":
                i += 1
            continue
        if source.startswith("/*", i):
            end = source.find("*/", i + 2)
            if end == -1:
                raise LexerError("unterminated block comment", line, column)
            skipped = source[i:end + 2]
            line += skipped.count("\n")
            if "\n" in skipped:
                column = len(skipped) - skipped.rfind("\n")
            else:
                column += len(skipped)
            i = end + 2
            continue

        # Numbers (decimal and hexadecimal).
        if ch.isdigit():
            start = i
            if source.startswith("0x", i) or source.startswith("0X", i):
                i += 2
                while i < length and (source[i].isdigit() or source[i].lower() in "abcdef"):
                    i += 1
            else:
                while i < length and source[i].isdigit():
                    i += 1
            text = source[start:i]
            tokens.append(Token("number", text, line, column))
            column += i - start
            continue

        # Identifiers and keywords.
        if ch.isalpha() or ch == "_":
            start = i
            while i < length and (source[i].isalnum() or source[i] == "_"):
                i += 1
            text = source[start:i]
            kind = "keyword" if text in KEYWORDS else "ident"
            tokens.append(Token(kind, text, line, column))
            column += i - start
            continue

        # Operators and punctuation.
        for op in _SORTED_OPERATORS:
            if source.startswith(op, i):
                tokens.append(Token("op", op, line, column))
                i += len(op)
                column += len(op)
                break
        else:
            raise LexerError(f"unexpected character {ch!r}", line, column)

    tokens.append(Token("eof", "", line, column))
    return tokens
