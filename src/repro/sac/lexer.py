"""Tokenizer for the SaC subset.

An integer literal is a decimal digit string (leading zeros ignored) of
value at most 2**63 - 1, C's largest ``long long``: a C ``int`` when it
fits 32 bits and a wider integer otherwise, as C types a literal.  A larger
literal fits no C integer type and is a located
:class:`~repro.errors.SacSyntaxError`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import SacSyntaxError, SourceLocation

__all__ = ["Token", "tokenize", "KEYWORDS"]

KEYWORDS = frozenset(
    {
        "int", "float", "double", "bool", "void",
        "with", "genarray", "modarray", "fold", "step", "width",
        "for", "if", "else", "return", "true", "false",
    }
)

# multi-character operators, longest first
_OPERATORS = [
    "++", "<=", ">=", "==", "!=", "&&", "||",
    "+", "-", "*", "/", "%", "<", ">", "=", "!",
    "(", ")", "{", "}", "[", "]", ",", ";", ":", ".",
]


@dataclass(frozen=True)
class Token:
    """One lexical token; ``kind`` is 'int', 'float', 'id', 'kw', 'op' or 'eof'."""

    kind: str
    text: str
    loc: SourceLocation

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Token({self.kind}, {self.text!r}, {self.loc})"


def tokenize(source: str, filename: str = "<string>") -> list[Token]:
    """Tokenize SaC source, raising :class:`SacSyntaxError` on bad input.

    Supports ``//`` line comments and ``/* */`` block comments.
    """
    tokens: list[Token] = []
    i = 0
    line = 1
    col = 1
    n = len(source)

    def loc() -> SourceLocation:
        return SourceLocation(line, col, filename)

    def advance(k: int) -> None:
        nonlocal i, line, col
        for _ in range(k):
            if i < n and source[i] == "\n":
                line += 1
                col = 1
            else:
                col += 1
            i += 1

    while i < n:
        c = source[i]
        if c in " \t\r\n":
            advance(1)
            continue
        if source.startswith("//", i):
            while i < n and source[i] != "\n":
                advance(1)
            continue
        if source.startswith("/*", i):
            start = loc()
            advance(2)
            while i < n and not source.startswith("*/", i):
                advance(1)
            if i >= n:
                raise SacSyntaxError("unterminated block comment", start)
            advance(2)
            continue
        if c.isdigit() or (
            c == "." and i + 1 < n and source[i + 1].isdigit() and _prev_not_numeric(tokens)
        ):
            start = loc()
            j = i
            is_float = False
            while j < n and source[j].isdigit():
                j += 1
            if j < n and source[j] == "." and j + 1 < n and source[j + 1].isdigit():
                is_float = True
                j += 1
                while j < n and source[j].isdigit():
                    j += 1
            if j < n and source[j] in "eE":
                k = j + 1
                if k < n and source[k] in "+-":
                    k += 1
                if k < n and source[k].isdigit():
                    is_float = True
                    j = k
                    while j < n and source[j].isdigit():
                        j += 1
            text = source[i:j]
            if not is_float:
                text = text.lstrip("0") or "0"
                if len(text) > 19 or int(text) >= 2**63:
                    shown = text if len(text) <= 24 else f"{text[:20]}..."
                    raise SacSyntaxError(f"integer literal {shown} is above 2**63 - 1", start)
            tokens.append(Token("float" if is_float else "int", text, start))
            advance(j - i)
            continue
        if c.isalpha() or c == "_":
            start = loc()
            j = i
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            text = source[i:j]
            kind = "kw" if text in KEYWORDS else "id"
            tokens.append(Token(kind, text, start))
            advance(j - i)
            continue
        for op in _OPERATORS:
            if source.startswith(op, i):
                tokens.append(Token("op", op, loc()))
                advance(len(op))
                break
        else:
            raise SacSyntaxError(f"unexpected character {c!r}", loc())

    tokens.append(Token("eof", "", loc()))
    return tokens


def _prev_not_numeric(tokens: list[Token]) -> bool:
    """Heuristic so ``a.5`` is not lexed as a float after an identifier.

    A leading ``.`` starts a float literal only when the previous token
    could not end an expression (e.g. after ``(`` or an operator).
    """
    if not tokens:
        return True
    prev = tokens[-1]
    if prev.kind in ("int", "float", "id"):
        return False
    if prev.kind == "op" and prev.text in (")", "]"):
        return False
    return True
