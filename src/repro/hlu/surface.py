"""The textual surface syntax of HLU (the grammar of Section 0).

The paper writes user-level programs as::

    (assert W)   (mask M)   (insert W)   (delete W)   (modify W V)
    (where W P)  (where W P Q)

where ``W`` / ``V`` are possible-worlds arguments (here: brace-delimited,
comma-separated formula sets such as ``{A1 | A2, ~A3}``) and ``M`` is a
brace-delimited set of proposition names.  This module parses that syntax
into :mod:`repro.hlu.language` update values, so the paper's programs run
verbatim::

    >>> update = parse_update("(where {A5} (insert {A1 | A2}))")
    >>> print(update)
    (where {A5} (insert {(A1 | A2)}))
"""

from __future__ import annotations

from repro.errors import ParseError
from repro.hlu import language
from repro.logic.parser import MAX_NESTING, parse_formula

__all__ = ["parse_update", "parse_updates"]


def _tokenize(text: str) -> list[str]:
    """Tokens: ``(``, ``)``, brace groups (kept whole), and bare words."""
    tokens: list[str] = []
    i = 0
    length = len(text)
    while i < length:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch == ";":
            while i < length and text[i] != "\n":
                i += 1
            continue
        if ch in "()":
            tokens.append(ch)
            i += 1
            continue
        if ch == "{":
            depth = 1
            start = i
            i += 1
            while i < length and depth:
                if text[i] == "{":
                    depth += 1
                elif text[i] == "}":
                    depth -= 1
                i += 1
            if depth:
                raise ParseError("unterminated { ... } group", text, start)
            tokens.append(text[start:i])
            continue
        if ch == "}":
            raise ParseError("unexpected '}'", text, i)
        start = i
        while i < length and not text[i].isspace() and text[i] not in "(){};":
            i += 1
        tokens.append(text[start:i])
    return tokens


def _split_top_level(body: str) -> list[str]:
    """Split a brace body on top-level commas (parentheses respected)."""
    parts: list[str] = []
    depth = 0
    current: list[str] = []
    for ch in body:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(current))
            current = []
        else:
            current.append(ch)
    parts.append("".join(current))
    return [part.strip() for part in parts if part.strip()]


def _parse_w(token: str, text: str):
    """A possible-worlds argument: ``{formula, ...}``."""
    if not token.startswith("{"):
        raise ParseError(
            f"expected a {{...}} possible-worlds argument, got {token!r}", text
        )
    return tuple(parse_formula(part) for part in _split_top_level(token[1:-1]))


def _parse_m(token: str, text: str) -> tuple[str, ...]:
    """A mask argument: ``{Name, ...}`` (bare proposition names)."""
    if not token.startswith("{"):
        raise ParseError(f"expected a {{...}} mask argument, got {token!r}", text)
    names = _split_top_level(token[1:-1])
    for name in names:
        if not name.replace("_", "").replace(".", "").isalnum():
            raise ParseError(
                f"mask arguments are proposition names, got {name!r}", text
            )
    return tuple(names)


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.index = 0

    def peek(self) -> str | None:
        return self.tokens[self.index] if self.index < len(self.tokens) else None

    def take(self) -> str:
        if self.index >= len(self.tokens):
            raise ParseError("unexpected end of HLU program", self.text)
        token = self.tokens[self.index]
        self.index += 1
        return token

    def expect(self, token: str) -> None:
        got = self.take()
        if got != token:
            raise ParseError(f"expected {token!r}, got {got!r}", self.text)

    def parse_program(self, depth: int = 0) -> language.Update:
        self.expect("(")
        head = self.take()
        if head == "assert":
            update = language.Assert(_parse_w(self.take(), self.text))
        elif head == "mask":
            update = language.Clear(_parse_m(self.take(), self.text))
        elif head == "insert":
            update = language.Insert(_parse_w(self.take(), self.text))
        elif head == "delete":
            update = language.Delete(_parse_w(self.take(), self.text))
        elif head == "modify":
            old = _parse_w(self.take(), self.text)
            new = _parse_w(self.take(), self.text)
            update = language.Modify(old, new)
        elif head == "where":
            if depth >= MAX_NESTING:
                raise ParseError(
                    f"where clauses nest deeper than {MAX_NESTING} levels", self.text
                )
            condition = _parse_w(self.take(), self.text)
            then = self.parse_program(depth + 1)
            otherwise = None
            if self.peek() == "(":
                otherwise = self.parse_program(depth + 1)
            update = language.Where(condition, then, otherwise)
        else:
            raise ParseError(f"unknown HLU operation {head!r}", self.text)
        self.expect(")")
        return update


def parse_update(text: str) -> language.Update:
    """Parse exactly one HLU program from ``text``."""
    parser = _Parser(text)
    update = parser.parse_program()
    if parser.peek() is not None:
        raise ParseError(
            f"trailing input after HLU program: {parser.tokens[parser.index:]}",
            text,
        )
    return update


def parse_updates(text: str) -> list[language.Update]:
    """Parse a sequence of HLU programs (e.g. a script file)."""
    parser = _Parser(text)
    updates: list[language.Update] = []
    while parser.peek() is not None:
        updates.append(parser.parse_program())
    return updates
