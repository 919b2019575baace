"""Textual syntax for propositional formulas.

The paper writes formulas mathematically (``A1 v A2``, ``¬A1 v ¬A2 v ¬A5``);
for a usable library we provide an ASCII grammar:

=============  =======================================
construct      syntax (synonyms)
=============  =======================================
constant       ``1``, ``0``, ``true``, ``false``
variable       any identifier: ``A1``, ``R_Jones_D1_T2``
negation       ``~p``  (also ``!p``)
conjunction    ``p & q``  (also ``p /\\ q``)
disjunction    ``p | q``  (also ``p \\/ q``)
implication    ``p -> q`` (also ``p => q``), right-assoc
biconditional  ``p <-> q`` (also ``p <=> q``)
grouping       ``( ... )``
=============  =======================================

Precedence, tightest first: ``~``, ``&``, ``|``, ``->``, ``<->``.

>>> str(parse_formula("~A1 | A2 -> A3"))
'((~A1 | A2) -> A3)'
"""

from __future__ import annotations

import re
from collections.abc import Iterable

from repro.errors import ParseError
from repro.logic.formula import (
    FALSE,
    TRUE,
    And,
    Formula,
    Iff,
    Implies,
    Not,
    Or,
    Var,
)
from repro.logic.propositions import CONSTANT_SPELLINGS, NAME_TOKEN

__all__ = ["MAX_NESTING", "parse_formula", "parse_formulas"]

#: How deep a formula may nest: parentheses, negations, and the chained
#: operands of ``->`` and ``<->``.  The parser and every walk over a
#: formula recurse once per level, so without a bound a few hundred
#: parentheses or a long ``~~~...`` exhaust the Python stack.
MAX_NESTING = 100

_TOKEN_RE = re.compile(
    rf"""
    (?P<ws>\s+)
  | (?P<iff><->|<=>)
  | (?P<implies>->|=>)
  | (?P<and>&&?|/\\)
  | (?P<or>\|\|?|\\/)
  | (?P<not>[~!])
  | (?P<lparen>\()
  | (?P<rparen>\))
  | (?P<name>{NAME_TOKEN})
    """,
    re.VERBOSE,
)

_CONSTANTS = {spelling: TRUE if truth else FALSE for spelling, truth in CONSTANT_SPELLINGS.items()}


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """Split ``text`` into ``(kind, lexeme, position)`` triples."""
    tokens: list[tuple[str, str, int]] = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            raise ParseError(
                f"unexpected character {text[pos]!r} at position {pos}", text, pos
            )
        kind = match.lastgroup
        assert kind is not None
        if kind != "ws":
            tokens.append((kind, match.group(), pos))
        pos = match.end()
    return tokens


class _Parser:
    """Recursive-descent parser over the token list."""

    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.index = 0
        self.depth = 0

    def peek(self) -> str | None:
        if self.index < len(self.tokens):
            return self.tokens[self.index][0]
        return None

    def advance(self) -> tuple[str, str, int]:
        token = self.tokens[self.index]
        self.index += 1
        return token

    def nest(self, pos: int) -> None:
        """Enter one more level of nesting; refuse past :data:`MAX_NESTING`."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ParseError(
                f"formula nests deeper than {MAX_NESTING} levels", self.text, pos
            )

    def expect(self, kind: str) -> tuple[str, str, int]:
        if self.peek() != kind:
            found = self.tokens[self.index][1] if self.index < len(self.tokens) else "<end>"
            pos = self.tokens[self.index][2] if self.index < len(self.tokens) else len(self.text)
            raise ParseError(f"expected {kind}, found {found!r}", self.text, pos)
        return self.advance()

    # Grammar:  iff <- imp ( '<->' imp )*        (left-assoc)
    #           imp <- or  ( '->' imp )?         (right-assoc)
    #           or  <- and ( '|' and )*
    #           and <- unary ( '&' unary )*
    #           unary <- '~' unary | atom
    #           atom <- name | '(' iff ')'

    def parse(self) -> Formula:
        result = self.parse_iff()
        if self.index != len(self.tokens):
            _, lexeme, pos = self.tokens[self.index]
            raise ParseError(f"trailing input starting at {lexeme!r}", self.text, pos)
        return result

    def parse_iff(self) -> Formula:
        depth = self.depth
        left = self.parse_implies()
        while self.peek() == "iff":
            self.nest(self.advance()[2])
            right = self.parse_implies()
            left = Iff(left, right)
        self.depth = depth
        return left

    def parse_implies(self) -> Formula:
        left = self.parse_or()
        if self.peek() == "implies":
            self.nest(self.advance()[2])
            right = self.parse_implies()
            self.depth -= 1
            return Implies(left, right)
        return left

    def parse_or(self) -> Formula:
        operands = [self.parse_and()]
        while self.peek() == "or":
            self.advance()
            operands.append(self.parse_and())
        if len(operands) == 1:
            return operands[0]
        return Or(operands)

    def parse_and(self) -> Formula:
        operands = [self.parse_unary()]
        while self.peek() == "and":
            self.advance()
            operands.append(self.parse_unary())
        if len(operands) == 1:
            return operands[0]
        return And(operands)

    def parse_unary(self) -> Formula:
        if self.peek() == "not":
            self.nest(self.advance()[2])
            operand = self.parse_unary()
            self.depth -= 1
            return Not(operand)
        return self.parse_atom()

    def parse_atom(self) -> Formula:
        kind = self.peek()
        if kind == "lparen":
            self.nest(self.advance()[2])
            inner = self.parse_iff()
            self.expect("rparen")
            self.depth -= 1
            return inner
        if kind == "name":
            _, lexeme, _ = self.advance()
            constant = _CONSTANTS.get(lexeme)
            if constant is not None:
                return constant
            return Var(lexeme)
        found = self.tokens[self.index][1] if self.index < len(self.tokens) else "<end>"
        pos = self.tokens[self.index][2] if self.index < len(self.tokens) else len(self.text)
        raise ParseError(f"expected a formula, found {found!r}", self.text, pos)


def parse_formula(text: str) -> Formula:
    """Parse one formula from ``text``.

    >>> parse_formula("A1 & ~A2") == (Var("A1") & ~Var("A2"))
    True
    """
    if not text.strip():
        raise ParseError("empty formula", text, 0)
    return _Parser(text).parse()


def parse_formulas(texts: Iterable[str]) -> tuple[Formula, ...]:
    """Parse a collection of formulas, preserving order."""
    return tuple(parse_formula(t) for t in texts)
