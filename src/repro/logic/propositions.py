"""Finite, ordered propositional vocabularies (Section 1.1 of the paper).

The paper works with a propositional logic ``L = (P, C)`` where ``P`` is a
finite set of proposition names carrying an implicit order (``A1, A2, ...``).
:class:`Vocabulary` is that ``P``: an immutable, ordered collection of
distinct names, with fast name <-> index lookup.

Ordering matters because structures (worlds) are represented as bit vectors
indexed by position (see :mod:`repro.logic.structures`), and because the
paper's algorithms iterate proposition letters in a deterministic order.
"""

from __future__ import annotations

import re
from collections.abc import Iterable, Iterator, Sequence

from repro.errors import VocabularyError, VocabularyMismatchError

__all__ = ["NAME_TOKEN", "CONSTANT_SPELLINGS", "Vocabulary", "check_same_vocabulary"]

#: The formula parser's name token (:mod:`repro.logic.parser`).
NAME_TOKEN = r"[A-Za-z_][A-Za-z0-9_.']*|[01]"

#: Name tokens the parser reads as the constants 1 (true) and 0 (false).
CONSTANT_SPELLINGS = {
    "1": True, "true": True, "TRUE": True, "0": False, "false": False, "FALSE": False,
}

_NAME_RE = re.compile(NAME_TOKEN)


def _validate_name(name: str) -> str:
    """Return ``name`` if usable as a proposition name, else raise.

    A name is one whole name token of the formula parser, not a constant
    spelling and without ``'``, so that every vocabulary round-trips
    through the textual syntax: each name parses back as its letter.
    """
    if not isinstance(name, str) or not name:
        raise VocabularyError(f"proposition name must be a non-empty string, got {name!r}")
    if name in CONSTANT_SPELLINGS:
        raise VocabularyError(f"proposition name {name!r} reads as a constant")
    if "'" in name or not _NAME_RE.fullmatch(name):
        raise VocabularyError(
            f"proposition name {name!r} is not a name token of the formula "
            f"parser ([A-Za-z_][A-Za-z0-9_.]*)"
        )
    return name


class Vocabulary:
    """An ordered, finite set of proposition names.

    Instances are immutable, hashable, and compare by their name sequence,
    so two vocabularies with the same names in the same order are
    interchangeable.

    >>> vocab = Vocabulary.standard(3)
    >>> list(vocab)
    ['A1', 'A2', 'A3']
    >>> vocab.index_of("A2")
    1
    """

    __slots__ = ("_names", "_index", "_hash")

    def __init__(self, names: Iterable[str]):
        names_tuple = tuple(_validate_name(n) for n in names)
        index = {name: i for i, name in enumerate(names_tuple)}
        if len(index) != len(names_tuple):
            seen: set[str] = set()
            for name in names_tuple:
                if name in seen:
                    raise VocabularyError(f"duplicate proposition name {name!r}")
                seen.add(name)
        self._names = names_tuple
        self._index = index
        self._hash = hash(names_tuple)

    @classmethod
    def standard(cls, count: int, prefix: str = "A") -> "Vocabulary":
        """The paper's standard vocabulary ``{A1, ..., An}``.

        >>> Vocabulary.standard(2).names
        ('A1', 'A2')
        """
        if count < 0:
            raise VocabularyError("vocabulary size must be non-negative")
        return cls(f"{prefix}{i}" for i in range(1, count + 1))

    @property
    def names(self) -> tuple[str, ...]:
        """The proposition names, in order."""
        return self._names

    def index_of(self, name: str) -> int:
        """The 0-based position of ``name``; raises if absent."""
        try:
            return self._index[name]
        except KeyError:
            raise VocabularyError(f"unknown proposition {name!r}") from None

    def name_of(self, index: int) -> str:
        """The name at 0-based position ``index``; raises if out of range."""
        if not 0 <= index < len(self._names):
            raise VocabularyError(f"proposition index {index} out of range 0..{len(self) - 1}")
        return self._names[index]

    def __contains__(self, name: object) -> bool:
        return name in self._index

    def __iter__(self) -> Iterator[str]:
        return iter(self._names)

    def __len__(self) -> int:
        return len(self._names)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Vocabulary):
            return NotImplemented
        return self._names == other._names

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        if len(self._names) <= 6:
            inner = ", ".join(self._names)
        else:
            inner = ", ".join(self._names[:3]) + f", ... ({len(self._names)} names)"
        return f"Vocabulary({inner})"

    def subset_indices(self, names: Iterable[str]) -> frozenset[int]:
        """Indices of the given names (each must belong to the vocabulary)."""
        return frozenset(self.index_of(n) for n in names)

    def extended(self, extra: Sequence[str]) -> "Vocabulary":
        """A new vocabulary with ``extra`` names appended (used by the
        Wilkins baseline, which mints fresh auxiliary letters per update)."""
        return Vocabulary(self._names + tuple(extra))

    def fresh_names(self, count: int, stem: str = "H") -> tuple[str, ...]:
        """``count`` names not already present, of the form ``<stem><k>``."""
        result: list[str] = []
        k = 1
        while len(result) < count:
            candidate = f"{stem}{k}"
            if candidate not in self._index:
                result.append(candidate)
            k += 1
        return tuple(result)


def check_same_vocabulary(*objects) -> Vocabulary:
    """Assert that all arguments share one vocabulary and return it.

    Each argument must expose a ``vocabulary`` attribute.  Used by every
    binary operation in the library to fail fast on cross-schema mixing.
    """
    if not objects:
        raise VocabularyMismatchError("no objects supplied")
    vocab = objects[0].vocabulary
    for obj in objects[1:]:
        if obj.vocabulary != vocab:
            raise VocabularyMismatchError(
                f"vocabulary mismatch: {vocab!r} vs {obj.vocabulary!r}"
            )
    return vocab
