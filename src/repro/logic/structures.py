"""Structures (possible worlds) for a finite vocabulary -- ``Struct[L]``.

A structure ``s : P -> {0, 1}`` (Section 1.1) over an ``n``-letter
vocabulary is represented as an ``n``-bit integer: bit ``i`` (0-based,
matching :meth:`Vocabulary.index_of`) holds ``s(A_{i+1})``.  This makes
worlds hashable, cheap to store in sets, and cheap to "flip" -- the
operation underlying masks and dependency sets.

These are deliberately plain functions over ``(vocabulary, int)`` rather
than a wrapper class: the instance-level semantics (``BLU--I``) enumerates
up to ``2^n`` worlds and the constant factors matter.  The user-facing
wrapper is :class:`repro.db.instances.WorldSet`.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping

from repro.errors import VocabularyError
from repro.logic import truthtable
from repro.logic.formula import Formula
from repro.logic.propositions import Vocabulary

__all__ = [
    "World",
    "all_worlds",
    "world_count",
    "world_from_dict",
    "world_from_true_set",
    "world_to_dict",
    "world_to_true_set",
    "get_bit",
    "set_bit",
    "flip_bit",
    "flip_bits",
    "satisfies",
    "world_str",
    "saturate_on",
    "enumerable_letters",
]

World = int
"""Type alias: a world is an ``int`` bit vector over some vocabulary."""

_MAX_ENUMERABLE = 24


def world_count(vocabulary: Vocabulary) -> int:
    """``|Struct[L]| = 2^n``."""
    return 1 << len(vocabulary)


def enumerable_letters(vocabulary: Vocabulary) -> int:
    """The vocabulary's letter count, if its worlds may be enumerated.

    Guarded against accidental astronomically-large enumerations: the
    instance-level semantics is only intended for small vocabularies, and
    a world set over ``n`` letters is a ``2^n``-bit truth table
    (:mod:`repro.logic.truthtable`), 2 MiB at the limit.
    """
    n = len(vocabulary)
    if n > _MAX_ENUMERABLE:
        raise VocabularyError(
            f"refusing to enumerate 2^{n} worlds; instance-level semantics is "
            f"limited to vocabularies of at most {_MAX_ENUMERABLE} letters"
        )
    return n


def all_worlds(vocabulary: Vocabulary) -> Iterator[World]:
    """Enumerate every structure over ``vocabulary`` (ascending bit order);
    at most ``2^24`` (:func:`enumerable_letters`)."""
    return iter(range(1 << enumerable_letters(vocabulary)))


def world_from_dict(vocabulary: Vocabulary, assignment: Mapping[str, bool]) -> World:
    """Build a world from a name -> bool mapping.

    Every vocabulary name must be assigned; extra names raise.
    """
    extra = set(assignment) - set(vocabulary.names)
    if extra:
        raise VocabularyError(f"assignment mentions unknown letters {sorted(extra)}")
    missing = set(vocabulary.names) - set(assignment)
    if missing:
        raise VocabularyError(f"assignment is missing letters {sorted(missing)}")
    world = 0
    for name, value in assignment.items():
        if value:
            world |= 1 << vocabulary.index_of(name)
    return world


def world_from_true_set(vocabulary: Vocabulary, true_names: Iterable[str]) -> World:
    """Build a world in which exactly ``true_names`` hold."""
    world = 0
    for name in true_names:
        world |= 1 << vocabulary.index_of(name)
    return world


def world_to_dict(vocabulary: Vocabulary, world: World) -> dict[str, bool]:
    """Expand a world into an explicit name -> bool mapping."""
    return {name: bool(world >> i & 1) for i, name in enumerate(vocabulary.names)}


def world_to_true_set(vocabulary: Vocabulary, world: World) -> frozenset[str]:
    """The set of letters true in ``world``."""
    return frozenset(name for i, name in enumerate(vocabulary.names) if world >> i & 1)


def get_bit(world: World, index: int) -> bool:
    """Truth value of the letter at ``index`` in ``world``."""
    return bool(world >> index & 1)


def set_bit(world: World, index: int, value: bool) -> World:
    """``world`` with the letter at ``index`` forced to ``value``."""
    if value:
        return world | (1 << index)
    return world & ~(1 << index)


def flip_bit(world: World, index: int) -> World:
    """``world`` with the letter at ``index`` toggled."""
    return world ^ (1 << index)


def flip_bits(world: World, indices: Iterable[int]) -> World:
    """``world`` with every listed letter toggled."""
    for index in indices:
        world ^= 1 << index
    return world


def satisfies(vocabulary: Vocabulary, world: World, formula: Formula) -> bool:
    """``s-bar(formula) = 1``: does ``world`` satisfy ``formula``?"""
    index_of = vocabulary.index_of
    return formula.evaluate(lambda name: bool(world >> index_of(name) & 1))


def world_str(vocabulary: Vocabulary, world: World) -> str:
    """Human-readable rendering, e.g. ``{A1, ~A2, A3}``."""
    parts = [
        name if world >> i & 1 else f"~{name}"
        for i, name in enumerate(vocabulary.names)
    ]
    return "{" + ", ".join(parts) + "}"


def saturate_on(worlds: Iterable[World], indices: frozenset[int] | set[int]) -> frozenset[World]:
    """Close a set of worlds under arbitrary re-assignment of ``indices``.

    This is the instance-level action of the simple mask ``mask[P]``
    (Definition 1.5.3): every world is replaced by all worlds that agree
    with it outside ``P``.  Computed on the worlds' truth table over just
    enough letters to hold them and ``P``, at most 24.
    """
    world_list = list(worlds)
    letters = max(max(world_list, default=0).bit_length(), max(indices, default=-1) + 1)
    if letters > _MAX_ENUMERABLE:
        raise VocabularyError(
            f"refusing to saturate over {letters} letters; at most {_MAX_ENUMERABLE}"
        )
    table = truthtable.table_of_worlds(world_list, letters)
    return frozenset(truthtable.worlds_of(truthtable.saturate(table, indices, letters)))
