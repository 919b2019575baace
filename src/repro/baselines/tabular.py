"""The Abiteboul-Grahne primitives at the propositional level (Section 3.3.3).

Hegner observes that of Abiteboul and Grahne's six table-update primitives,
three are set-theoretic -- union, intersection, difference -- matching
BLU's ``combine``, ``assert``, and (via complement) difference; the other
three are "possible-world by possible-world logical operations" ``and``,
``or``, ``implies``.  He then claims these six "are also sufficient in
power to realize HLU, although it appears that they are strictly less
powerful than those of BLU, in that genmask cannot be realized".

This module provides the six primitives over :class:`WorldSet` and a
bounded-depth expressiveness search used by experiment E14 to exhibit the
gap: no composition of the six primitives (up to the searched depth, with
semantic deduplication over *all* inputs of a small schema) computes the
mask-by-genmask transformer that HLU-insert needs.
"""

from __future__ import annotations

from collections.abc import Callable

from repro.db.instances import WorldSet
from repro.logic.propositions import Vocabulary
from repro.obs import core as obs

__all__ = [
    "t_union",
    "t_intersection",
    "t_difference",
    "t_pointwise_and",
    "t_pointwise_or",
    "t_pointwise_implies",
    "TABULAR_PRIMITIVES",
    "hlu_insert_transformer",
    "search_for_transformer",
]


def t_union(left: WorldSet, right: WorldSet) -> WorldSet:
    """Set union (= BLU combine)."""
    return left.union(right)


def t_intersection(left: WorldSet, right: WorldSet) -> WorldSet:
    """Set intersection (= BLU assert)."""
    return left.intersection(right)


def t_difference(left: WorldSet, right: WorldSet) -> WorldSet:
    """Set difference (intersection with absolute complement)."""
    return left.difference(right)


def _pointwise(
    left: WorldSet, right: WorldSet, combine_bits: Callable[[int, int], int]
) -> WorldSet:
    full = (1 << len(left.vocabulary)) - 1
    return WorldSet(
        left.vocabulary,
        (combine_bits(x, y) & full for x in left for y in right),
    )


def t_pointwise_and(left: WorldSet, right: WorldSet) -> WorldSet:
    """World-by-world conjunction: each pair of worlds meets bitwise."""
    return _pointwise(left, right, lambda x, y: x & y)


def t_pointwise_or(left: WorldSet, right: WorldSet) -> WorldSet:
    """World-by-world disjunction: bitwise join of each pair."""
    return _pointwise(left, right, lambda x, y: x | y)


def t_pointwise_implies(left: WorldSet, right: WorldSet) -> WorldSet:
    """World-by-world material implication, bitwise."""
    return _pointwise(left, right, lambda x, y: (~x) | y)


TABULAR_PRIMITIVES: dict[str, Callable[[WorldSet, WorldSet], WorldSet]] = {
    "union": t_union,
    "intersection": t_intersection,
    "difference": t_difference,
    "and": t_pointwise_and,
    "or": t_pointwise_or,
    "implies": t_pointwise_implies,
}
"""The six primitives, by name."""


def hlu_insert_transformer(state: WorldSet, payload: WorldSet) -> WorldSet:
    """The target function: HLU-insert at the instance level,
    ``assert(mask(s0, genmask(s1)), s1)``."""
    return state.saturate(payload.dependency_indices()).intersection(payload)


def _all_world_sets(vocabulary: Vocabulary) -> list[WorldSet]:
    count = 1 << len(vocabulary)
    return [WorldSet.from_table(vocabulary, bits) for bits in range(1 << count)]


def search_for_transformer(
    vocabulary: Vocabulary,
    target: Callable[[WorldSet, WorldSet], WorldSet],
    max_rounds: int = 3,
    max_functions: int = 20000,
) -> bool:
    """Can a composition of the six primitives compute ``target``?

    Functions of two state arguments are represented extensionally: a
    tuple of outputs over *every* input pair of the (small) vocabulary.
    Starting from the two projections, each round composes every known
    function pair under every primitive, deduplicating semantically.
    Returns ``True`` if the target's table is reached within
    ``max_rounds``; ``False`` means "not expressible up to this depth"
    (the honest bounded claim of experiment E14; constants are not seeded,
    matching the primitives' binary signatures).
    """
    inputs: list[tuple[WorldSet, WorldSet]] = [
        (x, y)
        for x in _all_world_sets(vocabulary)
        for y in _all_world_sets(vocabulary)
    ]

    def table_of(function: Callable[[WorldSet, WorldSet], WorldSet]) -> tuple:
        return tuple(frozenset(function(x, y).worlds) for x, y in inputs)

    obs.inc("baseline.tabular.searches")
    target_table = table_of(target)
    known: dict[tuple, None] = {}
    frontier = [table_of(lambda x, y: x), table_of(lambda x, y: y)]
    for table in frontier:
        known.setdefault(table, None)
    if target_table in known:
        return True

    primitive_bits = {
        "union": lambda a, b: a | b,
        "intersection": lambda a, b: a & b,
        "difference": lambda a, b: a - b,
        "and": None,
        "or": None,
        "implies": None,
    }
    # Precompute pointwise ops on frozensets of world ints.
    full = (1 << len(vocabulary)) - 1

    def pw(op):
        def combined(a: frozenset, b: frozenset) -> frozenset:
            return frozenset(op(x, y) & full for x in a for y in b)

        return combined

    operations = [
        lambda a, b: a | b,
        lambda a, b: a & b,
        lambda a, b: a - b,
        pw(lambda x, y: x & y),
        pw(lambda x, y: x | y),
        pw(lambda x, y: (~x) | y),
    ]

    for _ in range(max_rounds):
        tables = list(known)
        added = False
        for left_table in tables:
            for right_table in tables:
                for operation in operations:
                    new_table = tuple(
                        operation(lv, rv)
                        for lv, rv in zip(left_table, right_table)
                    )
                    if new_table == target_table:
                        return True
                    if new_table not in known:
                        known[new_table] = None
                        obs.inc("baseline.tabular.functions_discovered")
                        added = True
                        if len(known) > max_functions:
                            return False
        if not added:
            return False  # closure reached without finding the target
    return target_table in known
