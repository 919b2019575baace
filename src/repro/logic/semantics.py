"""Model-theoretic notions of Section 1.1: ``Mod``, ``Sat``, ``Th``, ``Dep``.

These are the exact definitions over a finite vocabulary -- the ground
truth everything else is checked against.  They are computed on truth
tables (:mod:`repro.logic.truthtable`), one ``2^n``-bit integer per world
set, and are therefore restricted to vocabularies of at most 24 letters;
scalable (clause-level) counterparts live in :mod:`repro.logic.sat` and
:mod:`repro.logic.resolution`.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.logic import truthtable
from repro.logic.clauses import ClauseSet
from repro.logic.formula import Formula
from repro.logic.propositions import Vocabulary
from repro.logic.structures import World, enumerable_letters

__all__ = [
    "clause_set_table",
    "formulas_table",
    "models_of_formulas",
    "models_of_clauses",
    "sat_literals",
    "theory_contains",
    "formulas_entail",
    "clause_sets_equivalent",
    "dependency_indices",
    "dependency_names",
    "clause_set_dependency_indices",
    "table_dependency_indices",
    "table_sat_literals",
]


def clause_set_table(clause_set: ClauseSet) -> int:
    """``Mod[Phi]`` as a truth table over the clause set's vocabulary."""
    letters = range(enumerable_letters(clause_set.vocabulary))
    return truthtable.ClauseTable(clause_set.clauses, letters).whole()


def formulas_table(vocabulary: Vocabulary, formulas: Iterable[Formula]) -> int:
    """``Mod[Phi]`` of a formula collection as a truth table over
    ``vocabulary`` (no CNF conversion)."""
    letters = enumerable_letters(vocabulary)
    formula_tuple = tuple(formulas)
    index_of = vocabulary.index_of
    width = min(letters, truthtable.TABLE_LETTERS)

    def slice_of(high: int) -> int:
        table = truthtable.full(width)
        for formula in formula_tuple:
            table &= truthtable.formula_table(formula, index_of, letters, high)
        return table

    if letters <= truthtable.TABLE_LETTERS:
        return slice_of(0)
    return truthtable.join(
        slice_of(high) for high in range(1 << (letters - truthtable.TABLE_LETTERS))
    )


def models_of_formulas(
    vocabulary: Vocabulary, formulas: Iterable[Formula]
) -> frozenset[World]:
    """``Mod[Phi]``: all structures satisfying every formula in ``Phi``."""
    return frozenset(truthtable.worlds_of(formulas_table(vocabulary, formulas)))


def models_of_clauses(clause_set: ClauseSet) -> frozenset[World]:
    """``Mod[Phi]`` for a clause set (the canonical emulation map
    ``e_CI[S]`` of Definition 2.3.2(b))."""
    return frozenset(truthtable.worlds_of(clause_set_table(clause_set)))


def table_sat_literals(vocabulary: Vocabulary, table: int) -> frozenset[str]:
    """:func:`sat_literals` of a truth table over ``vocabulary``."""
    sliced = truthtable.Table(table, enumerable_letters(vocabulary))
    out: set[str] = set()
    for index, name in enumerate(vocabulary.names):
        somewhere_true, somewhere_false = sliced.values(index)
        if not somewhere_false:
            out.add(name)
        if not somewhere_true:
            out.add(f"~{name}")
    return frozenset(out)


def sat_literals(vocabulary: Vocabulary, worlds: Iterable[World]) -> frozenset[str]:
    """A readable fragment of ``Sat[S]``: the *literals* true in every world.

    (``Sat[S]`` itself is infinite; its literal fragment is what callers
    actually inspect.)  Returns strings like ``"A1"`` / ``"~A2"``; on the
    empty world set every formula holds vacuously, so every literal.
    """
    table = truthtable.table_of_worlds(worlds, enumerable_letters(vocabulary))
    return table_sat_literals(vocabulary, table)


def theory_contains(
    vocabulary: Vocabulary, axioms: Iterable[Formula], candidate: Formula
) -> bool:
    """Is ``candidate`` in ``Th[axioms]`` (i.e. ``axioms |= candidate``)?"""
    return formulas_entail(vocabulary, axioms, (candidate,))


def formulas_entail(
    vocabulary: Vocabulary, premises: Iterable[Formula], conclusions: Iterable[Formula]
) -> bool:
    """``premises |= conclusions``: every model of the premises is one of
    the conclusions."""
    premise_table = formulas_table(vocabulary, premises)
    return premise_table & formulas_table(vocabulary, conclusions) == premise_table


def clause_sets_equivalent(left: ClauseSet, right: ClauseSet) -> bool:
    """Logical equivalence of clause sets, by model comparison."""
    return clause_set_table(left) == clause_set_table(right)


def table_dependency_indices(vocabulary: Vocabulary, table: int) -> frozenset[int]:
    """:func:`dependency_indices` of a truth table over ``vocabulary``."""
    return frozenset(truthtable.Table(table, enumerable_letters(vocabulary)).dependent())


def dependency_indices(
    vocabulary: Vocabulary, worlds: frozenset[World] | set[World]
) -> frozenset[int]:
    """``Dep[S]`` as vocabulary indices (Section 1.1, semantic reading).

    A letter ``A`` belongs to the dependency set of a world set ``S`` iff
    ``S`` is *not* closed under flipping ``A``: some world is in ``S``
    while its ``A``-flipped twin is not.  Equivalently, every axiomatisation
    of ``S`` must mention ``A``.
    """
    table = truthtable.table_of_worlds(worlds, enumerable_letters(vocabulary))
    return table_dependency_indices(vocabulary, table)


def dependency_names(
    vocabulary: Vocabulary, worlds: frozenset[World] | set[World]
) -> frozenset[str]:
    """``Dep[S]`` as proposition names."""
    return frozenset(
        vocabulary.name_of(i) for i in dependency_indices(vocabulary, worlds)
    )


def clause_set_dependency_indices(clause_set: ClauseSet) -> frozenset[int]:
    """``Dep[Mod[Phi]]`` for a clause set, over the whole vocabulary.

    The semantic definition that the paper's ``genmask`` algorithm (2.3.8)
    must agree with; the deciding problem is NP-complete (Theorem
    2.3.9(c)), so no cheap version exists.
    """
    return table_dependency_indices(clause_set.vocabulary, clause_set_table(clause_set))
