"""Deterministic update morphisms (Definitions 1.3.3 and 1.3.4).

These generalise the complete-information notions of insertion, deletion,
and modification to morphisms ``D -> D``:

* ``insert[A]`` forces ``A`` true, leaving everything else alone;
* ``delete[A]`` forces ``A`` false (``= insert[~A]``);
* ``modify[Ai, Aj]`` moves the "tuple" ``Ai`` to ``Aj``: ``Ai`` becomes
  false, ``Aj`` becomes ``Ai | Aj``;
* ``insert[Phi]`` for a consistent literal set forces every listed literal;
* ``modify[Phi1, Phi2]`` is conditional: in worlds where every literal of
  ``Phi1`` holds, the literals of ``Phi1`` are deleted (their negations
  forced) and then those of ``Phi2`` inserted; other worlds are unchanged.

Note on 1.3.4(b): the case table in the available text is corrupted; the
implementation follows the unambiguous prose of Section 1.3 ("if each
literal in Phi1 is true, we delete the literals of Phi1 and then insert
the literals of Phi2").  ``tests/db/test_updates.py`` pins the resulting
truth table.
"""

from __future__ import annotations

import logging as _logging
from collections.abc import Iterable

from repro.db.morphisms import Morphism
from repro.errors import InconsistentLiteralsError, VocabularyError
from repro.obs import core as obs
from repro.obs.logging import get_logger
from repro.logic.clauses import (
    Clause,
    ClauseSet,
    Literal,
    literal_index,
    literal_to_formula,
    literals_consistent,
)
from repro.logic.formula import FALSE, TRUE, Formula, Var, conj
from repro.logic.propositions import Vocabulary

__all__ = [
    "insert_atom",
    "delete_atom",
    "modify_atom",
    "insert_literals",
    "modify_literals",
    "clause_delta",
]

#: Structured logger for morphism construction (DEBUG: these run inside
#: every BLU update, so INFO would be noisy); the rejection path logs at
#: WARNING with the offending literal set echoed.
_LOG = get_logger("repro.db.updates")


def _log_built(op: str, **detail: object) -> None:
    if _LOG.isEnabledFor(_logging.DEBUG):
        _LOG.debug("morphism built", extra={"op": op, **detail})


def clause_delta(
    old: ClauseSet, new: ClauseSet
) -> tuple[frozenset[Clause], frozenset[Clause]]:
    """The symmetric difference of two same-vocabulary states, split as
    ``(inserts, deletes)``: ``new == (old - deletes) | inserts``.

    This is the syntactic footprint of an update morphism's application.
    """
    if old.vocabulary != new.vocabulary:
        raise VocabularyError(
            "clause_delta requires states over the same vocabulary"
        )
    inserts = frozenset(new.clauses - old.clauses)
    deletes = frozenset(old.clauses - new.clauses)
    return inserts, deletes


def insert_atom(vocabulary: Vocabulary, name: str) -> Morphism:
    """``insert[Ai]`` (Definition 1.3.3(a)): ``Ai <- 1``."""
    vocabulary.index_of(name)  # validate
    obs.inc("db.updates.insert_atom")
    _log_built("insert_atom", atom=name)
    return Morphism(vocabulary, vocabulary, {name: TRUE})


def delete_atom(vocabulary: Vocabulary, name: str) -> Morphism:
    """``delete[Ai]`` (Definition 1.3.3(b)): ``Ai <- 0``."""
    vocabulary.index_of(name)
    obs.inc("db.updates.delete_atom")
    _log_built("delete_atom", atom=name)
    return Morphism(vocabulary, vocabulary, {name: FALSE})


def modify_atom(vocabulary: Vocabulary, old: str, new: str) -> Morphism:
    """``modify[Ai, Aj]`` (Definition 1.3.3(c)): ``Ai <- 0``, ``Aj <- Ai | Aj``.

    Moving a tuple: the information at ``old`` becomes false regardless,
    and ``new`` becomes true if either it already was or ``old`` was.
    """
    vocabulary.index_of(old)
    vocabulary.index_of(new)
    obs.inc("db.updates.modify_atom")
    _log_built("modify_atom", old=old, new=new)
    if old == new:
        return Morphism.identity(vocabulary)
    return Morphism(
        vocabulary,
        vocabulary,
        {old: FALSE, new: Var(old) | Var(new)},
    )


def _require_consistent(literals: tuple[Literal, ...], label: str) -> None:
    if not literals_consistent(literals):
        if _LOG.isEnabledFor(_logging.WARNING):
            _LOG.warning(
                "morphism rejected",
                extra={"op": label, "literals": sorted(literals, key=abs)},
            )
        raise InconsistentLiteralsError(
            f"{label} contains a complementary literal pair"
        )


def insert_literals(vocabulary: Vocabulary, literals: Iterable[Literal]) -> Morphism:
    """``insert[Phi]`` for a consistent literal set (Definition 1.3.4(a)).

    Positive literals force their letter true, negative ones false;
    unmentioned letters are untouched.
    """
    literal_tuple = tuple(literals)
    _require_consistent(literal_tuple, "insert literal set")
    obs.inc("db.updates.insert_literals")
    _log_built("insert_literals", literals=sorted(literal_tuple, key=abs))
    assignment: dict[str, Formula] = {}
    for literal in literal_tuple:
        name = vocabulary.name_of(literal_index(literal))
        assignment[name] = TRUE if literal > 0 else FALSE
    return Morphism(vocabulary, vocabulary, assignment)


def modify_literals(
    vocabulary: Vocabulary,
    old_literals: Iterable[Literal],
    new_literals: Iterable[Literal],
) -> Morphism:
    """``modify[Phi1, Phi2]`` for consistent literal sets (Definition 1.3.4(b)).

    Worlds satisfying every literal of ``Phi1`` have those literals deleted
    (negations forced) and then the literals of ``Phi2`` inserted -- where
    the two prescriptions clash, the insertion wins, mirroring "delete ...
    and then insert".  Other worlds are unchanged.

    Each letter's image is the conditional formula
    ``(conj(Phi1) & forced_k) | (~conj(Phi1) & A_k)``.
    """
    old_tuple = tuple(old_literals)
    new_tuple = tuple(new_literals)
    _require_consistent(old_tuple, "modify precondition literal set")
    _require_consistent(new_tuple, "modify postcondition literal set")
    obs.inc("db.updates.modify_literals")
    _log_built(
        "modify_literals",
        old=sorted(old_tuple, key=abs),
        new=sorted(new_tuple, key=abs),
    )

    condition = conj(literal_to_formula(vocabulary, lit) for lit in old_tuple)

    # delete Phi1 (force each literal's negation), then insert Phi2 on top.
    forced: dict[str, Formula] = {}
    for literal in old_tuple:
        name = vocabulary.name_of(literal_index(literal))
        forced[name] = FALSE if literal > 0 else TRUE
    for literal in new_tuple:
        name = vocabulary.name_of(literal_index(literal))
        forced[name] = TRUE if literal > 0 else FALSE

    assignment: dict[str, Formula] = {}
    for name, value in forced.items():
        taken = condition & value
        kept = ~condition & Var(name)
        assignment[name] = taken | kept
    return Morphism(vocabulary, vocabulary, assignment)
