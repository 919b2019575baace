"""The clause-level ``genmask`` operator (Definition 2.3.7, Algorithm 2.3.8).

``genmask(Phi)`` computes the set of letters the clause set *semantically*
depends on -- the clause-level counterpart of ``s--mask[Dep[Mod[Phi]]]``.

The paper's algorithm tests each letter ``A`` in ``Prop[Phi]`` by
enumerating ``Ldiff[A, Phi]``: pairs of total assignments over ``Prop[Phi]``
that differ only on ``A``, looking for a pair on which the truth value of
``Phi`` differs.  This module runs that enumeration on ``Phi``'s truth
table over ``Prop[Phi]`` (:mod:`repro.logic.truthtable`): the letters of
``Prop[Phi]`` take local positions ``0 .. k-1`` in index order, bit ``w``
of the ``2^k``-bit table is the truth value of ``Phi`` under the
assignment ``w`` (an element of ``CLS[Phi]``), and the pairs of
``Ldiff[A, Phi]`` are the bits ``w`` and ``w`` with ``A``'s bit set, so
one shift-compare of the table tests all of them at once.  Up to
:data:`~repro.logic.truthtable.TABLE_LETTERS` letters the table is built
once per call; a wider ``Prop[Phi]`` is evaluated one slice per
assignment of the letters beyond, and each letter stops at the first
slice, or pair of slices, that shows it dependent.

Implementation note (deviation, documented): Algorithm 2.3.8 as printed
compares the two unit-resolution *residue sets* for inequality.  Taken
literally that test is wrong -- any clause mentioning ``A`` leaves
different satisfied-literal residues under the two assignments, so every
letter of ``Prop[Phi]`` would be declared dependent (e.g. for the
tautologous ``{A1 | ~A1}``... which the ClauseSet representation already
normalises away, but ``{A1 | A2, A1 | ~A2}`` still witnesses the bug: A2
is not dependent).  The evidently intended comparison -- and the one that
makes Theorem 2.3.9(a) true -- is of the *truth values*, i.e. whether the
residue contains the empty clause.  That is what is implemented (a bit of
the table is exactly that truth value); the enumeration structure and
complexity (Theorem 2.3.9(b)) are unchanged.  Cross-checked against
brute-force ``Dep[Mod[Phi]]`` and the Ldiff enumeration itself in the
tests and in bench E5.

Deciding dependence is NP-complete (Theorem 2.3.9(c)); no subexponential
shortcut exists, which is why ``genmask`` only ever takes *user-supplied*
update parameters in HLU (Section 4), never the large system state.
"""

from __future__ import annotations

from repro.cache import core as cache
from repro.obs import core as obs
from repro.logic.clauses import ClauseSet
from repro.logic.truthtable import ClauseTable

__all__ = ["depends_on", "clausal_genmask"]


def _local_table(clause_set: ClauseSet) -> tuple[list[int], ClauseTable]:
    """``Prop[Phi]`` in index order, and ``Phi``'s table over it."""
    indices = sorted(clause_set.prop_indices)
    return indices, ClauseTable(clause_set.clauses, indices)


def _count_table(table: ClauseTable) -> None:
    if table.evaluated:
        obs.inc("blu.c.genmask.table_bits", table.evaluated << table.width)


def depends_on(clause_set: ClauseSet, index: int) -> bool:
    """Does ``Phi`` semantically depend on the letter at ``index``?

    The Ldiff enumeration of Algorithm 2.3.8, on the truth table.
    """
    if index not in clause_set.prop_indices:
        return False
    obs.inc("blu.c.genmask.letters_tested")
    indices, table = _local_table(clause_set)
    dependent = table.depends(indices.index(index))
    _count_table(table)
    if dependent:
        obs.inc("blu.c.genmask.dependent_letters")
    return dependent


def clausal_genmask(clause_set: ClauseSet) -> frozenset[int]:
    """``BLU--C[genmask]``: the letters ``Phi`` depends on, as indices.

    >>> from repro.logic import Vocabulary
    >>> vocab = Vocabulary.standard(3)
    >>> sorted(clausal_genmask(ClauseSet.from_strs(vocab, ["A1 | A2"])))
    [0, 1]

    Memoised by the opt-in kernel cache on the state's fingerprint: the
    dependence set is determined by the clause contents alone, and the
    NP-complete enumeration is the most expensive thing a repeated
    update pipeline re-derives.
    """
    if cache._ENABLED:
        key = (clause_set.vocabulary, clause_set.fingerprint)
        hit = cache.lookup("blu.c.genmask", key)
        if hit is not cache.MISS:
            return hit
    indices, table = _local_table(clause_set)
    result = frozenset(indices[p] for p in table.dependent())
    if indices:
        obs.inc("blu.c.genmask.letters_tested", len(indices))
        _count_table(table)
    if result:
        obs.inc("blu.c.genmask.dependent_letters", len(result))
    if cache._ENABLED:
        cache.store("blu.c.genmask", key, result)
    return result
