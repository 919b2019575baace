"""Prime implicates: the canonical clausal form of a theory.

A clause ``c`` is an *implicate* of ``Phi`` when ``Phi |= c``; it is a
*prime* implicate when no proper subclause is also an implicate.  The set
of prime implicates is the strongest, subsumption-free clausal
presentation of a theory -- a canonical form: two clause sets are
logically equivalent iff their prime-implicate sets coincide.

Why this lives here: the paper's clausal states are only ever defined up
to logical equivalence (its algorithms freely simplify), so a canonical
form is what lets the library *display* and *compare* states
deterministically (:meth:`ClauseSet.reduce` removes subsumed clauses but
is presentation-dependent; prime implicates are not).  It also realises
the Section 4 remark that keeping states "fully expanded to include all
consequences" trivialises masking -- :func:`mask_via_implicates` is that
alternative implementation, ablated against resolve-then-drop in
``benchmarks/bench_a02_ablations.py``.

The computation is Tison-style: saturate under resolution, keep the
subsumption-minimal clauses.  Exponential, as it must be.  Both stages
ride the indexed kernels: saturation is worklist-driven over the literal
occurrence index (:func:`repro.logic.resolution.resolution_closure`) and
the subsumption sweep is signature-filtered (:meth:`ClauseSet.reduce`),
which only changes how the candidates are enumerated, never the result.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.cache import core as cache
from repro.obs import core as obs
from repro.logic.clauses import Clause, ClauseSet
from repro.logic.resolution import resolution_closure

__all__ = ["prime_implicates", "is_implicate", "is_prime_implicate", "mask_via_implicates"]


def prime_implicates(clause_set: ClauseSet, max_clauses: int = 100_000) -> ClauseSet:
    """The prime implicates of ``clause_set``.

    >>> from repro.logic import Vocabulary
    >>> vocab = Vocabulary.standard(3)
    >>> cs = ClauseSet.from_strs(vocab, ["A1 | A2", "~A1 | A3"])
    >>> print(prime_implicates(cs))
    {A1 | A2, ~A1 | A3, A2 | A3}

    An unsatisfiable set has the single prime implicate 0 (the empty
    clause); a tautologous set has none.

    The underlying saturation is exponential; when its working set
    outgrows ``max_clauses`` the computation raises
    :class:`repro.errors.ClosureBudgetError` (a dedicated budget error --
    also a :class:`MemoryError` subclass for older callers) rather than
    returning a silently truncated implicate set.

    Memoised by the opt-in kernel cache on the clause set's fingerprint
    plus ``max_clauses``; a top-level hit also skips the (separately
    cached) closure and reduction stages.  A run that exceeds the budget
    is never stored.
    """
    if cache._ENABLED:
        key = (clause_set.vocabulary, clause_set.fingerprint, max_clauses)
        hit = cache.lookup("logic.prime_implicates", key)
        if hit is not cache.MISS:
            return hit
    with obs.span("logic.prime_implicates", clauses_in=len(clause_set)):
        closed = resolution_closure(clause_set, max_clauses=max_clauses)
        reduced = closed.reduce()
        obs.inc("logic.implicates.candidates", len(closed))
        obs.inc("logic.implicates.survivors", len(reduced))
    if cache._ENABLED:
        cache.store("logic.prime_implicates", key, reduced)
    return reduced


def is_implicate(clause_set: ClauseSet, clause: Clause) -> bool:
    """``Phi |= clause``?  (SAT refutation; tautologies are trivially
    implicates but carry no information.)"""
    from repro.logic.clauses import clause_is_tautologous
    from repro.logic.sat import entails_clause

    if clause_is_tautologous(clause):
        return True
    return entails_clause(clause_set, clause)


def is_prime_implicate(clause_set: ClauseSet, clause: Clause) -> bool:
    """An implicate none of whose proper subclauses is an implicate."""
    if not is_implicate(clause_set, clause):
        return False
    return not any(
        is_implicate(clause_set, clause - {literal}) for literal in clause
    )


def mask_via_implicates(
    clause_set: ClauseSet, indices: Iterable[int], max_clauses: int = 100_000
) -> ClauseSet:
    """Masking by the Section 4 alternative: fully expand to all (prime)
    consequences, then simply drop the clauses mentioning masked letters.

    "We might demand that all sets of clauses be fully expanded to
    include all consequences.  Masking then becomes trivial.  Of course,
    other operations then become intolerably slow."  Semantically equal
    to :func:`repro.blu.clausal_mask.clausal_mask`; the cost moves from
    the mask itself into maintaining the expansion.
    """
    expanded = prime_implicates(clause_set, max_clauses=max_clauses)
    return expanded.without_letters(indices)
