"""The clause-level ``mask`` operator (Algorithm 2.3.5).

``mask(Phi, P)`` computes, clause by clause, a representation of the state
obtained by forgetting all information about the letters in ``P``.  The
algorithm is letter-at-a-time:

    for each A in P:  Phi <- drop({A}, rclosure(Phi, {A}))

i.e. close under resolution on ``A``, then discard every clause mentioning
``A`` -- the Davis-Putnam variable-elimination step.  The ``rclosure``
step manufactures exactly the ``A``-free consequences needed so that
dropping the ``A``-clauses loses nothing *about the other letters*
(Theorem 2.3.6(a)); what is lost is precisely the information about ``A``.

The paper notes (Theorem 2.3.6(b)) the worst case is
``O(Length[Phi]^(2^|P|))`` -- masking is inherently hard (it embeds the
implied-constraint problem for views).  Intermediate subsumption reduction
(``simplify=True``, the default) is one of the "correctness-preserving
optimizations" Section 4 anticipates; it does not change the worst case.

With ``simplify=True`` each letter is one round of resolution,
:func:`repro.logic.resolution.eliminate_letter`: the ``A``-clauses are
resolved pairwise once and the resolvents merged into the ``A``-free
rest, which keeps the state subsumption-free without re-reducing it.
``simplify=False`` runs the paper's raw ``rclosure`` then ``drop``.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.cache import core as cache
from repro.obs import core as obs
from repro.logic.clauses import ClauseSet
from repro.logic.resolution import drop, eliminate_letter, rclosure

__all__ = ["clausal_mask"]


def clausal_mask(
    clause_set: ClauseSet, indices: Iterable[int], simplify: bool = True
) -> ClauseSet:
    """``BLU--C[mask]``: forget the letters at ``indices``.

    >>> from repro.logic import Vocabulary
    >>> vocab = Vocabulary.standard(5)
    >>> phi = ClauseSet.from_strs(
    ...     vocab, ["~A1 | A3", "A1 | A4", "A4 | A5", "~A1 | ~A2 | ~A5"])
    >>> print(clausal_mask(phi, [0, 1]))
    {A3 | A4, A4 | A5}

    The whole mask is memoised by the opt-in kernel cache on the state's
    fingerprint plus the masked-letter set and ``simplify`` flag; a hit
    skips every per-letter elimination (and their spans/counters), which
    is where repeated-update workloads spend most of their time.
    """
    letter_set = frozenset(indices)
    if cache._ENABLED:
        key = (clause_set.vocabulary, clause_set.fingerprint, letter_set, simplify)
        hit = cache.lookup("blu.c.mask", key)
        if hit is not cache.MISS:
            return hit
    current = clause_set
    for index in sorted(letter_set):
        with obs.span("blu.c.mask.eliminate", letter=index, clauses_in=len(current)):
            if simplify:
                current = eliminate_letter(current, index)
            else:
                current = drop(rclosure(current, (index,)), (index,))
            obs.inc("blu.c.mask.letters_eliminated")
            obs.inc("blu.c.mask.clauses_retained", len(current))
    if cache._ENABLED:
        cache.store("blu.c.mask", key, current)
    return current
