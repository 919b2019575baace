"""Resolution machinery (Chang & Lee [2] in the paper's references).

Provides the primitives the clausal implementation ``BLU--C`` is built on:

* :func:`resolvent` -- ``Resolvent(phi1, phi2, A)`` of Section 1.1;
* :func:`rclosure` -- closure under resolution on a set of letters
  (Algorithm 2.3.5);
* :func:`drop` -- discard clauses mentioning given letters (Algorithm 2.3.5);
* :func:`eliminate_letter` -- one Davis-Putnam variable-elimination step,
  i.e. the reduced ``drop({A}, rclosure(Phi, {A}))`` in one round of
  resolution, the body of ``BLU--C[mask]``;
* :func:`unit_resolve` -- the paper's ``unitres`` (Algorithm 2.3.8);
* :func:`resolution_closure` -- full saturation (used by the
  prime-implicate engine and, on small instances, by refutation-
  completeness tests).

The fixpoints are driven by a :class:`~repro.logic.occurrence.OccurrenceIndex`
(literal -> clauses), so each pass touches only the clauses containing the
pivot literal instead of rescanning the whole working set per letter.  The
paper's Theta-bounds (2.3.4/2.3.6) and the produced clause sets are
unchanged -- the index is a correctness-preserving optimisation in the
Section 4 sense, cross-checked against the seed full-scan implementations
in ``tests/logic/test_kernel_differential.py``.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable

from repro.cache import core as cache
from repro.errors import ClosureBudgetError, VocabularyError
from repro.obs import core as obs
from repro.obs import provenance
from repro.logic.clauses import (
    Clause,
    ClauseSet,
    Literal,
    clause_is_tautologous,
    clause_sort_key,
    make_literal,
)
from repro.logic.occurrence import OccurrenceIndex

__all__ = [
    "resolvent",
    "rclosure",
    "drop",
    "eliminate_letter",
    "unit_resolve",
    "resolution_closure",
]


def resolvent(clause_pos: Clause, clause_neg: Clause, index: int) -> Clause | None:
    """The resolvent of two clauses on the letter at vocabulary ``index``.

    ``clause_pos`` must contain the positive literal and ``clause_neg`` the
    negative one; returns ``None`` when the resolvent does not exist or is
    tautologous (a tautologous resolvent carries no information and every
    classical treatment discards it).  Counter-free: its callers count
    the pairs it discards.
    """
    positive = make_literal(index, positive=True)
    negative = -positive
    if positive not in clause_pos or negative not in clause_neg:
        return None
    merged = (clause_pos - {positive}) | (clause_neg - {negative})
    if clause_is_tautologous(merged):
        return None
    return merged


def _saturate(
    clauses: Iterable[Clause],
    pivot_indices: frozenset[int] | None,
    max_clauses: int | None = None,
    stop_on: Clause | None = None,
) -> tuple[OccurrenceIndex, int, int, int]:
    """Worklist resolution closure on the pivot letters (all letters if None).

    Every clause enters the worklist exactly once; when it is processed,
    the occurrence index serves up exactly the opposite-polarity partners
    for each of its pivot literals.  Any resolvable pair ``(C1, C2)`` is
    attempted no later than when the later-queued of the two is processed
    (the earlier one is in the index by then), so the result is genuinely
    closed under resolution on the pivot letters -- the same fixpoint the
    seed's rescan-until-stable loops computed, without the rescans.  All
    inputs are indexed up front, so a pair of inputs is attempted when the
    earlier-queued one is processed and skipped when the later one is:
    each input pair is resolved once.  A resolvent still meets every
    input, which was processed before the resolvent was indexed.

    Exceeding ``max_clauses`` raises :class:`ClosureBudgetError`.  When
    ``stop_on`` is given, the saturation returns early as soon as that
    exact clause is formed (it may also be an input) -- the explain
    drivers use this to stop a refutation at the empty clause instead of
    paying for the full closure.  The early exit returns a *partial*
    index, so the memoised closure wrappers never pass ``stop_on``.

    With :mod:`repro.obs.provenance` enabled, every input clause and
    every resolvent is recorded into the context recorder (rule
    ``"resolve"``, parents ``(positive, negative)``, the pivot letter
    index as the attribute); inputs are recorded in canonical order so
    ids are stable across runs.

    Tautologous pairs are added to ``logic.resolution.tautologies_discarded``
    with one increment per call (a partner always holds the complementary
    literal, so ``resolvent`` returns ``None`` only for those).

    Returns ``(index, resolvents_formed, partner_hits, scan_skips)`` where
    ``partner_hits`` counts clauses served by index lookups and
    ``scan_skips`` counts the clauses a per-letter full scan would have
    examined but the index never touched.
    """
    occ = OccurrenceIndex(clauses)
    rec = provenance.recorder() if provenance._ENABLED else None
    if rec is not None:
        ordered_inputs = sorted(occ, key=clause_sort_key)
        for input_clause in ordered_inputs:
            rec.ensure(input_clause)
        queue: deque[Clause] = deque(ordered_inputs)
    else:
        queue = deque(occ)
    input_rank = {clause: rank for rank, clause in enumerate(queue)}
    formed = 0
    hits = 0
    skips = 0
    if stop_on is not None and stop_on in occ:
        return occ, formed, hits, skips
    tautologies = 0
    try:
        while queue:
            clause = queue.popleft()
            rank = input_rank.get(clause)
            for literal in clause:
                if pivot_indices is not None and (abs(literal) - 1) not in pivot_indices:
                    continue
                partners = occ.clauses_with(-literal)
                if not partners:
                    skips += len(occ)
                    continue
                index = abs(literal) - 1
                hits += len(partners)
                skips += len(occ) - len(partners)
                # Copy: resolvents never contain the pivot letter (both inputs
                # are tautology-free), so this bucket cannot grow mid-loop, but
                # adding resolvents mutates sibling buckets of the same dict.
                for partner in list(partners):
                    if rank is not None and input_rank.get(partner, rank) < rank:
                        continue
                    if literal > 0:
                        res = resolvent(clause, partner, index)
                    else:
                        res = resolvent(partner, clause, index)
                    if res is None:
                        tautologies += 1
                    elif occ.add(res):
                        queue.append(res)
                        formed += 1
                        if rec is not None:
                            if literal > 0:
                                parents = (rec.ensure(clause), rec.ensure(partner))
                            else:
                                parents = (rec.ensure(partner), rec.ensure(clause))
                            rec.record(res, "resolve", parents, pivot=index)
                        if res == stop_on:
                            return occ, formed, hits, skips
                        if max_clauses is not None and len(occ) > max_clauses:
                            raise ClosureBudgetError(
                                f"resolution closure exceeded {max_clauses} clauses",
                                budget=max_clauses,
                                formed=formed,
                            )
        return occ, formed, hits, skips
    finally:
        # One increment per call, on every exit (an early stop_on
        # return and a budget overflow count what they discarded).
        if tautologies:
            obs.inc("logic.resolution.tautologies_discarded", tautologies)


def _check_letter(clause_set: ClauseSet, index: int) -> None:
    size = len(clause_set.vocabulary)
    if not 0 <= index < size:
        raise VocabularyError(
            f"letter index {index} is outside the vocabulary (size {size})"
        )


def rclosure(clause_set: ClauseSet, indices: Iterable[int]) -> ClauseSet:
    """Close ``clause_set`` under resolution on the given letters.

    Faithful to Algorithm 2.3.5's ``rclosure``: the result contains every
    (non-tautologous) resolvent derivable by resolving on the listed
    letters, including resolvents of resolvents, until a fixpoint.  Driven
    by the occurrence index rather than the seed's per-letter rescan of
    the whole working set.

    Memoised by the opt-in kernel cache (``repro.cache``) on the clause
    set's content fingerprint plus the pivot set: the closure is a pure
    function of immutable inputs, so a hit skips the saturation (and its
    work counters) entirely.  A pivot outside the vocabulary raises
    :class:`VocabularyError`, as in :func:`eliminate_letter`, before the
    cache is consulted.
    """
    pivot_indices = frozenset(indices)
    for index in pivot_indices:
        _check_letter(clause_set, index)
    if cache._ENABLED:
        key = (clause_set.vocabulary, clause_set.fingerprint, pivot_indices)
        hit = cache.lookup("logic.rclosure", key)
        if hit is not cache.MISS:
            return hit
    with obs.op(
        "logic.rclosure", pivots=len(pivot_indices), clauses_in=len(clause_set)
    ) as current:
        occ, formed, hits, skips = _saturate(clause_set.clauses, pivot_indices)
        if formed:
            obs.inc("logic.resolution.resolvents_formed", formed)
        if hits:
            obs.inc("logic.resolution.index_hits", hits)
        if skips:
            obs.inc("logic.resolution.index_skips", skips)
        current.set(clauses_out=len(occ), resolvents_formed=formed)
        result = ClauseSet._trusted(clause_set.vocabulary, frozenset(occ))
    if cache._ENABLED:
        cache.store("logic.rclosure", key, result)
    return result


def drop(clause_set: ClauseSet, indices: Iterable[int]) -> ClauseSet:
    """Algorithm 2.3.5's ``drop``: discard clauses mentioning any listed letter."""
    return clause_set.without_letters(indices)


def _polarity_words(clause: Clause) -> tuple[Clause, int, int]:
    """``clause`` with its positive-letter and negative-letter words: bit
    ``|l|`` of the first is set for each positive literal ``l``, of the
    second for each negative one."""
    positive = negative = 0
    for literal in clause:
        if literal > 0:
            positive |= 1 << literal
        else:
            negative |= 1 << -literal
    return clause, positive, negative


def eliminate_letter(clause_set: ClauseSet, index: int) -> ClauseSet:
    """One Davis-Putnam step: ``drop({A}, rclosure(Phi, {A}))``, reduced.

    This computes the clausal representation of ``exists A . Phi`` -- the
    logically strongest consequence of ``Phi`` not mentioning ``A`` -- and
    is the per-letter body of ``BLU--C[mask]`` (Algorithm 2.3.5) with the
    subsumption reduction Section 4 anticipates.  One round of resolution
    is the whole closure: a resolvent on ``A`` never contains ``A``, so
    it resolves with nothing further on ``A``.  The step splits the
    clauses on ``A``, resolves each positive occurrence against each
    negative one once, and merges the resolvents into the ``A``-free rest
    (:meth:`ClauseSet.merge`, incremental when ``Phi`` carries the reduced
    mark, which the rest inherits).  A letter that does not occur leaves
    ``Phi.reduce()``: ``Phi`` itself when marked.

    Each ``A``-clause is stripped of ``A`` and given its polarity words
    once per step.  A pair is tautologous exactly when one side has a
    letter positively that the other has negatively (neither side is
    tautologous), i.e. when ``a_pos & b_neg | a_neg & b_pos`` is nonzero;
    only the other pairs build their resolvent ``a | b``.  This is the
    set :func:`resolvent` gives pair by pair.

    Distinct resolvents not already in ``Phi`` are counted as
    ``logic.resolution.resolvents_formed`` and tautologous pairs as
    ``logic.resolution.tautologies_discarded``, exactly as :func:`rclosure`
    counts them, with one increment each per step.
    """
    _check_letter(clause_set, index)
    positive = index + 1
    with_positive: list[tuple[Clause, int, int]] = []
    with_negative: list[tuple[Clause, int, int]] = []
    rest: list[Clause] = []
    for clause in clause_set.clauses:
        if positive in clause:
            with_positive.append(_polarity_words(clause - {positive}))
        elif -positive in clause:
            with_negative.append(_polarity_words(clause - {-positive}))
        else:
            rest.append(clause)
    if not with_positive and not with_negative:
        return clause_set.reduce()
    resolvents: set[Clause] = set()
    resolved = 0
    for a, a_pos, a_neg in with_positive:
        formed_with_a = [
            a | b for b, b_pos, b_neg in with_negative
            if not (a_pos & b_neg or a_neg & b_pos)
        ]
        resolved += len(formed_with_a)
        resolvents.update(formed_with_a)
    tautologies = len(with_positive) * len(with_negative) - resolved
    if tautologies:
        obs.inc("logic.resolution.tautologies_discarded", tautologies)
    vocabulary = clause_set.vocabulary
    kept = ClauseSet._trusted(vocabulary, frozenset(rest), reduced=clause_set.known_reduced)
    formed = len(resolvents.difference(kept.clauses))
    if formed:
        obs.inc("logic.resolution.resolvents_formed", formed)
    return kept.merge(ClauseSet._trusted(vocabulary, frozenset(resolvents)))


def unit_resolve(clause_set: ClauseSet, literals: Iterable[Literal]) -> ClauseSet:
    """The paper's ``unitres`` (Algorithm 2.3.8), literally.

    For each literal ``l`` in ``literals``, every occurrence of ``~l`` is
    struck from every clause.  Note this does *not* delete satisfied
    clauses; with a total assignment, a clause reduces to the empty clause
    exactly when the assignment falsifies it.

    The occurrence index locates the clauses containing ``~l`` directly;
    the seed scanned the whole working set once per literal.

    With :mod:`repro.obs.provenance` enabled, each given literal is
    recorded as a ``"given"`` unit clause and every strike as a
    ``"resolve"`` step against that unit (striking ``~l`` from ``C`` *is*
    resolving ``C`` with ``{l}`` on ``l``'s letter).
    """
    literal_list = list(literals)
    if not literal_list:
        return clause_set
    occ = OccurrenceIndex(clause_set.clauses)
    rec = provenance.recorder() if provenance._ENABLED else None
    struck = 0
    hits = 0
    skips = 0
    for literal in literal_list:
        negated = -literal
        unit_id = rec.record(frozenset((literal,)), "given") if rec is not None else 0
        affected = sorted(occ.clauses_with(negated), key=clause_sort_key) if (
            rec is not None
        ) else list(occ.clauses_with(negated))
        hits += len(affected)
        skips += len(occ) - len(affected)
        for clause in affected:
            occ.discard(clause)
            reduced = clause - {negated}
            if not occ.add(reduced):
                # Two distinct clauses collapsed to the same reduced
                # clause (or it was already present): nothing new was
                # added, so neither the strike counter nor provenance
                # should claim a fresh derivation.
                continue
            struck += 1
            if rec is not None:
                source_id = rec.ensure(clause)
                if literal > 0:
                    rec.record(reduced, "resolve", (unit_id, source_id),
                               pivot=literal - 1)
                else:
                    rec.record(reduced, "resolve", (source_id, unit_id),
                               pivot=-literal - 1)
    if struck:
        obs.inc("logic.resolution.literals_struck", struck)
    if hits:
        obs.inc("logic.resolution.index_hits", hits)
    if skips:
        obs.inc("logic.resolution.index_skips", skips)
    return ClauseSet._trusted(clause_set.vocabulary, frozenset(occ))


def resolution_closure(clause_set: ClauseSet, max_clauses: int = 100_000) -> ClauseSet:
    """Saturate under resolution on *every* letter (total resolution).

    The basis of the prime-implicate engine; guarded by ``max_clauses``
    since saturation is exponential -- exceeding the budget raises
    :class:`repro.errors.ClosureBudgetError` (a :class:`MemoryError`
    subclass, for callers that treated the budget as an out-of-memory
    condition).  Memoised by the opt-in kernel cache on the clause set's
    fingerprint plus ``max_clauses`` (a run that raises is never stored).
    """
    if cache._ENABLED:
        key = (clause_set.vocabulary, clause_set.fingerprint, max_clauses)
        hit = cache.lookup("logic.resolution_closure", key)
        if hit is not cache.MISS:
            return hit
    occ, formed, hits, skips = _saturate(
        clause_set.clauses, None, max_clauses=max_clauses
    )
    if formed:
        obs.inc("logic.resolution.resolvents_formed", formed)
    if hits:
        obs.inc("logic.resolution.index_hits", hits)
    if skips:
        obs.inc("logic.resolution.index_skips", skips)
    result = ClauseSet._trusted(clause_set.vocabulary, frozenset(occ))
    if cache._ENABLED:
        cache.store("logic.resolution_closure", key, result)
    return result
