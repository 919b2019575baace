"""``BLU--C``: the clause-level implementation of BLU (Definition 2.3.2,
Algorithms 2.3.3 / 2.3.5 / 2.3.8).

Concrete domains:

* sort **S** = sets of clauses over ``D`` (:class:`ClauseSet`);
* sort **M** = sets of proposition letters (``frozenset`` of vocabulary
  indices).

Operators (Algorithm 2.3.3 for the Boolean trio):

* ``assert`` = clause-set union (models intersect) --
  ``Theta(Length[Phi1] + Length[Phi2])``;
* ``combine`` = pairwise disjunction ``{phi1 v phi2}`` (models union) --
  ``Theta(Length[Phi1] x Length[Phi2])``;
* ``complement`` = the distribution procedure **C**: pick one literal from
  each clause and negate it, in all ways -- ``Theta(eps^Length)`` with
  ``eps = e^(1/e)``;
* ``mask`` = per-letter resolve-then-drop (:mod:`repro.blu.clausal_mask`);
* ``genmask`` = dependency testing (:mod:`repro.blu.clausal_genmask`).

``simplify=True`` (default) applies tautology elimination and subsumption
reduction to operator outputs -- Section 4's "correctness-preserving
optimizations".  Pass ``simplify=False`` to measure the raw algorithms
(used by the complexity benchmarks E1--E5).
"""

from __future__ import annotations

from typing import Any

from repro.obs import core as obs
from repro.blu.clausal_genmask import clausal_genmask
from repro.blu.clausal_mask import clausal_mask
from repro.blu.implementation import Implementation
from repro.errors import VocabularyMismatchError
from repro.logic.clauses import Clause, ClauseSet, clause_is_tautologous
from repro.logic.propositions import Vocabulary

__all__ = ["ClausalImplementation", "clausal_combine", "clausal_complement"]


def clausal_combine(left: ClauseSet, right: ClauseSet, simplify: bool = True) -> ClauseSet:
    """``BLU--C[combine]`` (Algorithm 2.3.3): all pairwise disjunctions.

    The CNF of ``conj(left) | conj(right)``; tautologous products are
    dropped (they denote 1 inside a conjunction).
    """
    with obs.op("blu.c.combine", left=len(left), right=len(right)):
        product: set[Clause] = set()
        dropped = 0
        for clause_left in left.clauses:
            for clause_right in right.clauses:
                merged = clause_left | clause_right
                if clause_is_tautologous(merged):
                    dropped += 1
                else:
                    product.add(merged)
        if left.vocabulary == right.vocabulary:
            # Every product is a union of already-validated literals with
            # tautologies filtered above: skip the re-validating constructor.
            result = ClauseSet._trusted(left.vocabulary, frozenset(product))
        else:
            result = ClauseSet(left.vocabulary, product)
        if simplify:
            result = result.reduce()
        obs.inc("blu.c.combine.calls")
        obs.inc("blu.c.combine.products", len(left) * len(right))
        obs.inc("blu.c.combine.tautologies_dropped", dropped)
        obs.observe("blu.c.combine.clauses_out", len(result))
        return result


def clausal_complement(clause_set: ClauseSet, simplify: bool = True) -> ClauseSet:
    """``BLU--C[complement]`` (procedure **C** of Algorithm 2.3.3).

    Builds the CNF of ``~conj(Phi)`` by distribution: starting from the
    singleton ``{box}``, each clause ``gamma`` of ``Phi`` multiplies the
    accumulator by its negated literals.  Output size is the product of
    the clause lengths -- maximised, for fixed total Length, at clause
    length ``e``, giving the ``eps = e^(1/e)`` base of Theorem 2.3.4(b.iii).
    """
    with obs.op("blu.c.complement", clauses_in=len(clause_set)):
        accumulator: set[Clause] = {frozenset()}
        widenings = 0
        for gamma in clause_set.clauses:
            next_accumulator: set[Clause] = set()
            for delta in accumulator:
                for literal in gamma:
                    widened = delta | {-literal}
                    if not clause_is_tautologous(widened):
                        next_accumulator.add(widened)
                    widenings += 1
            accumulator = next_accumulator
        # Accumulator clauses are built from negations of validated literals
        # and tautology-checked on the way in: the trusted constructor skips
        # the per-literal re-validation.
        result = ClauseSet._trusted(clause_set.vocabulary, frozenset(accumulator))
        if simplify:
            result = result.reduce()
        obs.inc("blu.c.complement.calls")
        obs.inc("blu.c.complement.widenings", widenings)
        obs.observe("blu.c.complement.clauses_out", len(result))
        return result


class ClausalImplementation(Implementation):
    """The clause-level algebra ``BLU--C`` over a fixed vocabulary.

    >>> from repro.logic import Vocabulary
    >>> from repro.blu.parser import parse_program
    >>> vocab = Vocabulary.standard(5)
    >>> impl = ClausalImplementation(vocab)
    >>> phi = ClauseSet.from_strs(
    ...     vocab, ["~A1 | A3", "A1 | A4", "A4 | A5", "~A1 | ~A2 | ~A5"])
    >>> w = ClauseSet.from_strs(vocab, ["A1 | A2"])
    >>> insert = parse_program(
    ...     "(lambda (s0 s1) (assert (mask s0 (genmask s1)) s1))")
    >>> print(impl.run(insert, phi, w))
    {A1 | A2, A3 | A4, A4 | A5}
    """

    def __init__(self, vocabulary: Vocabulary, simplify: bool = True):
        self._vocabulary = vocabulary
        self._simplify = simplify

    @property
    def vocabulary(self) -> Vocabulary:
        """The reference schema's vocabulary."""
        return self._vocabulary

    @property
    def simplify(self) -> bool:
        """Whether operator outputs are subsumption-reduced."""
        return self._simplify

    # --- domains ---------------------------------------------------------------

    def is_state(self, value: Any) -> bool:
        return isinstance(value, ClauseSet) and value.vocabulary == self._vocabulary

    def is_mask(self, value: Any) -> bool:
        if not isinstance(value, frozenset):
            return False
        return all(
            isinstance(index, int) and 0 <= index < len(self._vocabulary)
            for index in value
        )

    def mask_of_names(self, names) -> frozenset[int]:
        """Convenience: a sort-M value from proposition names."""
        return frozenset(self._vocabulary.index_of(name) for name in names)

    # --- operators ---------------------------------------------------------------

    def op_assert(self, state: ClauseSet, other: ClauseSet) -> ClauseSet:
        """Clause-set union: ``Theta(Length1 + Length2)``; simplified, the
        reduced union (:meth:`ClauseSet.merge`)."""
        self._check_state(state)
        self._check_state(other)
        with obs.op("blu.c.assert", left=len(state), right=len(other)):
            result = state.merge(other) if self._simplify else state.union(other)
            obs.inc("blu.c.assert.calls")
            obs.inc("blu.c.assert.clauses_out", len(result))
            obs.observe("blu.c.state_clauses", len(result))
            return result

    def op_combine(self, state: ClauseSet, other: ClauseSet) -> ClauseSet:
        self._check_state(state)
        self._check_state(other)
        return clausal_combine(state, other, simplify=self._simplify)

    def op_complement(self, state: ClauseSet) -> ClauseSet:
        self._check_state(state)
        return clausal_complement(state, simplify=self._simplify)

    def op_mask(self, state: ClauseSet, mask: frozenset[int]) -> ClauseSet:
        self._check_state(state)
        if not self.is_mask(mask):
            raise VocabularyMismatchError(
                "clause-level masks are frozensets of vocabulary indices"
            )
        with obs.op("blu.c.mask", letters=len(mask), clauses_in=len(state)):
            result = clausal_mask(state, mask, simplify=self._simplify)
            obs.inc("blu.c.mask.calls")
            obs.observe("blu.c.state_clauses", len(result))
            return result

    def op_genmask(self, state: ClauseSet) -> frozenset[int]:
        self._check_state(state)
        with obs.span("blu.c.genmask", clauses_in=len(state)):
            obs.inc("blu.c.genmask.calls")
            return clausal_genmask(state)

    # --- conversions from user-level update parameters ---------------------------

    def state_from_formulas(self, formulas) -> ClauseSet:
        """Sort-S value denoting ``formulas`` (HLU argument conversion)."""
        from repro.logic.cnf import formulas_to_clauses

        return formulas_to_clauses(formulas, self._vocabulary)

    def mask_from_names(self, names) -> frozenset[int]:
        """Sort-M value masking the named letters."""
        return self.mask_of_names(names)

    def _check_state(self, state: Any) -> None:
        if not self.is_state(state):
            raise VocabularyMismatchError(
                "state is not a ClauseSet over this implementation's vocabulary"
            )

    def __repr__(self) -> str:
        return (
            f"ClausalImplementation({self._vocabulary!r}, simplify={self._simplify})"
        )
