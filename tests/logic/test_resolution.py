"""Tests for resolution machinery (repro.logic.resolution)."""

import pytest

from repro.logic.clauses import ClauseSet, clause_of, make_literal
from repro.logic.propositions import Vocabulary
from repro.logic.resolution import (
    drop,
    eliminate_letter,
    rclosure,
    resolution_closure,
    resolvent,
    unit_resolve,
)
from repro.logic.semantics import models_of_clauses
from repro.logic.structures import saturate_on

VOCAB = Vocabulary.standard(5)


class TestResolvent:
    def test_basic_resolvent(self):
        pos = clause_of([make_literal(0), make_literal(2)])          # A1 | A3
        neg = clause_of([make_literal(0, False), make_literal(3)])   # ~A1 | A4
        assert resolvent(pos, neg, 0) == clause_of([make_literal(2), make_literal(3)])

    def test_unit_clauses_give_empty_clause(self):
        assert resolvent(clause_of([1]), clause_of([-1]), 0) == frozenset()

    def test_missing_literal_returns_none(self):
        assert resolvent(clause_of([2]), clause_of([-1]), 0) is None

    def test_tautologous_resolvent_suppressed(self):
        pos = clause_of([make_literal(0), make_literal(1)])           # A1 | A2
        neg = clause_of([make_literal(0, False), make_literal(1, False)])  # ~A1 | ~A2
        assert resolvent(pos, neg, 0) is None

    def test_duplicate_literals_merge(self):
        pos = clause_of([make_literal(0), make_literal(2)])
        neg = clause_of([make_literal(0, False), make_literal(2)])
        assert resolvent(pos, neg, 0) == clause_of([make_literal(2)])

    def test_counts_nothing(self):
        # Its callers count the pairs it discards, once per call of theirs.
        from repro.obs import core as obs

        pos = clause_of([make_literal(0), make_literal(1)])
        neg = clause_of([make_literal(0, False), make_literal(1, False)])
        obs.enable()
        obs.reset()
        try:
            assert resolvent(pos, neg, 0) is None
            assert obs.counters().snapshot() == {}
        finally:
            obs.reset()
            obs.disable()


class TestRclosure:
    def test_adds_resolvents_on_listed_letters_only(self):
        cs = ClauseSet.from_strs(VOCAB, ["A1 | A2", "~A1 | A3", "A2 | A4", "~A2 | A5"])
        closed = rclosure(cs, [0])
        assert clause_of([make_literal(1), make_literal(2)]) in closed  # A2 | A3
        # No resolution on A2 was requested.
        assert clause_of([make_literal(3), make_literal(4)]) not in closed

    def test_reaches_fixpoint_across_letters(self):
        # Chain: A1|A2, ~A2|A3, ~A3|A4; closing on {A2, A3} must derive A1|A4.
        cs = ClauseSet.from_strs(VOCAB, ["A1 | A2", "~A2 | A3", "~A3 | A4"])
        closed = rclosure(cs, [1, 2])
        assert clause_of([make_literal(0), make_literal(3)]) in closed

    def test_original_clauses_retained(self):
        cs = ClauseSet.from_strs(VOCAB, ["A1 | A2", "~A1 | A3"])
        closed = rclosure(cs, [0])
        assert cs.clauses <= closed.clauses

    def test_closure_preserves_models(self):
        cs = ClauseSet.from_strs(VOCAB, ["A1 | A2", "~A1 | A3", "~A2 | A3"])
        assert models_of_clauses(rclosure(cs, [0, 1])) == models_of_clauses(cs)

    def test_rejects_letters_outside_the_vocabulary(self):
        # As eliminate_letter does; the check comes before the memo-cache,
        # so no closure is stored under a letter that does not exist.
        from repro.cache import core as cache
        from repro.errors import VocabularyError

        cs = ClauseSet.from_strs(VOCAB, ["A1 | A2", "~A1 | A3"])
        cache.clear_caches()
        cache.enable_cache()
        try:
            for indices in ([-1], [5], [0, 5]):
                with pytest.raises(VocabularyError):
                    rclosure(cs, indices)
            assert "logic.rclosure" not in cache.cache_stats()
        finally:
            cache.disable_cache()
            cache.clear_caches()


class TestRclosurePairSchedule:
    """Each pair of input clauses is resolved once, not once from each
    side: all inputs are indexed before the worklist starts."""

    def test_each_input_pair_resolved_once(self, monkeypatch):
        from repro.logic import resolution
        from repro.obs import core as obs

        calls = []

        def counting_resolvent(clause_pos, clause_neg, index):
            calls.append((clause_pos, clause_neg))
            return resolvent(clause_pos, clause_neg, index)

        monkeypatch.setattr(resolution, "resolvent", counting_resolvent)
        cs = ClauseSet.from_strs(VOCAB, ["A1 | A2", "~A1 | A3", "~A1 | ~A2"])
        obs.enable()
        obs.reset()
        try:
            closed = rclosure(cs, [0])
            counts = obs.counters().snapshot()
        finally:
            obs.reset()
            obs.disable()
        assert closed == ClauseSet.from_strs(
            VOCAB, ["A1 | A2", "~A1 | A3", "~A1 | ~A2", "A2 | A3"]
        )
        assert len(calls) == 2
        assert len(set(calls)) == 2
        assert counts["logic.resolution.tautologies_discarded"] == 1
        assert counts["logic.resolution.resolvents_formed"] == 1


class TestDrop:
    def test_drop_removes_mentioning_clauses(self):
        cs = ClauseSet.from_strs(VOCAB, ["A1 | A2", "A3", "~A1"])
        assert drop(cs, [0]) == ClauseSet.from_strs(VOCAB, ["A3"])


class TestEliminateLetter:
    """eliminate_letter computes exists-A projection -- the mask kernel."""

    def test_paper_example_masking(self):
        # Example 3.1.5: mask Phi on {A1, A2} -> {A4 | A5, A3 | A4}.
        phi = ClauseSet.from_strs(
            VOCAB, ["~A1 | A3", "A1 | A4", "A4 | A5", "~A1 | ~A2 | ~A5"]
        )
        masked = eliminate_letter(eliminate_letter(phi, 0), 1)
        assert masked == ClauseSet.from_strs(VOCAB, ["A4 | A5", "A3 | A4"])

    def test_projection_matches_world_saturation(self):
        # Mod[eliminate A] must equal the A-saturation of Mod (Thm 2.3.6 core).
        samples = [
            ["A1 | A2", "~A1 | A3"],
            ["A1", "~A1 | A2", "A3 | ~A2"],
            ["A1 | A2 | A3", "~A1 | ~A2", "~A3 | A4"],
        ]
        for strs in samples:
            cs = ClauseSet.from_strs(VOCAB, strs)
            for index in range(3):
                projected = eliminate_letter(cs, index)
                expected = saturate_on(models_of_clauses(cs), {index})
                assert models_of_clauses(projected) == expected

    def test_counts_once_per_step(self, monkeypatch):
        # Two tautologous pairs and two resolvents: one increment of each
        # counter per step, as rclosure's saturation makes per call.
        from repro.obs import core as obs

        calls = []
        monkeypatch.setattr(
            obs._REGISTRY, "inc", lambda name, amount=1: calls.append((name, amount))
        )
        cs = ClauseSet.from_strs(
            VOCAB, ["A1 | A2", "A1 | ~A3", "~A1 | ~A2", "~A1 | A3 | A4"]
        )
        expected = [
            ("logic.resolution.resolvents_formed", 2),
            ("logic.resolution.tautologies_discarded", 2),
        ]
        obs.enable()
        try:
            for kernel in (lambda: eliminate_letter(cs, 0), lambda: rclosure(cs, [0])):
                calls.clear()
                kernel()
                assert sorted(c for c in calls if c[0] in dict(expected)) == expected
        finally:
            obs.disable()

    def test_eliminated_letter_absent(self):
        cs = ClauseSet.from_strs(VOCAB, ["A1 | A2", "~A1 | A3"])
        assert 0 not in eliminate_letter(cs, 0).prop_indices

    def test_eliminating_unused_letter_is_identity_up_to_reduce(self):
        cs = ClauseSet.from_strs(VOCAB, ["A1 | A2"])
        assert eliminate_letter(cs, 4) == cs

    def test_rejects_letters_outside_the_vocabulary(self):
        from repro.errors import VocabularyError

        cs = ClauseSet.from_strs(VOCAB, ["A1 | A2"])
        for index in (-1, 5):
            with pytest.raises(VocabularyError):
                eliminate_letter(cs, index)

    def test_unsatisfiable_stays_unsatisfiable_if_letter_irrelevant(self):
        cs = ClauseSet.from_strs(VOCAB, ["A1", "~A1"])
        projected = eliminate_letter(cs, 2)
        assert models_of_clauses(projected) == frozenset()


class TestUnitResolve:
    def test_strikes_negated_literals(self):
        cs = ClauseSet.from_strs(VOCAB, ["~A1 | A2", "A3 | ~A2"])
        result = unit_resolve(cs, [make_literal(0)])  # assume A1
        assert clause_of([make_literal(1)]) in result

    def test_total_false_assignment_produces_empty_clause(self):
        cs = ClauseSet.from_strs(VOCAB, ["A1 | A2"])
        result = unit_resolve(cs, [make_literal(0, False), make_literal(1, False)])
        assert result.has_empty_clause

    def test_satisfied_clauses_not_removed(self):
        # The paper's unitres only strikes literals; it never deletes clauses.
        cs = ClauseSet.from_strs(VOCAB, ["A1 | A2"])
        result = unit_resolve(cs, [make_literal(0)])
        assert clause_of([make_literal(0), make_literal(1)]) in result


class TestResolutionClosure:
    def test_refutation_completeness_on_unsat_set(self):
        cs = ClauseSet.from_strs(
            VOCAB, ["A1 | A2", "~A1 | A2", "A1 | ~A2", "~A1 | ~A2"]
        )
        assert frozenset() in resolution_closure(cs).clauses

    def test_satisfiable_set_never_derives_empty_clause(self):
        cs = ClauseSet.from_strs(VOCAB, ["A1 | A2", "~A2 | A3"])
        assert frozenset() not in resolution_closure(cs).clauses

    def test_guard_raises_on_blowup(self):
        import itertools

        clauses = [
            " | ".join(f"{'~' if s else ''}A{i+1}" for i, s in enumerate(signs[:4]))
            for signs in itertools.product([0, 1], repeat=4)
        ]
        big = ClauseSet.from_strs(VOCAB, clauses[:-1])
        with pytest.raises(MemoryError):
            resolution_closure(big, max_clauses=10)

    def test_closure_is_a_fixpoint(self):
        # resolution_closure(resolution_closure(S)) == resolution_closure(S):
        # saturation really saturates, on hand-picked and random inputs.
        import random

        samples = [
            ClauseSet.from_strs(VOCAB, ["A1 | A2", "~A1 | A3", "~A2 | A3"]),
            ClauseSet.from_strs(VOCAB, ["A1", "~A1 | A2", "A3 | ~A2", "A4 | A5"]),
            ClauseSet.tautology(VOCAB),
            ClauseSet.contradiction(VOCAB),
        ]
        rng = random.Random(87)
        for _ in range(20):
            clauses = []
            for _ in range(rng.randint(1, 8)):
                letters = rng.sample(range(5), rng.randint(1, 3))
                clauses.append(
                    clause_of(make_literal(i, rng.random() < 0.5) for i in letters)
                )
            samples.append(ClauseSet(VOCAB, clauses))
        for cs in samples:
            closed = resolution_closure(cs)
            assert resolution_closure(closed) == closed

    def test_rclosure_is_a_fixpoint_on_its_letters(self):
        cs = ClauseSet.from_strs(VOCAB, ["A1 | A2", "~A2 | A3", "~A3 | A4"])
        closed = rclosure(cs, [1, 2])
        assert rclosure(closed, [1, 2]) == closed


class TestUnitResolveCounters:
    """Regression: the strike counter (and provenance) must count only
    genuine additions -- when two clauses collapse to the same reduced
    clause, or the residue already exists, nothing new was derived."""

    def _struck(self, cs, literals):
        from repro.obs import core as obs

        obs.enable()
        obs.reset()
        try:
            result = unit_resolve(cs, literals)
            return result, obs.counters().snapshot().get(
                "logic.resolution.literals_struck", 0
            )
        finally:
            obs.reset()
            obs.disable()

    def test_genuine_strikes_counted(self):
        cs = ClauseSet.from_strs(VOCAB, ["A1 | ~A2", "A3 | ~A4"])
        result, struck = self._struck(cs, [2, 4])
        assert result == ClauseSet.from_strs(VOCAB, ["A1", "A3"])
        assert struck == 2

    def test_strike_into_existing_clause_not_counted(self):
        cs = ClauseSet.from_strs(VOCAB, ["A1 | ~A2", "A1"])
        result, struck = self._struck(cs, [2])
        assert result == ClauseSet.from_strs(VOCAB, ["A1"])
        assert struck == 0

    def test_collapsing_clauses_count_once(self):
        # Both clauses reduce to A1; only the first addition is genuine.
        cs = ClauseSet.from_strs(VOCAB, ["A1 | ~A2", "A1 | ~A3"])
        result, struck = self._struck(cs, [2, 3])
        assert result == ClauseSet.from_strs(VOCAB, ["A1"])
        assert struck == 1

    def test_collapsed_duplicate_still_has_a_valid_derivation(self):
        from repro.obs import provenance

        cs = ClauseSet.from_strs(VOCAB, ["A1 | ~A2", "A1 | ~A3"])
        with provenance.recording() as rec:
            result = unit_resolve(cs, [2, 3])
            target = frozenset({1})
            assert target in result.clauses
            steps = rec.derivation(target)
        assert steps is not None
        assert provenance.verify_derivation(steps, target=target) == []
