"""Tests for deterministic update morphisms (repro.db.updates)."""

import pytest

from repro.db.updates import (
    delete_atom,
    insert_atom,
    insert_literals,
    modify_atom,
    modify_literals,
)
from repro.errors import InconsistentLiteralsError
from repro.logic.clauses import make_literal
from repro.logic.propositions import Vocabulary
from repro.logic.structures import all_worlds, get_bit

VOCAB = Vocabulary.standard(3)
A1, A2, A3 = 0, 1, 2


class TestInsertAtom:
    def test_forces_letter_true(self):
        f = insert_atom(VOCAB, "A1")
        for world in all_worlds(VOCAB):
            assert get_bit(f.apply_world(world), A1)

    def test_other_letters_untouched(self):
        f = insert_atom(VOCAB, "A1")
        for world in all_worlds(VOCAB):
            image = f.apply_world(world)
            assert get_bit(image, A2) == get_bit(world, A2)
            assert get_bit(image, A3) == get_bit(world, A3)

    def test_idempotent(self):
        f = insert_atom(VOCAB, "A2")
        for world in all_worlds(VOCAB):
            assert f.apply_world(f.apply_world(world)) == f.apply_world(world)

    def test_unknown_letter_rejected(self):
        from repro.errors import VocabularyError

        with pytest.raises(VocabularyError):
            insert_atom(VOCAB, "A9")


class TestDeleteAtom:
    def test_forces_letter_false(self):
        f = delete_atom(VOCAB, "A3")
        for world in all_worlds(VOCAB):
            assert not get_bit(f.apply_world(world), A3)

    def test_delete_is_insert_of_negation(self):
        # Extension convention of Section 1.3: insert[~A] = delete[A].
        by_delete = delete_atom(VOCAB, "A2")
        by_insert = insert_literals(VOCAB, [make_literal(A2, positive=False)])
        for world in all_worlds(VOCAB):
            assert by_delete.apply_world(world) == by_insert.apply_world(world)


class TestModifyAtom:
    """modify[Ai, Aj]: Ai <- 0, Aj <- Ai | Aj (Definition 1.3.3(c))."""

    def test_truth_table(self):
        f = modify_atom(VOCAB, "A1", "A2")
        for world in all_worlds(VOCAB):
            image = f.apply_world(world)
            assert not get_bit(image, A1)
            assert get_bit(image, A2) == (get_bit(world, A1) or get_bit(world, A2))
            assert get_bit(image, A3) == get_bit(world, A3)

    def test_modify_to_self_is_identity(self):
        f = modify_atom(VOCAB, "A1", "A1")
        for world in all_worlds(VOCAB):
            assert f.apply_world(world) == world

    def test_absent_tuple_stays_absent(self):
        f = modify_atom(VOCAB, "A1", "A2")
        # A1 false, A2 false: nothing moves.
        assert f.apply_world(0b000) == 0b000


class TestInsertLiterals:
    def test_mixed_polarity_insert(self):
        f = insert_literals(VOCAB, [make_literal(A1), make_literal(A3, False)])
        for world in all_worlds(VOCAB):
            image = f.apply_world(world)
            assert get_bit(image, A1)
            assert not get_bit(image, A3)
            assert get_bit(image, A2) == get_bit(world, A2)

    def test_empty_set_is_identity(self):
        f = insert_literals(VOCAB, [])
        for world in all_worlds(VOCAB):
            assert f.apply_world(world) == world

    def test_inconsistent_set_rejected(self):
        with pytest.raises(InconsistentLiteralsError):
            insert_literals(VOCAB, [1, -1])


class TestModifyLiterals:
    """Prose semantics of 1.3.4(b): when all of Phi1 holds, delete Phi1
    then insert Phi2; otherwise identity."""

    def test_precondition_satisfied_moves(self):
        f = modify_literals(VOCAB, [make_literal(A1)], [make_literal(A2)])
        # A1 true: A1 deleted (false), A2 inserted (true).
        assert f.apply_world(0b001) == 0b010
        assert f.apply_world(0b011) == 0b010

    def test_precondition_failed_is_identity(self):
        f = modify_literals(VOCAB, [make_literal(A1)], [make_literal(A2)])
        assert f.apply_world(0b000) == 0b000
        assert f.apply_world(0b100) == 0b100

    def test_negative_literal_precondition(self):
        f = modify_literals(
            VOCAB, [make_literal(A1, False)], [make_literal(A3)]
        )
        # ~A1 holds: delete ~A1 (force A1 true) and insert A3.
        assert f.apply_world(0b000) == 0b101
        # ~A1 fails: identity.
        assert f.apply_world(0b001) == 0b001

    def test_overlap_insert_wins(self):
        # Phi1 = {A1}, Phi2 = {A1}: delete then insert leaves A1 true.
        f = modify_literals(VOCAB, [make_literal(A1)], [make_literal(A1)])
        assert f.apply_world(0b001) == 0b001

    def test_multi_literal_precondition_requires_all(self):
        f = modify_literals(
            VOCAB, [make_literal(A1), make_literal(A2)], [make_literal(A3)]
        )
        assert f.apply_world(0b011) == 0b100  # both hold: move
        assert f.apply_world(0b001) == 0b001  # only A1 holds: identity

    def test_empty_precondition_always_fires(self):
        f = modify_literals(VOCAB, [], [make_literal(A3)])
        for world in all_worlds(VOCAB):
            assert get_bit(f.apply_world(world), A3)

    def test_inconsistent_arguments_rejected(self):
        with pytest.raises(InconsistentLiteralsError):
            modify_literals(VOCAB, [1, -1], [])
        with pytest.raises(InconsistentLiteralsError):
            modify_literals(VOCAB, [], [2, -2])

    def test_agrees_with_sequential_delete_insert_on_satisfying_worlds(self):
        pre = [make_literal(A1), make_literal(A2, False)]
        post = [make_literal(A2)]
        f = modify_literals(VOCAB, pre, post)
        delete_then_insert = insert_literals(
            VOCAB, [-lit for lit in pre]
        ).then(insert_literals(VOCAB, post))
        for world in all_worlds(VOCAB):
            pre_holds = get_bit(world, A1) and not get_bit(world, A2)
            expected = delete_then_insert.apply_world(world) if pre_holds else world
            assert f.apply_world(world) == expected


class TestClauseDelta:
    def test_delta_splits_symmetric_difference(self):
        from repro.db.updates import clause_delta
        from repro.logic.clauses import ClauseSet

        vocab = Vocabulary.standard(4)
        old = ClauseSet.from_strs(vocab, ["A1 | A2", "A3"])
        new = ClauseSet.from_strs(vocab, ["A1 | A2", "~A3 | A4"])
        inserts, deletes = clause_delta(old, new)
        assert inserts == frozenset({frozenset({-3, 4})})
        assert deletes == frozenset({frozenset({3})})
        assert (old.clauses - deletes) | inserts == new.clauses
        assert clause_delta(old, old) == (frozenset(), frozenset())

    def test_vocabulary_mismatch_rejected(self):
        from repro.db.updates import clause_delta
        from repro.errors import VocabularyError
        from repro.logic.clauses import ClauseSet

        other = Vocabulary.standard(7)
        with pytest.raises(VocabularyError):
            clause_delta(
                ClauseSet.tautology(VOCAB), ClauseSet.tautology(other)
            )
