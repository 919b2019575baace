"""Tests for literals, clauses, and clause sets (repro.logic.clauses)."""

import pytest

from repro.errors import (
    InconsistentLiteralsError,
    ParseError,
    VocabularyError,
    VocabularyMismatchError,
)
from repro.logic.clauses import (
    EMPTY_CLAUSE,
    ClauseSet,
    clause_is_tautologous,
    clause_of,
    clause_props,
    clause_satisfied_by,
    clause_to_str,
    literal_from_str,
    literal_index,
    literal_is_positive,
    literal_to_str,
    literals_consistent,
    literals_to_world_constraint,
    make_literal,
    negate_literal,
)
from repro.logic.propositions import Vocabulary

VOCAB = Vocabulary.standard(5)


class TestLiterals:
    def test_make_and_decompose(self):
        lit = make_literal(3)
        assert literal_index(lit) == 3
        assert literal_is_positive(lit)
        neg = make_literal(3, positive=False)
        assert literal_index(neg) == 3
        assert not literal_is_positive(neg)

    def test_negation_is_involution(self):
        lit = make_literal(2, positive=False)
        assert negate_literal(negate_literal(lit)) == lit

    def test_negative_index_rejected(self):
        with pytest.raises(VocabularyError):
            make_literal(-1)

    def test_str_roundtrip(self):
        for text in ("A1", "~A3", "!A5"):
            lit = literal_from_str(VOCAB, text)
            canonical = literal_to_str(VOCAB, lit)
            assert literal_from_str(VOCAB, canonical) == lit

    def test_double_negation_in_text(self):
        assert literal_from_str(VOCAB, "~~A2") == make_literal(1)

    def test_empty_literal_text_rejected(self):
        with pytest.raises(ParseError):
            literal_from_str(VOCAB, "~")

    def test_consistency_check(self):
        assert literals_consistent([1, 2, -3])
        assert not literals_consistent([1, -1])
        assert literals_consistent([])

    def test_world_constraint_compilation(self):
        care, value = literals_to_world_constraint([make_literal(0), make_literal(2, False)])
        assert care == 0b101
        assert value == 0b001

    def test_world_constraint_rejects_contradiction(self):
        with pytest.raises(InconsistentLiteralsError):
            literals_to_world_constraint([1, -1])

    def test_world_constraint_tolerates_duplicates(self):
        care, value = literals_to_world_constraint([1, 1])
        assert (care, value) == (0b1, 0b1)


class TestClauses:
    def test_clause_props(self):
        clause = clause_of([make_literal(0), make_literal(4, False)])
        assert clause_props(clause) == frozenset({0, 4})

    def test_tautology_detection(self):
        assert clause_is_tautologous(clause_of([1, -1]))
        assert not clause_is_tautologous(clause_of([1, 2]))
        assert not clause_is_tautologous(EMPTY_CLAUSE)

    def test_satisfaction_bit_semantics(self):
        clause = clause_of([make_literal(0), make_literal(1, False)])  # A1 | ~A2
        assert clause_satisfied_by(clause, 0b01)
        assert clause_satisfied_by(clause, 0b00)
        assert not clause_satisfied_by(clause, 0b10)

    def test_empty_clause_unsatisfiable(self):
        for world in range(8):
            assert not clause_satisfied_by(EMPTY_CLAUSE, world)

    def test_clause_str_empty_is_zero(self):
        assert clause_to_str(VOCAB, EMPTY_CLAUSE) == "0"

    def test_clause_str_sorted_by_index(self):
        clause = clause_of([make_literal(3), make_literal(0, False)])
        assert clause_to_str(VOCAB, clause) == "~A1 | A4"


class TestClauseSetConstruction:
    def test_tautologous_clauses_removed(self):
        cs = ClauseSet(VOCAB, [clause_of([1, -1]), clause_of([2])])
        assert cs.clauses == frozenset({clause_of([2])})

    def test_tautology_and_contradiction_constructors(self):
        assert len(ClauseSet.tautology(VOCAB)) == 0
        falsum = ClauseSet.contradiction(VOCAB)
        assert falsum.has_empty_clause

    def test_from_strs(self):
        cs = ClauseSet.from_strs(VOCAB, ["A1 | ~A2", "A3"])
        assert clause_of([make_literal(0), make_literal(1, False)]) in cs
        assert clause_of([make_literal(2)]) in cs

    def test_from_strs_empty_clause_spelling(self):
        assert ClauseSet.from_strs(VOCAB, ["0"]).has_empty_clause

    def test_from_literal_set(self):
        cs = ClauseSet.from_literal_set(VOCAB, [1, -3])
        assert len(cs) == 2
        assert cs.length == 2

    def test_out_of_vocabulary_literal_rejected(self):
        with pytest.raises(VocabularyError):
            ClauseSet(VOCAB, [clause_of([6])])

    def test_zero_literal_rejected(self):
        with pytest.raises(VocabularyError):
            ClauseSet(VOCAB, [frozenset({0})])


class TestClauseSetProperties:
    PAPER_PHI = ClauseSet.from_strs(
        VOCAB, ["~A1 | A3", "A1 | A4", "A4 | A5", "~A1 | ~A2 | ~A5"]
    )

    def test_length_counts_distinct_literals(self):
        # Paper Example 3.1.5 state: lengths 2 + 2 + 2 + 3.
        assert self.PAPER_PHI.length == 9

    def test_prop_names(self):
        assert self.PAPER_PHI.prop_names == frozenset({"A1", "A2", "A3", "A4", "A5"})

    def test_satisfied_by(self):
        # World with A3, A4 true, rest false satisfies all four clauses.
        world = 0b01100
        assert self.PAPER_PHI.satisfied_by(world)
        # World with everything false falsifies A1 | A4.
        assert not self.PAPER_PHI.satisfied_by(0)

    def test_equality_and_hash(self):
        again = ClauseSet.from_strs(
            VOCAB, ["A4 | A5", "A1 | A4", "~A1 | A3", "~A2 | ~A1 | ~A5"]
        )
        assert again == self.PAPER_PHI
        assert hash(again) == hash(self.PAPER_PHI)

    def test_str_deterministic(self):
        assert str(self.PAPER_PHI) == str(self.PAPER_PHI)
        assert str(ClauseSet.tautology(VOCAB)) == "{1}"


class TestClauseSetOperations:
    def test_union(self):
        left = ClauseSet.from_strs(VOCAB, ["A1"])
        right = ClauseSet.from_strs(VOCAB, ["A2"])
        assert left.union(right) == ClauseSet.from_strs(VOCAB, ["A1", "A2"])

    def test_union_vocabulary_mismatch(self):
        with pytest.raises(VocabularyMismatchError):
            ClauseSet.from_strs(VOCAB, ["A1"]).union(
                ClauseSet.from_strs(Vocabulary.standard(3), ["A1"])
            )

    def test_with_clause(self):
        cs = ClauseSet.tautology(VOCAB).with_clause(clause_of([1]))
        assert len(cs) == 1

    def test_without_letters(self):
        cs = ClauseSet.from_strs(VOCAB, ["A1 | A2", "A3", "A2 | A4"])
        kept = cs.without_letters([1])  # drop anything mentioning A2
        assert kept == ClauseSet.from_strs(VOCAB, ["A3"])

    def test_without_letters_rejects_out_of_range_indices(self):
        # Regression: negative or too-large indices were silently
        # accepted (negatives even aliased other letters via Python
        # indexing of the bitmask); they must name the offending index.
        cs = ClauseSet.from_strs(VOCAB, ["A1 | A2", "A3"])
        with pytest.raises(VocabularyError, match="-1"):
            cs.without_letters([-1])
        with pytest.raises(VocabularyError, match="5"):
            cs.without_letters([0, 5])
        with pytest.raises(VocabularyError, match="outside the vocabulary"):
            cs.without_letters([99])

    def test_reduce_removes_subsumed(self):
        cs = ClauseSet.from_strs(VOCAB, ["A1", "A1 | A2", "A1 | A2 | A3", "A4 | A5"])
        assert cs.reduce() == ClauseSet.from_strs(VOCAB, ["A1", "A4 | A5"])

    def test_reduce_keeps_empty_clause_dominant(self):
        cs = ClauseSet.from_strs(VOCAB, ["0", "A1"])
        assert cs.reduce() == ClauseSet.contradiction(VOCAB)

    def test_to_formulas_deterministic_order(self):
        cs = ClauseSet.from_strs(VOCAB, ["A2 | A3", "A1"])
        rendered = [str(f) for f in cs.to_formulas()]
        assert rendered == ["A1", "(A2 | A3)"]


class TestReducedMark:
    """Which constructors and operations set the reduced mark.  A wrong
    mark would let ``reduce`` and ``merge`` skip real subsumption."""

    def test_outside_sets_are_unmarked(self):
        assert not ClauseSet(VOCAB, [clause_of([1])]).known_reduced
        assert not ClauseSet.from_strs(VOCAB, ["A1"]).known_reduced
        assert not ClauseSet.from_literal_set(VOCAB, [1]).known_reduced

    def test_distinguished_sets_are_marked(self):
        assert ClauseSet.tautology(VOCAB).known_reduced
        assert ClauseSet.contradiction(VOCAB).known_reduced

    def test_reduce_marks_and_returns_a_marked_set_at_once(self):
        cs = ClauseSet.from_strs(VOCAB, ["A1", "A1 | A2"])
        reduced = cs.reduce()
        assert reduced.known_reduced
        assert reduced.reduce() is reduced
        # Nothing to drop: the set itself is marked and returned.
        already = ClauseSet.from_strs(VOCAB, ["A1", "A2"])
        assert already.reduce() is already
        assert already.known_reduced

    def test_union_is_unmarked_and_merge_is_marked(self):
        left = ClauseSet.from_strs(VOCAB, ["A1"]).reduce()
        right = ClauseSet.from_strs(VOCAB, ["A1 | A2"]).reduce()
        assert not left.union(right).known_reduced
        merged = left.merge(right)
        assert merged.known_reduced
        assert merged == left

    def test_without_letters_keeps_the_mark(self):
        cs = ClauseSet.from_strs(VOCAB, ["A1 | A2", "A3"])
        assert not cs.without_letters([0]).known_reduced
        assert cs.reduce().without_letters([0]).known_reduced


class TestClauseSignatures:
    def test_signature_sets_one_bit_per_letter(self):
        from repro.logic.clauses import clause_signature

        assert clause_signature(frozenset()) == 0
        assert clause_signature(clause_of([1])) == 0b1
        assert clause_signature(clause_of([-3])) == 0b100
        assert clause_signature(clause_of([1, -2, 5])) == 0b10011
        # Polarity is deliberately ignored: signatures track letters only.
        assert clause_signature(clause_of([2])) == clause_signature(clause_of([-2]))

    def test_signatures_property_covers_every_clause(self):
        from repro.logic.clauses import clause_props, clause_signature

        cs = ClauseSet.from_strs(VOCAB, ["A1 | ~A2", "A3", "~A4 | A5"])
        sigs = cs.signatures
        assert set(sigs) == set(cs.clauses)
        for clause, sig in sigs.items():
            assert sig == clause_signature(clause)
            assert {i for i in range(5) if sig >> i & 1} == clause_props(clause)

    def test_signature_is_necessary_for_subset(self):
        small = clause_of([1, 2])
        big = clause_of([1, 2, -3])
        disjoint = clause_of([4, 5])
        from repro.logic.clauses import clause_signature

        assert clause_signature(small) & clause_signature(big) == clause_signature(small)
        assert clause_signature(small) & clause_signature(disjoint) != clause_signature(
            small
        )
