"""Tests for BLU--C, the clause-level implementation (Algorithms 2.3.3/2.3.5/2.3.8)."""

import pytest

from repro.blu.clausal_genmask import clausal_genmask, depends_on
from repro.blu.clausal_impl import (
    ClausalImplementation,
    clausal_combine,
    clausal_complement,
)
from repro.blu.clausal_mask import clausal_mask
from repro.errors import VocabularyMismatchError
from repro.logic.clauses import ClauseSet
from repro.logic.propositions import Vocabulary
from repro.logic.semantics import (
    clause_set_dependency_indices,
    models_of_clauses,
)
from repro.logic.structures import saturate_on
from tests.logic.test_truthtable_differential import (
    _reference_cls_assignments as cls_assignments,
    _reference_ldiff as ldiff,
)

VOCAB = Vocabulary.standard(5)
IMPL = ClausalImplementation(VOCAB)
RAW = ClausalImplementation(VOCAB, simplify=False)

PAPER_PHI = ClauseSet.from_strs(
    VOCAB, ["~A1 | A3", "A1 | A4", "A4 | A5", "~A1 | ~A2 | ~A5"]
)


def cs(*texts: str) -> ClauseSet:
    return ClauseSet.from_strs(VOCAB, texts)


class TestAssert:
    def test_is_union(self):
        assert RAW.op_assert(cs("A1"), cs("A2")) == cs("A1", "A2")

    def test_models_intersect(self):
        left, right = cs("A1 | A2"), cs("~A1 | A3")
        assert models_of_clauses(IMPL.op_assert(left, right)) == models_of_clauses(
            left
        ) & models_of_clauses(right)

    def test_vocabulary_mismatch(self):
        with pytest.raises(VocabularyMismatchError):
            IMPL.op_assert(cs("A1"), ClauseSet.from_strs(Vocabulary.standard(2), ["A1"]))


class TestCombine:
    def test_pairwise_disjunction(self):
        out = clausal_combine(cs("A1", "A2"), cs("A3"), simplify=False)
        assert out == cs("A1 | A3", "A2 | A3")

    def test_models_union(self):
        left, right = cs("A1", "A2"), cs("~A1 | A3")
        assert models_of_clauses(IMPL.op_combine(left, right)) == models_of_clauses(
            left
        ) | models_of_clauses(right)

    def test_tautologous_products_dropped(self):
        out = clausal_combine(cs("A1"), cs("~A1"), simplify=False)
        assert out == ClauseSet.tautology(VOCAB)

    def test_combine_with_contradiction_is_identity(self):
        state = cs("A1 | A2", "A3")
        assert IMPL.op_combine(state, ClauseSet.contradiction(VOCAB)) == state

    def test_example_325_product_size(self):
        # Example 3.2.5: combining a 4-clause set with a 4-clause set
        # yields 16 products before simplification.
        left = cs("A4 | A5", "A3 | A4", "A5", "A1 | A2")
        right = cs("~A1 | A3", "A1 | A4", "A4 | A5", "~A1 | ~A2 | ~A5")
        out = clausal_combine(left, right, simplify=False)
        # Some of the 16 products coincide or are tautologous; model
        # equality is the real requirement:
        assert models_of_clauses(out) == models_of_clauses(left) | models_of_clauses(
            right
        )


class TestComplement:
    def test_complement_of_unit_clauses(self):
        assert clausal_complement(cs("A1", "A2")) == cs("~A1 | ~A2")

    def test_complement_of_single_clause(self):
        assert clausal_complement(cs("A1 | A2")) == cs("~A1", "~A2")

    def test_models_complement(self):
        for state in (cs("A1"), cs("A1 | A2", "~A3"), PAPER_PHI):
            got = models_of_clauses(IMPL.op_complement(state))
            expected = frozenset(range(32)) - models_of_clauses(state)
            assert got == expected

    def test_complement_of_tautology_is_contradiction(self):
        assert clausal_complement(ClauseSet.tautology(VOCAB)).has_empty_clause

    def test_complement_of_contradiction_is_tautology(self):
        assert clausal_complement(ClauseSet.contradiction(VOCAB)) == ClauseSet.tautology(
            VOCAB
        )

    def test_double_complement_preserves_models(self):
        state = cs("A1 | A2", "~A2 | A3")
        twice = IMPL.op_complement(IMPL.op_complement(state))
        assert models_of_clauses(twice) == models_of_clauses(state)

    def test_raw_output_size_is_product_of_clause_lengths(self):
        state = cs("A1 | A2", "A3 | A4 | A5")
        out = clausal_complement(state, simplify=False)
        assert len(out) == 6  # 2 x 3 choices, none tautologous


class TestMask:
    def test_paper_example_315(self):
        masked = clausal_mask(PAPER_PHI, [0, 1])
        assert masked == cs("A4 | A5", "A3 | A4")

    def test_mask_is_world_saturation(self):
        xor_state = cs("A1 | A2", "~A1 | ~A2", "A3")
        for state in (PAPER_PHI, xor_state, cs("A1", "A2 | A3")):
            for indices in ([0], [1, 3], [0, 1, 2]):
                projected = clausal_mask(state, indices)
                expected = saturate_on(models_of_clauses(state), set(indices))
                assert models_of_clauses(projected) == expected

    def test_masked_letters_absent(self):
        masked = clausal_mask(PAPER_PHI, [0, 1])
        assert not (masked.prop_indices & {0, 1})

    def test_empty_mask_is_identity(self):
        assert clausal_mask(PAPER_PHI, []) == PAPER_PHI

    def test_mask_everything_gives_tautology_when_satisfiable(self):
        assert clausal_mask(PAPER_PHI, range(5)) == ClauseSet.tautology(VOCAB)

    def test_mask_everything_keeps_contradiction(self):
        state = cs("A1", "~A1")
        assert clausal_mask(state, range(5)).has_empty_clause

    def test_operator_validates_mask_value(self):
        with pytest.raises(VocabularyMismatchError):
            IMPL.op_mask(PAPER_PHI, {0})  # plain set, not frozenset
        with pytest.raises(VocabularyMismatchError):
            IMPL.op_mask(PAPER_PHI, frozenset({9}))

    def test_mask_of_names_helper(self):
        assert IMPL.mask_of_names(["A1", "A3"]) == frozenset({0, 2})


class TestGenmask:
    def test_paper_example(self):
        assert clausal_genmask(cs("A1 | A2")) == frozenset({0, 1})

    def test_agrees_with_bruteforce_dependency(self):
        samples = [
            cs("A1 | A2"),
            cs("A1", "~A2 | A3"),
            cs("A1 | A2", "A1 | ~A2"),       # semantically just A1
            PAPER_PHI,
            ClauseSet.tautology(VOCAB),
            ClauseSet.contradiction(VOCAB),
        ]
        for state in samples:
            assert clausal_genmask(state) == clause_set_dependency_indices(state)

    def test_letter_not_occurring_is_independent(self):
        assert not depends_on(cs("A1 | A2"), 4)

    def test_syntactic_occurrence_without_dependence(self):
        state = cs("A1 | A2", "A1 | ~A2")
        assert not depends_on(state, 1)
        assert depends_on(state, 0)

    def test_cls_assignment_count(self):
        state = cs("A1 | A2", "~A3")
        assert len(list(cls_assignments(state))) == 8  # 2^3 total assignments

    def test_ldiff_pair_structure(self):
        state = cs("A1 | A2")
        pairs = list(ldiff(state, 0))
        assert len(pairs) == 2  # one per assignment of A2
        for with_a, without_a in pairs:
            assert 1 in with_a and -1 in without_a
            assert with_a - {1} == without_a - {-1}

    def test_operator_form(self):
        assert IMPL.op_genmask(cs("A1 | A2")) == frozenset({0, 1})


class TestProgramExecution:
    def test_insert_program_paper_315(self):
        from repro.blu.parser import parse_program

        insert = parse_program("(lambda (s0 s1) (assert (mask s0 (genmask s1)) s1))")
        out = IMPL.run(insert, PAPER_PHI, cs("A1 | A2"))
        assert out == cs("A1 | A2", "A4 | A5", "A3 | A4")
