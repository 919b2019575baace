"""Tests for vocabularies (repro.logic.propositions)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import VocabularyError, VocabularyMismatchError
from repro.logic.formula import Var
from repro.logic.parser import parse_formula
from repro.logic.propositions import Vocabulary, check_same_vocabulary


class TestConstruction:
    def test_standard_names(self):
        assert Vocabulary.standard(3).names == ("A1", "A2", "A3")

    def test_standard_custom_prefix(self):
        assert Vocabulary.standard(2, prefix="P").names == ("P1", "P2")

    def test_empty_vocabulary_allowed(self):
        assert len(Vocabulary([])) == 0

    def test_negative_size_rejected(self):
        with pytest.raises(VocabularyError):
            Vocabulary.standard(-1)

    def test_duplicate_names_rejected(self):
        with pytest.raises(VocabularyError, match="duplicate"):
            Vocabulary(["A", "B", "A"])

    def test_empty_name_rejected(self):
        with pytest.raises(VocabularyError):
            Vocabulary([""])

    def test_reserved_characters_rejected(self):
        # Constant spellings and characters outside the parser's name
        # token would not read back as the letter.
        for bad in ("A|B", "A B", "A(B)", "~A", "A&B", "A'", "true", "false", "TRUE",
                    "FALSE", "A$", "A{", "A}", "A;", "A:", "A#", "A+", "A-", "A[", "A@",
                    "A/", "A\\", "A?", "é", "Aé", "A\u00a0", "_\n"):
            with pytest.raises(VocabularyError):
                Vocabulary([bad])

    @settings(max_examples=300)
    @given(st.one_of(
        st.text(max_size=6),
        st.text(alphabet="AEFLRSTUaeflrstu_01.'$é{;|~ ", max_size=6),
        st.sampled_from(["true", "false", "TRUE", "FALSE", "True", "A1", "_.", "x'"]),
    ))
    def test_every_accepted_name_parses_back_as_its_letter(self, name):
        try:
            Vocabulary([name])
        except VocabularyError:
            return
        assert parse_formula(name) == Var(name)

    def test_leading_digit_rejected(self):
        with pytest.raises(VocabularyError):
            Vocabulary(["1A"])

    def test_ground_fact_style_names_allowed(self):
        # Grounded relational atoms use dots/underscores (Section 1.2).
        vocab = Vocabulary(["R.Jones.D1.T2", "R_Smith_D2_T1"])
        assert "R.Jones.D1.T2" in vocab


class TestLookup:
    def test_index_roundtrip(self):
        vocab = Vocabulary.standard(5)
        for i, name in enumerate(vocab):
            assert vocab.index_of(name) == i
            assert vocab.name_of(i) == name

    def test_unknown_name_raises(self):
        with pytest.raises(VocabularyError, match="unknown"):
            Vocabulary.standard(2).index_of("A3")

    def test_out_of_range_index_raises(self):
        with pytest.raises(VocabularyError):
            Vocabulary.standard(2).name_of(2)

    def test_contains(self):
        vocab = Vocabulary.standard(2)
        assert "A1" in vocab
        assert "A9" not in vocab

    def test_subset_indices(self):
        vocab = Vocabulary.standard(4)
        assert vocab.subset_indices(["A2", "A4"]) == frozenset({1, 3})


class TestIdentity:
    def test_equality_by_name_sequence(self):
        assert Vocabulary.standard(3) == Vocabulary(["A1", "A2", "A3"])

    def test_order_matters(self):
        assert Vocabulary(["A1", "A2"]) != Vocabulary(["A2", "A1"])

    def test_hashable_and_usable_as_key(self):
        d = {Vocabulary.standard(2): "x"}
        assert d[Vocabulary(["A1", "A2"])] == "x"

    def test_repr_is_compact_for_large_vocabularies(self):
        text = repr(Vocabulary.standard(100))
        assert "100 names" in text


class TestExtension:
    def test_extended_appends(self):
        vocab = Vocabulary.standard(2).extended(["B1"])
        assert vocab.names == ("A1", "A2", "B1")

    def test_extended_rejects_duplicates(self):
        with pytest.raises(VocabularyError):
            Vocabulary.standard(2).extended(["A1"])

    def test_fresh_names_avoid_collisions(self):
        vocab = Vocabulary(["H1", "H3", "A1"])
        assert vocab.fresh_names(3) == ("H2", "H4", "H5")

    def test_fresh_names_custom_stem(self):
        assert Vocabulary.standard(1).fresh_names(2, stem="A") == ("A2", "A3")


class TestCheckSameVocabulary:
    class _Holder:
        def __init__(self, vocab):
            self.vocabulary = vocab

    def test_accepts_matching(self):
        vocab = Vocabulary.standard(2)
        got = check_same_vocabulary(self._Holder(vocab), self._Holder(vocab))
        assert got == vocab

    def test_rejects_mismatch(self):
        with pytest.raises(VocabularyMismatchError):
            check_same_vocabulary(
                self._Holder(Vocabulary.standard(2)),
                self._Holder(Vocabulary.standard(3)),
            )

    def test_rejects_empty_argument_list(self):
        with pytest.raises(VocabularyMismatchError):
            check_same_vocabulary()
