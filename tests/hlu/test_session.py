"""Tests for the IncompleteDatabase session API (repro.hlu.session)."""

import pytest

from repro.db.instances import WorldSet
from repro.db.schema import DbSchema
from repro.errors import EvaluationError
from repro.hlu import language
from repro.hlu.session import IncompleteDatabase
from repro.logic.clauses import ClauseSet
from repro.logic.propositions import Vocabulary


class TestConstruction:
    def test_over_defaults_to_clausal_total_ignorance(self):
        db = IncompleteDatabase.over(3)
        assert db.backend == "clausal"
        assert db.state == ClauseSet.tautology(db.vocabulary)
        assert db.is_consistent()

    def test_instance_backend(self):
        db = IncompleteDatabase.over(3, backend="instance")
        assert db.state == WorldSet.total(db.vocabulary)

    def test_unknown_backend_rejected(self):
        with pytest.raises(EvaluationError, match="backend"):
            IncompleteDatabase.over(3, backend="prolog")

    def test_initial_state_must_be_well_sorted(self):
        schema = DbSchema.of(3)
        with pytest.raises(EvaluationError):
            IncompleteDatabase(schema, initial=WorldSet.total(Vocabulary.standard(3)))
        # (clausal backend expects a ClauseSet)

    def test_named_letters(self):
        db = IncompleteDatabase.over(["Rain", "Wet"])
        db.assert_("Rain -> Wet")
        assert db.is_certain("Rain -> Wet")


class TestUpdateFlow:
    def test_assert_is_monotone(self):
        db = IncompleteDatabase.over(3, backend="instance")
        before = db.worlds()
        db.assert_("A1 | A2")
        assert db.worlds() <= before

    def test_insert_overrides_contradictory_knowledge(self):
        db = IncompleteDatabase.over(3)
        db.assert_("A1")
        db.insert("~A1")
        assert db.is_certain("~A1")
        assert db.is_consistent()

    def test_assert_of_contradictory_knowledge_is_inconsistent(self):
        db = IncompleteDatabase.over(3)
        db.assert_("A1")
        db.assert_("~A1")
        assert not db.is_consistent()

    def test_delete_makes_formula_false(self):
        db = IncompleteDatabase.over(3)
        db.assert_("A1 & A2")
        db.delete("A1")
        assert db.is_certain("~A1")
        assert db.is_certain("A2")  # untouched knowledge survives

    def test_clear_forgets(self):
        db = IncompleteDatabase.over(3)
        db.assert_("A1", "A2")
        db.clear("A1")
        assert db.is_possible("A1") and db.is_possible("~A1")
        assert db.is_certain("A2")

    def test_modify_moves_information(self):
        db = IncompleteDatabase.over(3)
        db.assert_("A1", "~A2")
        db.modify("A1", "A2")
        assert db.is_certain("~A1") and db.is_certain("A2")

    def test_where_splits(self):
        db = IncompleteDatabase.over(3)
        db.where("A3", language.insert("A1"))
        assert db.is_certain("A3 -> A1")
        assert not db.is_certain("A1")

    def test_where_with_else_branch(self):
        db = IncompleteDatabase.over(3)
        db.where("A3", language.insert("A1"), language.insert("A2"))
        assert db.is_certain("A3 -> A1")
        assert db.is_certain("~A3 -> A2")

    def test_history_records_updates(self):
        db = IncompleteDatabase.over(3)
        db.assert_("A1").insert("A2").clear("A1")
        assert [type(u).__name__ for u in db.history] == [
            "Assert",
            "Insert",
            "Clear",
        ]

    def test_fluent_chaining(self):
        db = IncompleteDatabase.over(2).assert_("A1").insert("A2")
        assert db.is_certain("A1 & A2")


class TestQueries:
    def test_certain_vs_possible(self):
        db = IncompleteDatabase.over(3)
        db.assert_("A1 | A2")
        assert not db.is_certain("A1")
        assert db.is_possible("A1")
        assert db.is_certain("A1 | A2")
        assert not db.is_possible("~A1 & ~A2")

    def test_certain_literals(self):
        db = IncompleteDatabase.over(3)
        db.assert_("A1", "~A3")
        literals = db.certain_literals()
        assert "A1" in literals and "~A3" in literals
        assert "A2" not in literals and "~A2" not in literals

    def test_formula_objects_accepted(self):
        from repro.logic.formula import var

        db = IncompleteDatabase.over(3)
        db.assert_(var("A1"))
        assert db.is_certain(var("A1"))


class TestBackendsAgree:
    SCRIPT = [
        ("assert_", ("A1 | A2", "~A2 | A3")),
        ("insert", ("A2 | A3",)),
        ("delete", ("A1 & A3",)),
        ("clear", ("A2",)),
        ("modify", ("A3", "A1")),
    ]

    def test_full_script_agreement(self):
        clausal = IncompleteDatabase.over(4, backend="clausal")
        instance = IncompleteDatabase.over(4, backend="instance")
        for method, args in self.SCRIPT:
            getattr(clausal, method)(*args)
            getattr(instance, method)(*args)
            assert clausal.worlds() == instance.worlds(), method

    def test_with_backend_roundtrip(self):
        db = IncompleteDatabase.over(3).assert_("A1 | A2").insert("A3")
        moved = db.with_backend("instance")
        assert moved.worlds() == db.worlds()
        back = moved.with_backend("clausal")
        assert back.worlds() == db.worlds()
        assert moved.history == db.history


class TestConstraints:
    def test_enforcement_filters_illegal_worlds(self):
        db = IncompleteDatabase.over(
            2, constraints=["A1 -> A2"], enforce_constraints=True
        )
        db.insert("A1")
        assert db.is_certain("A2")

    def test_without_enforcement_constraints_ignored(self):
        db = IncompleteDatabase.over(
            2, constraints=["A1 -> A2"], enforce_constraints=False
        )
        db.insert("A1")
        assert not db.is_certain("A2")

    def test_enforcement_on_instance_backend(self):
        db = IncompleteDatabase.over(
            2,
            constraints=["~A1 | ~A2"],
            backend="instance",
            enforce_constraints=True,
        )
        db.insert("A1")
        assert db.is_certain("~A2")

    def test_update_violating_constraints_empties_state(self):
        db = IncompleteDatabase.over(
            2, constraints=["~A1"], enforce_constraints=True
        )
        db.insert("A1")
        assert not db.is_consistent()


class TestCanonicalClauses:
    def test_equivalent_sessions_have_equal_canonical_form(self):
        left = IncompleteDatabase.over(3).assert_("A1 -> A2")
        # Same theory, split across A3 -- subsumption alone cannot merge
        # these two clauses, so the raw states differ.
        right = IncompleteDatabase.over(3).assert_(
            "~A1 | A2 | A3", "~A1 | A2 | ~A3"
        )
        assert left.state != right.state  # different presentations
        assert left.canonical_clauses() == right.canonical_clauses()

    def test_canonical_form_across_backends(self):
        clausal = IncompleteDatabase.over(3).insert("A1 | A2")
        instance = clausal.with_backend("instance")
        assert clausal.canonical_clauses() == instance.canonical_clauses()

    def test_inconsistent_state_canonicalises_to_empty_clause(self):
        db = IncompleteDatabase.over(2).assert_("A1", "~A1")
        assert db.canonical_clauses().has_empty_clause


class TestTransitionObservation:
    """State transitions record their clausal delta size."""

    def test_delta_size_observed_when_obs_enabled(self):
        from repro.obs import core as obs

        obs.enable()
        obs.reset()
        try:
            db = IncompleteDatabase.over(3)
            db.assert_("A1 | A2")
            histogram = obs.counters().histogram("hlu.update.delta_size")
            assert histogram is not None
        finally:
            obs.reset()
            obs.disable()
