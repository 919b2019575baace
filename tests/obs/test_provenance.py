"""Tests for repro.obs.provenance: the derivation DAG, the independent
verifier, the explain drivers, and the acceptance suite -- every
randomly generated inconsistent state yields a verified empty-clause
derivation."""

import json
import random

import pytest

from repro.errors import ClosureBudgetError, ProvenanceError
from repro.logic.clauses import ClauseSet, clause_of, make_literal
from repro.logic.propositions import Vocabulary
from repro.logic import resolution
from repro.logic.resolution import resolution_closure, unit_resolve
from repro.logic.sat import is_satisfiable
from repro.obs import provenance

VOCAB = Vocabulary.standard(5)

EMPTY = frozenset()


@pytest.fixture(autouse=True)
def clean_provenance():
    provenance.disable()
    provenance.reset()
    yield
    provenance.disable()
    provenance.reset()


class TestRecorder:
    def test_ids_are_stable_and_first_derivation_wins(self):
        rec = provenance.DerivationRecorder()
        a = rec.record(frozenset({1}), "input")
        again = rec.record(frozenset({1}), "resolve", (a,), pivot=0)
        assert again == a
        assert rec.node(a).rule == "input"

    def test_parents_precede_children(self):
        rec = provenance.DerivationRecorder()
        a = rec.record(frozenset({1}), "input")
        b = rec.record(frozenset({-1}), "input")
        c = rec.record(EMPTY, "resolve", (a, b), pivot=0)
        assert a < c and b < c

    def test_derivation_is_the_ancestor_cone(self):
        rec = provenance.DerivationRecorder()
        a = rec.record(frozenset({1}), "input")
        rec.record(frozenset({2}), "input")  # unrelated
        b = rec.record(frozenset({-1}), "input")
        rec.record(EMPTY, "resolve", (a, b), pivot=0)
        steps = rec.derivation(EMPTY)
        assert [step.clause for step in steps] == [
            frozenset({1}),
            frozenset({-1}),
            EMPTY,
        ]

    def test_unrecorded_clause_has_no_derivation(self):
        assert provenance.DerivationRecorder().derivation(frozenset({9})) is None

    def test_recording_installs_and_restores(self):
        assert not provenance.is_enabled()
        outer = provenance.recorder()
        with provenance.recording() as rec:
            assert provenance.is_enabled()
            assert provenance.recorder() is rec
            assert rec is not outer
        assert not provenance.is_enabled()
        assert provenance.recorder() is outer


class TestJsonRoundTrip:
    def _steps(self):
        rec = provenance.DerivationRecorder()
        a = rec.record(frozenset({1, 2}), "input")
        b = rec.record(frozenset({-1}), "assumption")
        c = rec.record(frozenset({2}), "resolve", (a, b), pivot=0)
        rec.record(frozenset({-2}), "assumption")
        rec.record(EMPTY, "resolve", (c, 3), pivot=1)
        return rec.derivation(EMPTY)

    def test_round_trip_preserves_every_step(self):
        steps = self._steps()
        document = provenance.derivation_to_json(steps)
        assert provenance.derivation_from_json(json.loads(json.dumps(document))) == steps

    def test_schema_drift_is_refused(self):
        document = provenance.derivation_to_json(self._steps())
        document["schema"] = 99
        with pytest.raises(ProvenanceError):
            provenance.derivation_from_json(document)

    def test_malformed_step_is_refused(self):
        document = provenance.derivation_to_json(self._steps())
        del document["steps"][0]["clause"]
        with pytest.raises(ProvenanceError):
            provenance.derivation_from_json(document)

    def test_unknown_rule_is_refused(self):
        document = provenance.derivation_to_json(self._steps())
        document["steps"][0]["rule"] = "guess"
        with pytest.raises(ProvenanceError):
            provenance.derivation_from_json(document)


class TestVerifier:
    def test_valid_refutation_passes(self):
        rec = provenance.DerivationRecorder()
        a = rec.record(frozenset({1}), "input")
        b = rec.record(frozenset({-1}), "input")
        rec.record(EMPTY, "resolve", (a, b), pivot=0)
        steps = rec.derivation(EMPTY)
        assert provenance.verify_derivation(steps, target=EMPTY) == []

    def test_tampered_clause_is_caught(self):
        rec = provenance.DerivationRecorder()
        a = rec.record(frozenset({1, 2}), "input")
        b = rec.record(frozenset({-1}), "input")
        rec.record(frozenset({2}), "resolve", (a, b), pivot=0)
        steps = rec.derivation(frozenset({2}))
        forged = steps[:-1] + [
            provenance.DerivationNode(
                steps[-1].cid, frozenset({3}), "resolve", steps[-1].parents, 0
            )
        ]
        assert any("resolvent" in defect for defect in
                   provenance.verify_derivation(forged))

    def test_foreign_input_is_caught_against_axioms(self):
        rec = provenance.DerivationRecorder()
        rec.record(frozenset({1}), "input")
        steps = rec.derivation(frozenset({1}))
        assert provenance.verify_derivation(steps, axioms=[frozenset({2})])
        assert provenance.verify_derivation(steps, axioms=[frozenset({1})]) == []

    def test_forward_parent_reference_is_caught(self):
        steps = [provenance.DerivationNode(0, EMPTY, "resolve", (1, 2), 0)]
        assert provenance.verify_derivation(steps)

    def test_wrong_target_is_caught(self):
        rec = provenance.DerivationRecorder()
        rec.record(frozenset({1}), "input")
        steps = rec.derivation(frozenset({1}))
        assert provenance.verify_derivation(steps, target=EMPTY)


class TestKernelRecording:
    def test_disabled_kernels_record_nothing(self):
        before = len(provenance.recorder())
        cs = ClauseSet.from_strs(VOCAB, ["A1", "~A1 | A2"])
        resolution_closure(cs)
        assert len(provenance.recorder()) == before

    def test_saturation_records_resolvents(self):
        cs = ClauseSet.from_strs(VOCAB, ["A1 | A2", "~A1 | A3"])
        with provenance.recording() as rec:
            resolution_closure(cs)
            derived = rec.id_of(frozenset({2, 3}))
            assert derived is not None
            node = rec.node(derived)
        assert node.rule == "resolve"
        assert node.pivot == 0

    def test_unit_resolve_derivation_verifies(self):
        # unitres is single-pass: both units are given, not chained.
        cs = ClauseSet.from_strs(VOCAB, ["~A1 | A2", "~A2 | A3"])
        with provenance.recording() as rec:
            unit_resolve(cs, [1, 2])
            steps = rec.derivation(frozenset({3}))
        assert steps is not None
        assert provenance.verify_derivation(steps, target=frozenset({3})) == []
        assert any(step.rule == "given" for step in steps)

    def test_sat_solver_conflict_yields_verified_refutation(self):
        cs = ClauseSet.from_strs(VOCAB, ["A1", "~A1 | A2", "~A2"])
        with provenance.recording() as rec:
            assert not is_satisfiable(cs)
            steps = rec.derivation(EMPTY)
        assert steps is not None
        assert provenance.verify_derivation(steps, target=EMPTY) == []


class TestDisabledPathIsIdentical:
    def _workload_counters(self):
        from repro.hlu.session import IncompleteDatabase
        from repro.obs import core

        core.reset()
        core.enable()
        try:
            db = IncompleteDatabase.over(5)
            db.assert_("~A1 | A3", "A1 | A4", "A4 | A5")
            db.insert("A1 | A2")
            db.is_certain("A1 | A2")
            db.is_possible("~A3")
            db.canonical_clauses()
            return core.counters().snapshot()
        finally:
            core.disable()
            core.reset()

    def test_counters_bit_identical_after_enable_disable_cycle(self):
        from repro.hlu import audit

        baseline = self._workload_counters()
        # Cycle both provenance and audit on and off; the disabled hooks
        # must leave every kernel counter exactly as it was.
        provenance.enable()
        provenance.disable()
        audit.enable()
        audit.disable()
        assert self._workload_counters() == baseline


class TestBudget:
    def _blowup(self):
        import itertools

        clauses = [
            " | ".join(f"{'~' if s else ''}A{i + 1}" for i, s in enumerate(signs))
            for signs in itertools.product([0, 1], repeat=4)
        ]
        return ClauseSet.from_strs(VOCAB, clauses[:-1])

    def test_budget_error_carries_its_numbers(self):
        with pytest.raises(ClosureBudgetError) as info:
            resolution_closure(self._blowup(), max_clauses=10)
        assert info.value.budget == 10
        assert info.value.formed >= 1

    def test_budget_error_is_still_a_memory_error(self):
        # Back-compat: older call sites catch MemoryError.
        with pytest.raises(MemoryError):
            resolution_closure(self._blowup(), max_clauses=10)

    def test_prime_implicates_raises_the_dedicated_error(self):
        from repro.logic.implicates import prime_implicates

        with pytest.raises(ClosureBudgetError):
            prime_implicates(self._blowup(), max_clauses=10)


class TestExplainDrivers:
    def test_in_closure_finds_and_verifies(self):
        cs = ClauseSet.from_strs(VOCAB, ["A1 | A2", "~A1 | A3"])
        target = frozenset({2, 3})
        steps = provenance.explain_in_closure(cs, target)
        assert steps is not None
        assert provenance.verify_derivation(
            steps, target=target, axioms=cs.clauses
        ) == []

    def test_in_closure_returns_none_for_underivable(self):
        cs = ClauseSet.from_strs(VOCAB, ["A1 | A2"])
        assert provenance.explain_in_closure(cs, frozenset({3})) is None

    def test_entailment_is_a_refutation_with_assumptions(self):
        cs = ClauseSet.from_strs(VOCAB, ["A1 | A2", "~A2 | A1"])
        steps = provenance.explain_entailment(cs, frozenset({1}))
        assert steps is not None
        assert steps[-1].clause == EMPTY
        assert any(step.rule == "assumption" for step in steps)
        assert provenance.verify_derivation(
            steps, target=EMPTY, axioms=cs.clauses
        ) == []

    def test_entailment_returns_none_when_not_entailed(self):
        cs = ClauseSet.from_strs(VOCAB, ["A1 | A2"])
        assert provenance.explain_entailment(cs, frozenset({1})) is None

    @staticmethod
    def _forty_clauses() -> ClauseSet:
        """40 distinct random 3-clauses over 24 letters: a stream-sized
        state whose resolution closure outgrows a small budget."""
        rng = random.Random(40)
        vocab = Vocabulary.standard(24)
        clauses: set = set()
        while len(clauses) < 40:
            clauses.add(frozenset(
                make_literal(i, rng.random() < 0.5) for i in rng.sample(range(24), 3)
            ))
        return ClauseSet(vocab, clauses)

    def test_non_entailed_target_answers_without_saturating(self):
        # Proving "not entailed" by saturation overruns this budget.
        cs = self._forty_clauses()
        for target in (frozenset({1}), frozenset({1, 2, 3, 4})):
            assert is_satisfiable(cs, tuple(-lit for lit in target))
            assert provenance.explain_entailment(cs, target, max_clauses=5000) is None

    def test_precheck_records_nothing(self):
        cs = ClauseSet.from_strs(VOCAB, ["A1 | A2", "~A2 | A1"])
        provenance.enable()
        try:
            ambient = provenance.reset()
            assert provenance.explain_entailment(cs, frozenset({2})) is None
            steps = provenance.explain_entailment(cs, frozenset({1}))
            assert len(ambient) == 0
            assert provenance.is_enabled()
        finally:
            provenance.disable()
        # The entailed target's derivation is what saturation alone records.
        with provenance.recording() as active:
            active.record(frozenset({-1}), "assumption")
            resolution._saturate(
                list(cs.clauses) + [frozenset({-1})], None,
                max_clauses=100_000, stop_on=EMPTY,
            )
            assert steps == active.derivation(EMPTY)

    def test_inconsistency_none_on_satisfiable_state(self):
        cs = ClauseSet.from_strs(VOCAB, ["A1 | A2", "~A1 | A3"])
        assert provenance.explain_inconsistency(cs) is None

    def test_drivers_leave_the_flag_off(self):
        cs = ClauseSet.from_strs(VOCAB, ["A1", "~A1"])
        assert provenance.explain_inconsistency(cs) is not None
        assert not provenance.is_enabled()

    def test_render_mentions_rule_and_pivot(self):
        cs = ClauseSet.from_strs(VOCAB, ["A1", "~A1"])
        steps = provenance.explain_inconsistency(cs)
        text = provenance.render_derivation(steps, VOCAB)
        assert "resolve" in text and "on A1" in text


class TestRandomizedAcceptance:
    """The acceptance criterion: across 200+ randomized cases, every
    inconsistent update yields an empty-clause derivation that the
    independent verifier accepts, and every consistent one yields none
    (cross-checked against the DPLL solver)."""

    CASES = 240

    def _random_clause_set(self, rng):
        letters = rng.randint(3, 5)
        vocabulary = Vocabulary.standard(letters)
        clauses = []
        for _ in range(rng.randint(2, 2 * letters + 2)):
            width = rng.randint(1, min(3, letters))
            chosen = rng.sample(range(letters), width)
            clauses.append(
                clause_of(make_literal(i, rng.random() < 0.5) for i in chosen)
            )
        return ClauseSet(vocabulary, frozenset(clauses))

    def test_every_inconsistency_is_explained_and_verified(self):
        rng = random.Random(1987)
        inconsistent = 0
        for _ in range(self.CASES):
            cs = self._random_clause_set(rng)
            satisfiable = is_satisfiable(cs)
            steps = provenance.explain_inconsistency(cs)
            if satisfiable:
                assert steps is None
                continue
            inconsistent += 1
            assert steps is not None, f"unsat state not explained: {cs}"
            defects = provenance.verify_derivation(
                steps, target=EMPTY, axioms=cs.clauses
            )
            assert defects == [], f"{cs}: {defects}"
        # The generator must actually exercise the interesting branch.
        assert inconsistent >= 60

    def test_inconsistent_session_updates_are_explained(self):
        from repro.hlu.session import IncompleteDatabase

        rng = random.Random(315)
        explained = 0
        for _ in range(40):
            db = IncompleteDatabase.over(4)
            for _ in range(rng.randint(3, 9)):
                width = rng.choice((1, 1, 2, 3))
                chosen = rng.sample(range(4), width)
                text = " | ".join(
                    f"{'~' if rng.random() < 0.5 else ''}A{i + 1}" for i in chosen
                )
                db.assert_(text)
                if not db.is_consistent():
                    steps = provenance.explain_inconsistency(db.clauses())
                    assert steps is not None
                    assert provenance.verify_derivation(
                        steps, target=EMPTY, axioms=db.clauses().clauses
                    ) == []
                    explained += 1
                    break
        assert explained >= 10
