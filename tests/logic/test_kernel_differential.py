"""Differential tests: indexed clause kernels vs the seed full-scan ones.

The PR that introduced the occurrence-indexed ``rclosure`` /
``unit_resolve`` / ``resolution_closure``, the signature-filtered
``ClauseSet.reduce``, and the iterative DPLL promised *bit-identical
outputs* (same ``ClauseSet`` values, same sat/unsat verdicts, same model
counts).  This module keeps verbatim copies of the seed implementations
(``_reference_*``, obs instrumentation stripped) and checks the shipped
kernels against them on hundreds of randomized clause sets of up to 40
letters.
"""

import random
from collections import Counter

from repro.blu.clausal_mask import clausal_mask
from repro.logic import truthtable
from repro.logic.clauses import (
    _MERGE_SCAN_MAX,
    EMPTY_CLAUSE,
    Clause,
    ClauseSet,
    clause_sort_key,
    make_literal,
)
from repro.logic.propositions import Vocabulary
from repro.logic.resolution import (
    eliminate_letter,
    rclosure,
    resolution_closure,
    resolvent,
    unit_resolve,
)
from repro.obs import core as obs
from repro.logic import sat
from repro.logic.sat import count_models, count_models_exact, is_satisfiable, solve
from repro.logic.semantics import clause_set_table, models_of_clauses
from repro.workloads.generators import random_clause


# ---------------------------------------------------------------------------
# reference (seed) implementations, kept verbatim minus obs calls
# ---------------------------------------------------------------------------

def _reference_reduce(clause_set: ClauseSet) -> ClauseSet:
    by_size = sorted(clause_set.clauses, key=len)
    kept: list[Clause] = []
    for clause in by_size:
        if not any(kept_clause <= clause for kept_clause in kept):
            kept.append(clause)
    return ClauseSet(clause_set.vocabulary, kept)


def _reference_rclosure(clause_set: ClauseSet, indices) -> ClauseSet:
    index_list = sorted(set(indices))
    current: set[Clause] = set(clause_set.clauses)
    changed = True
    while changed:
        changed = False
        for index in index_list:
            positive_literal = make_literal(index, positive=True)
            negative_literal = -positive_literal
            with_pos = [c for c in current if positive_literal in c]
            with_neg = [c for c in current if negative_literal in c]
            for clause_pos in with_pos:
                for clause_neg in with_neg:
                    res = resolvent(clause_pos, clause_neg, index)
                    if res is not None and res not in current:
                        current.add(res)
                        changed = True
    return ClauseSet(clause_set.vocabulary, current)


def _reference_unit_resolve(clause_set: ClauseSet, literals) -> ClauseSet:
    literal_list = list(literals)
    clauses: set[Clause] = set(clause_set.clauses)
    for literal in literal_list:
        negated = -literal
        updated: set[Clause] = set()
        for clause in clauses:
            if negated in clause:
                updated.add(clause - {negated})
            else:
                updated.add(clause)
        clauses = updated
    return ClauseSet(clause_set.vocabulary, clauses)


def _reference_resolution_closure(clause_set: ClauseSet, max_clauses: int = 100_000) -> ClauseSet:
    indices = sorted(clause_set.prop_indices)
    current: set[Clause] = set(clause_set.clauses)
    changed = True
    while changed:
        changed = False
        snapshot = list(current)
        for index in indices:
            positive_literal = make_literal(index, positive=True)
            with_pos = [c for c in snapshot if positive_literal in c]
            with_neg = [c for c in snapshot if -positive_literal in c]
            for clause_pos in with_pos:
                for clause_neg in with_neg:
                    res = resolvent(clause_pos, clause_neg, index)
                    if res is not None and res not in current:
                        current.add(res)
                        changed = True
                        if len(current) > max_clauses:
                            raise MemoryError
    return ClauseSet(clause_set.vocabulary, current)


# ---------------------------------------------------------------------------
# randomized workloads
# ---------------------------------------------------------------------------

def _random_clause_set(rng: random.Random, vocab: Vocabulary, clause_count: int, max_width: int) -> ClauseSet:
    n = len(vocab)
    clauses = []
    for _ in range(clause_count):
        width = rng.randint(1, min(max_width, n))
        letters = rng.sample(range(n), width)
        clauses.append(
            frozenset(make_literal(i, rng.random() < 0.5) for i in letters)
        )
    return ClauseSet(vocab, clauses)


class TestReduceDifferential:
    def test_reduce_matches_reference_on_random_sets(self):
        rng = random.Random(1987)
        for case in range(120):
            vocab = Vocabulary.standard(rng.randint(2, 40))
            cs = _random_clause_set(rng, vocab, rng.randint(1, 30), 4)
            assert cs.reduce() == _reference_reduce(cs), f"case {case}: {cs}"

    def test_reduce_with_duplicated_subsuming_units(self):
        vocab = Vocabulary.standard(40)
        clauses = [frozenset({1}), frozenset({1, 2}), frozenset({1, -2, 40}),
                   frozenset({-3, 4}), frozenset({-3, 4, -40})]
        cs = ClauseSet(vocab, clauses)
        assert cs.reduce() == _reference_reduce(cs)
        assert cs.reduce().clauses == frozenset({frozenset({1}), frozenset({-3, 4})})


def _reference_eliminate(clause_set: ClauseSet, index: int) -> ClauseSet:
    """The seed's mask step: rclosure on the letter, drop it, reduce."""
    closed = _reference_rclosure(clause_set, [index])
    literal = make_literal(index)
    kept = [c for c in closed.clauses if literal not in c and -literal not in c]
    return _reference_reduce(ClauseSet(clause_set.vocabulary, kept))


def _resolution_counts(thunk):
    """Run ``thunk`` with the obs counters on; return its result and the
    ``(resolvents_formed, tautologies_discarded)`` counts it made."""
    obs.enable()
    obs.reset()
    try:
        result = thunk()
        counts = obs.counters().snapshot()
    finally:
        obs.reset()
        obs.disable()
    return result, (
        counts.get("logic.resolution.resolvents_formed", 0),
        counts.get("logic.resolution.tautologies_discarded", 0),
    )


def _resolvents_formed(thunk):
    """Run ``thunk`` with the obs counters on; return its result and the
    ``logic.resolution.resolvents_formed`` count it made."""
    result, (formed, _) = _resolution_counts(thunk)
    return result, formed


def _maybe_marked(rng: random.Random, clause_set: ClauseSet) -> ClauseSet:
    """The set as built (unmarked) or its reduced, marked form."""
    return clause_set.reduce() if rng.random() < 0.6 else clause_set


class TestMergeDifferential:
    """``merge`` is ``union`` then ``reduce``, marked base or not."""

    def test_merge_matches_reference_on_random_sets(self):
        rng = random.Random(2302)
        for case in range(300):
            vocab = Vocabulary.standard(rng.randint(2, 40))
            base_clauses = set(
                _random_clause_set(rng, vocab, rng.randint(0, 30), 4).clauses
            )
            if rng.random() < 0.05:
                base_clauses.add(EMPTY_CLAUSE)
            base = _maybe_marked(rng, ClauseSet(vocab, base_clauses))
            # Up to 60 new clauses, so both the scan and the indexed
            # merge run; some are already in the base.
            extra_clauses = set(
                _random_clause_set(rng, vocab, rng.randint(0, 60), 4).clauses
            )
            if base.clauses and rng.random() < 0.4:
                ordered = sorted(base.clauses, key=clause_sort_key)
                extra_clauses.update(rng.sample(ordered, rng.randint(1, len(ordered))))
            if rng.random() < 0.05:
                extra_clauses.add(EMPTY_CLAUSE)
            extra = _maybe_marked(rng, ClauseSet(vocab, extra_clauses))
            merged = base.merge(extra)
            assert merged == _reference_reduce(base.union(extra)), f"case {case}"
            assert merged.known_reduced

    def test_merge_of_nothing_new_returns_the_base(self):
        vocab = Vocabulary.standard(4)
        base = ClauseSet.from_strs(vocab, ["A1 | A2", "~A3"]).reduce()
        assert base.merge(ClauseSet.from_strs(vocab, ["~A3"])) is base
        assert base.merge(ClauseSet.from_strs(vocab, ["~A3 | A4"])) is base


class TestEliminateLetterDifferential:
    """The one-round Davis-Putnam step against the seed's
    rclosure-drop-reduce, in value and in ``resolvents_formed``."""

    def _random_input(self, rng: random.Random) -> tuple[ClauseSet, int]:
        vocab = Vocabulary.standard(rng.randint(2, 40))
        clauses = set(_random_clause_set(rng, vocab, rng.randint(1, 25), 4).clauses)
        # Often a letter that does not occur (large vocabularies).
        index = rng.randrange(len(vocab))
        if rng.random() < 0.1:
            # Complementary units: the empty clause is a resolvent.
            literal = make_literal(index)
            clauses.update((frozenset({literal}), frozenset({-literal})))
        if rng.random() < 0.03:
            clauses.add(EMPTY_CLAUSE)
        return _maybe_marked(rng, ClauseSet(vocab, clauses)), index

    def test_eliminate_letter_matches_reference_on_random_sets(self):
        rng = random.Random(1987_2)
        for case in range(300):
            cs, index = self._random_input(rng)
            result, formed = _resolvents_formed(lambda: eliminate_letter(cs, index))
            assert result == _reference_eliminate(cs, index), f"case {case}: {cs} on {index}"
            assert result.known_reduced
            _, closure_formed = _resolvents_formed(lambda: rclosure(cs, [index]))
            assert formed == closure_formed, f"case {case}"

    def test_clausal_mask_matches_reference_on_random_sets(self):
        rng = random.Random(235)
        for case in range(150):
            cs, _ = self._random_input(rng)
            vocab = cs.vocabulary
            letters = rng.sample(range(len(vocab)), rng.randint(1, min(4, len(vocab))))
            masked, formed = _resolvents_formed(lambda: clausal_mask(cs, letters))
            expected = cs
            expected_formed = 0
            for index in sorted(letters):
                _, step_formed = _resolvents_formed(
                    lambda: rclosure(expected, [index])
                )
                expected_formed += step_formed
                expected = _reference_eliminate(expected, index)
            assert masked == expected, f"case {case}: {cs} on {letters}"
            assert formed == expected_formed, f"case {case}"

    def test_unsimplified_mask_is_raw_rclosure_then_drop(self):
        rng = random.Random(236)
        for case in range(60):
            cs, _ = self._random_input(rng)
            letters = rng.sample(range(len(cs.vocabulary)), rng.randint(1, 2))
            expected = cs
            for index in sorted(letters):
                closed = _reference_rclosure(expected, [index])
                literal = make_literal(index)
                expected = ClauseSet(cs.vocabulary, [
                    c for c in closed.clauses if literal not in c and -literal not in c
                ])
            assert clausal_mask(cs, letters, simplify=False) == expected, f"case {case}"


def _stream_session(rng: random.Random, letters: int):
    """One session grown the way perfbench's stream_large grows its states:
    40 distinct width-3 clauses asserted at once, then three blocks of 7
    asserts and 2 inserts of width-3 clauses in shuffled order.  Yields
    ``(state, masked letters)`` before each insert's mask, which forgets
    1-3 of the inserted clause's letters."""
    vocab = Vocabulary.standard(letters)
    preload: set[Clause] = set()
    while len(preload) < 40:
        preload.add(random_clause(rng, letters, 3))
    state = ClauseSet.tautology(vocab).merge(ClauseSet(vocab, preload))
    for _ in range(3):
        kinds = ["assert"] * 7 + ["insert"] * 2
        rng.shuffle(kinds)
        for kind in kinds:
            clause = random_clause(rng, letters, 3)
            if kind == "insert":
                clause_letters = sorted(abs(literal) - 1 for literal in clause)
                masked = rng.sample(clause_letters, rng.randint(1, 3))
                yield state, masked
                state = clausal_mask(state, masked)
            state = state.merge(ClauseSet(vocab, [clause]))


class TestEliminateLetterStreamRegime:
    """Davis-Putnam steps on states grown like stream_large's: 40-200
    clauses over 24 letters, whose steps form hundreds of resolvents of
    up to 9 literals, so the indexed merge runs (the random sets above
    rarely reach it)."""

    def test_steps_match_reference_and_rclosure_counts(self):
        rng = random.Random(1987_24)
        steps = indexed = 0
        for session in range(10):
            for state, masked in _stream_session(rng, 24):
                current = state
                for index in sorted(masked):
                    result, counts = _resolution_counts(
                        lambda: eliminate_letter(current, index)
                    )
                    where = f"session {session}, letter {index}"
                    assert result == _reference_eliminate(current, index), where
                    assert result.known_reduced, where
                    _, closure_counts = _resolution_counts(
                        lambda: rclosure(current, [index])
                    )
                    assert counts == closure_counts, where
                    steps += 1
                    # resolvents_formed counts the new clauses merged in.
                    indexed += counts[0] > _MERGE_SCAN_MAX
                    current = result
        assert steps > 100
        assert indexed > 20

    def test_mask_matches_truth_table_saturation(self):
        """Thm 2.3.6(a) without resolution: the models of the mask are the
        models of the state saturated on the masked letters."""
        rng = random.Random(1987_16)
        masks = 0
        for session in range(6):
            letters = rng.randint(16, 20)
            for state, masked in _stream_session(rng, letters):
                expected = truthtable.saturate(clause_set_table(state), masked, letters)
                masked_table = clause_set_table(clausal_mask(state, masked))
                assert masked_table == expected, f"session {session}: {state} on {masked}"
                masks += 1
        assert masks == 36


class TestRclosureDifferential:
    def test_rclosure_matches_reference_on_random_sets(self):
        rng = random.Random(315)
        for case in range(100):
            vocab = Vocabulary.standard(rng.randint(2, 40))
            cs = _random_clause_set(rng, vocab, rng.randint(1, 18), 3)
            pivot_count = rng.randint(1, min(3, len(vocab)))
            pivots = rng.sample(range(len(vocab)), pivot_count)
            assert rclosure(cs, pivots) == _reference_rclosure(cs, pivots), (
                f"case {case}: {cs} on {pivots}"
            )

    def test_rclosure_multi_letter_chains(self):
        # Resolvents of resolvents across several pivot letters.
        rng = random.Random(325)
        vocab = Vocabulary.standard(12)
        for case in range(30):
            cs = _random_clause_set(rng, vocab, rng.randint(4, 14), 2)
            pivots = rng.sample(range(12), 4)
            assert rclosure(cs, pivots) == _reference_rclosure(cs, pivots)


class TestUnitResolveDifferential:
    def test_unit_resolve_matches_reference_on_random_sets(self):
        rng = random.Random(238)
        for case in range(120):
            vocab = Vocabulary.standard(rng.randint(2, 40))
            cs = _random_clause_set(rng, vocab, rng.randint(1, 25), 4)
            k = rng.randint(0, len(vocab))
            literals = [
                make_literal(i, rng.random() < 0.5)
                for i in rng.sample(range(len(vocab)), k)
            ]
            assert unit_resolve(cs, literals) == _reference_unit_resolve(cs, literals), (
                f"case {case}: {cs} striking {literals}"
            )

    def test_unit_resolve_merging_clauses(self):
        # Two clauses collapsing to the same residue must merge, as the
        # seed's set semantics did.
        vocab = Vocabulary.standard(3)
        cs = ClauseSet(vocab, [frozenset({1, -2}), frozenset({1, 3})])
        result = unit_resolve(cs, [2, -3])
        assert result == _reference_unit_resolve(cs, [2, -3])
        assert result.clauses == frozenset({frozenset({1})})


class TestResolutionClosureDifferential:
    def test_total_closure_matches_reference(self):
        rng = random.Random(2346)
        for case in range(40):
            vocab = Vocabulary.standard(rng.randint(2, 9))
            cs = _random_clause_set(rng, vocab, rng.randint(1, 8), 3)
            assert resolution_closure(cs) == _reference_resolution_closure(cs), (
                f"case {case}: {cs}"
            )


class TestSolverDifferential:
    def test_verdicts_and_counts_agree_with_enumeration(self):
        rng = random.Random(4655)
        for case in range(80):
            vocab = Vocabulary.standard(rng.randint(1, 10))
            cs = _random_clause_set(rng, vocab, rng.randint(1, 14), 3)
            models = models_of_clauses(cs)
            assert is_satisfiable(cs) == bool(models), f"case {case}: {cs}"
            assert count_models_exact(cs) == len(models), f"case {case}: {cs}"
            model = solve(cs)
            if models:
                # The (partial) model must extend to a world in Mod[Phi].
                world = 0
                for index, value in model.items():
                    if value:
                        world |= 1 << index
                assert cs.satisfied_by(world), f"case {case}: {cs} model {model}"

    def test_counts_agree_on_larger_vocabulary_via_count_models(self):
        rng = random.Random(5921)
        for _ in range(25):
            vocab = Vocabulary.standard(12)
            cs = _random_clause_set(rng, vocab, rng.randint(1, 20), 3)
            assert count_models_exact(cs) == count_models(cs)


# ---------------------------------------------------------------------------
# the decision search: open counts vs the scan it replaced
# ---------------------------------------------------------------------------

def _reference_scan_open(state):
    """The scan-based solver's one pass over the open clauses: pure
    literals + literal counts (verbatim, ``self`` renamed)."""
    assignment = state.assignment
    polarity: dict[int, int] = {}
    counts: Counter = Counter()
    for cid, clause in enumerate(state.clauses):
        if state.n_true[cid] > 0:
            continue
        for literal in clause:
            index = abs(literal) - 1
            if index in assignment:
                continue
            counts[literal] += 1
            sign = 1 if literal > 0 else -1
            previous = polarity.get(index)
            if previous is None:
                polarity[index] = sign
            elif previous != sign:
                polarity[index] = 0
    pures = [(index, sign > 0) for index, sign in polarity.items() if sign != 0]
    return pures, counts


def _reference_search(state):
    """The scan-based solver's ``_search`` (verbatim, obs counters kept:
    they are what the comparison checks)."""
    frames: list[tuple[int, bool, int, bool]] = []
    while True:
        if state.propagate():
            if state.open_clauses == 0:
                return dict(state.assignment)
            state.prov_active = False
            while True:
                pures, counts = _reference_scan_open(state)
                if not pures:
                    break
                for index, value in pures:
                    state.assign(index, value)
                if state.open_clauses == 0:
                    return dict(state.assignment)
            literal, _ = counts.most_common(1)[0]
            index = abs(literal) - 1
            first = literal > 0
            obs.inc("logic.sat.decisions")
            frames.append((index, first, len(state.trail), False))
            state.assign(index, first)
        else:
            while frames:
                index, first, mark, flipped = frames.pop()
                state.undo_to(mark)
                if not flipped:
                    obs.inc("logic.sat.backtracks")
                    obs.inc("logic.sat.decisions")
                    frames.append((index, first, mark, True))
                    state.assign(index, not first)
                    break
            else:
                return None


def _reference_solve(clause_set: ClauseSet, assumptions=()):
    """``solve`` over the plain solver state and the scan-based search."""
    assignment: dict[int, bool] = {}
    for literal in assumptions:
        index = abs(literal) - 1
        if assignment.get(index, literal > 0) != (literal > 0):
            return None
        assignment[index] = literal > 0
    return _reference_search(sat._SolverState(list(clause_set.clauses), assignment))


_SEARCH_COUNTERS = (
    "logic.sat.decisions",
    "logic.sat.backtracks",
    "logic.sat.conflicts",
    "logic.sat.unit_propagations",
)


def _search_counts(thunk):
    """Run ``thunk`` with the obs counters on; its result and the
    search counters it left."""
    obs.enable()
    obs.reset()
    try:
        result = thunk()
        snapshot = obs.counters().snapshot()
        return result, {name: snapshot.get(name, 0) for name in _SEARCH_COUNTERS}
    finally:
        obs.reset()
        obs.disable()


def _random_assumptions(rng: random.Random, n: int) -> tuple[int, ...]:
    """0-3 literals; letters may repeat, so some are complementary."""
    return tuple(
        make_literal(rng.randrange(n), rng.random() < 0.5)
        for _ in range(rng.randint(0, 3))
    )


def _hard_3cnf(rng: random.Random, n: int) -> ClauseSet:
    """Random 3-CNF near the satisfiability threshold (~4.3 clauses per
    letter): the instances that make DPLL decide and backtrack."""
    vocab = Vocabulary.standard(n)
    return ClauseSet(vocab, [
        frozenset(make_literal(i, rng.random() < 0.5) for i in rng.sample(range(n), 3))
        for _ in range(round(4.3 * n))
    ])


def _solver_inputs():
    """Seeded (clause set, assumptions) pairs: random CNFs of 3-40
    letters and widths 1-5, hard 3-CNFs, the empty set, and sets holding
    the empty clause."""
    rng = random.Random(2302_06246)
    for _ in range(300):
        n = rng.randint(3, 40)
        vocab = Vocabulary.standard(n)
        clauses = set(_random_clause_set(rng, vocab, rng.randint(1, 4 * n), 5).clauses)
        if rng.random() < 0.03:
            clauses.add(EMPTY_CLAUSE)
        yield ClauseSet(vocab, clauses), _random_assumptions(rng, n)
    for _ in range(200):
        n = rng.randint(10, 40)
        yield _hard_3cnf(rng, n), _random_assumptions(rng, n)
    for n in (3, 40):
        vocab = Vocabulary.standard(n)
        yield ClauseSet(vocab, []), ()
        yield ClauseSet(vocab, []), _random_assumptions(rng, n)
        yield ClauseSet(vocab, [EMPTY_CLAUSE]), ()
        yield ClauseSet(vocab, [EMPTY_CLAUSE, frozenset({1, -2})]), (2,)


def _satisfies(clause_set: ClauseSet, assumptions, model) -> bool:
    """Every clause has a true literal and every assumption holds."""
    def true(literal):
        return model.get(abs(literal) - 1) == (literal > 0)
    return all(any(true(lit) for lit in clause) for clause in clause_set.clauses) and all(
        true(lit) for lit in assumptions
    )


class TestDecisionSearchDifferential:
    """``solve`` against the scan-based search it replaced: the same
    verdicts, models and decision/backtrack/conflict/propagation counts."""

    def test_search_matches_reference_step_for_step(self):
        decisions = 0
        for case, (cs, assumptions) in enumerate(_solver_inputs()):
            model, counts = _search_counts(lambda: solve(cs, assumptions))
            expected, expected_counts = _search_counts(
                lambda: _reference_solve(cs, assumptions)
            )
            assert (model is None) == (expected is None), f"case {case}: {cs} under {assumptions}"
            assert counts == expected_counts, f"case {case}: {cs} under {assumptions}"
            if model is not None:
                assert model == expected, f"case {case}"
                assert _satisfies(cs, assumptions, model), f"case {case}: {model}"
            decisions += counts["logic.sat.decisions"]
        assert decisions > 2000  # the inputs really exercise the search

    def test_open_counts_equal_a_recount_after_every_backtrack(self, monkeypatch):
        undo_to = sat._DecisionState.undo_to
        checked = []

        def checked_undo_to(state, mark):
            undo_to(state, mark)
            recount = Counter(
                literal
                for cid, clause in enumerate(state.clauses)
                if state.n_true[cid] == 0
                for literal in clause
            )
            assert {lit: n for lit, n in state.open_count.items() if n} == dict(recount)
            assert state.open_clauses == sum(1 for n in state.n_true if n == 0)
            assert not state.pure_queue
            checked.append(mark)

        monkeypatch.setattr(sat._DecisionState, "undo_to", checked_undo_to)
        rng = random.Random(43)
        for _ in range(40):
            cs = _hard_3cnf(rng, rng.randint(12, 30))
            solve(cs, _random_assumptions(rng, len(cs.vocabulary)))
        assert len(checked) > 100
