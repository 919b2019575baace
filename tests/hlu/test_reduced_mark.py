"""The reduced mark on clausal session states is never wrong.

``ClauseSet.merge`` and the one-round ``eliminate_letter`` trust the
mark: on a marked state they subsume incrementally instead of reducing
from scratch.  A state marked while holding a subsumed clause would make
every later update wrong, so random update scripts check the mark after
every step, and sets built outside the kernels must start unmarked.
"""

import random

from repro.blu.clausal_impl import ClausalImplementation
from repro.hlu import language
from repro.hlu.interpreter import run_update
from repro.hlu.persistence import dump_session, load_session
from repro.hlu.session import IncompleteDatabase
from repro.logic.clauses import ClauseSet, make_literal
from tests.logic.test_kernel_differential import _reference_reduce

LETTERS = 6
CONSTRAINTS = ("A1 -> A2", "~(A3 & A4)")


def _literal(rng: random.Random) -> str:
    return f"{'~' if rng.random() < 0.5 else ''}A{rng.randint(1, LETTERS)}"


def _clause_text(rng: random.Random) -> str:
    return " | ".join(_literal(rng) for _ in range(rng.randint(1, 3)))


def _formula(rng: random.Random) -> str:
    return " & ".join(f"({_clause_text(rng)})" for _ in range(rng.randint(1, 2)))


def _simple_update(rng: random.Random) -> language.Update:
    kind = rng.choice(("assert", "insert", "delete", "modify", "clear"))
    if kind == "assert":
        return language.assert_(_formula(rng))
    if kind == "insert":
        return language.insert(_formula(rng))
    if kind == "delete":
        return language.delete(_formula(rng))
    if kind == "modify":
        return language.modify([_formula(rng)], [_formula(rng)])
    names = rng.sample([f"A{i}" for i in range(1, LETTERS + 1)], rng.randint(1, 3))
    return language.clear(*names)


def _update(rng: random.Random) -> language.Update:
    if rng.random() < 0.2:
        otherwise = _simple_update(rng) if rng.random() < 0.5 else None
        return language.where(_formula(rng), _simple_update(rng), otherwise)
    return _simple_update(rng)


def _assert_marked_and_reduced(state: ClauseSet, context: str) -> None:
    assert state.known_reduced, context
    assert state == _reference_reduce(state), context


class TestSessionStatesStayMarked:
    def _run_scripts(self, seed: int, enforce: bool) -> None:
        rng = random.Random(seed)
        for script in range(40):
            db = IncompleteDatabase.over(
                LETTERS,
                constraints=CONSTRAINTS if enforce else (),
                enforce_constraints=enforce,
            )
            _assert_marked_and_reduced(db.state, f"script {script} start")
            for step in range(12):
                if db.history and rng.random() < 0.2:
                    db.undo()
                    label = "undo"
                else:
                    update = _update(rng)
                    db.apply(update)
                    label = str(update)
                _assert_marked_and_reduced(
                    db.state, f"script {script} step {step}: {label}"
                )

    def test_random_scripts(self):
        self._run_scripts(seed=14, enforce=False)

    def test_random_scripts_with_enforced_constraints(self):
        self._run_scripts(seed=15, enforce=True)


class TestOutsideSetsStartUnmarked:
    """Sets the kernels did not build are unmarked, and the first update
    on one still gives the unsimplified algorithm's result, reduced."""

    def _check_first_update(self, db: IncompleteDatabase, rng: random.Random) -> None:
        assert not db.state.known_reduced
        raw = ClausalImplementation(db.vocabulary, simplify=False)
        update = _update(rng)
        expected = _reference_reduce(run_update(raw, db.state, update))
        db.apply(update)
        assert db.state == expected, str(update)
        _assert_marked_and_reduced(db.state, str(update))

    def _raw_clauses(self, rng: random.Random) -> list[frozenset[int]]:
        clauses = []
        for _ in range(rng.randint(3, 10)):
            letters = rng.sample(range(LETTERS), rng.randint(1, 3))
            clauses.append(frozenset(make_literal(i, rng.random() < 0.5) for i in letters))
        # A clause and a weakening of it: the set is not reduced.
        clauses.append(clauses[0] | {make_literal(LETTERS - 1)})
        return clauses

    def test_public_constructor(self):
        rng = random.Random(1)
        for _ in range(60):
            db = IncompleteDatabase.over(LETTERS)
            state = ClauseSet(db.vocabulary, self._raw_clauses(rng))
            self._check_first_update(
                IncompleteDatabase(db.schema, initial=state), rng
            )

    def test_from_strs(self):
        rng = random.Random(2)
        for _ in range(60):
            db = IncompleteDatabase.over(LETTERS)
            texts = [_clause_text(rng) for _ in range(6)] + ["A1", "A1 | A2"]
            state = ClauseSet.from_strs(db.vocabulary, texts)
            self._check_first_update(
                IncompleteDatabase(db.schema, initial=state), rng
            )

    def test_persistence_load(self):
        rng = random.Random(3)
        for _ in range(60):
            db = IncompleteDatabase.over(LETTERS, constraints=CONSTRAINTS)
            for _ in range(4):
                db.apply(_update(rng))
            loaded = load_session(dump_session(db))
            assert loaded.state == db.state
            self._check_first_update(loaded, rng)
