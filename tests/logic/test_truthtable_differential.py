"""Differential tests: the truth-table kernel vs the world-loop code it replaced.

``repro.logic.truthtable`` runs ``genmask``, ``WorldSet`` and the
``Mod``/``Sat``/``Th``/``Dep`` helpers on one ``2^n``-bit integer per
world set.  This module keeps the code they replaced as ``_reference_*``
oracles -- the Ldiff enumeration of Algorithm 2.3.8 (``CLS``/``Ldiff``
pairs tested with ``unitres``), the frozenset semantics helpers and the
DNF-to-CNF ``to_clause_set`` -- and checks the kernel against them on
hundreds of seeded inputs over 0-10 letters, including the empty set, a
contradiction, unit clauses and letters outside ``Prop[Phi]``.  Tables
wider than ``TABLE_LETTERS`` are checked by shrinking it to 3 letters, so
the slice code runs on inputs small enough for the oracles.
"""

import itertools
import random
import time

import pytest

from repro.blu.clausal_genmask import clausal_genmask, depends_on
from repro.db.instances import WorldSet
from repro.db.schema import DbSchema
from repro.logic import truthtable
from repro.logic.clauses import ClauseSet, Literal, clause_of, make_literal
from repro.logic.cnf import formula_to_clauses
from repro.logic.formula import FALSE, TRUE, And, Formula, Or, conj, disj, var
from repro.logic.implicates import prime_implicates
from repro.logic.propositions import Vocabulary
from repro.logic.resolution import unit_resolve
from repro.logic.sat import count_models
from repro.logic.semantics import (
    clause_set_dependency_indices,
    clause_sets_equivalent,
    dependency_indices,
    formulas_entail,
    models_of_clauses,
    models_of_formulas,
    sat_literals,
    theory_contains,
)
from repro.logic.structures import all_worlds, flip_bit, satisfies, saturate_on
from repro.workloads.generators import random_clause, random_formula


# ---------------------------------------------------------------------------
# reference implementations: the world loops and the Ldiff enumeration
# ---------------------------------------------------------------------------

def _reference_models_of_formulas(vocabulary, formulas):
    formula_tuple = tuple(formulas)
    return frozenset(
        world
        for world in all_worlds(vocabulary)
        if all(satisfies(vocabulary, world, f) for f in formula_tuple)
    )


def _reference_models_of_clauses(clause_set):
    return frozenset(
        world
        for world in all_worlds(clause_set.vocabulary)
        if clause_set.satisfied_by(world)
    )


def _reference_sat_literals(vocabulary, worlds):
    world_list = list(worlds)
    out = set()
    if not world_list:
        for name in vocabulary.names:
            out.add(name)
            out.add(f"~{name}")
        return frozenset(out)
    for index, name in enumerate(vocabulary.names):
        values = {world >> index & 1 for world in world_list}
        if values == {1}:
            out.add(name)
        elif values == {0}:
            out.add(f"~{name}")
    return frozenset(out)


def _reference_formulas_entail(vocabulary, premises, conclusions):
    premise_tuple = tuple(premises)
    conclusion_tuple = tuple(conclusions)
    for world in all_worlds(vocabulary):
        if all(satisfies(vocabulary, world, f) for f in premise_tuple):
            if not all(satisfies(vocabulary, world, f) for f in conclusion_tuple):
                return False
    return True


def _reference_dependency_indices(vocabulary, worlds):
    world_set = frozenset(worlds)
    dependent = set()
    for index in range(len(vocabulary)):
        for world in world_set:
            if flip_bit(world, index) not in world_set:
                dependent.add(index)
                break
    return frozenset(dependent)


def _reference_saturate_on(worlds, indices):
    index_list = sorted(indices)
    if not index_list:
        return frozenset(worlds)
    clear_mask = 0
    for index in index_list:
        clear_mask |= 1 << index
    skeletons = {world & ~clear_mask for world in worlds}
    result = set()
    combos = 1 << len(index_list)
    for skeleton in skeletons:
        for combo in range(combos):
            filled = skeleton
            for bit_position, index in enumerate(index_list):
                if combo >> bit_position & 1:
                    filled |= 1 << index
            result.add(filled)
    return frozenset(result)


def _reference_to_clause_set(vocabulary, worlds):
    """CNF-convert the DNF "one conjunct per world", then reduce."""
    if not worlds:
        return ClauseSet.contradiction(vocabulary)
    world_formulas = []
    for world in sorted(worlds):
        literals = [
            var(name) if world >> i & 1 else ~var(name)
            for i, name in enumerate(vocabulary.names)
        ]
        world_formulas.append(conj(literals))
    return formula_to_clauses(disj(world_formulas), vocabulary).reduce()


def _reference_cls_assignments(clause_set):
    """``CLS[Phi]`` (Definition 2.3.7(a)): consistent total literal sets
    over ``Prop[Phi]``."""
    indices = sorted(clause_set.prop_indices)
    for signs in itertools.product((False, True), repeat=len(indices)):
        yield frozenset(
            make_literal(index, positive=sign) for index, sign in zip(indices, signs)
        )


def _reference_ldiff(clause_set, index):
    """``Ldiff[A, Phi]`` (Definition 2.3.7(b)): pairs from ``CLS[Phi]``
    differing only in the polarity of the letter at ``index``."""
    other_indices = sorted(clause_set.prop_indices - {index})
    positive = make_literal(index, positive=True)
    negative = -positive
    for signs in itertools.product((False, True), repeat=len(other_indices)):
        shared = frozenset(
            make_literal(i, positive=sign) for i, sign in zip(other_indices, signs)
        )
        yield shared | {positive}, shared | {negative}


def _reference_depends_on(clause_set, index):
    """Algorithm 2.3.8: some Ldiff pair on which ``unitres`` leaves the
    empty clause under exactly one of the two assignments."""
    if index not in clause_set.prop_indices:
        return False

    def falsified(assignment: frozenset[Literal]) -> bool:
        return unit_resolve(clause_set, assignment).has_empty_clause

    return any(
        falsified(with_a) != falsified(without_a)
        for with_a, without_a in _reference_ldiff(clause_set, index)
    )


# ---------------------------------------------------------------------------
# seeded inputs
# ---------------------------------------------------------------------------

def _random_clause_set(rng: random.Random, vocabulary: Vocabulary) -> ClauseSet:
    """0-10 random clauses over some of the vocabulary, sometimes with
    unit clauses or the empty clause."""
    n = len(vocabulary)
    used = rng.randint(0, n)
    clauses = []
    if used:
        for _ in range(rng.randint(0, 10)):
            clauses.append(random_clause(rng, used, rng.randint(1, min(3, used))))
    roll = rng.random()
    if roll < 0.05:
        clauses.append(clause_of(()))
    elif roll < 0.2 and used:
        clauses.append(clause_of([make_literal(rng.randrange(used), rng.random() < 0.5)]))
    return ClauseSet(vocabulary, clauses)


def _random_worlds(rng: random.Random, n: int) -> frozenset[int]:
    roll = rng.random()
    if roll < 0.1:
        return frozenset()
    if roll < 0.2:
        return frozenset(range(1 << n))
    density = rng.random()
    return frozenset(w for w in range(1 << n) if rng.random() < density)


def _random_query(rng: random.Random, vocabulary: Vocabulary) -> Formula:
    roll = rng.random()
    if roll < 0.05:
        return TRUE
    if roll < 0.1:
        return FALSE
    if roll < 0.15:
        return And(())
    if roll < 0.2:
        return Or(())
    return random_formula(rng, vocabulary, depth=3)


def _clause_set_cases(seed: int, count: int, max_letters: int = 10):
    rng = random.Random(seed)
    cases = [
        ClauseSet.tautology(Vocabulary.standard(3)),
        ClauseSet.contradiction(Vocabulary.standard(3)),
        ClauseSet.tautology(Vocabulary.standard(0)),
    ]
    for _ in range(count):
        vocabulary = Vocabulary.standard(rng.randint(1, max_letters))
        cases.append(_random_clause_set(rng, vocabulary))
    return cases


# ---------------------------------------------------------------------------
# genmask and depends_on
# ---------------------------------------------------------------------------

class TestGenmaskDifferential:
    def test_genmask_matches_ldiff_and_brute_force_dep(self):
        for clause_set in _clause_set_cases(seed=1, count=300):
            vocabulary = clause_set.vocabulary
            ldiff = frozenset(
                i for i in range(len(vocabulary)) if _reference_depends_on(clause_set, i)
            )
            brute = _reference_dependency_indices(
                vocabulary, _reference_models_of_clauses(clause_set)
            )
            assert ldiff == brute, str(clause_set)
            assert clausal_genmask(clause_set) == ldiff, str(clause_set)
            assert clause_set_dependency_indices(clause_set) == ldiff, str(clause_set)

    def test_depends_on_matches_ldiff_for_every_letter(self):
        for clause_set in _clause_set_cases(seed=2, count=200):
            for index in range(len(clause_set.vocabulary)):
                assert depends_on(clause_set, index) == _reference_depends_on(
                    clause_set, index
                ), (str(clause_set), index)

    def test_sliced_tables_match_the_references(self, monkeypatch):
        """With ``TABLE_LETTERS`` shrunk to 3, inputs of 4-10 letters run
        the slice code (and evict kept slices) against the oracles."""
        monkeypatch.setattr(truthtable, "TABLE_LETTERS", 3)
        monkeypatch.setattr(truthtable, "_SLICE_BYTES", 1)
        monkeypatch.setattr(truthtable, "_KEPT_BITS", 16)
        monkeypatch.setattr(truthtable, "_KEPT_SLICES", 4)
        rng = random.Random(3)
        for _ in range(150):
            vocabulary = Vocabulary.standard(rng.randint(4, 10))
            clause_set = _random_clause_set(rng, vocabulary)
            models = _reference_models_of_clauses(clause_set)
            assert models_of_clauses(clause_set) == models, str(clause_set)
            expected = _reference_dependency_indices(vocabulary, models)
            assert clausal_genmask(clause_set) == expected, str(clause_set)
            for index in range(len(vocabulary)):
                assert depends_on(clause_set, index) == (index in expected)
            formulas = [random_formula(rng, vocabulary, depth=3) for _ in range(2)]
            assert models_of_formulas(vocabulary, formulas) == (
                _reference_models_of_formulas(vocabulary, formulas)
            )

    def test_forty_literal_clause_exits_early_on_every_letter(self):
        vocabulary = Vocabulary.standard(40)
        clause_set = ClauseSet(vocabulary, [clause_of(make_literal(i) for i in range(40))])
        started = time.perf_counter()
        assert clausal_genmask(clause_set) == frozenset(range(40))
        # A whole table would need 2^40 bits; the slices stop at once.
        assert time.perf_counter() - started < 2.0
        assert depends_on(clause_set, 39)

    @pytest.mark.parametrize("k", [21, 22])
    def test_e5_family_beyond_one_table(self, k):
        """E5's Phi_k over k + 1 >= 22 letters: every A_i is dependent and
        the occurring z is not."""
        vocabulary = Vocabulary.standard(k + 1)
        clauses = []
        for i in range(k):
            clauses.append(clause_of([make_literal(k), make_literal(i)]))
            clauses.append(clause_of([make_literal(k, False), make_literal(i)]))
        clause_set = ClauseSet(vocabulary, clauses)
        assert clausal_genmask(clause_set) == frozenset(range(k))
        assert not depends_on(clause_set, k)
        assert depends_on(clause_set, k - 1)


# ---------------------------------------------------------------------------
# WorldSet
# ---------------------------------------------------------------------------

class TestWorldSetDifferential:
    def test_boolean_algebra_matches_frozensets(self):
        rng = random.Random(4)
        for _ in range(300):
            n = rng.randint(0, 10)
            vocabulary = Vocabulary.standard(n)
            left_worlds = _random_worlds(rng, n)
            right_worlds = _random_worlds(rng, n)
            left = WorldSet(vocabulary, left_worlds)
            right = WorldSet(vocabulary, right_worlds)
            everything = frozenset(range(1 << n))
            assert left.worlds == left_worlds
            assert list(left) == sorted(left_worlds)
            assert len(left) == len(left_worlds)
            assert bool(left) == bool(left_worlds)
            assert left.union(right).worlds == left_worlds | right_worlds
            assert left.intersection(right).worlds == left_worlds & right_worlds
            assert left.difference(right).worlds == left_worlds - right_worlds
            assert left.complement().worlds == everything - left_worlds
            assert (left <= right) == (left_worlds <= right_worlds)
            assert (left == right) == (left_worlds == right_worlds)
            for world in range(-1, (1 << n) + 1):
                assert (world in left) == (world in left_worlds)
            assert left == WorldSet.from_table(vocabulary, sum(1 << w for w in left_worlds))

    def test_mask_dep_and_queries_match_world_loops(self):
        rng = random.Random(5)
        for _ in range(300):
            n = rng.randint(0, 10)
            vocabulary = Vocabulary.standard(n)
            worlds = _random_worlds(rng, n)
            world_set = WorldSet(vocabulary, worlds)
            indices = {i for i in range(n) if rng.random() < 0.3}
            assert world_set.saturate(indices).worlds == _reference_saturate_on(
                worlds, indices
            )
            assert saturate_on(worlds, indices) == _reference_saturate_on(worlds, indices)
            expected_dep = _reference_dependency_indices(vocabulary, worlds)
            assert world_set.dependency_indices() == expected_dep
            assert dependency_indices(vocabulary, worlds) == expected_dep
            expected_sat = _reference_sat_literals(vocabulary, worlds)
            assert world_set.certain_literals() == expected_sat
            assert sat_literals(vocabulary, worlds) == expected_sat
            if n:
                query = _random_query(rng, vocabulary)
                holds = {w for w in worlds if satisfies(vocabulary, w, query)}
                assert world_set.satisfies_everywhere(query) == (holds == worlds)
                assert world_set.satisfies_somewhere(query) == bool(holds)
                assert world_set.restricted_to(query).worlds == holds

    def test_constructors_and_legal_match_references(self):
        rng = random.Random(6)
        for _ in range(200):
            vocabulary = Vocabulary.standard(rng.randint(1, 10))
            clause_set = _random_clause_set(rng, vocabulary)
            models = _reference_models_of_clauses(clause_set)
            assert WorldSet.from_clause_set(clause_set).worlds == models
            formulas = [random_formula(rng, vocabulary, depth=3) for _ in range(2)]
            formula_models = _reference_models_of_formulas(vocabulary, formulas)
            assert WorldSet.from_formulas(vocabulary, formulas).worlds == formula_models
            schema = DbSchema(vocabulary, tuple(formulas))
            legal = WorldSet(vocabulary, models).legal(schema)
            assert legal.worlds == models & formula_models

    def test_to_clause_set_matches_dnf_conversion(self):
        rng = random.Random(7)
        for case in range(200):
            n = 1 + case % 5
            vocabulary = Vocabulary.standard(n)
            worlds = _random_worlds(rng, n)
            expected = _reference_to_clause_set(vocabulary, worlds)
            got = WorldSet(vocabulary, worlds).to_clause_set()
            assert got == expected, (n, sorted(worlds))
            assert got.known_reduced

    def test_to_clause_set_gives_the_prime_implicates(self):
        for clause_set in _clause_set_cases(seed=8, count=150, max_letters=8):
            got = WorldSet.from_clause_set(clause_set).to_clause_set()
            assert got == prime_implicates(clause_set), str(clause_set)
            assert models_of_clauses(got) == _reference_models_of_clauses(clause_set)


# ---------------------------------------------------------------------------
# the other semantics helpers
# ---------------------------------------------------------------------------

class TestSemanticsDifferential:
    def test_models_entailment_and_equivalence_match_world_loops(self):
        rng = random.Random(9)
        for _ in range(200):
            vocabulary = Vocabulary.standard(rng.randint(1, 8))
            premises = [_random_query(rng, vocabulary) for _ in range(rng.randint(0, 3))]
            conclusions = [_random_query(rng, vocabulary) for _ in range(rng.randint(0, 2))]
            assert models_of_formulas(vocabulary, premises) == (
                _reference_models_of_formulas(vocabulary, premises)
            )
            expected = _reference_formulas_entail(vocabulary, premises, conclusions)
            assert formulas_entail(vocabulary, premises, conclusions) == expected
            candidate = _random_query(rng, vocabulary)
            assert theory_contains(vocabulary, premises, candidate) == (
                _reference_formulas_entail(vocabulary, premises, [candidate])
            )
            left = _random_clause_set(rng, vocabulary)
            right = _random_clause_set(rng, vocabulary)
            assert clause_sets_equivalent(left, right) == (
                _reference_models_of_clauses(left) == _reference_models_of_clauses(right)
            )
            assert clause_sets_equivalent(left, left.reduce())

    def test_projected_model_count_matches_world_loop(self):
        rng = random.Random(10)
        for _ in range(100):
            vocabulary = Vocabulary.standard(rng.randint(1, 8))
            clause_set = _random_clause_set(rng, vocabulary)
            models = _reference_models_of_clauses(clause_set)
            over = frozenset(i for i in range(len(vocabulary)) if rng.random() < 0.5)
            mask = sum(1 << i for i in over)
            assert count_models(clause_set) == len(models)
            assert count_models(clause_set, over) == len({w & mask for w in models})
