"""E5 -- Theorem 2.3.9(b,c): genmask is exponential; dependence is NP-complete."""

import pytest

from benchmarks.conftest import run_report
from repro.bench.experiments import e05_genmask_exponential
from repro.blu.clausal_genmask import clausal_genmask, depends_on
from repro.logic.clauses import ClauseSet, clause_of, make_literal
from repro.logic.propositions import Vocabulary


def independent_letter_instance(k: int) -> ClauseSet:
    """Phi_k = {(z | A_i), (~z | A_i)}: z occurs but is independent, so
    the dependence test for z has no early exit -- the worst case."""
    vocabulary = Vocabulary.standard(k + 1)
    z = k
    clauses = []
    for i in range(k):
        clauses.append(clause_of([make_literal(z), make_literal(i)]))
        clauses.append(clause_of([make_literal(z, False), make_literal(i)]))
    return ClauseSet(vocabulary, clauses)


@pytest.mark.parametrize("letters", [6, 10, 22])
def test_genmask_worst_case_scaling(benchmark, letters):
    state = independent_letter_instance(letters)
    result = benchmark(clausal_genmask, state)
    # z (index = letters) must be recognised as independent.
    assert letters not in result
    assert result == frozenset(range(letters))


@pytest.mark.parametrize("letters", [10, 22])
def test_single_independence_check_is_the_expensive_part(benchmark, letters):
    state = independent_letter_instance(letters)
    dependent = benchmark(depends_on, state, letters)
    assert dependent is False


def test_e05_shape(benchmark):
    run_report(benchmark, e05_genmask_exponential)
