"""Ablation A3: instance vs clausal backend as the vocabulary grows.

The instance backend is exact and fast on tiny vocabularies (bit tricks
over at most 2^n worlds) but exponential in n; the clausal backend pays
resolution costs but scales with the *representation*, not the world
count.  This ablation locates the crossover, justifying the library's
default (``backend="clausal"``) and the paper's insistence that "direct
representation is impractical" (Section 0).
"""

import random

import pytest

from repro.hlu import language
from repro.hlu.session import IncompleteDatabase
from repro.workloads.generators import update_stream


def run_script(letters: int, backend: str) -> IncompleteDatabase:
    db = IncompleteDatabase.over(letters, backend=backend)
    rng = random.Random(31)
    for payload in update_stream(rng, db.vocabulary, 6, width=2):
        db.apply(language.insert(payload))
    db.is_certain("A1 | A2")
    return db


@pytest.mark.parametrize("letters", [6, 10, 14, 18, 22])
def test_instance_backend_scaling(benchmark, letters):
    db = benchmark(run_script, letters, "instance")
    assert db.is_consistent()


@pytest.mark.parametrize("letters", [6, 10, 14, 18, 22])
def test_clausal_backend_scaling(benchmark, letters):
    db = benchmark(run_script, letters, "clausal")
    assert db.is_consistent()


def test_backends_agree_at_moderate_size(benchmark):
    def check():
        return run_script(10, "instance").worlds() == run_script(
            10, "clausal"
        ).worlds()

    assert benchmark.pedantic(check, rounds=1, iterations=1)
