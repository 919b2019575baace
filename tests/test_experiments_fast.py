"""Fast experiments from the E-suite, run inside the unit-test suite.

The full suite (timing sweeps included) lives under ``benchmarks/``;
these are the sub-second experiments whose verdicts are pure correctness
claims, kept in ``tests/`` so a plain ``pytest tests/`` already confirms
the paper's worked examples and theorems reproduce.
"""

import pytest

from repro.bench import experiments


FAST_EXPERIMENTS = [
    experiments.e06_example_315,
    experiments.e07_example_325,
    experiments.e08_inset_example,
    experiments.e09_congruence_theorem,
    experiments.e10_emulation,
    experiments.e12_hlu_equivalence,
    experiments.e13_relational_grounding,
    experiments.e15_minimal_change,
    experiments.e17_template_coverage,
]


@pytest.mark.parametrize(
    "experiment", FAST_EXPERIMENTS, ids=lambda e: e.__name__
)
def test_experiment_reproduces_claim(experiment):
    report = experiment()
    assert report.holds, report.render()


def test_reports_render_cleanly():
    for experiment in FAST_EXPERIMENTS[:3]:
        text = experiment().render()
        assert text.startswith("== E")
        assert "claim" in text
