"""The output check passes on real served answers and catches one flip.

Run from the repository root (the service is spawned with ``src`` on
its path)::

    PYTHONPATH=src python -m pytest perfbench -q
"""

from __future__ import annotations

import json

import pytest

from perfbench import check, served
from perfbench import plan as plan_mod

#: Tiny versions of two workloads, one per reference backend.
SMALL = {
    "mixed_small": {"sessions": 1, "ops_per_session": 80},
    "stream_large": {"sessions": 1, "preload_clauses": 12, "blocks": 2},
}


def _served_pass(workload: str, tmp_path):
    spec = plan_mod.load_spec()
    spec["workloads"][workload].update(SMALL[workload])
    plan = plan_mod.build_plan(workload, 7, spec)
    run = served.run_served(plan, seconds=0.001, out_dir=tmp_path)
    backend = spec["workloads"][workload]["reference"]
    return plan, run.passes[0], check.expect_plan(plan, backend), backend


@pytest.mark.parametrize("workload", sorted(SMALL))
def test_check_catches_one_flipped_answer(workload, tmp_path):
    plan, record, expected, backend = _served_pass(workload, tmp_path)
    assert check.check_run(plan, expected, [(record.responses, record.states)], backend) == []

    responses = [list(lines) for lines in record.responses]
    ops = [op for session in plan.connections[0] for op in session.ops]
    index = next(i for i, op in enumerate(ops) if op["op"] == "query")
    answer = json.loads(responses[0][index])
    answer["result"] = not answer["result"]
    responses[0][index] = plan_mod.encode(answer)

    problems = check.check_run(plan, expected, [(responses, record.states)], backend)
    assert len(problems) == 1
    assert f"op {index + 1} (query" in problems[0]
