"""Output check: replay the plan offline and compare every served answer.

The reference is the instance backend (the paper's possible-worlds
semantics) where the vocabulary is small enough to enumerate, and an
in-process clausal session elsewhere.  Every query answer, every
explain verdict and each session's final state must match, and every
response must be ``ok``; anything else is a mismatch and fails the run.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any

from repro.db.instances import WorldSet
from repro.hlu.session import IncompleteDatabase
from repro.logic.clauses import clause_to_str
from repro.logic.cnf import formulas_to_clauses
from repro.logic.parser import parse_formula

from perfbench.plan import Plan, Session


@dataclass
class SessionExpectation:
    answers: list[bool | None]
    final: Any  # WorldSet (instance reference) or list of clause strings


def expect_session(session: Session, backend: str) -> SessionExpectation:
    """Replay one session on the reference backend."""
    db = IncompleteDatabase.over(session.letters, backend=backend)
    if session.preload is not None:
        db.run(session.preload)
    answers: list[bool | None] = []
    for op in session.ops:
        kind = op["op"]
        if kind == "update":
            db.run(op["program"])
            answers.append(None)
        elif kind == "undo":
            db.undo()
            answers.append(None)
        elif kind == "query" and op["mode"] == "possible":
            answers.append(db.is_possible(op["formula"]))
        else:  # certain query, or the verdict an explain must reach
            answers.append(db.is_certain(op["formula"]))
    if backend == "instance":
        final: Any = db.worlds()
    else:
        final = [clause_to_str(db.vocabulary, c) for c in db.clauses().sorted_clauses()]
    return SessionExpectation(answers, final)


def expect_plan(plan: Plan, backend: str) -> list[list[SessionExpectation]]:
    return [[expect_session(s, backend) for s in sessions] for sessions in plan.connections]


def _served_final(response: dict[str, Any], session: Session, backend: str) -> Any:
    if backend != "instance":
        return response["clauses"]
    db = IncompleteDatabase.over(session.letters, backend="instance")
    formulas = [parse_formula(text) for text in response["clauses"]]
    return WorldSet.from_clause_set(formulas_to_clauses(formulas, db.vocabulary))


def compare_connection(
    sessions: list[Session],
    expected: list[SessionExpectation],
    responses: list[bytes],
    states: list[bytes],
    backend: str,
) -> list[str]:
    """Mismatches between one connection's served pass and the reference."""
    problems: list[str] = []
    cursor = 0
    for session, expect, state_line in zip(sessions, expected, states):
        for op, answer in zip(session.ops, expect.answers):
            got = json.loads(responses[cursor])
            cursor += 1
            where = f"{session.name} op {cursor} ({op['op']} {op.get('formula', '')})"
            if not got.get("ok"):
                problems.append(f"{where}: error {got.get('error')}")
            elif op["op"] == "query" and got["result"] is not answer:
                problems.append(f"{where}: served {got['result']}, reference {answer}")
            elif op["op"] == "explain" and (got["certain"] is not answer or not got["verified"]):
                problems.append(
                    f"{where}: served certain={got['certain']} verified={got['verified']}, "
                    f"reference {answer}"
                )
        state = json.loads(state_line)
        if not state.get("ok"):
            problems.append(f"{session.name} state: error {state.get('error')}")
        elif _served_final(state, session, backend) != expect.final:
            problems.append(f"{session.name}: final state differs from the reference")
    if cursor != len(responses):
        problems.append(f"{len(responses)} responses for {cursor} requests")
    return problems


def check_run(
    plan: Plan,
    expected: list[list[SessionExpectation]],
    passes: list[tuple[list[list[bytes]], list[list[bytes]]]],
    backend: str,
) -> list[str]:
    """Mismatches over every pass; ``passes`` holds (responses, states)."""
    problems: list[str] = []
    for number, (responses, states) in enumerate(passes, 1):
        for conn, sessions in enumerate(plan.connections):
            for problem in compare_connection(
                sessions, expected[conn], responses[conn], states[conn], backend
            ):
                problems.append(f"pass {number} conn {conn}: {problem}")
    return problems
