"""Seeded op lists for the served-update benchmark.

A plan is fixed before anything is timed: for each connection, a list of
sessions, each an optional preload program plus the ops it replays.
Every request line is encoded here, so the timed loop only writes bytes
and reads lines.  The same (workload, seed) always gives the same plan.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.logic.clauses import Clause, clause_of, clause_to_formula, make_literal
from repro.logic.formula import And, Formula, Iff, Implies, Not, Or, Var
from repro.logic.propositions import Vocabulary
from repro.workloads import generators

SPEC_PATH = Path(__file__).with_name("workloads.json")

#: Ops whose latency the benchmark reports; bookkeeping requests
#: (open, preload, state, close) are sent but never timed.
TIMED_OPS = ("update", "query", "undo", "explain")


def load_spec() -> dict[str, Any]:
    """The benchmark's workload file (parameters, reasons, expectations)."""
    return json.loads(SPEC_PATH.read_text())


@dataclass
class Session:
    """One session of one connection: its preload and timed requests."""

    name: str
    letters: int
    preload: str | None
    ops: list[dict[str, Any]] = field(default_factory=list)

    def open_request(self) -> dict[str, Any]:
        return {"op": "open", "session": self.name, "letters": self.letters}


@dataclass
class Plan:
    workload: str
    seed: int
    connections: list[list[Session]]

    def op_count(self) -> int:
        return sum(len(s.ops) for sessions in self.connections for s in sessions)


def encode(request: dict[str, Any]) -> bytes:
    """A request as one NDJSON line, the framing the service reads."""
    return (json.dumps(request, sort_keys=True) + "\n").encode()


class Relabel:
    """A seeded renaming of letters, each possibly negated.

    Applied to a fixed op structure it gives every seed different
    requests whose kernel work is the same up to the order letters are
    visited in: an isomorphic copy of one workload, not a new draw, so
    runs on different seeds differ in timing noise and not in work.
    """

    def __init__(self, vocabulary: Vocabulary, seed: int | str):
        self.vocabulary = vocabulary
        count = len(vocabulary)
        rng = random.Random(f"relabel/{seed}")
        self.index = list(range(count))
        rng.shuffle(self.index)
        self.flipped = [rng.random() < 0.5 for _ in range(count)]

    def clause(self, clause: Clause) -> Clause:
        return clause_of(
            make_literal(self.index[abs(lit) - 1], (lit > 0) != self.flipped[abs(lit) - 1])
            for lit in clause
        )

    def formula(self, formula: Formula) -> Formula:
        if isinstance(formula, Var):
            old = self.vocabulary.index_of(formula.name)
            new = Var(self.vocabulary.name_of(self.index[old]))
            return Not(new) if self.flipped[old] else new
        if isinstance(formula, Not):
            return Not(self.formula(formula.operand))
        if isinstance(formula, (And, Or)):
            return type(formula)(self.formula(op) for op in formula.operands)
        if isinstance(formula, (Implies, Iff)):
            return type(formula)(self.formula(formula.left), self.formula(formula.right))
        return formula


def _clause_text(vocabulary: Vocabulary, rng: random.Random, width: int, relabel: Relabel) -> str:
    clause = relabel.clause(generators.random_clause(rng, len(vocabulary), width))
    return str(clause_to_formula(vocabulary, clause))


def _formula_text(vocabulary: Vocabulary, rng: random.Random, depth: int, relabel: Relabel) -> str:
    return str(relabel.formula(generators.random_formula(rng, vocabulary, depth=depth)))


def _update(session: str, kind: str, payload: str) -> dict[str, Any]:
    return {"op": "update", "session": session, "program": f"({kind} {{{payload}}})"}


def _query(session: str, mode: str, formula: str) -> dict[str, Any]:
    return {"op": "query", "session": session, "mode": mode, "formula": formula}


def _mixed_small(
    p: dict, rng: random.Random, vocab: Vocabulary, name: str, relabel: Relabel
) -> Session:
    """The loadgen ``mixed`` shape, plus a small share of undo."""
    session = Session(name, p["letters"], None)
    undoable = 0
    for _ in range(p["ops_per_session"]):
        roll = rng.random()
        if undoable and roll < p["undo_share"]:
            session.ops.append({"op": "undo", "session": name})
            undoable -= 1
        elif roll < p["undo_share"] + p["explain_share"]:
            formula = _formula_text(vocab, rng, p["explain_depth"], relabel)
            session.ops.append({"op": "explain", "session": name, "formula": formula})
        elif rng.random() < p["read_fraction"]:
            formula = _formula_text(vocab, rng, p["query_depth"], relabel)
            mode = "certain" if rng.random() < 0.5 else "possible"
            session.ops.append(_query(name, mode, formula))
        else:
            payload = _clause_text(vocab, rng, p["insert_width"], relabel)
            session.ops.append(_update(name, "insert", payload))
            undoable += 1
    return session


def _stream_large(
    p: dict, rng: random.Random, vocab: Vocabulary, name: str, relabel: Relabel
) -> Session:
    """A preloaded session under blocks of assert/insert with checkpoints."""
    preload: set[str] = set()
    while len(preload) < p["preload_clauses"]:
        preload.add(_clause_text(vocab, rng, p["preload_width"], relabel))
    session = Session(name, p["letters"], f"(assert {{{', '.join(sorted(preload))}}})")
    for _ in range(p["blocks"]):
        kinds = ["assert"] * p["block_asserts"] + ["insert"] * p["block_inserts"]
        rng.shuffle(kinds)
        for kind in kinds:
            payload = _clause_text(vocab, rng, p["update_width"], relabel)
            session.ops.append(_update(name, kind, payload))
        for _ in range(p["checkpoint_queries"]):
            session.ops.append(
                _query(name, "certain", _formula_text(vocab, rng, p["query_depth"], relabel)))
        letter = vocab.names[relabel.index[rng.randrange(len(vocab))]]
        session.ops.append({"op": "explain", "session": name, "formula": f"{letter} | ~{letter}"})
        session.ops.append({"op": "undo", "session": name})
    return session


def _repair_undo(
    p: dict, rng: random.Random, vocab: Vocabulary, name: str, relabel: Relabel
) -> Session:
    """Updates of every direction racing queries and frequent undo."""
    session = Session(name, p["letters"], None)
    kinds = list(p["update_mix"])
    weights = [p["update_mix"][kind] for kind in kinds]
    undoable = 0
    for _ in range(p["ops_per_session"]):
        roll = rng.random()
        if undoable and roll < p["undo_share"]:
            session.ops.append({"op": "undo", "session": name})
            undoable -= 1
        elif roll < p["undo_share"] + p["explain_share"]:
            formula = _formula_text(vocab, rng, p["explain_depth"], relabel)
            session.ops.append({"op": "explain", "session": name, "formula": formula})
        elif roll < p["undo_share"] + p["explain_share"] + p["query_share"]:
            formula = _formula_text(vocab, rng, p["query_depth"], relabel)
            mode = "certain" if rng.random() < 0.5 else "possible"
            session.ops.append(_query(name, mode, formula))
        else:
            kind = rng.choices(kinds, weights)[0]
            payload = _clause_text(vocab, rng, p["update_width"], relabel)
            session.ops.append(_update(name, kind, payload))
            undoable += 1
    return session


BUILDERS = {
    "mixed_small": _mixed_small,
    "stream_large": _stream_large,
    "repair_undo": _repair_undo,
}


def build_plan(
    workload: str, seed: int, spec: dict[str, Any] | None = None, variant: int = 0
) -> Plan:
    """The fixed op lists of one run; ``spec`` defaults to workloads.json.

    The op structure is drawn once per workload and the seed relabels
    its letters (see :class:`Relabel`).  A nonzero ``variant`` relabels
    the same seed's plan once more, for replays in one process that must
    not meet each other's states.
    """
    spec = spec or load_spec()
    params = spec["workloads"][workload]
    builder = BUILDERS[workload]
    vocab = Vocabulary.standard(params["letters"])
    relabel = Relabel(vocab, f"{seed}/{variant}" if variant else seed)
    connections = []
    for conn in range(params["connections"]):
        rng = random.Random(f"{workload}/{conn}")
        connections.append([
            builder(params, rng, vocab, f"s{index}", relabel)
            for index in range(params["sessions"])
        ])
    return Plan(workload, seed, connections)
