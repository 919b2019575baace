"""Derivation provenance: a recorded DAG of *why* each clause exists.

The rest of the obs stack observes cost (spans, counters, telemetry);
this module observes *meaning*.  When enabled, the saturation kernels
(:func:`repro.logic.resolution._saturate`, ``unit_resolve``) and the
decision-level-0 unit propagation of the DPLL solver record every clause
they touch into a context-local :class:`DerivationRecorder`: each clause
gets a stable integer id, and every derived clause points at its parent
ids plus the inference rule that produced it.  From that DAG we extract
*minimal derivations* -- the ancestor cone of a target clause, in
topological (id) order -- answering "why is this clause in the closure",
and, for an inconsistent state, producing a checkable derivation of the
empty clause (an unsat core witness).

Derivations are self-contained proof objects: :func:`verify_derivation`
re-checks every step with plain frozenset operations, independently of
the kernels that produced it, so a recorded explanation can be trusted
without trusting the resolution engine.

Rules recorded (``DerivationNode.rule``):

* ``"input"`` -- a clause of the set being saturated;
* ``"assumption"`` -- a unit clause assumed for a refutation (the negated
  query literals of an entailment check, or a SAT assumption);
* ``"given"`` -- a unit handed to ``unitres`` (Algorithm 2.3.8);
* ``"resolve"`` -- a resolvent; ``parents`` is ``(positive, negative)``
  and ``pivot`` the 0-based vocabulary index resolved on;
* ``"unitprop"`` -- a unit-propagation consequence: ``parents[0]`` is the
  source clause, ``parents[1:]`` are unit clauses whose negations were
  struck from it.

Mirrors the enable-flag discipline of :mod:`repro.obs.core`: one
process-wide module global checked at every hook, so the disabled path
costs a single global load, and the recorder itself lives in a
:class:`contextvars.ContextVar` so threads and contexts do not share
DAGs.  The explain drivers (:func:`explain_in_closure`,
:func:`explain_entailment`, :func:`explain_inconsistency`) bypass the
kernel memo-cache on purpose: a cache hit skips saturation and would
record nothing.

Caveat for ambient (globally enabled) recording: the recorder interns
clauses first-derivation-wins, so a clause derived in an earlier
saturation keeps its original justification.  The explain drivers always
install a fresh recorder (:func:`recording`), which is what makes their
derivations verifiable against the axioms of the current question.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Any

from repro.errors import ProvenanceError

__all__ = [
    "PROVENANCE_SCHEMA_VERSION",
    "RULES",
    "DerivationNode",
    "DerivationRecorder",
    "enable",
    "disable",
    "is_enabled",
    "recording",
    "recorder",
    "reset",
    "derivation_to_json",
    "derivation_from_json",
    "verify_derivation",
    "render_derivation",
    "explain_in_closure",
    "explain_entailment",
    "explain_inconsistency",
]

#: Bumped when the exported derivation shape changes; checked on import.
PROVENANCE_SCHEMA_VERSION = 1

#: Every inference rule a :class:`DerivationNode` may carry.
RULES = ("input", "assumption", "given", "resolve", "unitprop")

#: A clause is a frozenset of non-zero ints (see ``repro.logic.clauses``);
#: re-declared here so this module stays import-cycle-free with the logic
#: kernels that call into it.
Clause = frozenset[int]

_EMPTY_CLAUSE: Clause = frozenset()

# The process-wide switch, mirroring repro.obs.core: a plain module
# global so the disabled check at each kernel hook is one global load.
_ENABLED = False


def enable() -> None:
    """Turn derivation recording on (process-wide)."""
    global _ENABLED
    _ENABLED = True


def disable() -> None:
    """Turn derivation recording off (process-wide)."""
    global _ENABLED
    _ENABLED = False


def is_enabled() -> bool:
    """Whether the kernels are currently recording derivations."""
    return _ENABLED


@dataclass(frozen=True)
class DerivationNode:
    """One clause in the derivation DAG.

    ``cid`` is the clause's stable id within its recorder; ``parents``
    are the ids of the clauses it was inferred from (empty for premises);
    ``pivot`` is the 0-based vocabulary index resolved on (``"resolve"``
    steps only).
    """

    cid: int
    clause: Clause
    rule: str
    parents: tuple[int, ...] = ()
    pivot: int | None = None


class DerivationRecorder:
    """Interns clauses to stable ids and records how each was derived.

    First derivation wins: re-deriving an already-recorded clause returns
    its existing id and keeps its original justification, which keeps the
    DAG acyclic and every parent id strictly smaller than its child's --
    so sorting any ancestor set by id is a topological order.

    >>> rec = DerivationRecorder()
    >>> a = rec.record(frozenset({1}), "input")
    >>> b = rec.record(frozenset({-1}), "input")
    >>> _ = rec.record(frozenset(), "resolve", (a, b), pivot=0)
    >>> [step.rule for step in rec.derivation(frozenset())]
    ['input', 'input', 'resolve']
    >>> verify_derivation(rec.derivation(frozenset()), target=frozenset())
    []
    """

    __slots__ = ("_ids", "_nodes")

    def __init__(self) -> None:
        self._ids: dict[Clause, int] = {}
        self._nodes: list[DerivationNode] = []

    def __len__(self) -> int:
        return len(self._nodes)

    def __iter__(self) -> Iterator[DerivationNode]:
        return iter(self._nodes)

    @property
    def nodes(self) -> Sequence[DerivationNode]:
        """Every recorded node, in id order."""
        return self._nodes

    def id_of(self, clause: Clause) -> int | None:
        """The id of an already-recorded clause, or ``None``."""
        return self._ids.get(clause)

    def node(self, cid: int) -> DerivationNode:
        """The node with the given id."""
        return self._nodes[cid]

    def record(
        self,
        clause: Clause,
        rule: str,
        parents: tuple[int, ...] = (),
        pivot: int | None = None,
    ) -> int:
        """Record one derivation; returns the clause's (new or old) id."""
        existing = self._ids.get(clause)
        if existing is not None:
            return existing
        cid = len(self._nodes)
        self._nodes.append(DerivationNode(cid, clause, rule, parents, pivot))
        self._ids[clause] = cid
        return cid

    def ensure(self, clause: Clause) -> int:
        """The clause's id, recording it as an ``"input"`` premise if new.

        Defensive entry point for kernels: a clause that reaches a hook
        without having been recorded (e.g. handed in from outside the
        saturation) still gets a well-founded node.
        """
        existing = self._ids.get(clause)
        if existing is not None:
            return existing
        return self.record(clause, "input")

    def derivation(self, clause: Clause) -> list[DerivationNode] | None:
        """The minimal derivation of ``clause``: its ancestor cone.

        Returns the nodes the target transitively depends on (including
        itself), sorted by id -- a topological order, so the result is a
        step-by-step proof ending in the target.  ``None`` when the
        clause was never recorded.
        """
        target = self._ids.get(clause)
        if target is None:
            return None
        needed: set[int] = set()
        stack = [target]
        while stack:
            cid = stack.pop()
            if cid in needed:
                continue
            needed.add(cid)
            stack.extend(self._nodes[cid].parents)
        return [self._nodes[cid] for cid in sorted(needed)]


# ---------------------------------------------------------------------------
# Context-local recorder
# ---------------------------------------------------------------------------


_RECORDER: ContextVar[DerivationRecorder | None] = ContextVar(
    "repro_provenance_recorder", default=None
)


def recorder() -> DerivationRecorder:
    """The current context's recorder (created on first use)."""
    current = _RECORDER.get()
    if current is None:
        current = DerivationRecorder()
        _RECORDER.set(current)
    return current


def reset() -> DerivationRecorder:
    """Install (and return) a fresh recorder for the current context."""
    fresh = DerivationRecorder()
    _RECORDER.set(fresh)
    return fresh


@contextmanager
def recording() -> Iterator[DerivationRecorder]:
    """Record into a fresh recorder for the extent of a with-block.

    Enables recording and installs a fresh recorder; both the enable flag
    and the previous recorder are restored on exit.  This is how the
    explain drivers isolate one question's DAG from ambient recording.
    """
    global _ENABLED
    previous_flag = _ENABLED
    token = _RECORDER.set(DerivationRecorder())
    _ENABLED = True
    try:
        fresh = _RECORDER.get()
        assert fresh is not None
        yield fresh
    finally:
        _ENABLED = previous_flag
        _RECORDER.reset(token)


# ---------------------------------------------------------------------------
# Export / import
# ---------------------------------------------------------------------------


def _canonical_literals(clause: Clause) -> list[int]:
    return sorted(clause, key=lambda lit: (abs(lit), lit < 0))


def derivation_to_json(steps: Iterable[DerivationNode]) -> dict[str, Any]:
    """A derivation as a JSON-ready document (schema-versioned).

    Clauses are emitted as sorted literal lists, so equal derivations
    serialise identically regardless of set-iteration order.
    """
    out: list[dict[str, Any]] = []
    for step in steps:
        record: dict[str, Any] = {
            "id": step.cid,
            "clause": _canonical_literals(step.clause),
            "rule": step.rule,
            "parents": list(step.parents),
        }
        if step.pivot is not None:
            record["pivot"] = step.pivot
        out.append(record)
    return {"schema": PROVENANCE_SCHEMA_VERSION, "steps": out}


def derivation_from_json(document: Any) -> list[DerivationNode]:
    """Parse a document produced by :func:`derivation_to_json`.

    Raises :class:`ProvenanceError` on schema drift or a malformed step.
    """
    if not isinstance(document, dict):
        raise ProvenanceError("derivation document must be a JSON object")
    schema = document.get("schema")
    if schema != PROVENANCE_SCHEMA_VERSION:
        raise ProvenanceError(
            f"derivation schema {schema!r} is not the supported "
            f"version {PROVENANCE_SCHEMA_VERSION}"
        )
    raw_steps = document.get("steps")
    if not isinstance(raw_steps, list):
        raise ProvenanceError("derivation document has no 'steps' list")
    steps: list[DerivationNode] = []
    for position, raw in enumerate(raw_steps):
        if not isinstance(raw, dict):
            raise ProvenanceError(f"step {position} is not an object")
        try:
            cid = int(raw["id"])
            literals = [int(lit) for lit in raw["clause"]]
            rule = raw["rule"]
            parents = tuple(int(p) for p in raw["parents"])
        except (KeyError, TypeError, ValueError) as error:
            raise ProvenanceError(f"step {position} is malformed: {error}") from error
        if rule not in RULES:
            raise ProvenanceError(f"step {position} has unknown rule {rule!r}")
        if any(lit == 0 for lit in literals):
            raise ProvenanceError(f"step {position} contains the literal 0")
        pivot_raw = raw.get("pivot")
        pivot = int(pivot_raw) if pivot_raw is not None else None
        steps.append(DerivationNode(cid, frozenset(literals), rule, parents, pivot))
    return steps


# ---------------------------------------------------------------------------
# The independent verifier
# ---------------------------------------------------------------------------


def verify_derivation(
    steps: Sequence[DerivationNode],
    target: Clause | None = None,
    axioms: Iterable[Clause] | None = None,
) -> list[str]:
    """Re-check every step of a derivation; returns the list of defects.

    An empty list means the derivation is valid: every step's clause is
    exactly what its rule applied to its (earlier) parents yields, and --
    when given -- the final step derives ``target`` and every ``"input"``
    premise is among ``axioms``.  Deliberately independent of the
    resolution kernels: each rule is re-checked with plain frozenset
    operations, so this function can referee the recorder's output.
    """
    errors: list[str] = []
    by_id: dict[int, Clause] = {}
    axiom_set: set[Clause] | None = None
    if axioms is not None:
        axiom_set = {frozenset(c) for c in axioms}
    for position, step in enumerate(steps):
        where = f"step {position} (id {step.cid})"
        if step.cid in by_id:
            errors.append(f"{where}: duplicate clause id")
        missing = [p for p in step.parents if p not in by_id]
        if missing:
            errors.append(f"{where}: parent id(s) {missing} not derived earlier")
            by_id[step.cid] = step.clause
            continue
        if step.rule in ("input", "assumption", "given"):
            if step.parents:
                errors.append(f"{where}: premise rule {step.rule!r} must have no parents")
            if step.rule == "input" and axiom_set is not None and step.clause not in axiom_set:
                errors.append(f"{where}: input clause is not among the axioms")
        elif step.rule == "resolve":
            if len(step.parents) != 2:
                errors.append(f"{where}: resolve needs exactly two parents")
            elif step.pivot is None:
                errors.append(f"{where}: resolve step carries no pivot")
            else:
                positive = step.pivot + 1
                pos_parent = by_id[step.parents[0]]
                neg_parent = by_id[step.parents[1]]
                if positive not in pos_parent:
                    errors.append(f"{where}: positive parent lacks the pivot literal")
                elif -positive not in neg_parent:
                    errors.append(f"{where}: negative parent lacks the negated pivot")
                else:
                    merged = (pos_parent - {positive}) | (neg_parent - {-positive})
                    if any(-lit in merged for lit in merged):
                        errors.append(f"{where}: resolvent is tautologous")
                    elif merged != step.clause:
                        errors.append(
                            f"{where}: clause differs from the computed resolvent"
                        )
        elif step.rule == "unitprop":
            if not step.parents:
                errors.append(f"{where}: unitprop needs a source clause parent")
            else:
                source = by_id[step.parents[0]]
                units: set[int] = set()
                malformed = False
                for parent in step.parents[1:]:
                    unit_clause = by_id[parent]
                    if len(unit_clause) != 1:
                        errors.append(
                            f"{where}: unit parent id {parent} is not a unit clause"
                        )
                        malformed = True
                        break
                    units.add(next(iter(unit_clause)))
                if not malformed:
                    expected = frozenset(lit for lit in source if -lit not in units)
                    if step.clause != expected:
                        errors.append(
                            f"{where}: clause differs from the source with the "
                            "falsified literals struck"
                        )
        else:
            errors.append(f"{where}: unknown rule {step.rule!r}")
        by_id[step.cid] = step.clause
    if target is not None:
        if not steps:
            errors.append("derivation is empty")
        elif steps[-1].clause != frozenset(target):
            errors.append("final step does not derive the target clause")
    return errors


def render_derivation(steps: Sequence[DerivationNode], vocabulary: Any) -> str:
    """A human-readable proof listing, one line per step.

    ``vocabulary`` is a :class:`repro.logic.propositions.Vocabulary`;
    imported lazily so this module stays cycle-free with the kernels.
    """
    from repro.logic.clauses import clause_to_str

    lines = []
    for step in steps:
        rendered = clause_to_str(vocabulary, step.clause)
        if step.rule == "resolve" and step.pivot is not None:
            how = (
                f"resolve({step.parents[0]}, {step.parents[1]}) "
                f"on {vocabulary.name_of(step.pivot)}"
            )
        elif step.parents:
            how = f"{step.rule}({', '.join(str(p) for p in step.parents)})"
        else:
            how = step.rule
        lines.append(f"[{step.cid}] {rendered}    {how}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Explain drivers
# ---------------------------------------------------------------------------
#
# Each driver answers one question with a fresh recorder and a direct
# _saturate call (never the memoised wrappers: a cache hit records
# nothing).  ``max_clauses`` guards the exponential saturation; exceeding
# it raises repro.errors.ClosureBudgetError.


def explain_in_closure(
    clause_set: Any, clause: Clause, max_clauses: int = 100_000
) -> list[DerivationNode] | None:
    """Why is ``clause`` in the resolution closure of ``clause_set``?

    Returns a verified-checkable derivation ending in ``clause``, or
    ``None`` when the clause is not in the closure (note: not in the
    *closure* -- an entailed-but-not-derivable clause needs
    :func:`explain_entailment`'s refutation instead).
    """
    from repro.logic.resolution import _saturate

    target = frozenset(clause)
    with recording() as active:
        _saturate(
            clause_set.clauses, None, max_clauses=max_clauses, stop_on=target
        )
        return active.derivation(target)


def explain_entailment(
    clause_set: Any, clause: Clause, max_clauses: int = 100_000
) -> list[DerivationNode] | None:
    """Why does ``clause_set`` entail ``clause``?

    By refutation: assume the negation of every literal of ``clause`` as
    ``"assumption"`` units and derive the empty clause.  Returns the
    refutation (a conditional proof: premises are the inputs plus the
    assumptions), or ``None`` when the clause is not entailed.

    The solver answers "not entailed" first, recording nothing: proving
    it by resolution would mean saturating until nothing new appears,
    which on a few dozen clauses can run into ``max_clauses``.  Only an
    entailed clause is saturated, and that stops at the empty clause.
    """
    global _ENABLED
    from repro.logic.resolution import _saturate
    from repro.logic.sat import entails_clause

    previous_flag = _ENABLED
    _ENABLED = False
    try:
        entailed = entails_clause(clause_set, clause)
    finally:
        _ENABLED = previous_flag
    if not entailed:
        return None
    assumptions = [frozenset((-lit,)) for lit in clause]
    with recording() as active:
        for unit in assumptions:
            active.record(unit, "assumption")
        _saturate(
            list(clause_set.clauses) + assumptions,
            None,
            max_clauses=max_clauses,
            stop_on=_EMPTY_CLAUSE,
        )
        return active.derivation(_EMPTY_CLAUSE)


def explain_inconsistency(
    clause_set: Any, max_clauses: int = 100_000
) -> list[DerivationNode] | None:
    """Why is ``clause_set`` inconsistent?  A derivation of the empty
    clause from the inputs (an unsat-core witness), or ``None`` when the
    set is satisfiable (resolution is refutation-complete, so full
    saturation deriving no empty clause *is* a consistency proof)."""
    from repro.logic.resolution import _saturate

    with recording() as active:
        _saturate(
            clause_set.clauses, None, max_clauses=max_clauses, stop_on=_EMPTY_CLAUSE
        )
        return active.derivation(_EMPTY_CLAUSE)
