"""Append-only, schema-versioned session audit trails with checked replay.

Every :class:`~repro.hlu.session.IncompleteDatabase` operation --
updates, undo, certain/possible queries -- can be recorded as one JSON
line: the operation and its arguments (in the paper's surface syntax, so
the line re-parses), the pre/post clause-set fingerprints (free via
:mod:`repro.cache.fingerprint`), the kernel-counter deltas the operation
caused, its wall time, the trace-span ``sid`` open while it ran (the
correlation hook into :mod:`repro.obs` traces and structured logs), and
the outcome.  A ``"session"`` record opens each trail segment with
everything needed to rebuild the session from scratch: backend, letters,
constraints, and the initial clause set.

This is crash-recovery semantics in miniature and the precursor of a
write-ahead log (see ROADMAP): :func:`replay_audit` rebuilds each
session, re-applies every operation, and checks that every recorded
pre/post fingerprint and query outcome is reproduced exactly.

Mirrors the enable-flag discipline of :mod:`repro.obs.core`: one
process-wide module global (``_ENABLED``) checked by the session hooks,
so the disabled path costs a single global load per operation.  Session
ids embed the process id, so per-worker trail files from a parallel run
(``run_experiments.py --jobs``) can be concatenated safely.
"""

from __future__ import annotations

import itertools
import json
import os
import time
from collections.abc import Iterable
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Any

from repro.errors import AuditError, EvaluationError, ReproError
from repro.obs import core as obs

__all__ = [
    "AUDIT_SCHEMA_VERSION",
    "AuditTrail",
    "AuditWriter",
    "AuditReplay",
    "enable",
    "disable",
    "is_enabled",
    "sink",
    "register_session",
    "SessionAudit",
    "fingerprint_json",
    "read_audit",
    "validate_audit",
    "replay_audit",
]

#: Bumped when the record shape changes; carried on every line so replay
#: tooling can refuse trails it would silently mis-read.
AUDIT_SCHEMA_VERSION = 1

#: Operation kinds an ``"op"`` record may carry.  ``restore_history``
#: replaces the documentary update history (persistence restore) without
#: touching the state -- recorded so a trail never silently diverges
#: from the session's reported history.
OPS = ("apply", "undo", "query_certain", "query_possible", "restore_history")

#: Outcomes: state ops end "ok"/"inconsistent"/"rejected", queries
#: "true"/"false" (or "rejected" when the argument itself was refused).
OUTCOMES = ("ok", "inconsistent", "rejected", "true", "false")


def fingerprint_json(fingerprint: tuple[int, int, bytes]) -> dict[str, Any]:
    """A clause-set fingerprint as a JSON-ready object.

    ``n`` is the clause count, ``mask`` the hex letter-signature mask,
    ``digest`` the hex content digest (see :mod:`repro.cache.fingerprint`).

    >>> fingerprint_json((2, 5, b"\\x00\\xff"))
    {'n': 2, 'mask': '5', 'digest': '00ff'}
    """
    count, mask, digest = fingerprint
    return {"n": count, "mask": format(mask, "x"), "digest": digest.hex()}


# ---------------------------------------------------------------------------
# Sinks
# ---------------------------------------------------------------------------


class AuditTrail:
    """In-memory audit sink: a plain list of record dicts.

    The REPL's ``:audit on`` uses one of these; :meth:`save` writes the
    JSONL representation out, :meth:`dump` returns it as text.
    """

    def __init__(self) -> None:
        self.records: list[dict[str, Any]] = []

    def write(self, record: dict[str, Any]) -> None:
        self.records.append(record)

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Any:
        return iter(self.records)

    def dump(self) -> str:
        return "\n".join(json.dumps(r, sort_keys=True) for r in self.records)

    def save(self, path: str | Path) -> None:
        text = self.dump()
        with open(path, "w", encoding="utf-8") as handle:
            if text:
                handle.write(text + "\n")


class AuditWriter:
    """Append-only JSONL sink over a file path or open text stream.

    Opens paths in append mode (the trail is append-only by contract) and
    flushes after every record so a crash loses at most the operation in
    flight.
    """

    def __init__(self, target: str | Path | IO[str]):
        if hasattr(target, "write"):
            self._handle: IO[str] = target  # type: ignore[assignment]
            self._owns = False
        else:
            self._handle = open(target, "a", encoding="utf-8")  # noqa: SIM115
            self._owns = True

    def write(self, record: dict[str, Any]) -> None:
        self._handle.write(json.dumps(record, sort_keys=True) + "\n")
        self._handle.flush()

    def close(self) -> None:
        if self._owns:
            self._handle.close()


# ---------------------------------------------------------------------------
# The process-wide switch and session registration
# ---------------------------------------------------------------------------

# Mirrors repro.obs.core: a plain module global so the disabled check in
# the session hooks is a single global load.
_ENABLED = False
_SINK: AuditTrail | AuditWriter | None = None
_SESSION_IDS = itertools.count(1)


def enable(target: str | Path | IO[str] | AuditTrail | AuditWriter | None = None):
    """Turn audit recording on (process-wide) and return the active sink.

    ``target`` may be a path or stream (wrapped in an append-only
    :class:`AuditWriter`), an existing sink, or ``None`` for a fresh
    in-memory :class:`AuditTrail`.  Sessions created while enabled
    register themselves automatically; existing sessions can opt in via
    :meth:`~repro.hlu.session.IncompleteDatabase.attach_audit`.
    """
    global _ENABLED, _SINK
    if target is None:
        _SINK = AuditTrail()
    elif isinstance(target, (AuditTrail, AuditWriter)):
        _SINK = target
    else:
        _SINK = AuditWriter(target)
    _ENABLED = True
    return _SINK


def disable() -> None:
    """Turn audit recording off and close a file-backed sink."""
    global _ENABLED, _SINK
    _ENABLED = False
    closing, _SINK = _SINK, None
    if isinstance(closing, AuditWriter):
        closing.close()


def is_enabled() -> bool:
    """Whether session operations are currently being recorded."""
    return _ENABLED


def sink() -> AuditTrail | AuditWriter | None:
    """The active sink, or ``None`` while disabled."""
    return _SINK


@dataclass
class _OpEntry:
    """One in-flight operation between ``begin`` and ``commit``."""

    op: str
    args: str
    pre: dict[str, Any]
    seq: int
    started: float
    counters_before: dict[str, int] | None = None
    span_sid: int = 0


class SessionAudit:
    """Per-session recorder handed out by :func:`register_session`."""

    def __init__(self, out: AuditTrail | AuditWriter, session_id: str):
        self._out = out
        self.session_id = session_id
        self._seq = itertools.count(1)

    def begin(self, op: str, args: str, pre: tuple[int, int, bytes]) -> _OpEntry:
        """Open one operation record; commit writes it."""
        return _OpEntry(
            op=op,
            args=args,
            pre=fingerprint_json(pre),
            seq=next(self._seq),
            started=time.perf_counter(),
            counters_before=obs.counters().snapshot() if obs.is_enabled() else None,
        )

    def commit(
        self,
        entry: _OpEntry,
        outcome: str,
        post: tuple[int, int, bytes] | None = None,
        error: str | None = None,
    ) -> None:
        """Write the completed operation as one audit record."""
        record: dict[str, Any] = {
            "schema": AUDIT_SCHEMA_VERSION,
            "kind": "op",
            "session": self.session_id,
            "seq": entry.seq,
            "ts": time.time(),
            "op": entry.op,
            "args": entry.args,
            "pre": entry.pre,
            "outcome": outcome,
            "wall_ms": (time.perf_counter() - entry.started) * 1000.0,
            "span_sid": entry.span_sid,
        }
        if post is not None:
            record["post"] = fingerprint_json(post)
        if entry.counters_before is not None:
            record["counters"] = obs.counters().delta(entry.counters_before)
        if error is not None:
            record["error"] = error
        self._out.write(record)


def register_session(db: Any) -> SessionAudit:
    """Open a trail segment for a session and return its recorder.

    Writes the ``"session"`` record carrying everything replay needs to
    rebuild the session: backend, letters, constraints (surface syntax),
    the enforce flag, and the *current* clause-set rendering as the
    initial state (so late attachment via ``attach_audit`` still replays;
    re-applying constraints to an already-constrained state is
    idempotent).  Session ids embed the pid, so concatenated per-worker
    trails never collide.
    """
    from repro.logic.clauses import clause_to_str

    out = _SINK if _SINK is not None else enable()
    session_id = f"s{os.getpid()}-{next(_SESSION_IDS)}"
    # Outside the counters, like the fingerprints (an instance state is
    # converted to clauses here).
    with obs.suspended():
        clauses = db.clauses()
    out.write(
        {
            "schema": AUDIT_SCHEMA_VERSION,
            "kind": "session",
            "session": session_id,
            "ts": time.time(),
            "backend": db.backend,
            "letters": list(db.vocabulary.names),
            "constraints": [str(c) for c in db.schema.constraints],
            "enforce_constraints": bool(db._enforce_constraints),
            "initial": [
                clause_to_str(db.vocabulary, c) for c in clauses.sorted_clauses()
            ],
        }
    )
    return SessionAudit(out, session_id)


# ---------------------------------------------------------------------------
# Reading, validating, replaying
# ---------------------------------------------------------------------------


def read_audit(source: Any) -> list[dict[str, Any]]:
    """Load audit records from a path, stream, trail, or record list.

    Raises :class:`AuditError` on an unparsable line or on schema drift
    (any record whose ``schema`` is not the supported version).
    """
    records: list[dict[str, Any]]
    if isinstance(source, AuditTrail):
        records = list(source.records)
    elif isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8") as handle:
            records = _parse_lines(handle)
    elif hasattr(source, "read"):
        records = _parse_lines(source)
    else:
        records = [dict(r) for r in source]
    for number, record in enumerate(records, start=1):
        schema = record.get("schema")
        if schema != AUDIT_SCHEMA_VERSION:
            raise AuditError(
                f"record {number}: audit schema {schema!r} is not the "
                f"supported version {AUDIT_SCHEMA_VERSION}"
            )
    return records


def _parse_lines(lines: Iterable[str]) -> list[dict[str, Any]]:
    records = []
    for number, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped:
            continue
        try:
            record = json.loads(stripped)
        except json.JSONDecodeError as error:
            raise AuditError(f"line {number}: not valid JSON: {error}") from error
        if not isinstance(record, dict):
            raise AuditError(f"line {number}: record is not a JSON object")
        records.append(record)
    return records


def _fingerprint_shape_ok(value: Any) -> bool:
    return (
        isinstance(value, dict)
        and isinstance(value.get("n"), int)
        and isinstance(value.get("mask"), str)
        and isinstance(value.get("digest"), str)
    )


def validate_audit(records: Iterable[dict[str, Any]]) -> list[str]:
    """Structural validation; returns the list of problems (empty = ok).

    Checks record kinds, that every op names a previously opened session,
    per-session ``seq`` contiguity from 1, known op/outcome vocabulary,
    and fingerprint field shape.  Purely structural -- semantic agreement
    is :func:`replay_audit`'s job.
    """
    problems: list[str] = []
    expected_seq: dict[str, int] = {}
    for number, record in enumerate(records, start=1):
        kind = record.get("kind")
        if kind == "session":
            missing = [
                key
                for key in (
                    "session", "backend", "letters", "constraints",
                    "enforce_constraints", "initial",
                )
                if key not in record
            ]
            if missing:
                problems.append(f"record {number}: session record lacks {missing}")
                continue
            expected_seq[record["session"]] = 1
        elif kind == "op":
            session = record.get("session")
            if session not in expected_seq:
                problems.append(
                    f"record {number}: op for unknown session {session!r}"
                )
                continue
            if record.get("seq") != expected_seq[session]:
                problems.append(
                    f"record {number}: session {session} expected seq "
                    f"{expected_seq[session]}, got {record.get('seq')!r}"
                )
            else:
                expected_seq[session] += 1
            if record.get("op") not in OPS:
                problems.append(f"record {number}: unknown op {record.get('op')!r}")
            if record.get("outcome") not in OUTCOMES:
                problems.append(
                    f"record {number}: unknown outcome {record.get('outcome')!r}"
                )
            if not _fingerprint_shape_ok(record.get("pre")):
                problems.append(f"record {number}: malformed pre fingerprint")
            if "post" in record and not _fingerprint_shape_ok(record.get("post")):
                problems.append(f"record {number}: malformed post fingerprint")
            if not isinstance(record.get("wall_ms"), (int, float)):
                problems.append(f"record {number}: missing wall_ms")
        else:
            problems.append(f"record {number}: unknown record kind {kind!r}")
    return problems


@dataclass
class AuditReplay:
    """The result of replaying a trail: what ran and what disagreed."""

    sessions: int = 0
    ops: int = 0
    mismatches: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def render(self) -> str:
        status = "ok" if self.ok else f"{len(self.mismatches)} mismatch(es)"
        lines = [
            f"audit replay: {self.sessions} session(s), {self.ops} op(s): {status}"
        ]
        lines.extend(f"  {m}" for m in self.mismatches)
        return "\n".join(lines)


def replay_audit(source: Any) -> AuditReplay:
    """Re-apply a recorded trail and check it reproduces exactly.

    Rebuilds every session from its ``"session"`` record, re-applies each
    operation (parsed back from its surface-syntax ``args``), and checks
    the recorded pre/post clause-set fingerprints and query outcomes
    against the live session at every step -- so a final match means the
    *entire* state trajectory was reproduced, not just the endpoint.

    Raises :class:`AuditError` on schema drift or structural problems;
    semantic disagreements land in the returned report's ``mismatches``.
    Recording is suspended while replaying (the replayed operations must
    not append to the trail being checked).
    """
    records = read_audit(source)
    problems = validate_audit(records)
    if problems:
        raise AuditError(
            "audit trail is structurally invalid: " + "; ".join(problems)
        )
    from repro.db.instances import WorldSet
    from repro.db.schema import DbSchema
    from repro.hlu.session import IncompleteDatabase
    from repro.hlu.surface import parse_updates
    from repro.logic.clauses import ClauseSet

    report = AuditReplay()
    sessions: dict[str, IncompleteDatabase] = {}

    global _ENABLED
    previous = _ENABLED
    _ENABLED = False
    try:
        for number, record in enumerate(records, start=1):
            if record["kind"] == "session":
                schema = DbSchema.of(record["letters"], record["constraints"])
                initial: Any = ClauseSet.from_strs(
                    schema.vocabulary, record["initial"]
                )
                if record["backend"] == "instance":
                    initial = WorldSet.from_clause_set(initial)
                sessions[record["session"]] = IncompleteDatabase(
                    schema,
                    backend=record["backend"],
                    initial=initial,
                    enforce_constraints=record["enforce_constraints"],
                )
                report.sessions += 1
                continue
            db = sessions[record["session"]]
            where = f"record {number} (session {record['session']} seq {record['seq']})"
            report.ops += 1
            if fingerprint_json(db.clauses().fingerprint) != record["pre"]:
                report.mismatches.append(f"{where}: pre fingerprint differs")
            op = record["op"]
            outcome = record["outcome"]
            rejected = False
            if op == "apply":
                try:
                    db.apply(parse_updates(record["args"])[0])
                except ReproError:
                    rejected = True
            elif op == "undo":
                try:
                    db.undo()
                except EvaluationError:
                    rejected = True
            elif op == "restore_history":
                args = record["args"]
                db.restore_history(parse_updates(args) if args else ())
            elif op == "query_certain":
                result = db.is_certain(record["args"])
                if outcome in ("true", "false") and result != (outcome == "true"):
                    report.mismatches.append(
                        f"{where}: query_certain returned {result}, "
                        f"trail says {outcome}"
                    )
            elif op == "query_possible":
                result = db.is_possible(record["args"])
                if outcome in ("true", "false") and result != (outcome == "true"):
                    report.mismatches.append(
                        f"{where}: query_possible returned {result}, "
                        f"trail says {outcome}"
                    )
            if rejected != (outcome == "rejected"):
                report.mismatches.append(
                    f"{where}: op was {'rejected' if rejected else 'accepted'}, "
                    f"trail says {outcome}"
                )
            post = record.get("post")
            if post is not None and fingerprint_json(
                db.clauses().fingerprint
            ) != post:
                report.mismatches.append(f"{where}: post fingerprint differs")
    finally:
        _ENABLED = previous
    return report
