"""The update service's wire protocol: newline-delimited JSON, version 1.

One request per line, one response per line, always in order -- a
deliberately boring framing that every language can speak with a socket
and a JSON library.  Every request carries a client-chosen ``id`` (echoed
verbatim on the response), an ``op``, and -- for session-scoped ops -- a
``session`` name.  Responses are ``{"id": ..., "ok": true, ...payload}``
or ``{"id": ..., "ok": false, "error": {"code": ..., "message": ...}}``.

Requests::

    {"id": 1, "op": "hello"}
    {"id": 2, "op": "open",  "session": "s", "letters": 8,
     "backend": "clausal", "constraints": ["A1 -> A2"]}
    {"id": 3, "op": "update", "session": "s", "program": "(insert {A1 | A2})"}
    {"id": 4, "op": "query",  "session": "s", "mode": "certain",
     "formula": "A1 | A2"}
    {"id": 5, "op": "undo",    "session": "s"}
    {"id": 6, "op": "explain", "session": "s", "formula": "A1 | A2"}
    {"id": 7, "op": "state",   "session": "s"}
    {"id": 8, "op": "stats"}
    {"id": 9, "op": "close",   "session": "s"}

The protocol is schema-versioned (:data:`PROTOCOL_VERSION`, reported by
``hello`` and checkable by clients before they commit to a dialect) and
the validator rejects malformed requests with pointed error codes
*without* dropping the connection -- a load driver must never lose its
pipeline to one bad line.  Session names are scoped per connection by
the service (see :mod:`repro.server.sessions`), so two clients using the
same name never observe each other's state.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any

from repro.errors import ProtocolError
from repro.hlu.session import BACKENDS

__all__ = [
    "PROTOCOL_VERSION",
    "MAX_LINE_BYTES",
    "MAX_INSTANCE_LETTERS",
    "MAX_CLAUSAL_LETTERS",
    "OPS",
    "SESSION_OPS",
    "QUERY_MODES",
    "ERROR_CODES",
    "Request",
    "parse_request",
    "validate_request",
    "encode",
    "ok_response",
    "error_response",
    "hello_payload",
]

#: Bumped on any incompatible change to request/response shapes; the
#: ``hello`` response carries it so clients can refuse a dialect they
#: would silently mis-speak.
PROTOCOL_VERSION = 1

#: Hard per-line budget (requests and responses).  A newline-delimited
#: protocol must bound its lines or one hostile/buggy client can balloon
#: the server's read buffer.
MAX_LINE_BYTES = 1_000_000

#: Largest vocabulary an ``open`` may give an ``instance`` session.  That
#: backend holds a ``2**letters``-bit truth table and works on it on the
#: event loop every client shares.  Open plus ``(insert {A1 | A2})`` plus
#: the response costs ~0.4 ms at 16 letters and ~0.08 s at 24 (the
#: enumeration limit), but a response lists the state's prime implicates,
#: 2**(letters-1) of them after a parity insert: 0.25 s and ~100 MiB at
#: 16 letters, 2.3 s and ~460 MiB at 18, growing 4x per letter.
MAX_INSTANCE_LETTERS = 16

#: Largest vocabulary an ``open`` may give a ``clausal`` session.  The
#: ``open`` response names every letter: at this limit it is ~89 KB and
#: takes ~0.02 s, well inside :data:`MAX_LINE_BYTES`; 100,000 letters
#: answer ~989 KB, and a million hold the loop 2 s for an 11 MB line.
MAX_CLAUSAL_LETTERS = 10_000

#: Every operation the service understands, in documentation order.
OPS = (
    "hello",
    "open",
    "update",
    "query",
    "undo",
    "explain",
    "state",
    "stats",
    "close",
)

#: Ops that address a named session (and therefore require ``session``).
SESSION_OPS = frozenset(
    {"open", "update", "query", "undo", "explain", "state", "close"}
)

QUERY_MODES = ("certain", "possible")

#: Machine-readable error codes a response's ``error.code`` may carry.
ERROR_CODES = (
    "bad-json",
    "bad-request",
    "unknown-op",
    "unknown-session",
    "session-exists",
    "parse-error",
    "rejected",
    "draining",
    "line-too-long",
    "internal",
)


@dataclass(frozen=True)
class Request:
    """One validated request: id, op, optional session, op parameters."""

    id: Any
    op: str
    session: str | None = None
    params: dict[str, Any] = field(default_factory=dict)


def _fail(message: str, code: str = "bad-request", request_id: Any = None):
    raise ProtocolError(message, code=code, request_id=request_id)


def _extract_id(record: Any) -> Any:
    """Best-effort request id for error correlation (None when absent)."""
    if isinstance(record, dict):
        candidate = record.get("id")
        if isinstance(candidate, (int, str)) and not isinstance(candidate, bool):
            return candidate
    return None


def parse_request(line: str | bytes) -> Request:
    """Parse and validate one request line.

    Raises :class:`~repro.errors.ProtocolError` with a machine-readable
    ``code`` (and the request id when one could be salvaged) on any
    problem -- the service turns that into an error *response*, never a
    dropped connection.
    """
    if isinstance(line, bytes):
        if len(line) > MAX_LINE_BYTES:
            _fail(
                f"request line exceeds {MAX_LINE_BYTES} bytes",
                code="line-too-long",
            )
        try:
            line = line.decode("utf-8")
        except UnicodeDecodeError as exc:
            _fail(f"request line is not UTF-8: {exc}", code="bad-json")
    try:
        record = json.loads(line)
    except (ValueError, RecursionError) as exc:
        # JSONDecodeError is a ValueError; so is an integer literal past
        # Python's digit limit, and nesting past the decoder's depth
        # limit raises RecursionError.
        _fail(f"request is not valid JSON: {exc}", code="bad-json")
    return validate_request(record)


def validate_request(record: Any) -> Request:
    """Validate one decoded request object into a :class:`Request`."""
    request_id = _extract_id(record)
    if not isinstance(record, dict):
        _fail("request must be a JSON object", request_id=request_id)
    if "id" not in record:
        _fail("request is missing 'id'", request_id=request_id)
    if request_id is None:
        _fail("request 'id' must be a string or integer", request_id=None)
    op = record.get("op")
    if not isinstance(op, str):
        _fail("request is missing a string 'op'", request_id=request_id)
    if op not in OPS:
        _fail(
            f"unknown op {op!r} (known: {', '.join(OPS)})",
            code="unknown-op",
            request_id=request_id,
        )
    session = record.get("session")
    if op in SESSION_OPS:
        if not isinstance(session, str) or not session:
            _fail(
                f"op {op!r} requires a non-empty string 'session'",
                request_id=request_id,
            )
        if "/" in session:
            _fail(
                "session names must not contain '/'", request_id=request_id
            )
    else:
        session = None

    params: dict[str, Any] = {}
    if op == "open":
        letters = record.get("letters", 8)
        if isinstance(letters, bool) or not (
            (isinstance(letters, int) and letters > 0)
            or (
                isinstance(letters, list)
                and letters
                and all(isinstance(name, str) and name for name in letters)
            )
        ):
            _fail(
                "'letters' must be a positive integer or a non-empty "
                "list of names",
                request_id=request_id,
            )
        backend = record.get("backend", "clausal")
        if backend not in BACKENDS:
            _fail(
                f"'backend' must be one of {BACKENDS}, got {backend!r}",
                request_id=request_id,
            )
        size = letters if isinstance(letters, int) else len(letters)
        if backend == "instance" and size > MAX_INSTANCE_LETTERS:
            _fail(
                f"'instance' sessions are limited to {MAX_INSTANCE_LETTERS} "
                f"letters, got {size}; use backend 'clausal' for larger "
                "vocabularies",
                request_id=request_id,
            )
        if size > MAX_CLAUSAL_LETTERS:
            _fail(
                f"sessions are limited to {MAX_CLAUSAL_LETTERS} letters, "
                f"got {size}",
                request_id=request_id,
            )
        constraints = record.get("constraints", [])
        if not isinstance(constraints, list) or not all(
            isinstance(c, str) for c in constraints
        ):
            _fail(
                "'constraints' must be a list of formula strings",
                request_id=request_id,
            )
        params = {
            "letters": letters,
            "backend": backend,
            "constraints": constraints,
        }
    elif op == "update":
        program = record.get("program")
        if not isinstance(program, str) or not program.strip():
            _fail(
                "op 'update' requires a non-empty string 'program'",
                request_id=request_id,
            )
        params = {"program": program}
    elif op == "query":
        mode = record.get("mode", "certain")
        if mode not in QUERY_MODES:
            _fail(
                f"'mode' must be one of {QUERY_MODES}, got {mode!r}",
                request_id=request_id,
            )
        formula = record.get("formula")
        if not isinstance(formula, str) or not formula.strip():
            _fail(
                "op 'query' requires a non-empty string 'formula'",
                request_id=request_id,
            )
        params = {"mode": mode, "formula": formula}
    elif op == "explain":
        formula = record.get("formula")
        if not isinstance(formula, str) or not formula.strip():
            _fail(
                "op 'explain' requires a non-empty string 'formula'",
                request_id=request_id,
            )
        params = {"formula": formula}
    return Request(id=request_id, op=op, session=session, params=params)


def encode(record: dict[str, Any]) -> bytes:
    """One response (or request) as a single newline-terminated line."""
    return (json.dumps(record, sort_keys=True, default=str) + "\n").encode("utf-8")


def ok_response(request_id: Any, **payload: Any) -> dict[str, Any]:
    """A success response echoing the request id."""
    return {"id": request_id, "ok": True, **payload}


def error_response(
    request_id: Any, code: str, message: str
) -> dict[str, Any]:
    """A failure response; ``code`` is one of :data:`ERROR_CODES`."""
    return {
        "id": request_id,
        "ok": False,
        "error": {"code": code, "message": message},
    }


def hello_payload() -> dict[str, Any]:
    """What ``hello`` answers: the dialect a client is about to speak."""
    return {
        "server": "repro-hlu",
        "protocol": PROTOCOL_VERSION,
        "ops": list(OPS),
        "backends": list(BACKENDS),
    }
