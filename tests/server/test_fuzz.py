"""Protocol fuzzing: hostile and broken request lines never escape.

Seeded lines -- random bytes, truncated and bit-flipped valid requests,
fields of the wrong type, huge integers, deep nesting and non-UTF-8 --
go through ``UpdateService._handle_line`` and through one real socket
connection.  Every line must get exactly one response, every refusal a
code from ``protocol.ERROR_CODES`` (and never ``internal``, which would
mean an exception the service did not foresee), and the connection must
still serve a whole session afterwards.
"""

import asyncio
import json
import random

import pytest

from repro.logic.parser import MAX_NESTING
from repro.server import protocol
from repro.server.service import UpdateService

from tests.server.test_service import Client, run_service

#: Valid requests the mutations start from; a session ``s`` is open
#: first, so session ops get past the registry to their parsers.
VALID = [
    {"id": 1, "op": "hello"},
    {"id": 2, "op": "stats"},
    {"id": 3, "op": "open", "session": "t", "letters": 4,
     "constraints": ["A1 -> A2"]},
    {"id": 4, "op": "update", "session": "s",
     "program": "(where {A3} (insert {A1 | A2}) (delete {A4}))"},
    {"id": 5, "op": "query", "session": "s", "mode": "possible",
     "formula": "(A1 & ~A2) <-> A3"},
    {"id": 6, "op": "explain", "session": "s", "formula": "A1 | A2"},
    {"id": 7, "op": "undo", "session": "s"},
    {"id": 8, "op": "state", "session": "s"},
    {"id": 9, "op": "close", "session": "t"},
]

OPEN_S = {"id": 0, "op": "open", "session": "s", "letters": 4}

WRONG_VALUES = [None, True, False, 0, -1, 1.5, "", "x", [], [1], {}, {"a": 1},
                10**30, [[[]]], "A1 &", "(", "\u0000"]


def _no_newline(blob: bytes) -> bytes:
    """One line: no newline inside, and not blank (the connection skips
    blank lines without answering)."""
    blob = blob.replace(b"\n", b" ").replace(b"\r", b" ")
    return blob if blob.strip() else b"?"


def _deep_lines() -> list[tuple[bytes, str]]:
    """Lines whose nesting must be refused with a named code."""
    deep = "(" * 400 + "A1" + ")" * 400
    negations = "~" * 5000 + "A1"
    wheres = "(where {A1} " * 2000 + "(insert {A2})" + ")" * 2000
    over = "(" * (MAX_NESTING + 1) + "A1" + ")" * (MAX_NESTING + 1)
    cases = []
    for formula in (deep, negations, over):
        cases += [
            (protocol.encode({"id": 10, "op": "query", "session": "s", "formula": formula}),
             "parse-error"),
            (protocol.encode({"id": 11, "op": "explain", "session": "s", "formula": formula}),
             "parse-error"),
            (protocol.encode({"id": 12, "op": "update", "session": "s",
                    "program": f"(assert {{{formula}}})"}), "parse-error"),
            (protocol.encode({"id": 13, "op": "open", "session": "u", "letters": 2,
                    "constraints": [formula]}), "parse-error"),
        ]
    cases.append((protocol.encode({"id": 14, "op": "update", "session": "s",
                         "program": wheres}), "parse-error"))
    cases += [
        (b"[" * 200_000 + b"]" * 200_000, "bad-json"),
        (b'{"id": 15, "op": "hello", "x": ' + b"{\"a\": " * 50_000 + b"1" +
         b"}" * 50_001, "bad-json"),
        (b'{"id": 16, "op": "open", "session": "u", "letters": 1'
         + b"0" * 5000 + b"}", "bad-json"),
        (b'{"id": 1' + b"7" * 5000 + b', "op": "hello"}', "bad-json"),
        (b'{"id": 18, "op": "open", "session": "u", "letters": 1'
         + b"0" * 4000 + b"}", "bad-request"),
        (b'{"id": 19, "op": "hello", "x": "\xff\xfe"}', "bad-json"),
    ]
    return cases


def _fuzz_lines(seed: int, count: int) -> list[bytes]:
    """Seeded broken lines: random bytes, truncations, bit flips, wrong
    field types, huge integers and non-UTF-8 splices."""
    rng = random.Random(seed)
    lines = []
    for _ in range(count):
        base = rng.choice(VALID)
        encoded = protocol.encode(base).rstrip(b"\n")
        kind = rng.randrange(6)
        if kind == 0:
            blob = bytes(rng.randrange(256) for _ in range(rng.randint(1, 200)))
        elif kind == 1:
            blob = encoded[: rng.randrange(1, len(encoded))]
        elif kind == 2:
            flipped = bytearray(encoded)
            for _ in range(rng.randint(1, 3)):
                flipped[rng.randrange(len(flipped))] ^= 1 << rng.randrange(8)
            blob = bytes(flipped)
        elif kind == 3:
            record = dict(base)
            record[rng.choice(["id", "op", "session", "letters", "backend",
                               "constraints", "program", "mode", "formula"])] = (
                rng.choice(WRONG_VALUES))
            blob = json.dumps(record).encode()
        elif kind == 4:
            digits = str(rng.randint(1, 9)) + "0" * rng.choice([20, 400, 4299, 4400])
            record = json.dumps(dict(base, id="@ID@", letters="@N@"))
            blob = record.replace('"@ID@"', rng.choice(["1", digits])).replace(
                '"@N@"', digits).encode()
        else:
            cut = rng.randrange(len(encoded))
            blob = encoded[:cut] + bytes([rng.randrange(0x80, 0x100)]) + encoded[cut:]
        lines.append(_no_newline(blob))
    return lines


def _check(response, line):
    assert isinstance(response, dict), line[:200]
    if response.get("ok") is False:
        code = response["error"]["code"]
        assert code in protocol.ERROR_CODES, (code, line[:200])
        assert code != "internal", (response, line[:200])
    else:
        assert response.get("ok") is True, (response, line[:200])


class TestHandleLine:
    """Straight through the service's line handler, no socket."""

    def _handle_all(self, lines):
        async def go():
            service = UpdateService()
            assert (await service._handle_line(protocol.encode(OPEN_S), "c1"))["ok"]
            return [await service._handle_line(line, "c1") for line in lines]

        return asyncio.run(go())

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_seeded_lines_get_coded_responses(self, seed):
        lines = _fuzz_lines(seed, 300)
        responses = self._handle_all(lines)
        assert len(responses) == len(lines)
        for response, line in zip(responses, lines):
            _check(response, line)

    def test_deep_nesting_and_decoder_limits_are_named(self):
        cases = _deep_lines()
        responses = self._handle_all([line for line, _ in cases])
        for response, (line, code) in zip(responses, cases):
            assert response["ok"] is False, line[:120]
            assert response["error"]["code"] == code, (response, line[:120])


class TestSocket:
    """The same lines over one connection, which must then still serve."""

    def test_one_connection_survives_the_fuzz(self):
        lines = _fuzz_lines(4, 300) + [line for line, _ in _deep_lines()]

        async def scenario(path, service):
            client = await Client.connect(path)
            assert (await client.send_raw(protocol.encode(OPEN_S)))["ok"]
            for line in lines:
                _check(await client.send_raw(line + b"\n"), line)
            assert (await client.call("hello"))["ok"]
            assert (await client.call("open", session="after", letters=3))["ok"]
            updated = await client.call(
                "update", session="after", program="(insert {A1 | A2})"
            )
            assert updated["ok"] and updated["applied"] == 1
            certain = await client.call(
                "query", session="after", mode="certain", formula="A1 | A2"
            )
            assert certain["ok"] and certain["result"] is True
            await client.close()

        run_service(scenario)
