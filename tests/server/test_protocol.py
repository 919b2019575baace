"""Tests for repro.server.protocol: round trips and malformed rejection."""

import json

import pytest

from repro.errors import ProtocolError
from repro.server import protocol


class TestParseRequest:
    def test_hello_round_trip(self):
        request = protocol.parse_request('{"id": 1, "op": "hello"}')
        assert request.id == 1
        assert request.op == "hello"
        assert request.session is None
        assert request.params == {}

    def test_string_ids_are_fine(self):
        request = protocol.parse_request('{"id": "a-7", "op": "stats"}')
        assert request.id == "a-7"

    def test_open_defaults(self):
        request = protocol.parse_request('{"id": 1, "op": "open", "session": "s"}')
        assert request.session == "s"
        assert request.params == {
            "letters": 8,
            "backend": "clausal",
            "constraints": [],
        }

    def test_open_explicit_letters_and_constraints(self):
        request = protocol.parse_request(
            json.dumps(
                {
                    "id": 2,
                    "op": "open",
                    "session": "s",
                    "letters": ["P", "Q"],
                    "backend": "instance",
                    "constraints": ["P -> Q"],
                }
            )
        )
        assert request.params["letters"] == ["P", "Q"]
        assert request.params["backend"] == "instance"
        assert request.params["constraints"] == ["P -> Q"]

    def test_update_requires_program(self):
        request = protocol.parse_request(
            '{"id": 3, "op": "update", "session": "s", "program": "(insert {A1})"}'
        )
        assert request.params["program"] == "(insert {A1})"

    def test_query_mode_defaults_to_certain(self):
        request = protocol.parse_request(
            '{"id": 4, "op": "query", "session": "s", "formula": "A1"}'
        )
        assert request.params == {"mode": "certain", "formula": "A1"}

    def test_bytes_lines_accepted(self):
        request = protocol.parse_request(b'{"id": 1, "op": "hello"}\n')
        assert request.op == "hello"


def _code_of(text: str | bytes) -> str:
    with pytest.raises(ProtocolError) as excinfo:
        protocol.parse_request(text)
    return excinfo.value.code


class TestMalformedRejection:
    def test_bad_json(self):
        assert _code_of("{nope") == "bad-json"

    def test_non_utf8_bytes(self):
        assert _code_of(b'{"id": 1, "op": "hel\xfflo"}') == "bad-json"

    def test_non_object(self):
        assert _code_of("[1, 2]") == "bad-request"

    def test_missing_id(self):
        assert _code_of('{"op": "hello"}') == "bad-request"

    def test_boolean_id_rejected(self):
        assert _code_of('{"id": true, "op": "hello"}') == "bad-request"

    def test_unknown_op(self):
        assert _code_of('{"id": 1, "op": "drop-tables"}') == "unknown-op"

    def test_session_ops_need_session(self):
        assert _code_of('{"id": 1, "op": "update", "program": "x"}') == "bad-request"

    def test_session_name_must_not_contain_slash(self):
        assert (
            _code_of('{"id": 1, "op": "open", "session": "a/b"}') == "bad-request"
        )

    def test_open_rejects_zero_letters(self):
        assert (
            _code_of('{"id": 1, "op": "open", "session": "s", "letters": 0}')
            == "bad-request"
        )

    def test_open_rejects_bool_letters(self):
        assert (
            _code_of('{"id": 1, "op": "open", "session": "s", "letters": true}')
            == "bad-request"
        )

    def test_open_rejects_unknown_backend(self):
        assert (
            _code_of(
                '{"id": 1, "op": "open", "session": "s", "backend": "sqlite"}'
            )
            == "bad-request"
        )

    def test_open_limits_instance_letters(self):
        limit = protocol.MAX_INSTANCE_LETTERS
        names = json.dumps([f"P{i}" for i in range(limit + 1)])
        for letters in (str(limit + 1), "24", names):
            with pytest.raises(ProtocolError) as info:
                protocol.parse_request(
                    '{"id": 1, "op": "open", "session": "s", '
                    f'"backend": "instance", "letters": {letters}}}'
                )
            assert info.value.code == "bad-request"
            assert str(limit) in str(info.value)
            assert "clausal" in str(info.value)
        at_limit = protocol.parse_request(
            '{"id": 1, "op": "open", "session": "s", '
            f'"backend": "instance", "letters": {limit}}}'
        )
        assert at_limit.params["letters"] == limit
        clausal = protocol.parse_request(
            '{"id": 1, "op": "open", "session": "s", "letters": 40}'
        )
        assert clausal.params["backend"] == "clausal"

    def test_open_limits_clausal_letters(self):
        limit = protocol.MAX_CLAUSAL_LETTERS
        names = json.dumps([f"P{i}" for i in range(limit + 1)])
        for letters in (str(limit + 1), "1000000", "1" + "0" * 4000, names):
            with pytest.raises(ProtocolError) as info:
                protocol.parse_request(
                    '{"id": 1, "op": "open", "session": "s", '
                    f'"letters": {letters}}}'
                )
            assert info.value.code == "bad-request"
            assert str(limit) in str(info.value)

    def test_open_at_the_clausal_limit_answers_within_the_line_bound(self):
        import asyncio

        from repro.server.service import UpdateService

        limit = protocol.MAX_CLAUSAL_LETTERS
        names = json.dumps([f"P{i}" for i in range(limit)])
        for letters in (str(limit), names):
            line = (
                '{"id": 1, "op": "open", "session": "s", '
                f'"letters": {letters}}}'
            ).encode()
            response = asyncio.run(UpdateService()._handle_line(line, "c1"))
            assert response["ok"] and len(response["letters"]) == limit
            assert len(protocol.encode(response)) <= protocol.MAX_LINE_BYTES

    @pytest.mark.parametrize(
        "line",
        [
            b"[" * 200_000 + b"]" * 200_000,
            b'{"id": 1, "op": "hello", "x": ' + b"[" * 100_000 + b"}",
            b'{"id": 1, "op": "hello", "x": 1' + b"0" * 5000 + b"}",
            b'{"id": 1' + b"0" * 5000 + b', "op": "hello"}',
        ],
        ids=["nested-brackets", "nested-unclosed", "huge-int", "huge-id"],
    )
    def test_decoder_limits_answer_bad_json(self, line):
        assert _code_of(line) == "bad-json"

    def test_update_rejects_blank_program(self):
        assert (
            _code_of('{"id": 1, "op": "update", "session": "s", "program": " "}')
            == "bad-request"
        )

    def test_query_rejects_unknown_mode(self):
        assert (
            _code_of(
                '{"id": 1, "op": "query", "session": "s", '
                '"mode": "maybe", "formula": "A1"}'
            )
            == "bad-request"
        )

    def test_oversized_line(self):
        line = b'{"id": 1, "op": "hello", "pad": "' + b"x" * protocol.MAX_LINE_BYTES
        assert _code_of(line) == "line-too-long"

    def test_salvaged_id_rides_on_the_error(self):
        with pytest.raises(ProtocolError) as excinfo:
            protocol.parse_request('{"id": 9, "op": "nope"}')
        assert excinfo.value.request_id == 9


class TestResponses:
    def test_ok_response_echoes_id_and_payload(self):
        response = protocol.ok_response(7, result=True)
        assert response == {"id": 7, "ok": True, "result": True}

    def test_error_response_shape(self):
        response = protocol.error_response(None, "bad-json", "nope")
        assert response["ok"] is False
        assert response["error"]["code"] == "bad-json"
        assert response["error"]["code"] in protocol.ERROR_CODES

    def test_encode_is_one_terminated_line(self):
        blob = protocol.encode(protocol.ok_response(1))
        assert blob.endswith(b"\n")
        assert blob.count(b"\n") == 1
        assert json.loads(blob)["id"] == 1

    def test_hello_payload_names_the_dialect(self):
        payload = protocol.hello_payload()
        assert payload["protocol"] == protocol.PROTOCOL_VERSION
        assert tuple(payload["ops"]) == protocol.OPS
        assert "clausal" in payload["backends"]
