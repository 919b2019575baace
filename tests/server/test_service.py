"""Tests for repro.server.service: dispatch, isolation, drain, audit."""

import asyncio
import json
import time

import pytest

from repro.hlu import audit as audit_mod
from repro.server import protocol
from repro.server.service import UpdateService
from repro.server.sessions import SessionRegistry


class Client:
    """A minimal test client over the service's Unix socket."""

    def __init__(self, reader, writer):
        self.reader = reader
        self.writer = writer
        self._ids = 0

    @classmethod
    async def connect(cls, path):
        reader, writer = await asyncio.open_unix_connection(path)
        return cls(reader, writer)

    async def call(self, op, **fields):
        self._ids += 1
        record = {"id": self._ids, "op": op, **fields}
        return await self.send_raw(protocol.encode(record))

    async def send_raw(self, blob: bytes):
        self.writer.write(blob)
        await self.writer.drain()
        line = await self.reader.readline()
        assert line, "server closed the connection"
        return json.loads(line)

    async def close(self):
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionError, OSError):
            pass


def run_service(test, **service_kwargs):
    """Start a service on a tmp Unix socket, run ``test(path, service)``."""

    async def _go():
        import tempfile
        from pathlib import Path

        with tempfile.TemporaryDirectory(prefix="repro-srv-test-") as tmp:
            path = str(Path(tmp) / "srv.sock")
            service = UpdateService(**service_kwargs)
            await service.start(socket_path=path)
            try:
                return await test(path, service)
            finally:
                await service.stop()

    return asyncio.run(_go())


class TestTransport:
    def test_connections_read_in_small_chunks(self):
        from repro.server.service import READ_CHUNK_BYTES

        async def scenario(path, service):
            client = await Client.connect(path)
            assert (await client.call("hello"))["ok"]
            (writer,) = service._writers
            assert writer.transport.max_size == READ_CHUNK_BYTES
            # A line longer than one read still arrives whole.
            long_name = "s" * (3 * READ_CHUNK_BYTES)
            opened = await client.call("open", session=long_name, letters=2)
            assert opened["ok"]
            await client.close()

        run_service(scenario)


class TestDispatch:
    def test_happy_path_update_query_undo_state_close(self):
        async def scenario(path, service):
            client = await Client.connect(path)
            hello = await client.call("hello")
            assert hello["ok"] and hello["protocol"] == protocol.PROTOCOL_VERSION

            opened = await client.call("open", session="s", letters=4)
            assert opened["ok"] and opened["letters"] == ["A1", "A2", "A3", "A4"]

            updated = await client.call(
                "update", session="s", program="(insert {A1 | A2}) (insert {~A3})"
            )
            assert updated["ok"] and updated["applied"] == 2
            assert updated["inconsistent"] is False

            certain = await client.call(
                "query", session="s", formula="A1 | A2", mode="certain"
            )
            assert certain["ok"] and certain["result"] is True

            possible = await client.call(
                "query", session="s", formula="A3", mode="possible"
            )
            assert possible["ok"] and possible["result"] is False

            state = await client.call("state", session="s")
            assert state["ok"] and len(state["history"]) == 2
            assert "A1 | A2" in state["clauses"]

            undone = await client.call("undo", session="s")
            assert undone["ok"] and undone["history_length"] == 1

            closed = await client.call("close", session="s")
            assert closed["ok"] and closed["closed"] is True

            missing = await client.call("query", session="s", formula="A1")
            assert not missing["ok"]
            assert missing["error"]["code"] == "unknown-session"
            await client.close()

        run_service(scenario)

    def test_explain_returns_verified_derivation(self):
        async def scenario(path, service):
            client = await Client.connect(path)
            await client.call("open", session="s", letters=3)
            await client.call(
                "update", session="s", program="(insert {A1 | A2}) (assert {~A1})"
            )
            explained = await client.call("explain", session="s", formula="A2")
            assert explained["ok"]
            assert explained["certain"] is True
            assert explained["verified"] is True
            assert explained["steps"] > 0
            assert "A2" in explained["derivation"]

            refuted = await client.call("explain", session="s", formula="A3")
            assert refuted["ok"] and refuted["certain"] is False
            await client.close()

        run_service(scenario)

    def test_malformed_line_answers_without_dropping_connection(self):
        async def scenario(path, service):
            client = await Client.connect(path)
            bad = await client.send_raw(b"{nope\n")
            assert not bad["ok"] and bad["error"]["code"] == "bad-json"
            # The connection survived: a valid request still works.
            hello = await client.call("hello")
            assert hello["ok"]
            await client.close()

        run_service(scenario)

    def test_rejected_update_is_an_error_response(self):
        async def scenario(path, service):
            client = await Client.connect(path)
            await client.call("open", session="s", letters=3)
            response = await client.call(
                "update", session="s", program="(insert {A9})"
            )
            assert not response["ok"]
            assert response["error"]["code"] == "rejected"
            # Session is still usable afterwards.
            ok = await client.call("query", session="s", formula="A1", mode="possible")
            assert ok["ok"] and ok["result"] is True
            await client.close()

        run_service(scenario)

    def test_duplicate_open_reports_session_exists(self):
        async def scenario(path, service):
            client = await Client.connect(path)
            assert (await client.call("open", session="s"))["ok"]
            again = await client.call("open", session="s")
            assert not again["ok"]
            assert again["error"]["code"] == "session-exists"
            await client.close()

        run_service(scenario)

    def test_stats_reports_sessions_and_connections(self):
        async def scenario(path, service):
            client = await Client.connect(path)
            await client.call("open", session="s")
            stats = await client.call("stats")
            assert stats["ok"]
            assert stats["sessions"] == 1
            assert stats["connections"] == 1
            assert stats["draining"] is False
            await client.close()

        run_service(scenario)

    def test_stats_carries_live_telemetry(self):
        """With telemetry live, ``stats`` answers the registry's live
        record: the service's op meters next to the session's kernel
        counters, in the shape the telemetry feed streams."""
        from repro.obs import runtime

        async def scenario(path, service):
            client = await Client.connect(path)
            await client.call("open", session="s", letters=3)
            update = await client.call(
                "update", session="s", program="(insert {A1 | A2})"
            )
            query = await client.call(
                "query", session="s", mode="certain", formula="A1 | A2"
            )
            assert update["ok"] and query["ok"]
            stats = await client.call("stats")
            await client.close()
            return stats["telemetry"]

        runtime.reset()
        runtime.enable()
        try:
            telemetry = run_service(scenario)
        finally:
            runtime.disable()
            runtime.reset()
        assert telemetry["meters"]["srv.update"]["count"] == 1
        assert telemetry["meters"]["srv.query"]["count"] == 1
        assert telemetry["counters"]["hlu.updates"] == 1
        assert telemetry["counters"]["hlu.queries"] == 1
        meta = {
            "type": "meta",
            "schema": runtime.FEED_SCHEMA_VERSION,
            "window_seconds": runtime.WINDOW_SECONDS,
            "slots": runtime.WINDOW_SLOTS,
            "worker": "stats",
        }
        feed = json.dumps(meta) + "\n" + json.dumps(telemetry) + "\n"
        assert runtime.validate_feed(feed) == []

    def test_stats_telemetry_is_null_while_telemetry_is_off(self):
        async def scenario(path, service):
            client = await Client.connect(path)
            stats = await client.call("stats")
            await client.close()
            return stats

        assert run_service(scenario)["telemetry"] is None


class TestInstanceSessions:
    def test_update_at_the_instance_limit_answers_promptly(self):
        """An instance session's clauses are the prime implicates of its
        world set, read off the truth table: at the admission limit an
        update's response (its clause count) and the state listing come
        back in milliseconds, not by CNF-converting one term per world."""

        async def scenario(path, service):
            client = await Client.connect(path)
            letters = protocol.MAX_INSTANCE_LETTERS
            opened = await client.call(
                "open", session="s", letters=letters, backend="instance"
            )
            assert opened["ok"] and len(opened["letters"]) == letters == 16
            started = time.perf_counter()
            updated = await client.call("update", session="s", program="(insert {A1 | A2})")
            elapsed = time.perf_counter() - started
            assert updated["ok"] and updated["clause_count"] == 1
            assert elapsed < 2.0
            state = await client.call("state", session="s")
            assert state["ok"] and state["clauses"] == ["A1 | A2"]
            await client.close()

        run_service(scenario)


class TestIsolation:
    def test_two_connections_never_observe_each_other(self):
        """The same session name on two connections is two databases."""

        async def scenario(path, service):
            one = await Client.connect(path)
            two = await Client.connect(path)
            assert (await one.call("open", session="main", letters=3))["ok"]
            assert (await two.call("open", session="main", letters=3))["ok"]

            await one.call("update", session="main", program="(assert {A1})")
            mine = await one.call("query", session="main", formula="A1")
            theirs = await two.call("query", session="main", formula="A1")
            assert mine["result"] is True
            assert theirs["result"] is False  # ignorance, not A1

            # Registry keys are connection-scoped, so both names coexist.
            assert len(service.registry) == 2
            await one.close()
            await two.close()

        run_service(scenario)

    def test_connection_close_drops_its_sessions_only(self):
        async def scenario(path, service):
            one = await Client.connect(path)
            two = await Client.connect(path)
            await one.call("open", session="a")
            await two.call("open", session="b")
            await one.close()
            # Give the server a beat to run the connection teardown.
            for _ in range(100):
                if len(service.registry) == 1:
                    break
                await asyncio.sleep(0.01)
            assert service.registry.names() and all(
                name.endswith("/b") for name in service.registry.names()
            )
            await two.close()

        run_service(scenario)

    def test_concurrent_clients_pipelining_updates_stay_serialised(self):
        """Interleaved updates from concurrent connections all land."""

        async def scenario(path, service):
            clients = [await Client.connect(path) for _ in range(4)]
            for client in clients:
                assert (await client.call("open", session="w", letters=6))["ok"]

            async def hammer(client, letter):
                for _ in range(10):
                    response = await client.call(
                        "update", session="w", program=f"(insert {{{letter}}})"
                    )
                    assert response["ok"]

            await asyncio.gather(
                *(
                    hammer(client, f"A{i + 1}")
                    for i, client in enumerate(clients)
                )
            )
            for i, client in enumerate(clients):
                state = await client.call("state", session="w")
                assert state["history"].count(f"(insert {{A{i + 1}}})") == 10
                await client.close()

        run_service(scenario)


class TestDraining:
    def test_draining_rejects_new_work_but_answers(self):
        async def scenario(path, service):
            client = await Client.connect(path)
            await client.call("open", session="s")
            service.draining = True
            response = await client.call("query", session="s", formula="A1")
            assert not response["ok"]
            assert response["error"]["code"] == "draining"
            # hello and stats still answer while draining.
            assert (await client.call("hello"))["ok"]
            assert (await client.call("stats"))["ok"]
            await client.close()

        run_service(scenario)

    def test_graceful_drain_leaves_audit_replayable(self, tmp_path):
        trail = tmp_path / "audit.jsonl"

        async def scenario(path, service):
            client = await Client.connect(path)
            await client.call("open", session="s", letters=4)
            await client.call(
                "update", session="s", program="(insert {A1 | A2}) (delete {A4})"
            )
            await client.call("query", session="s", formula="A1 | A2")
            await client.call("undo", session="s")
            await client.close()

        audit_mod.enable(str(trail))
        try:
            run_service(scenario)  # run_service stops (drains) the service
        finally:
            audit_mod.disable()
        replay = audit_mod.replay_audit(str(trail))
        assert replay.ok, replay.render()

    def test_stop_closes_lingering_connections(self):
        async def scenario(path, service):
            client = await Client.connect(path)
            await client.call("open", session="s")
            await service.stop()
            # The server closed our transport; reads now hit EOF.
            line = await client.reader.readline()
            assert line == b""
            await client.close()

        run_service(scenario)


class TestRegistry:
    def test_idle_eviction_closes_only_stale_sessions(self):
        from repro.hlu.session import IncompleteDatabase

        clock = [0.0]
        registry = SessionRegistry(idle_timeout=10.0, clock=lambda: clock[0])
        registry.open("c1/idle", IncompleteDatabase.over(2))
        fresh = registry.open("c1/fresh", IncompleteDatabase.over(2))
        clock[0] = 15.0
        registry.touch(fresh)
        clock[0] = 20.0
        assert registry.evict_idle() == ["c1/idle"]
        assert registry.get("c1/fresh") is not None
        assert registry.evicted_total == 1

    def test_registry_bounds_live_sessions(self):
        from repro.errors import EvaluationError
        from repro.hlu.session import IncompleteDatabase

        registry = SessionRegistry(max_sessions=1)
        registry.open("c1/a", IncompleteDatabase.over(2))
        with pytest.raises(EvaluationError):
            registry.open("c1/b", IncompleteDatabase.over(2))
