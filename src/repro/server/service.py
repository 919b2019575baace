"""The asyncio update service: concurrent HLU sessions over a socket.

One long-lived process, many concurrent clients: each connection speaks
the newline-delimited JSON protocol (:mod:`repro.server.protocol`),
opens named sessions (scoped per connection, so clients are structurally
isolated), and drives BLU/HLU updates, certain/possible queries, undo,
and verified explain against :class:`~repro.hlu.session.IncompleteDatabase`.

Concurrency model: one event loop, and every request handled to
completion without yielding.  Kernel work (resolution, SAT) runs
synchronously on the loop, so connections interleave only *between*
requests and one session's operations are serialised without a lock.
The price is that an expensive request delays every other client until
it finishes.

Operational surface:

* live telemetry in the process-wide :mod:`repro.obs` registry -- per-op
  meters and windowed latency histograms (``srv.update``,
  ``srv.query``, ..., and the kernel ops below them), the kernel work
  counters, gauges for live sessions and connections -- streamed to a
  JSONL feed by a :mod:`repro.obs.runtime` pump;
* the session audit trail (:mod:`repro.hlu.audit`): with ``--audit-out``
  every session the service opens records its operations, so a drained
  server leaves a trail that ``python -m repro.cli audit --replay``
  can re-run and verify fingerprint-for-fingerprint;
* graceful drain on SIGTERM/SIGINT: stop accepting, answer any request
  still arriving with a ``draining`` error, close the connections,
  flush telemetry and audit, exit 0.

``python -m repro.cli serve --socket /tmp/repro.sock`` is the CLI
entry; :class:`UpdateService` plus :meth:`UpdateService.start` is the
embeddable API the tests use.  The benchmark in ``perfbench/`` drives
the CLI entry over a socket and ``UpdateService._handle_line`` in
process.
"""

from __future__ import annotations

import argparse
import asyncio
import itertools
import signal
import sys
from typing import Any

from repro.errors import EvaluationError, ParseError, ProtocolError, ReproError
from repro.hlu import audit as audit_mod
from repro.hlu.session import IncompleteDatabase
from repro.obs import core as obs
from repro.obs import runtime
from repro.obs.logging import get_logger
from repro.server import protocol
from repro.server.sessions import (
    DEFAULT_IDLE_TIMEOUT,
    DEFAULT_MAX_SESSIONS,
    SessionEntry,
    SessionRegistry,
)

__all__ = ["UpdateService", "serve_main"]

_LOG = get_logger("repro.server.service")

#: Bytes a connection's transport reads at a time.  asyncio reads into a
#: fresh 256 KiB buffer and shrinks it to what arrived; when glibc's heap
#: top sits near its trim threshold, every read then grows the heap and
#: trims it again, about two page faults and 20 us of system time per
#: request (measured on mixed_small: cheap requests' p50 latency up 20%).
#: Whether a build lands there depends on byte-level heap layout, down to
#: the length of the socket path.  Request lines are small; 16 KiB reads
#: stay clear of the trim.
READ_CHUNK_BYTES = 16 * 1024


class UpdateService:
    """The server: a session registry plus the connection handler.

    Embed it (tests, benchmarks)::

        service = UpdateService()
        server = await service.start(socket_path="/tmp/repro.sock")
        ...
        await service.stop()   # graceful drain

    or run it as a process via :func:`serve_main`.
    """

    def __init__(
        self,
        idle_timeout: float = DEFAULT_IDLE_TIMEOUT,
        max_sessions: int = DEFAULT_MAX_SESSIONS,
    ):
        self.registry = SessionRegistry(
            idle_timeout=idle_timeout, max_sessions=max_sessions
        )
        self.draining = False
        self.connections = 0
        self.requests_total = 0
        self._conn_ids = itertools.count(1)
        self._server: asyncio.AbstractServer | None = None
        self._evictor: asyncio.Task[None] | None = None
        self._writers: set[asyncio.StreamWriter] = set()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def start(
        self,
        socket_path: str | None = None,
        host: str | None = None,
        port: int | None = None,
        evict_interval: float | None = None,
    ) -> asyncio.AbstractServer:
        """Listen on a Unix socket (``socket_path``) or TCP host/port."""
        limit = protocol.MAX_LINE_BYTES + 2
        if socket_path is not None:
            self._server = await asyncio.start_unix_server(
                self._on_connection, path=socket_path, limit=limit
            )
        elif host is not None and port is not None:
            self._server = await asyncio.start_server(
                self._on_connection, host=host, port=port, limit=limit
            )
        else:
            raise ValueError("need socket_path or host+port")
        interval = (
            evict_interval
            if evict_interval is not None
            else max(0.25, self.registry.idle_timeout / 4.0)
        )
        self._evictor = asyncio.create_task(self._evict_loop(interval))
        return self._server

    async def stop(self) -> None:
        """Graceful drain: stop accepting, then close every connection.

        No request is ever mid-way when this runs (requests do not
        yield), so closing loses no work; responses already written are
        flushed by the close.  New requests arriving on live connections
        while draining are answered with a ``draining`` error rather
        than silence, so a pipelining client sees a clean rejection
        instead of a hang.
        """
        self.draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self._evictor is not None:
            self._evictor.cancel()
            try:
                await self._evictor
            except asyncio.CancelledError:
                pass
        for writer in list(self._writers):
            writer.close()
        for writer in list(self._writers):
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
        self._writers.clear()

    async def _evict_loop(self, interval: float) -> None:
        while True:
            await asyncio.sleep(interval)
            evicted = self.registry.evict_idle()
            if evicted:
                _LOG.info(
                    "evicted idle sessions",
                    extra={"sessions": evicted, "count": len(evicted)},
                )

    # ------------------------------------------------------------------
    # Connections
    # ------------------------------------------------------------------

    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        scope = f"c{next(self._conn_ids)}"
        self.connections += 1
        obs.set_gauge("srv.connections", float(self.connections))
        self._writers.add(writer)
        # asyncio's selector transports read ``max_size`` bytes per recv
        # (not a public setting, so only where the attribute exists).
        transport = writer.transport
        if hasattr(transport, "max_size"):
            transport.max_size = READ_CHUNK_BYTES
        try:
            while True:
                try:
                    line = await reader.readline()
                except (asyncio.LimitOverrunError, ValueError):
                    # An over-long line cannot be resynchronised reliably;
                    # answer, then drop this connection only.
                    writer.write(
                        protocol.encode(
                            protocol.error_response(
                                None,
                                "line-too-long",
                                f"request line exceeds "
                                f"{protocol.MAX_LINE_BYTES} bytes",
                            )
                        )
                    )
                    await writer.drain()
                    break
                if not line:
                    break
                if not line.strip():
                    continue
                response = await self._handle_line(line, scope)
                writer.write(protocol.encode(response))
                try:
                    await writer.drain()
                except (ConnectionError, OSError):
                    break
        except (ConnectionError, OSError):
            pass
        finally:
            closed = self.registry.close_scope(f"{scope}/")
            if closed:
                _LOG.info(
                    "connection closed",
                    extra={"scope": scope, "sessions_dropped": len(closed)},
                )
            self.connections -= 1
            obs.set_gauge("srv.connections", float(self.connections))
            self._writers.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _handle_line(self, line: bytes, scope: str) -> dict[str, Any]:
        try:
            request = protocol.parse_request(line)
        except ProtocolError as error:
            obs.inc("srv.bad_requests")
            return protocol.error_response(
                error.request_id, error.code, str(error)
            )
        self.requests_total += 1
        with obs.op(f"srv.{request.op}"):
            try:
                return self._dispatch(request, scope)
            except ReproError as error:
                # A library-level failure the validator could not foresee
                # (e.g. a constraint set the backend refuses): a clean
                # error response, not a dropped connection.
                obs.inc("srv.errors")
                return protocol.error_response(request.id, "rejected", str(error))
            except Exception as error:  # noqa: BLE001 - the service must survive
                obs.inc("srv.errors")
                _LOG.warning(
                    "internal error",
                    extra={"op": request.op, "error": repr(error)},
                )
                return protocol.error_response(
                    request.id, "internal", f"internal error: {error!r}"
                )

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------

    def _dispatch(
        self, request: protocol.Request, scope: str
    ) -> dict[str, Any]:
        op = request.op
        if op == "hello":
            return protocol.ok_response(request.id, **protocol.hello_payload())
        if op == "stats":
            return protocol.ok_response(
                request.id,
                sessions=len(self.registry),
                connections=self.connections,
                draining=self.draining,
                requests_total=self.requests_total,
                telemetry=obs.registry().live_record()
                if obs.is_live()
                else None,
            )
        if self.draining:
            return protocol.error_response(
                request.id, "draining", "service is draining; no new work"
            )
        assert request.session is not None  # validator guarantees it
        name = f"{scope}/{request.session}"
        if op == "open":
            return self._do_open(request, name)
        entry = self.registry.get(name)
        if entry is None:
            return protocol.error_response(
                request.id,
                "unknown-session",
                f"no open session named {request.session!r} on this "
                f"connection (send an 'open' first)",
            )
        self.registry.touch(entry)
        if op == "update":
            return self._do_update(request, entry)
        if op == "query":
            return self._do_query(request, entry)
        if op == "undo":
            return self._do_undo(request, entry)
        if op == "explain":
            return self._do_explain(request, entry)
        if op == "state":
            return self._do_state(request, entry)
        if op == "close":
            self.registry.close(name)
            return protocol.ok_response(request.id, closed=True)
        raise AssertionError(f"unhandled op {op!r}")  # pragma: no cover

    def _do_open(
        self, request: protocol.Request, name: str
    ) -> dict[str, Any]:
        if self.registry.get(name) is not None:
            return protocol.error_response(
                request.id,
                "session-exists",
                f"session {request.session!r} is already open on this "
                f"connection",
            )
        try:
            db = IncompleteDatabase.over(
                request.params["letters"],
                constraints=request.params["constraints"],
                backend=request.params["backend"],
            )
            self.registry.open(name, db)
        except ParseError as error:
            return protocol.error_response(request.id, "parse-error", str(error))
        except EvaluationError as error:
            return protocol.error_response(request.id, "rejected", str(error))
        return protocol.ok_response(
            request.id,
            session=request.session,
            letters=list(db.vocabulary.names),
            backend=db.backend,
        )

    def _do_update(
        self, request: protocol.Request, entry: SessionEntry
    ) -> dict[str, Any]:
        from repro.hlu.surface import parse_updates

        try:
            updates = parse_updates(request.params["program"])
        except ParseError as error:
            return protocol.error_response(request.id, "parse-error", str(error))
        if not updates:
            return protocol.error_response(
                request.id, "bad-request", "program contains no updates"
            )
        applied = 0
        try:
            for update in updates:
                entry.db.apply(update)
                applied += 1
        except ReproError as error:
            return protocol.error_response(
                request.id,
                "rejected",
                f"update {applied + 1}/{len(updates)} rejected: {error} "
                f"({applied} applied and kept; undo to roll back)",
            )
        clauses = entry.db.clauses()
        return protocol.ok_response(
            request.id,
            applied=applied,
            clause_count=len(clauses.clauses),
            inconsistent=clauses.has_empty_clause,
        )

    def _do_query(
        self, request: protocol.Request, entry: SessionEntry
    ) -> dict[str, Any]:
        mode = request.params["mode"]
        try:
            if mode == "certain":
                result = entry.db.is_certain(request.params["formula"])
            else:
                result = entry.db.is_possible(request.params["formula"])
        except ParseError as error:
            return protocol.error_response(request.id, "parse-error", str(error))
        return protocol.ok_response(request.id, mode=mode, result=result)

    def _do_undo(
        self, request: protocol.Request, entry: SessionEntry
    ) -> dict[str, Any]:
        try:
            entry.db.undo()
        except EvaluationError as error:
            return protocol.error_response(request.id, "rejected", str(error))
        return protocol.ok_response(
            request.id,
            clause_count=len(entry.db.clauses().clauses),
            history_length=len(entry.db.history),
        )

    def _do_explain(
        self, request: protocol.Request, entry: SessionEntry
    ) -> dict[str, Any]:
        from repro.logic.clauses import clause_to_str
        from repro.logic.cnf import formula_to_clauses
        from repro.logic.parser import parse_formula
        from repro.obs import provenance

        try:
            formula = parse_formula(request.params["formula"])
        except ParseError as error:
            return protocol.error_response(request.id, "parse-error", str(error))
        clause_set = entry.db.clauses()
        targets = formula_to_clauses(formula, entry.db.vocabulary).sorted_clauses()
        if not targets:
            return protocol.ok_response(
                request.id,
                certain=True,
                verified=True,
                steps=0,
                derivation="(tautology -- nothing to derive)",
            )
        blocks: list[str] = []
        step_count = 0
        verified = True
        for target in targets:
            steps = provenance.explain_entailment(clause_set, target)
            if steps is None:
                rendered = clause_to_str(entry.db.vocabulary, target)
                return protocol.ok_response(
                    request.id,
                    certain=False,
                    verified=True,
                    steps=0,
                    derivation=f"no refutation derives {rendered} "
                    f"(a world violating it is possible)",
                )
            defects = provenance.verify_derivation(
                steps, target=steps[-1].clause, axioms=clause_set.clauses
            )
            verified = verified and not defects
            step_count += len(steps)
            blocks.append(
                provenance.render_derivation(steps, entry.db.vocabulary)
            )
        return protocol.ok_response(
            request.id,
            certain=True,
            verified=verified,
            steps=step_count,
            derivation="\n".join(blocks),
        )

    def _do_state(
        self, request: protocol.Request, entry: SessionEntry
    ) -> dict[str, Any]:
        from repro.logic.clauses import clause_to_str

        clauses = entry.db.clauses()
        return protocol.ok_response(
            request.id,
            backend=entry.db.backend,
            letters=list(entry.db.vocabulary.names),
            clauses=[
                clause_to_str(entry.db.vocabulary, clause)
                for clause in clauses.sorted_clauses()
            ],
            history=[str(update) for update in entry.db.history],
            inconsistent=clauses.has_empty_clause,
        )


# ---------------------------------------------------------------------------
# Process entry point
# ---------------------------------------------------------------------------


async def _serve_until_stopped(
    service: UpdateService,
    stop: asyncio.Event,
    socket_path: str | None,
    host: str | None,
    port: int | None,
) -> None:
    server = await service.start(socket_path=socket_path, host=host, port=port)
    where = socket_path or f"{host}:{port}"
    print(f"repro-hlu service listening on {where}", flush=True)
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(signum, stop.set)
        except (NotImplementedError, RuntimeError):  # pragma: no cover
            pass  # non-POSIX loops: Ctrl-C still lands as KeyboardInterrupt
    try:
        await stop.wait()
    finally:
        print("draining...", flush=True)
        await service.stop()
        server_sockets = getattr(server, "sockets", None)
        del server_sockets


def serve_main(argv: list[str] | None = None) -> int:
    """``python -m repro.cli serve``: run the update service.

    Listens on ``--socket PATH`` (Unix) or ``--host/--port`` (TCP),
    with live telemetry always on (``--telemetry-out`` streams the JSONL
    feed; ``stats`` serves snapshots either way) and the audit trail
    opt-in via ``--audit-out``.  SIGTERM/SIGINT drain gracefully: accept
    nothing new, close the connections, flush feed and trail, exit 0.
    """
    parser = argparse.ArgumentParser(
        prog="repro-hlu serve",
        description="Serve concurrent HLU update/query sessions over a socket.",
    )
    target = parser.add_mutually_exclusive_group(required=True)
    target.add_argument(
        "--socket", metavar="PATH", default=None, help="Unix socket path"
    )
    target.add_argument(
        "--port", type=int, metavar="PORT", default=None, help="TCP port"
    )
    parser.add_argument(
        "--host",
        default="127.0.0.1",
        help="TCP bind host for --port (default: 127.0.0.1)",
    )
    parser.add_argument(
        "--idle-timeout",
        type=float,
        metavar="SECONDS",
        default=DEFAULT_IDLE_TIMEOUT,
        help=f"evict sessions idle this long (default: {DEFAULT_IDLE_TIMEOUT:g})",
    )
    parser.add_argument(
        "--max-sessions",
        type=int,
        metavar="N",
        default=DEFAULT_MAX_SESSIONS,
        help=f"bound on live sessions (default: {DEFAULT_MAX_SESSIONS})",
    )
    parser.add_argument(
        "--telemetry-out",
        metavar="FILE",
        default=None,
        help="stream the live telemetry feed here as JSONL "
        "(inspect with 'python -m repro.cli telemetry FILE')",
    )
    parser.add_argument(
        "--telemetry-interval",
        type=float,
        metavar="SECONDS",
        default=1.0,
        help="seconds between telemetry snapshots (default: 1.0)",
    )
    parser.add_argument(
        "--audit-out",
        metavar="FILE",
        default=None,
        help="record the session audit trail here as JSONL "
        "(check with 'python -m repro.cli audit FILE --replay')",
    )
    options = parser.parse_args(argv)
    if options.idle_timeout <= 0:
        parser.error(f"--idle-timeout must be > 0, got {options.idle_timeout}")
    if options.max_sessions < 1:
        parser.error(f"--max-sessions must be >= 1, got {options.max_sessions}")
    if options.telemetry_interval <= 0:
        parser.error(
            f"--telemetry-interval must be > 0, got {options.telemetry_interval}"
        )

    runtime.reset()
    runtime.enable()
    writer = None
    pump = None
    if options.telemetry_out is not None:
        try:
            writer = runtime.TelemetryWriter(options.telemetry_out, worker="serve")
        except OSError as exc:
            parser.error(f"cannot write --telemetry-out file: {exc}")
        pump = runtime.TelemetryPump(
            writer, options.telemetry_interval, runtime.ResourceSampler()
        )
        pump.start()
    if options.audit_out is not None:
        try:
            audit_mod.enable(options.audit_out)
        except OSError as exc:
            parser.error(f"cannot write --audit-out file: {exc}")

    service = UpdateService(
        idle_timeout=options.idle_timeout, max_sessions=options.max_sessions
    )
    stop = asyncio.Event()
    try:
        asyncio.run(
            _serve_until_stopped(
                service, stop, options.socket, options.host, options.port
            )
        )
    except KeyboardInterrupt:
        pass
    finally:
        if options.audit_out is not None:
            audit_mod.disable()
        if pump is not None:
            pump.stop(final_snapshot=True)
        if writer is not None:
            writer.close()
        runtime.disable()
    print("service stopped", flush=True)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(serve_main())
