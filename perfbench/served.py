"""The served run: the update service in its own process, closed-loop clients.

Each round spawns ``python -m repro.cli serve --socket PATH`` with its
shipped defaults, opens every session of the plan (applying preloads),
replays the plan once (a pass) and stops the service; rounds repeat
until the passes have used the run time.  A pass starts every
connection together; each connection sends its next request only after
reading the previous response, and every timed request is clocked from
socket write to response read.  Every pass does identical work from
identical states, and each in a fresh process, so nothing the service
keeps between requests (a memo-cache, incremental closures) carries
from one pass into the next, as it would not for real traffic.

The service and the driver are pinned to CPUs of their own, and each
CPU's speed is calibrated (:mod:`perfbench.calibrate`) just before and
just after every pass, with the service idle, so that the report can
scale every pass to one reference speed.
"""

from __future__ import annotations

import asyncio
import gc
import json
import os
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from perfbench.calibrate import calibrate, cpus
from perfbench.plan import TIMED_OPS, Plan, Session, encode

#: Ceiling on one response line (explain derivations can be long).
LINE_LIMIT = 1 << 24

#: Guards so a hung service fails the run instead of stalling it.
READY_TIMEOUT_S = 30.0
PASS_TIMEOUT_S = 90.0
STOP_TIMEOUT_S = 10.0

_CLK_TCK = os.sysconf("SC_CLK_TCK")


@dataclass
class PassRecord:
    """One timed pass: wall time, CPU time and per-op latencies."""

    wall_s: float
    #: CPU time of the service process
    cpu_s: float
    #: CPU time of the driver process
    driver_cpu_s: float
    #: host-speed calibrations of the service's CPU just before and just
    #: after the pass (see perfbench.calibrate)
    calibration_s: tuple[float, float]
    #: the same, of the driver's CPU
    driver_calibration_s: tuple[float, float]
    latencies_ns: dict[str, list[int]]
    #: per connection, the raw response lines of the timed requests
    responses: list[list[bytes]]
    #: per connection, per session, the ``state`` response after the pass
    states: list[list[bytes]]

    @property
    def ops(self) -> int:
        return sum(len(lines) for lines in self.responses)


@dataclass
class ServedRun:
    setup_s: list[float] = field(default_factory=list)
    #: the host-speed calibration of the service's CPU just before each
    #: set-up
    setup_calibration_s: list[float] = field(default_factory=list)
    peak_rss_mb: list[float] = field(default_factory=list)
    passes: list[PassRecord] = field(default_factory=list)
    #: bookkeeping responses (open, preload, close) that must all be ok
    bookkeeping: list[bytes] = field(default_factory=list)


class ServerProcess:
    """The service as a child process, with CPU and memory from ``/proc``."""

    def __init__(self, socket_path: str, log_path: Path, cpu: int | None):
        self.socket_path = socket_path
        self.log_path = log_path
        self.cpu = cpu
        self.proc: subprocess.Popen[bytes] | None = None

    def start(self) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = "src" + os.pathsep + env.get("PYTHONPATH", "")
        with open(self.log_path, "wb") as log:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro.cli", "serve", "--socket", self.socket_path],
                stdin=subprocess.DEVNULL,
                stdout=log,
                stderr=subprocess.STDOUT,
                env=env,
            )
        if self.cpu is not None:
            os.sched_setaffinity(self.proc.pid, {self.cpu})

    async def connect(self) -> "_Connection":
        """A connection, once the service accepts them.

        The socket file appears at ``bind``, a moment before ``listen``,
        so a refused connect is retried until the deadline.
        """
        deadline = time.monotonic() + READY_TIMEOUT_S
        while True:
            try:
                reader, writer = await asyncio.open_unix_connection(
                    self.socket_path, limit=LINE_LIMIT)
                return _Connection(reader, writer)
            except (FileNotFoundError, ConnectionRefusedError):
                if self.proc is None or self.proc.poll() is not None:
                    raise RuntimeError(f"service exited early; see {self.log_path}")
                if time.monotonic() > deadline:
                    raise RuntimeError("service did not accept connections in time")
                await asyncio.sleep(0.002)

    def cpu_s(self) -> float:
        """utime + stime of the service process, in seconds."""
        assert self.proc is not None
        with open(f"/proc/{self.proc.pid}/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / _CLK_TCK

    def peak_rss_mb(self) -> float:
        """VmHWM of the service process, in MiB."""
        assert self.proc is not None
        with open(f"/proc/{self.proc.pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> None:
        if self.proc is None:
            return
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        try:
            os.unlink(self.socket_path)
        except FileNotFoundError:
            pass


class _Connection:
    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter):
        self.reader = reader
        self.writer = writer

    async def call(self, line: bytes) -> bytes:
        self.writer.write(line)
        await self.writer.drain()
        response = await self.reader.readline()
        if not response:
            raise ConnectionError("service closed the connection")
        return response

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionError, OSError):
            pass


def _timed_lines(sessions: list[Session]) -> tuple[list[bytes], list[str]]:
    lines, kinds = [], []
    for session in sessions:
        for op in session.ops:
            lines.append(encode({"id": len(lines) + 1, **op}))
            kinds.append(op["op"])
    return lines, kinds


async def _open_sessions(conn: _Connection, sessions: list[Session], sink: list[bytes]) -> None:
    for session in sessions:
        sink.append(await conn.call(encode({"id": "open", **session.open_request()})))
        if session.preload is not None:
            request = {"id": "preload", "op": "update", "session": session.name,
                       "program": session.preload}
            sink.append(await conn.call(encode(request)))


async def _close_sessions(
    conn: _Connection, sessions: list[Session], sink: list[bytes]
) -> list[bytes]:
    states = []
    for session in sessions:
        states.append(await conn.call(encode({"id": "state", "op": "state",
                                              "session": session.name})))
        sink.append(await conn.call(encode({"id": "close", "op": "close",
                                            "session": session.name})))
    return states


async def _replay(conn: _Connection, lines: list[bytes]) -> tuple[list[int], list[bytes]]:
    """The closed loop: write one request, read its response, repeat."""
    latencies, responses = [], []
    clock = time.perf_counter_ns
    call = conn.call
    for line in lines:
        started = clock()
        response = await call(line)
        latencies.append(clock() - started)
        responses.append(response)
    return latencies, responses


async def _round(plan: Plan, server: ServerProcess, run: ServedRun) -> None:
    """One server lifetime: set up, one timed pass, final states."""
    run.setup_calibration_s.append(calibrate(server.cpu))
    spawned = time.perf_counter()
    server.start()
    conns = [await server.connect() for _ in plan.connections]
    try:
        for conn in conns:
            hello = json.loads(await conn.call(encode({"id": "hello", "op": "hello"})))
            if hello.get("protocol") != 1:
                raise RuntimeError(f"service speaks protocol {hello.get('protocol')!r}")
        await asyncio.gather(*(
            _open_sessions(conn, sessions, run.bookkeeping)
            for conn, sessions in zip(conns, plan.connections)
        ))
        run.setup_s.append(time.perf_counter() - spawned)
        timed = [_timed_lines(sessions) for sessions in plan.connections]
        # The driver's own collector stays out of the timed pass.
        gc.collect()
        gc.disable()
        try:
            before = calibrate(server.cpu), calibrate()
            cpu0 = server.cpu_s()
            driver_cpu0 = time.process_time()
            started = time.perf_counter()
            results = await asyncio.wait_for(
                asyncio.gather(*(
                    _replay(conn, lines) for conn, (lines, _) in zip(conns, timed))),
                PASS_TIMEOUT_S,
            )
            wall = time.perf_counter() - started
            driver_cpu = time.process_time() - driver_cpu0
            cpu = server.cpu_s() - cpu0
            after = calibrate(server.cpu), calibrate()
        finally:
            gc.enable()
        latencies: dict[str, list[int]] = {op: [] for op in TIMED_OPS}
        for (lat, _), (_, kinds) in zip(results, timed):
            for kind, value in zip(kinds, lat):
                latencies[kind].append(value)
        states = await asyncio.gather(*(
            _close_sessions(conn, sessions, run.bookkeeping)
            for conn, sessions in zip(conns, plan.connections)
        ))
        run.passes.append(PassRecord(
            wall, cpu, driver_cpu, (before[0], after[0]), (before[1], after[1]), latencies,
            [resp for _, resp in results], list(states)))
        run.peak_rss_mb.append(server.peak_rss_mb())
    finally:
        for conn in conns:
            await conn.close()


def run_served(plan: Plan, seconds: float, out_dir: Path) -> ServedRun:
    """Rounds, each a fresh service and one pass, until passes fill ``seconds``.

    The service and the driver each keep a CPU of their own throughout.
    """
    run = ServedRun()
    server_cpu, driver_cpu = cpus()
    home = os.sched_getaffinity(0)
    if driver_cpu is not None:
        os.sched_setaffinity(0, {driver_cpu})
    try:
        while not run.passes or sum(p.wall_s for p in run.passes) < seconds:
            index = len(run.passes)
            # A relative socket path keeps it under the 108-byte limit
            # wherever the checkout lives; client and service share the cwd.
            socket_path = os.path.relpath(out_dir / f"srv-{os.getpid()}-{index}.sock")
            server = ServerProcess(socket_path, out_dir / f"server-{index}.log", server_cpu)
            try:
                asyncio.run(_round(plan, server, run))
            finally:
                server.stop()
    finally:
        os.sched_setaffinity(0, home)
    return run
