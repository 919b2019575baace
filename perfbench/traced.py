"""The traced run: the served op lists replayed through an in-process service.

Every request line goes through ``UpdateService._handle_line`` -- the
service's own parse, dispatch and handlers, without the socket -- and
its response through ``protocol.encode``, as a served connection does.
The traced replay opens spans by wrapping the layer entry points the
service calls: ``protocol.parse_request``, ``hlu.surface.parse_updates``
and ``logic.parser.parse_formula`` (looked up at call time), the
``IncompleteDatabase`` operations of each session, and the ``op_*``
methods of its ``db.implementation``.  Explain has no session method:
its span is the service's explain handler, which works on the
session's clauses.  Spans stay in memory and are written out when the
replay ends; kernel work below BLU is counted with the existing
``repro.obs`` counters, which are switched on for the traced replay
only.

The same replay without the wrappers gives the untraced in-process
time, so the tracing overhead is their ratio; the served run's mean
latency minus the untraced in-process cost per request is the service
overhead (socket, event loop and wait).  Each replay runs its own
relabelled copy of the plan (see :class:`perfbench.plan.Relabel`), so
no replay meets states a process-wide cache kept from an earlier one.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterator

from repro import obs
from repro.cache import cache_stats
from repro.hlu import session as session_mod
from repro.hlu import surface
from repro.logic import parser
from repro.obs import runtime
from repro.server import protocol
from repro.server.service import UpdateService

from perfbench.plan import Plan, build_plan, encode
from perfbench.report import percentile, steady_passes
from perfbench.served import ServedRun

#: Layers with spans, in table order.
LAYERS = ("server.service", "server.protocol", "hlu.surface", "logic.parser",
          "hlu.session", "blu")

#: ``repro.obs`` counters reported per request.
LOGIC_COUNTERS = (
    "logic.resolution.resolvents_formed",
    "logic.reduce.subset_tests",
    "logic.reduce.sig_skips",
    "blu.c.genmask.pairs_tested",
    "logic.sat.solve_calls",
    "logic.sat.decisions",
)

#: ``repro.obs`` counters of the incremental closure layer.
INCREMENTAL_COUNTERS = {
    "incremental.lineage_hits": "logic.incremental.lineage_hits",
    "incremental.reused_clauses": "logic.incremental.reused_clauses",
    "incremental.retractions": "logic.incremental.retractions",
}

BLU_OPS = ("assert", "combine", "complement", "mask", "genmask")

#: Session operations the service calls, and the span each gets.
SESSION_OPS = (("apply", "apply"), ("undo", "undo"),
               ("is_certain", "query"), ("is_possible", "query"))

#: Untraced in-process replays per traced run (one fewer traced ones
#: alternate with them); the fastest of each kind is kept.
REPEATS = 3


class Tracer:
    """Spans kept in memory: [parent, request, layer, name, start_ns, end_ns].

    Spans are only recorded while ``recording`` is set, so the untimed
    requests around a session (open, preload, close) leave none.
    """

    def __init__(self) -> None:
        self.records: list[list[Any]] = []
        self.stack: list[int] = []
        self.request = 0
        self.recording = False

    def span(self, layer: str, name: str) -> "_Span | _NoSpan":
        return _Span(self, layer, name) if self.recording else _NO_SPAN

    def write(self, path: Path) -> None:
        with open(path, "w") as handle:
            for sid, (parent, request, layer, name, start, end) in enumerate(self.records):
                handle.write(json.dumps({
                    "sid": sid, "parent": parent, "request": request, "layer": layer,
                    "name": name, "start_ns": start, "end_ns": end,
                }) + "\n")


class _Span:
    __slots__ = ("tracer", "layer", "name", "index")

    def __init__(self, tracer: Tracer, layer: str, name: str):
        self.tracer, self.layer, self.name = tracer, layer, name

    def __enter__(self) -> None:
        tracer = self.tracer
        self.index = len(tracer.records)
        parent = tracer.stack[-1] if tracer.stack else -1
        tracer.records.append(
            [parent, tracer.request, self.layer, self.name, time.perf_counter_ns(), 0])
        tracer.stack.append(self.index)

    def __exit__(self, *exc: object) -> None:
        self.tracer.records[self.index][5] = time.perf_counter_ns()
        self.tracer.stack.pop()


class _NoSpan:
    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc: object) -> None:
        return None


_NO_SPAN = _NoSpan()


class NullTracer:
    """The untraced replay: no wrappers, and spans cost one call."""

    request = 0
    recording = False

    def span(self, layer: str, name: str) -> _NoSpan:
        return _NO_SPAN


def _spanned(tracer: Tracer, layer: str, name: str, function: Callable) -> Callable:
    def spanned(*args: Any, **kwargs: Any) -> Any:
        with tracer.span(layer, name):
            return function(*args, **kwargs)

    return spanned


@contextlib.contextmanager
def _module_spans(tracer: Tracer) -> Iterator[None]:
    """Spans around the module-level entry points the service calls."""
    targets = (
        (protocol, "parse_request", "server.protocol", "parse"),
        (surface, "parse_updates", "hlu.surface", "parse_updates"),
        # explain parses through the parser module, queries through the
        # session module's own binding of the same function
        (parser, "parse_formula", "logic.parser", "parse_formula"),
        (session_mod, "parse_formula", "logic.parser", "parse_formula"),
    )
    saved = [(module, attr, getattr(module, attr)) for module, attr, _, _ in targets]
    for module, attr, layer, name in targets:
        setattr(module, attr, _spanned(tracer, layer, name, getattr(module, attr)))
    try:
        yield
    finally:
        for module, attr, original in saved:
            setattr(module, attr, original)


def _session_spans(service: UpdateService, name: str, tracer: Tracer) -> None:
    """Spans around one open session's operations and BLU operators."""
    entry = service.registry.get(name)
    assert entry is not None
    db = entry.db
    for method, span in SESSION_OPS:
        setattr(db, method, _spanned(tracer, "hlu.session", span, getattr(db, method)))
    implementation = db.implementation
    for op in BLU_OPS:
        method = f"op_{op}"
        setattr(implementation, method,
                _spanned(tracer, "blu", op, getattr(implementation, method)))


async def _bookkeeping(service: UpdateService, scope: str, request: dict[str, Any]) -> None:
    response = await service._handle_line(encode(request), scope)
    if not response.get("ok"):
        raise RuntimeError(f"in-process {request['op']} failed: {response}")


async def _replay(plan: Plan, tracer: Tracer | NullTracer) -> tuple[float, list[int]]:
    service = UpdateService()
    traced = isinstance(tracer, Tracer)
    if traced:
        service._do_explain = _spanned(
            tracer, "hlu.session", "explain", service._do_explain)
    wall = 0.0
    sizes: list[int] = []
    for number, sessions in enumerate(plan.connections, 1):
        scope = f"c{number}"
        for session in sessions:
            await _bookkeeping(service, scope, {"id": "open", **session.open_request()})
            if session.preload is not None:
                await _bookkeeping(service, scope, {
                    "id": "preload", "op": "update", "session": session.name,
                    "program": session.preload})
            if traced:
                _session_spans(service, f"{scope}/{session.name}", tracer)
                tracer.recording = True
            lines = [encode({"id": index, **op}) for index, op in enumerate(session.ops)]
            responses = []
            started = time.perf_counter()
            for line in lines:
                tracer.request += 1
                with tracer.span("server.service", "request"):
                    response = await service._handle_line(line, scope)
                    with tracer.span("server.protocol", "encode"):
                        protocol.encode(response)
                responses.append(response)
                if traced:
                    obs.tracer().clear()
            wall += time.perf_counter() - started
            tracer.recording = False
            for op, response in zip(session.ops, responses):
                if not response.get("ok"):
                    raise RuntimeError(f"in-process {op['op']} failed: {response}")
                if op["op"] == "update":
                    sizes.append(response["clause_count"])
            await _bookkeeping(service, scope,
                               {"id": "close", "op": "close", "session": session.name})
    return wall, sizes


def replay(plan: Plan, tracer: Tracer | NullTracer) -> tuple[float, list[int]]:
    """Replay every session through an in-process service.

    Returns the wall seconds of the timed requests and the clause count
    after each update.  Session set-up (open and preload) is outside the
    clock, as it is outside the served timing.
    """
    if not isinstance(tracer, Tracer):
        return asyncio.run(_replay(plan, tracer))
    with _module_spans(tracer):
        return asyncio.run(_replay(plan, tracer))


@dataclass
class LayerReport:
    rows: list[tuple[str, int, float, float, float, float, float]]
    metrics: dict[str, tuple[float, str]]
    #: figures of layers the service ships switched off; recorded, but
    #: not metrics while they read zero
    switched_off: dict[str, float]


def _self_times(records: list[list[Any]]) -> list[int]:
    selfs = [end - start for _, _, _, _, start, end in records]
    for parent, _, _, _, start, end in records:
        if parent >= 0:
            selfs[parent] -= end - start
    return selfs


def _cache_lookups() -> tuple[int, int]:
    stats = cache_stats().values()
    return (sum(s["hits"] for s in stats),
            sum(s["hits"] + s["misses"] for s in stats))


@dataclass
class TracedReplay:
    wall_s: float
    sizes: list[int]
    tracer: Tracer
    counts: dict[str, int]
    cache_hits: int
    cache_lookups: int


def traced_replay(plan: Plan) -> TracedReplay:
    """One replay with spans and the ``repro.obs`` counters on."""
    tracer = Tracer()
    hits0, lookups0 = _cache_lookups()
    obs.reset()
    obs.enable()
    # Created here, the counters are shared with the copy of this
    # context that asyncio.run gives the replay; created inside it,
    # they would be lost with that copy.
    registry = obs.counters()
    try:
        wall, sizes = replay(plan, tracer)
        counts = registry.snapshot()
    finally:
        obs.disable()
        obs.reset()
    hits1, lookups1 = _cache_lookups()
    return TracedReplay(wall, sizes, tracer, counts, hits1 - hits0, lookups1 - lookups0)


def per_layer(plan: Plan, spec: dict[str, Any], run: ServedRun, out_dir: Path) -> LayerReport:
    """Untraced and traced in-process replays; the per-layer metrics.

    Untraced and traced replays alternate, and the fastest of each kind
    is kept, so a slow spell of the host cannot make tracing look free;
    the fastest untraced replay also matches the steady passes of the
    served run it is subtracted from.  Live telemetry is on, as in the
    shipped ``serve``.
    """
    variants = [build_plan(plan.workload, plan.seed, spec, variant=index)
                for index in range(1, 2 * REPEATS)]
    untraced: list[float] = []
    traced: list[TracedReplay] = []
    runtime.reset()
    runtime.enable()
    try:
        for index, variant in enumerate(variants):
            if index % 2:
                traced.append(traced_replay(variant))
            else:
                untraced.append(replay(variant, NullTracer())[0])
    finally:
        runtime.disable()
        runtime.reset()
    untraced_s = min(untraced)
    fastest = min(traced, key=lambda result: result.wall_s)
    traced_s, sizes, tracer, counts = fastest.wall_s, fastest.sizes, fastest.tracer, fastest.counts
    tracer.write(out_dir / f"spans-{plan.workload}-{plan.seed}.jsonl")

    records = tracer.records
    requests = tracer.request
    selfs = _self_times(records)
    durations: dict[tuple[str, str], list[int]] = defaultdict(list)
    span_self: dict[tuple[str, str], int] = defaultdict(int)
    layer_self: dict[str, int] = defaultdict(int)
    for record, own in zip(records, selfs):
        durations[(record[2], record[3])].append(record[5] - record[4])
        span_self[(record[2], record[3])] += own
        layer_self[record[2]] += own
    total_self = sum(layer_self.values())

    rows = []
    for layer in LAYERS:
        names = sorted(name for (lay, name) in durations if lay == layer)
        spans = sorted(d for name in names for d in durations[(layer, name)])
        if spans:
            rows.append(_row(layer, spans, layer_self[layer], total_self))
        for name in names:
            rows.append(_row(f"  {name}", sorted(durations[(layer, name)]),
                             span_self[(layer, name)], total_self))

    def mean_us(layer: str, name: str) -> float:
        spans = durations.get((layer, name))
        return statistics.fmean(spans) / 1e3 if spans else 0.0

    served_mean_us = statistics.median(
        sum(sum(v) for v in p.latencies_ns.values()) / p.ops / 1e3 for p in steady_passes(run))
    apply_spans = sorted(durations.get(("hlu.session", "apply"), [0]))
    metrics: dict[str, tuple[float, str]] = {
        "protocol.parse_us": (mean_us("server.protocol", "parse"), "us"),
        "protocol.encode_us": (mean_us("server.protocol", "encode"), "us"),
        "service.overhead_us": (served_mean_us - untraced_s / requests * 1e6, "us"),
        "surface.parse_us": (mean_us("hlu.surface", "parse_updates"), "us"),
        "parser.formula_us": (mean_us("logic.parser", "parse_formula"), "us"),
        "session.apply_us": (mean_us("hlu.session", "apply"), "us"),
        "session.apply_p99_us": (percentile(apply_spans, 99)[0] / 1e3, "us"),
        "session.query_us": (mean_us("hlu.session", "query"), "us"),
        "session.undo_us": (mean_us("hlu.session", "undo"), "us"),
        "session.explain_us": (mean_us("hlu.session", "explain"), "us"),
        "session.state_clauses": (statistics.fmean(sizes), "clauses"),
    }
    for op in ("assert", "mask", "genmask"):
        metrics[f"blu.{op}_us"] = (mean_us("blu", op), "us")
        metrics[f"blu.{op}.calls"] = (float(len(durations.get(("blu", op), []))), "count")
    for name in LOGIC_COUNTERS:
        metrics[name] = (counts.get(name, 0) / requests, "count/op")
    for layer in LAYERS:
        metrics[f"self.{layer}_us"] = (layer_self[layer] / requests / 1e3, "us")
    metrics["inprocess.request_us"] = (untraced_s / requests * 1e6, "us")
    metrics["trace.overhead_pct"] = (100.0 * (traced_s / untraced_s - 1.0), "%")

    lookups = fastest.cache_lookups
    switched_off = {
        "cache.lookups": float(lookups),
        "cache.hit_rate": fastest.cache_hits / lookups if lookups else 0.0,
        **{metric: float(counts.get(counter, 0))
           for metric, counter in INCREMENTAL_COUNTERS.items()},
    }
    with open(out_dir / f"layers-{plan.workload}-{plan.seed}.json", "w") as handle:
        json.dump({"metrics": {name: value for name, (value, _) in metrics.items()},
                   "switched_off": switched_off}, handle, indent=1)
    return LayerReport(rows, metrics, switched_off)


def _row(label: str, spans: list[int], own: int, total: int):
    return (label, len(spans), statistics.fmean(spans) / 1e3, percentile(spans, 50)[0] / 1e3,
            percentile(spans, 99)[0] / 1e3, own / 1e6, 100.0 * own / total if total else 0.0)


def render_layers(report: LayerReport) -> str:
    """The traced run as a dbworkload-style run table."""
    head = (f"{'layer / span':<22}{'calls':>9}{'mean(us)':>11}{'p50(us)':>10}"
            f"{'p99(us)':>11}{'self(ms)':>11}{'share':>8}")
    lines = ["== traced in-process replay: self time per layer ==", head, "-" * len(head)]
    for label, calls, mean, p50, p99, own, share in report.rows:
        lines.append(f"{label:<22}{calls:>9,}{mean:>11.1f}{p50:>10.1f}{p99:>11.1f}"
                     f"{own:>11.1f}{share:>7.1f}%")
    lines.append("switched off in the shipped service: " + ", ".join(
        f"{name} {value:g}" for name, value in report.switched_off.items()))
    return "\n".join(lines)
