"""Live runtime telemetry: the feed, Prometheus and sampler over the registry.

The tracing side of :mod:`repro.obs.core` is *post-hoc*: spans
accumulate for the whole run and are flushed once at the end.
Long-lived workloads -- the update service and ``run_experiments.py
--live`` -- need the complement: *current* throughput and *current*
tail latency, observable while the process is still working.  Both
read the one process-wide :class:`~repro.obs.core.Registry`; this
module turns on its ``LIVE`` mode bit and exports it:

* :func:`enable` / :func:`disable` set that bit, so every kernel
  :func:`~repro.obs.core.op` records its latency as a windowed
  ``<op>.seconds`` histogram (one op meter in the live record) and
  every counter and histogram hook records even while tracing is off;
* :class:`ResourceSampler` / :class:`TelemetryPump` -- a background
  thread sampling RSS / GC / tracemalloc gauges and streaming periodic
  live records;
* two exports of the same live record: a schema-versioned JSONL
  telemetry feed (:class:`TelemetryWriter`, :func:`validate_feed`,
  :func:`read_feed`, :func:`merge_feeds`) and a Prometheus text
  exposition (:func:`render_prometheus`, :func:`prometheus_from_snapshot`).
"""

from __future__ import annotations

import json
import math
import threading
from collections.abc import Iterable, Mapping, Sequence
from typing import IO, Any

from repro.obs import core
from repro.obs.core import (
    WINDOW_SECONDS,
    WINDOW_SLOTS,
    Histogram,
    Registry,
    histogram_from_json,
    registry,
    set_registry,
    snapshot_histogram,
)

__all__ = [
    "WINDOW_SECONDS",
    "WINDOW_SLOTS",
    "FEED_SCHEMA_VERSION",
    "SUPPORTED_FEED_SCHEMAS",
    "ResourceSampler",
    "TelemetryWriter",
    "TelemetryPump",
    "enable",
    "disable",
    "is_enabled",
    "registry",
    "set_registry",
    "reset",
    "snapshot_histogram",
    "merge_snapshots",
    "prometheus_from_snapshot",
    "render_prometheus",
    "validate_feed",
    "read_feed",
    "merge_feeds",
]

#: Telemetry feed schema (independent of the BENCH record schema).
FEED_SCHEMA_VERSION = 1
SUPPORTED_FEED_SCHEMAS = (1,)

#: The telemetry switch is the ``LIVE`` bit of :mod:`repro.obs.core`'s
#: one mode; tracing's ``TRACE`` bit is untouched by these.
enable = core.enable_live
disable = core.disable_live
is_enabled = core.is_live


def reset() -> None:
    """Drop every recorded metric in the process-wide registry."""
    registry().reset()


def prometheus_from_snapshot(snap: Mapping[str, Any]) -> str:
    """Render any live record (current or replayed from a feed) as a
    Prometheus text exposition (format 0.0.4).

    Counters become ``repro_<name>_total``, gauges plain gauges, op
    meters a counter plus a ``_rate`` gauge, and windowed histograms
    summaries (windowed p50/p90/p99 as ``quantile`` labels, cumulative
    ``_sum`` / ``_count``).
    """
    lines: list[str] = []

    def emit(name: str, kind: str, help_text: str, samples: list[str]) -> None:
        lines.append(f"# HELP {name} {help_text}")
        lines.append(f"# TYPE {name} {kind}")
        lines.extend(samples)

    for name, value in sorted(snap.get("counters", {}).items()):
        metric = f"{_prom_name(name)}_total"
        emit(metric, "counter", f"monotonic counter {name}", [f"{metric} {value}"])
    for name, value in sorted(snap.get("gauges", {}).items()):
        metric = _prom_name(name)
        emit(metric, "gauge", f"gauge {name}", [f"{metric} {_prom_value(value)}"])
    for name, meter in sorted(snap.get("meters", {}).items()):
        metric = f"{_prom_name(name)}_ops_total"
        emit(metric, "counter", f"operations {name}", [f"{metric} {meter['count']}"])
        rate_metric = f"{_prom_name(name)}_ops_rate"
        emit(
            rate_metric,
            "gauge",
            f"windowed ops/s {name}",
            [f"{rate_metric} {_prom_value(meter['rate'])}"],
        )
    for name, hist in sorted(snap.get("histograms", {}).items()):
        metric = _prom_name(name)
        samples = []
        window = hist.get("window", {})
        for label, key in (("0.5", "p50"), ("0.9", "p90"), ("0.99", "p99")):
            quantile = window.get(key)
            if quantile is not None:
                samples.append(
                    f'{metric}{{quantile="{label}"}} {_prom_value(quantile)}'
                )
        samples.append(f"{metric}_sum {_prom_value(hist['total'])}")
        samples.append(f"{metric}_count {hist['count']}")
        emit(metric, "summary", f"windowed quantile summary {name}", samples)
    return "\n".join(lines) + ("\n" if lines else "")


def _prom_name(name: str) -> str:
    cleaned = "".join(ch if ch.isalnum() or ch == "_" else "_" for ch in name)
    if cleaned and cleaned[0].isdigit():
        cleaned = f"_{cleaned}"
    return f"repro_{cleaned}"


def _prom_value(value: float) -> str:
    if isinstance(value, float) and math.isnan(value):
        return "NaN"
    return repr(float(value)) if isinstance(value, float) else str(value)


# ---------------------------------------------------------------------------
# Merging (per-worker feeds -> one fleet view)
# ---------------------------------------------------------------------------


def merge_snapshots(snapshots: Sequence[Mapping[str, Any]]) -> dict[str, Any]:
    """Fold per-worker snapshot records into one combined view.

    Counters, meter counts, and rates are summed; gauges are summed too
    (RSS across workers is the fleet's footprint); histograms are merged
    *exactly* from their transported buckets via ``Histogram.merge``, so
    the combined p50/p99 is what a single registry observing every value
    would answer, not an average of averages.
    """
    counters: dict[str, int] = {}
    gauges: dict[str, float] = {}
    meters: dict[str, dict[str, float]] = {}
    cumulative: dict[str, Histogram] = {}
    windows: dict[str, Histogram] = {}
    newest = 0.0
    seq = 0
    for snap in snapshots:
        newest = max(newest, float(snap.get("now", 0.0)))
        seq = max(seq, int(snap.get("seq", 0)))
        for name, value in snap.get("counters", {}).items():
            counters[name] = counters.get(name, 0) + int(value)
        for name, value in snap.get("gauges", {}).items():
            gauges[name] = gauges.get(name, 0.0) + float(value)
        for name, meter in snap.get("meters", {}).items():
            slot = meters.setdefault(name, {"count": 0, "rate": 0.0})
            slot["count"] += int(meter.get("count", 0))
            slot["rate"] += float(meter.get("rate", 0.0))
        for name, hist in snap.get("histograms", {}).items():
            cumulative.setdefault(name, Histogram()).merge(
                histogram_from_json(hist)
            )
            windows.setdefault(name, Histogram()).merge(
                histogram_from_json(hist.get("window", {}))
            )
    return {
        "type": "snapshot",
        "seq": seq,
        "now": newest,
        "uptime": max(
            (float(snap.get("uptime", 0.0)) for snap in snapshots), default=0.0
        ),
        "counters": counters,
        "gauges": gauges,
        "meters": meters,
        "histograms": {
            name: {
                **snapshot_histogram(cumulative[name]),
                "window": snapshot_histogram(windows[name]),
            }
            for name in sorted(cumulative)
        },
    }


# ---------------------------------------------------------------------------
# Background sampling (RSS / GC / tracemalloc gauges)
# ---------------------------------------------------------------------------


def _rss_bytes() -> int | None:
    """Resident set size of this process, best effort, stdlib only."""
    try:
        with open("/proc/self/statm") as handle:
            fields = handle.read().split()
        import resource

        page = resource.getpagesize()
        return int(fields[1]) * page
    except (OSError, IndexError, ValueError):
        try:
            import resource

            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            return int(peak_kb) * 1024
        except Exception:
            return None


class ResourceSampler:
    """Samples process gauges into a registry: RSS, GC tallies, and (when
    tracemalloc is already tracing) traced current/peak bytes.

    ``sample_once`` is separable from the thread so the pump (or a test)
    can drive it synchronously.
    """

    def __init__(self, target: Registry | None = None):
        self._registry = target if target is not None else registry()

    def sample_once(self) -> None:
        import gc

        rss = _rss_bytes()
        if rss is not None:
            self._registry.set_gauge("proc.rss_bytes", float(rss))
        gen0, gen1, gen2 = gc.get_count()
        self._registry.set_gauge("gc.gen0_objects", float(gen0))
        self._registry.set_gauge(
            "gc.collections",
            float(sum(stat.get("collections", 0) for stat in gc.get_stats())),
        )
        import tracemalloc

        if tracemalloc.is_tracing():
            current, peak = tracemalloc.get_traced_memory()
            self._registry.set_gauge("tracemalloc.current_bytes", float(current))
            self._registry.set_gauge("tracemalloc.peak_bytes", float(peak))


# ---------------------------------------------------------------------------
# The streaming feed
# ---------------------------------------------------------------------------

_META_REQUIRED = {"type", "schema", "window_seconds", "slots", "worker"}
_SNAPSHOT_REQUIRED = {
    "type",
    "seq",
    "now",
    "uptime",
    "counters",
    "gauges",
    "meters",
    "histograms",
}


class TelemetryWriter:
    """Streams registry snapshots to a JSONL feed, one record per line.

    The first line is a schema-versioned ``meta`` record; every
    subsequent line is a ``snapshot``.  Lines are flushed as written so a
    tailer (the live dashboard) sees them immediately.

    Safe under concurrent producers: a writer is typically fed by both a
    :class:`TelemetryPump` thread and the workload's own flush points
    (e.g. a final snapshot on shutdown), and ``io.TextIOWrapper`` makes
    no atomicity promise for ``write`` -- so one lock serialises the
    whole emit-a-record sequence.  Without it two concurrent first
    snapshots can each emit a meta line, or interleave partial lines,
    both of which fail :func:`validate_feed`.  Snapshots are taken
    *inside* the lock so ``seq`` order always matches line order.
    """

    def __init__(
        self,
        sink: str | IO[str],
        source: Registry | None = None,
        worker: str | None = None,
    ):
        self._registry = source if source is not None else registry()
        self._worker = worker
        if isinstance(sink, str):
            self._handle: IO[str] = open(sink, "w")
            self._owns_handle = True
        else:
            self._handle = sink
            self._owns_handle = False
        self._wrote_meta = False
        self._io_lock = threading.Lock()

    def _write(self, record: Mapping[str, Any]) -> None:
        # Callers hold ``_io_lock``: the dump+write+flush must not
        # interleave with another record's.
        self._handle.write(json.dumps(record, sort_keys=True, default=str) + "\n")
        self._handle.flush()

    def _ensure_meta(self) -> None:
        if self._wrote_meta:
            return
        self._write(
            {
                "type": "meta",
                "schema": FEED_SCHEMA_VERSION,
                "window_seconds": WINDOW_SECONDS,
                "slots": WINDOW_SLOTS,
                "worker": self._worker,
            }
        )
        self._wrote_meta = True

    def write_snapshot(self, now: float | None = None) -> dict[str, Any]:
        """Append one snapshot record (meta line emitted lazily first)."""
        with self._io_lock:
            self._ensure_meta()
            snap = self._registry.live_record(now)
            if self._worker is not None:
                snap["worker"] = self._worker
            self._write(snap)
        return snap

    def close(self) -> None:
        with self._io_lock:
            self._ensure_meta()  # an empty feed is still valid and attributable
            if self._owns_handle:
                self._handle.close()


class TelemetryPump(threading.Thread):
    """Background thread: sample resource gauges, then stream a snapshot,
    every ``interval`` seconds until :meth:`stop`.

    This is what makes telemetry *live* inside a busy worker: the
    workload thread only pays the cheap hook calls, and the pump turns
    the registry into a feed on its own clock.
    """

    def __init__(
        self,
        writer: TelemetryWriter,
        interval: float = 0.5,
        sampler: ResourceSampler | None = None,
    ):
        super().__init__(name="repro-telemetry-pump", daemon=True)
        self._writer = writer
        self._interval = interval
        self._sampler = sampler
        self._stop_event = threading.Event()

    def run(self) -> None:
        while not self._stop_event.wait(self._interval):
            self.pump_once()

    def pump_once(self) -> None:
        if self._sampler is not None:
            self._sampler.sample_once()
        self._writer.write_snapshot()

    def stop(self, final_snapshot: bool = True) -> None:
        """Stop the loop; by default flush one last snapshot so the feed
        always ends with the complete totals."""
        self._stop_event.set()
        if self.is_alive():
            self.join(timeout=5.0)
        if final_snapshot:
            self.pump_once()


# ---------------------------------------------------------------------------
# Feed reading and validation
# ---------------------------------------------------------------------------


def read_feed(text: str) -> tuple[dict[str, Any] | None, list[dict[str, Any]]]:
    """Parse a feed into ``(meta, snapshots)``; unknown records are skipped."""
    meta: dict[str, Any] | None = None
    snapshots: list[dict[str, Any]] = []
    for line in text.splitlines():
        if not line.strip():
            continue
        record = json.loads(line)
        if not isinstance(record, dict):
            continue
        if record.get("type") == "meta" and meta is None:
            meta = record
        elif record.get("type") == "snapshot":
            snapshots.append(record)
    return meta, snapshots


def _check_histogram_payload(payload: Any, where: str) -> list[str]:
    errors: list[str] = []
    if not isinstance(payload, dict):
        return [f"{where}: histogram must be an object"]
    for key in ("count", "total", "min", "max", "p50", "p90", "p99", "buckets"):
        if key not in payload:
            errors.append(f"{where}: histogram missing key {key!r}")
    count = payload.get("count")
    if not isinstance(count, int) or count < 0:
        errors.append(f"{where}: histogram count must be a non-negative int")
        return errors
    empty = count == 0
    for key in ("min", "max"):
        value = payload.get(key)
        if empty:
            if value is not None:
                errors.append(f"{where}: empty histogram must have null {key}")
        elif not isinstance(value, (int, float)) or isinstance(value, bool):
            errors.append(f"{where}: histogram {key} must be a number")
    buckets = payload.get("buckets")
    if not isinstance(buckets, dict):
        errors.append(f"{where}: histogram buckets must be an object")
    else:
        total = 0
        for exp, n in buckets.items():
            try:
                int(exp)
            except (TypeError, ValueError):
                errors.append(f"{where}: bucket key {exp!r} is not an integer string")
                return errors
            if isinstance(n, bool) or not isinstance(n, int):
                errors.append(f"{where}: bucket count {n!r} must be an int")
                return errors
            total += n
        if total != count:
            errors.append(
                f"{where}: buckets sum to {total}, count says {count}"
            )
    return errors


def validate_feed(text: str) -> list[str]:
    """Schema-check a telemetry feed; an empty list means it is valid.

    Mirrors :func:`repro.obs.export.validate_jsonl` in spirit: every line
    must parse, the first record must be a supported ``meta``, snapshot
    sections must carry the right shapes, and histogram buckets must sum
    to their counts -- so exporter drift fails CI instead of silently
    corrupting telemetry artifacts.
    """
    errors: list[str] = []
    saw_meta = False
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            errors.append(f"line {lineno}: not valid JSON ({exc})")
            continue
        if not isinstance(record, dict):
            errors.append(f"line {lineno}: record is not an object")
            continue
        kind = record.get("type")
        if kind == "meta":
            saw_meta = True  # malformed meta is still a meta record
            missing = _META_REQUIRED - set(record)
            if missing:
                errors.append(
                    f"line {lineno}: meta missing key(s) {sorted(missing)}"
                )
            if "schema" in record and record["schema"] not in SUPPORTED_FEED_SCHEMAS:
                errors.append(
                    f"line {lineno}: unsupported feed schema {record['schema']!r} "
                    f"(supported: {SUPPORTED_FEED_SCHEMAS})"
                )
        elif kind == "snapshot":
            if not saw_meta:
                errors.append(f"line {lineno}: snapshot before any meta record")
            missing = _SNAPSHOT_REQUIRED - set(record)
            if missing:
                errors.append(
                    f"line {lineno}: snapshot missing key(s) {sorted(missing)}"
                )
                continue
            if not isinstance(record["counters"], dict) or not all(
                isinstance(k, str) and isinstance(v, int) and not isinstance(v, bool)
                for k, v in record["counters"].items()
            ):
                errors.append(f"line {lineno}: counters must map str -> int")
            if not isinstance(record["gauges"], dict) or not all(
                isinstance(v, (int, float)) and not isinstance(v, bool)
                for v in record["gauges"].values()
            ):
                errors.append(f"line {lineno}: gauges must map str -> number")
            meters = record["meters"]
            if not isinstance(meters, dict):
                errors.append(f"line {lineno}: meters must be an object")
            else:
                for name, meter in meters.items():
                    if (
                        not isinstance(meter, dict)
                        or not isinstance(meter.get("count"), int)
                        or not isinstance(meter.get("rate"), (int, float))
                    ):
                        errors.append(
                            f"line {lineno}: meter {name!r} needs int count "
                            f"and numeric rate"
                        )
                        break
            histograms = record["histograms"]
            if not isinstance(histograms, dict):
                errors.append(f"line {lineno}: histograms must be an object")
            else:
                for name, payload in histograms.items():
                    where = f"line {lineno}: histogram {name!r}"
                    errors.extend(_check_histogram_payload(payload, where))
                    if isinstance(payload, dict) and "window" in payload:
                        errors.extend(
                            _check_histogram_payload(
                                payload["window"], f"{where} window"
                            )
                        )
                    elif isinstance(payload, dict):
                        errors.append(f"{where}: missing window section")
        else:
            errors.append(f"line {lineno}: unknown record type {kind!r}")
    if not saw_meta and text.strip():
        errors.append("feed has no meta record")
    return errors


def merge_feeds(texts: Iterable[str]) -> str:
    """Merge several per-worker feeds into one artifact.

    One meta record (workers listed), then every worker's snapshots in
    feed order, each keeping its ``worker`` label, finally one combined
    ``snapshot`` merged from each worker's *last* snapshot -- the
    fleet-wide totals a single process would have reported.  The result
    validates under :func:`validate_feed` whenever the inputs did.
    """
    metas: list[dict[str, Any]] = []
    all_snapshots: list[dict[str, Any]] = []
    finals: list[dict[str, Any]] = []
    workers: list[str] = []
    for text in texts:
        meta, snapshots = read_feed(text)
        if meta is not None:
            metas.append(meta)
            if meta.get("worker"):
                workers.append(str(meta["worker"]))
        all_snapshots.extend(snapshots)
        if snapshots:
            finals.append(snapshots[-1])
    window = metas[0]["window_seconds"] if metas else WINDOW_SECONDS
    slots = metas[0]["slots"] if metas else WINDOW_SLOTS
    lines = [
        json.dumps(
            {
                "type": "meta",
                "schema": FEED_SCHEMA_VERSION,
                "window_seconds": window,
                "slots": slots,
                "worker": None,
                "workers": workers,
            },
            sort_keys=True,
        )
    ]
    for snap in all_snapshots:
        lines.append(json.dumps(snap, sort_keys=True, default=str))
    if finals:
        combined = merge_snapshots(finals)
        combined["worker"] = "merged"
        lines.append(json.dumps(combined, sort_keys=True, default=str))
    return "\n".join(lines) + "\n"


def render_prometheus(now: float | None = None) -> str:
    """The process-wide registry in Prometheus text exposition format."""
    return prometheus_from_snapshot(registry().live_record(now))
