"""The live run dashboard: render telemetry snapshots as a terminal view.

Pure rendering plus two small I/O helpers, deliberately separated so the
interesting parts are testable without a TTY:

* :func:`render_dashboard` -- a multi-line frame: one row per worker
  (status, ops/s, windowed p50/p99 latency, cache hit rate) and a
  fleet-totals row merged exactly from the per-worker histograms;
* :func:`render_watch` -- the compact single-registry view behind the
  REPL's ``:watch``;
* :class:`LiveDisplay` -- writes frames to a stream; in ANSI mode it
  redraws in place (cursor-up + erase-line), in headless mode (no TTY,
  ``TERM=dumb``, or ``REPRO_LIVE_HEADLESS=1``) it emits one plain
  summary line per update so CI logs stay readable;
* :class:`FeedTailer` -- incremental reader for a worker's feed file,
  tolerant of partially written last lines.

Every number rendered here comes out of a live record produced by
:meth:`repro.obs.core.Registry.live_record` (or
:func:`repro.obs.runtime.merge_snapshots`), so the dashboard, the JSONL
feed, and the Prometheus exposition can never disagree.
"""

from __future__ import annotations

import json
import os
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from typing import IO, Any

from repro.obs.core import Histogram, histogram_from_json
from repro.obs.runtime import merge_snapshots

__all__ = [
    "WorkerView",
    "DashboardModel",
    "ops_per_second",
    "latency_quantiles",
    "cache_hit_rate",
    "render_dashboard",
    "render_watch",
    "is_headless",
    "LiveDisplay",
    "FeedTailer",
    "tail_snapshots",
]


# ---------------------------------------------------------------------------
# Snapshot digests
# ---------------------------------------------------------------------------


def ops_per_second(snapshot: Mapping[str, Any] | None) -> float:
    """Total windowed ops/s: the sum over every op meter."""
    if not snapshot:
        return 0.0
    return sum(
        float(meter.get("rate", 0.0))
        for meter in snapshot.get("meters", {}).values()
    )


def latency_quantiles(
    snapshot: Mapping[str, Any] | None,
) -> tuple[float | None, float | None]:
    """Windowed ``(p50, p99)`` seconds across every ``*.seconds`` histogram.

    Exact merge of the windows' log buckets (not an average of
    quantiles), via :func:`repro.obs.runtime.merge_snapshots` semantics.
    """
    if not snapshot:
        return None, None
    merged = Histogram()
    for name, hist in snapshot.get("histograms", {}).items():
        if not name.endswith(".seconds"):
            continue
        merged.merge(histogram_from_json(hist.get("window", {})))
    if merged.count == 0:
        return None, None
    return merged.p50, merged.p99


def cache_hit_rate(snapshot: Mapping[str, Any] | None) -> float | None:
    """Kernel-cache hit fraction over every ``cache.<kernel>.hits`` /
    ``.misses`` counter, or ``None`` before any lookup."""
    if not snapshot:
        return None
    hits = misses = 0
    for name, value in snapshot.get("counters", {}).items():
        if name.startswith("cache."):
            if name.endswith(".hits"):
                hits += int(value)
            elif name.endswith(".misses"):
                misses += int(value)
    lookups = hits + misses
    if lookups == 0:
        return None
    return hits / lookups


# ---------------------------------------------------------------------------
# The model the runner maintains
# ---------------------------------------------------------------------------


@dataclass
class WorkerView:
    """One worker's latest known state."""

    label: str
    status: str = "pending"  # pending | running | done | failed
    snapshot: dict[str, Any] | None = None


@dataclass
class DashboardModel:
    """Everything a frame needs: per-worker views, in insertion order."""

    title: str = "live telemetry"
    workers: dict[str, WorkerView] = field(default_factory=dict)

    def worker(self, label: str) -> WorkerView:
        view = self.workers.get(label)
        if view is None:
            view = self.workers[label] = WorkerView(label)
        return view

    def merged_snapshot(self) -> dict[str, Any] | None:
        snapshots = [
            view.snapshot for view in self.workers.values() if view.snapshot
        ]
        if not snapshots:
            return None
        if len(snapshots) == 1:
            return dict(snapshots[0])
        return merge_snapshots(snapshots)


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------


def _ms(seconds: float | None) -> str:
    if seconds is None:
        return "--"
    return f"{seconds * 1000:.2f}ms"


def _pct(fraction: float | None) -> str:
    if fraction is None:
        return "--"
    return f"{fraction * 100:.0f}%"


_STATUS_MARK = {"pending": ".", "running": ">", "done": "ok", "failed": "XX"}


def render_dashboard(model: DashboardModel, width: int = 78) -> str:
    """One dashboard frame as plain text (no control codes).

    Layout::

        == live telemetry ==================================
        worker    status    ops/s      p50       p99    cache
        E6        ok       1234.5   0.52ms    2.10ms      87%
        ...
        TOTAL     2/3      2469.0   0.55ms    2.31ms      85%
    """
    header = f"== {model.title} "
    lines = [header + "=" * max(0, width - len(header))]
    columns = f"{'worker':<10} {'status':<7} {'ops/s':>9} {'p50':>10} {'p99':>10} {'cache':>6}"
    lines.append(columns)
    lines.append("-" * len(columns))
    done = 0
    for view in model.workers.values():
        if view.status == "done":
            done += 1
        p50, p99 = latency_quantiles(view.snapshot)
        lines.append(
            f"{view.label:<10.10} "
            f"{_STATUS_MARK.get(view.status, view.status):<7} "
            f"{ops_per_second(view.snapshot):>9.1f} "
            f"{_ms(p50):>10} {_ms(p99):>10} "
            f"{_pct(cache_hit_rate(view.snapshot)):>6}"
        )
    merged = model.merged_snapshot()
    p50, p99 = latency_quantiles(merged)
    lines.append("-" * len(columns))
    lines.append(
        f"{'TOTAL':<10} "
        f"{f'{done}/{len(model.workers)}':<7} "
        f"{ops_per_second(merged):>9.1f} "
        f"{_ms(p50):>10} {_ms(p99):>10} "
        f"{_pct(cache_hit_rate(merged)):>6}"
    )
    if merged:
        gauges = merged.get("gauges", {})
        rss = gauges.get("proc.rss_bytes")
        if rss is not None:
            lines.append(f"rss {float(rss) / (1024 * 1024):.1f}MB")
    return "\n".join(lines)


def render_watch(snapshot: Mapping[str, Any] | None, title: str = "telemetry") -> str:
    """The REPL ``:watch`` view: one registry, one compact table.

    Op meters pair with their ``<name>.seconds`` windowed histograms;
    counters and gauges follow.
    """
    if not snapshot or (
        not snapshot.get("meters")
        and not snapshot.get("counters")
        and not snapshot.get("gauges")
        and not snapshot.get("histograms")
    ):
        return "(no telemetry recorded yet)"
    lines = [f"-- {title} (uptime {float(snapshot.get('uptime', 0.0)):.1f}s) --"]
    meters = snapshot.get("meters", {})
    histograms = snapshot.get("histograms", {})
    if meters:
        columns = f"{'op':<24} {'count':>8} {'ops/s':>9} {'p50':>10} {'p99':>10}"
        lines.append(columns)
        for name in sorted(meters):
            meter = meters[name]
            window = histograms.get(f"{name}.seconds", {}).get("window", {})
            lines.append(
                f"{name:<24.24} {meter.get('count', 0):>8} "
                f"{float(meter.get('rate', 0.0)):>9.1f} "
                f"{_ms(window.get('p50')):>10} {_ms(window.get('p99')):>10}"
            )
    shown_hists = {f"{name}.seconds" for name in meters}
    other_hists = sorted(set(histograms) - shown_hists)
    if other_hists:
        lines.append(f"{'histogram':<24} {'count':>8} {'mean':>9} {'p50':>10} {'p99':>10}")
        for name in other_hists:
            hist = histograms[name]
            count = int(hist.get("count", 0))
            mean = float(hist.get("total", 0.0)) / count if count else 0.0
            window = hist.get("window", {})
            lines.append(
                f"{name:<24.24} {count:>8} {mean:>9.2f} "
                f"{_fmt_plain(window.get('p50')):>10} {_fmt_plain(window.get('p99')):>10}"
            )
    counters = snapshot.get("counters", {})
    if counters:
        lines.append("counters: " + "  ".join(
            f"{name}={counters[name]}" for name in sorted(counters)
        ))
    hit_rate = cache_hit_rate(snapshot)
    if hit_rate is not None:
        lines.append(f"cache hit rate: {_pct(hit_rate)}")
    gauges = snapshot.get("gauges", {})
    if gauges:
        lines.append("gauges: " + "  ".join(
            f"{name}={float(gauges[name]):g}" for name in sorted(gauges)
        ))
    return "\n".join(lines)


def _fmt_plain(value: float | None) -> str:
    return "--" if value is None else f"{value:.2f}"


# ---------------------------------------------------------------------------
# Terminal output
# ---------------------------------------------------------------------------


def is_headless(stream: IO[str] | None = None) -> bool:
    """Whether live redraw should fall back to plain line output.

    True when ``REPRO_LIVE_HEADLESS`` is set non-empty, ``TERM`` is
    ``dumb``, or the stream is not a TTY -- i.e. everywhere ANSI cursor
    movement would smear control codes into a log file.
    """
    if os.environ.get("REPRO_LIVE_HEADLESS"):
        return True
    if os.environ.get("TERM") == "dumb":
        return True
    if stream is None:
        return True
    isatty = getattr(stream, "isatty", None)
    return not (isatty and isatty())


class LiveDisplay:
    """Writes dashboard frames to a stream, redrawing in place when it can.

    ANSI mode repaints the frame by moving the cursor up over the
    previous one (erasing each line), so the dashboard stays put while
    the run scrolls nothing.  Headless mode prints one compact summary
    line per update -- the CI-safe fallback the ``--live`` smoke test
    exercises.
    """

    def __init__(self, stream: IO[str], headless: bool | None = None):
        self._stream = stream
        self.headless = is_headless(stream) if headless is None else headless
        self._last_height = 0

    def update(self, model: DashboardModel) -> None:
        if self.headless:
            merged = model.merged_snapshot()
            done = sum(1 for v in model.workers.values() if v.status == "done")
            p50, p99 = latency_quantiles(merged)
            self._stream.write(
                f"[live] {done}/{len(model.workers)} done "
                f"ops/s={ops_per_second(merged):.1f} "
                f"p50={_ms(p50)} p99={_ms(p99)} "
                f"cache={_pct(cache_hit_rate(merged))}\n"
            )
            self._stream.flush()
            return
        frame = render_dashboard(model)
        lines = frame.split("\n")
        if self._last_height:
            self._stream.write(f"\x1b[{self._last_height}F")
        self._stream.write("".join(f"\x1b[2K{line}\n" for line in lines))
        self._stream.flush()
        self._last_height = len(lines)

    def close(self, model: DashboardModel | None = None) -> None:
        """Final frame (both modes render the full dashboard once)."""
        if model is not None:
            if self.headless:
                self._stream.write(render_dashboard(model) + "\n")
                self._stream.flush()
            else:
                self.update(model)
        self._last_height = 0


class FeedTailer:
    """Incrementally reads snapshot records from a growing feed file.

    ``poll()`` returns the records appended since the last call, parsing
    only complete lines (a writer mid-line is simply picked up next
    time) and skipping records that do not parse.  Missing files mean
    "worker not started yet", not an error.
    """

    def __init__(self, path: str):
        self.path = path
        self._offset = 0

    def poll(self) -> list[dict[str, Any]]:
        try:
            with open(self.path) as handle:
                handle.seek(self._offset)
                chunk = handle.read()
        except OSError:
            return []
        if not chunk:
            return []
        last_newline = chunk.rfind("\n")
        if last_newline < 0:
            return []
        complete, self._offset = chunk[: last_newline + 1], self._offset + last_newline + 1
        records: list[dict[str, Any]] = []
        for line in complete.splitlines():
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue
            if isinstance(record, dict):
                records.append(record)
        return records

    def latest_snapshot(self) -> dict[str, Any] | None:
        """The newest snapshot in the unread tail, or ``None``."""
        snapshot = None
        for record in self.poll():
            if record.get("type") == "snapshot":
                snapshot = record
        return snapshot


def tail_snapshots(
    tailers: Sequence[FeedTailer], model: DashboardModel
) -> None:
    """Fold each tailer's newest snapshot into the model (by feed name)."""
    for tailer in tailers:
        latest = tailer.latest_snapshot()
        if latest is not None:
            label = str(latest.get("worker") or tailer.path)
            view = model.worker(label)
            view.snapshot = latest
            if view.status == "pending":
                view.status = "running"
