"""Tracing spans and the one metrics registry for the BLU/HLU stack.

The paper's complexity theorems (2.3.4, 2.3.6, 2.3.9) are claims about
*work done* -- resolvents generated, clauses retained, letters
eliminated -- not about wall-clock seconds.  This module is the
measurement substrate that lets the rest of the library report that work:

* a context-local :class:`Tracer` holding a span stack -- ``with
  span("blu.c.mask", letters=3):`` records wall time, nesting, and
  attributes as a tree of :class:`Span` values;
* one process-wide, lock-guarded :class:`Registry` of monotonic
  counters (:func:`inc`), gauges (:func:`set_gauge`) and windowed
  histograms (:func:`observe`).  Traces and the bench harness read it
  by :meth:`~Registry.snapshot` and :meth:`~Registry.delta`; live
  telemetry (``stats``, the feed, ``:watch``, Prometheus) reads it as a
  :meth:`~Registry.live_record`.

One mode word says what the hooks record.  Its ``TRACE`` bit
(:func:`enable`) opens spans; its ``LIVE`` bit (:func:`enable_live`,
``repro.obs.runtime.enable``) records each operation's latency; either
bit counts.  A kernel entry point makes one call, :func:`op`, which is
a span when tracing and a latency observation when live.  Every hook
first checks the mode, so with both bits off a call site costs one
global load -- a near-no-op, guarded by an overhead test in
``tests/obs/test_core.py`` -- and :func:`suspended` switches both off
at once.

Only the tracer is context-local (a :class:`contextvars.ContextVar`):
threads and ``contextvars`` contexts each build their own span tree,
while every counter lands in the one registry the telemetry pump, the
service's ``stats`` and the trace export all read.  Zero dependencies.
"""

from __future__ import annotations

import itertools
import math
import threading
import time
from collections import deque
from collections.abc import Callable, Iterator, Mapping
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Any

__all__ = [
    "TRACE",
    "LIVE",
    "WINDOW_SECONDS",
    "WINDOW_SLOTS",
    "Span",
    "Tracer",
    "Histogram",
    "WindowedHistogram",
    "Registry",
    "MemorySample",
    "enable",
    "disable",
    "is_enabled",
    "enable_live",
    "disable_live",
    "is_live",
    "enabled",
    "suspended",
    "tracer",
    "registry",
    "counters",
    "set_registry",
    "current_span",
    "span",
    "op",
    "inc",
    "observe",
    "set_gauge",
    "reset",
    "histogram_from_json",
    "snapshot_histogram",
    "track_memory",
]

#: Mode bits.  TRACE: spans are recorded.  LIVE: each :func:`op`'s
#: latency is recorded.  Counters, gauges and histograms record while
#: either bit is set.
TRACE = 1
LIVE = 2

# The process-wide mode.  A plain module global (not a ContextVar) so
# the check in every hook is a single global load while it is 0.
_MODE = 0


def _switch(bit: int, on: bool) -> None:
    global _MODE
    _MODE = _MODE | bit if on else _MODE & ~bit


def enable() -> None:
    """Turn tracing on (process-wide); live telemetry is untouched."""
    _switch(TRACE, True)


def disable() -> None:
    """Turn tracing off (process-wide); live telemetry is untouched."""
    _switch(TRACE, False)


def is_enabled() -> bool:
    """Whether spans are currently being recorded."""
    return bool(_MODE & TRACE)


def enable_live() -> None:
    """Turn live telemetry on (process-wide); tracing is untouched."""
    _switch(LIVE, True)


def disable_live() -> None:
    """Turn live telemetry off; the registry keeps its data."""
    _switch(LIVE, False)


def is_live() -> bool:
    """Whether operation latencies are currently being recorded."""
    return bool(_MODE & LIVE)


@contextmanager
def enabled() -> Iterator[None]:
    """Enable tracing for the dynamic extent of a with-block, restoring
    the previous tracing state on exit."""
    previous = _MODE & TRACE
    _switch(TRACE, True)
    try:
        yield
    finally:
        _switch(TRACE, bool(previous))


@contextmanager
def suspended() -> Iterator[None]:
    """Switch the whole mode off for the dynamic extent of a with-block,
    restoring it on exit: work done inside opens no spans, counts
    nothing and records no latency."""
    global _MODE
    previous = _MODE
    _MODE = 0
    try:
        yield
    finally:
        _MODE = previous


# ---------------------------------------------------------------------------
# Spans
# ---------------------------------------------------------------------------


#: Process-wide span id source.  Ids exist for *correlation* -- structured
#: log records (``repro.obs.logging``) carry the id of the span that was
#: open when they were emitted -- so they are unique per process, not per
#: tracer, and survive tracer clears.
_SPAN_IDS = itertools.count(1)


@dataclass
class Span:
    """One timed, attributed region of work; spans nest into a tree.

    ``sid`` is a process-unique id assigned when the span is opened; log
    records emitted inside the span carry it for correlation.  (The
    exporter's ``id`` field is a separate, per-document numbering.)
    """

    name: str
    attributes: dict[str, object] = field(default_factory=dict)
    start: float = 0.0
    elapsed: float = 0.0
    children: list["Span"] = field(default_factory=list)
    sid: int = 0

    def set(self, **attributes: object) -> "Span":
        """Attach attributes discovered mid-span (e.g. output sizes)."""
        self.attributes.update(attributes)
        return self

    def walk(self, depth: int = 0) -> Iterator[tuple[int, "Span"]]:
        """Depth-first ``(depth, span)`` over this span and its subtree."""
        yield depth, self
        for child in self.children:
            yield from child.walk(depth + 1)


class _NullSpan:
    """The shared do-nothing span handed out while instrumentation is off."""

    __slots__ = ()
    name = ""
    attributes: dict[str, object] = {}
    elapsed = 0.0

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: object) -> bool:
        return False

    def set(self, **attributes: object) -> "_NullSpan":
        return self


_NULL_SPAN = _NullSpan()


class Tracer:
    """A span stack recording a forest of completed spans.

    Use through the module-level :func:`span` helper; the tracer itself
    never checks the enable flag.
    """

    def __init__(self) -> None:
        self.roots: list[Span] = []
        self._stack: list[Span] = []

    @property
    def depth(self) -> int:
        """How many spans are currently open."""
        return len(self._stack)

    @property
    def current(self) -> Span | None:
        """The innermost span still open, or ``None``."""
        return self._stack[-1] if self._stack else None

    @contextmanager
    def span(self, name: str, **attributes: object) -> Iterator[Span]:
        record = Span(name, dict(attributes), sid=next(_SPAN_IDS))
        parent = self._stack[-1] if self._stack else None
        (parent.children if parent is not None else self.roots).append(record)
        self._stack.append(record)
        record.start = time.perf_counter()
        try:
            yield record
        finally:
            record.elapsed = time.perf_counter() - record.start
            self._stack.pop()

    def walk(self) -> Iterator[tuple[int, Span]]:
        """Depth-first ``(depth, span)`` over every recorded root."""
        for root in self.roots:
            yield from root.walk()

    def clear(self) -> None:
        """Drop all recorded spans and re-anchor any still-open ones.

        Spans that are open at the moment of the clear become the new
        forest (outermost as the root, each inner open span nested under
        it), with their already-finished children dropped.  Work recorded
        *after* the clear therefore lands in a reachable tree instead of
        dangling off a span that was silently discarded with the old
        roots.
        """
        self.roots = []
        parent: Span | None = None
        for open_span in self._stack:
            open_span.children = []
            if parent is None:
                self.roots.append(open_span)
            else:
                parent.children.append(open_span)
            parent = open_span


# ---------------------------------------------------------------------------
# Histograms and the registry
# ---------------------------------------------------------------------------


#: Bucket index for non-positive observations (below every positive
#: power-of-two bucket; math.frexp of the smallest subnormal is -1073).
_ZERO_BUCKET = -1074


@dataclass
class Histogram:
    """Streaming summary of an observed value with quantile estimates.

    Beyond count / total / min / max, every observation lands in a
    power-of-two log bucket (``value in [2**(e-1), 2**e)`` goes to bucket
    ``e``; non-positive values share one underflow bucket), so
    :meth:`quantile` can answer p50/p90/p99 from a bounded structure:
    the estimate is the geometric midpoint of the bucket holding the
    requested rank, clamped to the observed min/max.  The relative error
    is bounded by the bucket width (a factor of ``sqrt(2)`` each way),
    and estimates are monotone in ``q`` by construction.
    """

    count: int = 0
    total: float = 0.0
    minimum: float = float("inf")
    maximum: float = float("-inf")
    buckets: dict[int, int] = field(default_factory=dict)

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value
        bucket = math.frexp(value)[1] if value > 0 else _ZERO_BUCKET
        self.buckets[bucket] = self.buckets.get(bucket, 0) + 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float | None:
        """Estimated ``q``-quantile of the observations (``None`` if empty)."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile fraction must be in [0, 1], got {q}")
        if not self.count:
            return None
        rank = max(1, math.ceil(q * self.count))
        cumulative = 0
        for bucket in sorted(self.buckets):
            cumulative += self.buckets[bucket]
            if cumulative >= rank:
                if bucket == _ZERO_BUCKET or bucket > 1023:
                    # Underflow bucket (estimate from below) or a bucket
                    # whose midpoint would overflow a float: the clamp
                    # supplies the estimate.
                    estimate = 0.0 if bucket == _ZERO_BUCKET else self.maximum
                else:
                    estimate = 2.0 ** (bucket - 0.5)
                return min(max(estimate, self.minimum), self.maximum)
        # Reached only for degraded histograms restored from exports that
        # predate buckets: fall back to the observed maximum.
        return self.maximum

    def merge(self, other: "Histogram") -> "Histogram":
        """Fold another histogram's observations into this one.

        Exact for everything the structure stores -- count, total,
        min/max, and per-bucket tallies are all additive -- so merging
        per-worker histograms (``run_experiments.py --jobs``) yields the
        same summary a single process observing every value would hold.

        Edge cases matter to window rotation and feed restore: merging an
        *empty* histogram is a no-op (its min/max sentinels -- or the
        bogus finite values a degraded export might restore them to --
        must not poison the target's range), merging into an empty
        histogram adopts the other's min/max verbatim, and mismatched
        bucket sets union rather than raise.  Returns ``self`` so window
        merges chain.
        """
        if other.count == 0:
            return self
        if self.count == 0:
            self.minimum = other.minimum
            self.maximum = other.maximum
        else:
            if other.minimum < self.minimum:
                self.minimum = other.minimum
            if other.maximum > self.maximum:
                self.maximum = other.maximum
        self.count += other.count
        self.total += other.total
        for bucket, n in other.buckets.items():
            self.buckets[bucket] = self.buckets.get(bucket, 0) + n
        return self

    @property
    def p50(self) -> float | None:
        return self.quantile(0.50)

    @property
    def p90(self) -> float | None:
        return self.quantile(0.90)

    @property
    def p99(self) -> float | None:
        return self.quantile(0.99)


#: The trailing window of every windowed histogram, and the ring slots
#: it is kept in: rotation granularity is ``WINDOW_SECONDS / WINDOW_SLOTS``.
WINDOW_SECONDS = 10.0
WINDOW_SLOTS = 5
_SLOT_SECONDS = WINDOW_SECONDS / WINDOW_SLOTS

#: Suffix of the latency histogram of an operation: ``record_op("x")``
#: observes ``x.seconds``, and every such histogram is op ``x``'s meter.
_OP_SUFFIX = ".seconds"


class WindowedHistogram:
    """A whole-lifetime and a trailing-window view of one observed value.

    Observations land in the current slot of a ring of
    :class:`Histogram` slots; :meth:`window` merges the live slots via
    ``Histogram.merge`` into one bounded summary whose p50/p90/p99
    reflect only the trailing :data:`WINDOW_SECONDS`.  Slots leaving the
    ring fold into ``retired``, so :attr:`cumulative` is ``retired`` plus
    the ring and each observation touches one histogram.  Rotation is
    lazy -- driven by the ``now`` passed in -- so an idle histogram
    costs nothing.
    """

    __slots__ = ("retired", "_closed", "_current", "_slot_start")

    def __init__(self, now: float = 0.0):
        self.retired = Histogram()
        self._closed: deque[Histogram] = deque()
        self._current = Histogram()
        self._slot_start = now

    def _rotate(self, now: float) -> None:
        gap = now - self._slot_start
        if gap < _SLOT_SECONDS:
            return
        steps = int(gap // _SLOT_SECONDS)
        self._closed.append(self._current)
        self._current = Histogram()
        for _ in range(min(steps - 1, WINDOW_SLOTS)):
            self._closed.append(Histogram())
        while len(self._closed) > WINDOW_SLOTS:
            self.retired.merge(self._closed.popleft())
        self._slot_start += steps * _SLOT_SECONDS

    def observe(self, value: float, now: float = 0.0) -> None:
        self._rotate(now)
        self._current.observe(value)

    def window(self, now: float = 0.0) -> Histogram:
        """The live slots merged into one histogram (trailing window only)."""
        self._rotate(now)
        merged = Histogram()
        for closed in self._closed:
            merged.merge(closed)
        return merged.merge(self._current)

    def covered(self, now: float = 0.0) -> float:
        """Seconds of the trailing window the live slots cover so far."""
        self._rotate(now)
        return len(self._closed) * _SLOT_SECONDS + max(0.0, now - self._slot_start)

    @property
    def cumulative(self) -> Histogram:
        """Every observation ever made (and every merged-in histogram)."""
        merged = Histogram().merge(self.retired)
        for closed in self._closed:
            merged.merge(closed)
        return merged.merge(self._current)


def histogram_from_json(payload: Mapping[str, Any]) -> Histogram:
    """Rebuild a histogram from a trace record or a live-record entry.

    A ``null`` min/max restores the empty sentinels, and an export that
    predates buckets restores without them (quantiles then degrade to
    the min/max clamp instead of failing to load).
    """
    minimum = payload.get("min")
    maximum = payload.get("max")
    return Histogram(
        count=int(payload.get("count", 0)),
        total=float(payload.get("total", 0.0)),
        minimum=float("inf") if minimum is None else float(minimum),
        maximum=float("-inf") if maximum is None else float(maximum),
        buckets={int(exp): n for exp, n in payload.get("buckets", {}).items()},
    )


def snapshot_histogram(histogram: Histogram) -> dict[str, Any]:
    """One histogram as the JSON-safe shape used in live records."""
    empty = histogram.count == 0
    return {
        "count": histogram.count,
        "total": histogram.total,
        "min": None if empty else histogram.minimum,
        "max": None if empty else histogram.maximum,
        "p50": histogram.p50,
        "p90": histogram.p90,
        "p99": histogram.p99,
        "buckets": {str(exp): n for exp, n in sorted(histogram.buckets.items())},
    }


class Registry:
    """Named monotonic counters, gauges and windowed histograms.

    Thread-safe, because a telemetry pump thread and the instrumented
    workload use it concurrently: one lock guards every gauge and
    histogram update and every read.  Counters, the hottest hook, skip
    the lock: each thread adds into its own shard, a dict only that
    thread writes, and readers sum the shards under the lock
    (``dict.copy`` is atomic under the GIL, so a shard's owner may keep
    counting while it is read).  All time comes from the injected
    ``clock`` so tests can drive window rotation deterministically.

    Two read sides share the one store: the trace side
    (:meth:`snapshot`, :meth:`delta`, :attr:`counts`,
    :attr:`histograms`, all whole-lifetime) and the live side
    (:meth:`live_record`, which adds gauges, trailing-window quantiles
    and one op meter per ``<op>.seconds`` histogram).
    """

    def __init__(self, clock: Callable[[], float] = time.monotonic):
        self._clock = clock
        self._lock = threading.Lock()
        self._shards: list[dict[str, int]] = []
        self._local = threading.local()
        self._gauges: dict[str, float] = {}
        self._histograms: dict[str, WindowedHistogram] = {}
        self._created = clock()
        self._seq = 0

    def _windowed(self, name: str, now: float) -> WindowedHistogram:
        # Callers hold the lock.
        histogram = self._histograms.get(name)
        if histogram is None:
            histogram = self._histograms[name] = WindowedHistogram(now)
        return histogram

    # --- recording -------------------------------------------------------

    def inc(self, name: str, amount: int = 1) -> None:
        """Add to a monotonic counter (in this thread's shard)."""
        try:
            shard = self._local.shard
        except AttributeError:
            shard = self._local.shard = {}
            with self._lock:
                self._shards.append(shard)
        shard[name] = shard.get(name, 0) + amount

    def _counts(self) -> dict[str, int]:
        # Callers hold the lock.
        totals: dict[str, int] = {}
        for shard in self._shards:
            for name, value in shard.copy().items():
                totals[name] = totals.get(name, 0) + value
        return totals

    def set_gauge(self, name: str, value: float) -> None:
        """Set a point-in-time gauge (last write wins)."""
        with self._lock:
            self._gauges[name] = value

    def observe(self, name: str, value: float, now: float | None = None) -> None:
        """Record one observation into the named windowed histogram."""
        now = self._clock() if now is None else now
        with self._lock:
            self._windowed(name, now).observe(value, now)

    def record_op(self, name: str, seconds: float, now: float | None = None) -> None:
        """One completed operation: observes ``<name>.seconds``, whose
        counts are op ``name``'s meter in the live record."""
        self.observe(name + _OP_SUFFIX, seconds, now)

    def merge_histogram(self, name: str, histogram: Histogram) -> None:
        """Fold a whole-lifetime histogram in (trace restores and merges
        carry no window, so it never reaches the trailing window)."""
        with self._lock:
            self._windowed(name, self._clock()).retired.merge(histogram)

    def merge(self, other: "Registry") -> None:
        """Fold another registry into this one (counts summed,
        histograms merged).  The basis of multi-process trace merging:
        each ``--jobs`` worker records into its own process's registry
        and the parent folds the exported traces together."""
        for name, value in other.counts.items():
            self.inc(name, value)
        for name, histogram in other.histograms.items():
            self.merge_histogram(name, histogram)

    # --- the trace side --------------------------------------------------

    def get(self, name: str) -> int:
        """The current value of a counter (0 if never incremented)."""
        return self.counts.get(name, 0)

    def histogram(self, name: str) -> Histogram | None:
        """The named histogram over its whole lifetime, or ``None``."""
        with self._lock:
            windowed = self._histograms.get(name)
            return None if windowed is None else windowed.cumulative

    @property
    def counts(self) -> dict[str, int]:
        with self._lock:
            return self._counts()

    @property
    def histograms(self) -> dict[str, Histogram]:
        with self._lock:
            return {
                name: windowed.cumulative
                for name, windowed in self._histograms.items()
            }

    def snapshot(self) -> dict[str, int]:
        """A frozen copy of the counter values (histograms excluded)."""
        return self.counts

    def delta(self, since: Mapping[str, int]) -> dict[str, int]:
        """Counter increments since a :meth:`snapshot`, zeros dropped."""
        out: dict[str, int] = {}
        for name, value in self.counts.items():
            change = value - since.get(name, 0)
            if change:
                out[name] = change
        return out

    # --- the live side ---------------------------------------------------

    def live_record(self, now: float | None = None) -> dict[str, Any]:
        """The whole registry as one JSON-safe telemetry snapshot record.

        ``meters`` holds one entry per ``<op>.seconds`` histogram: the
        op's whole-lifetime ``count`` and its ``rate``, the window's
        observations per covered second.
        """
        now = self._clock() if now is None else now
        with self._lock:
            self._seq += 1
            meters: dict[str, dict[str, float]] = {}
            histograms: dict[str, dict[str, Any]] = {}
            for name, windowed in sorted(self._histograms.items()):
                window = windowed.window(now)
                cumulative = windowed.cumulative
                histograms[name] = {
                    **snapshot_histogram(cumulative),
                    "window": snapshot_histogram(window),
                }
                if name.endswith(_OP_SUFFIX):
                    covered = windowed.covered(now)
                    meters[name[: -len(_OP_SUFFIX)]] = {
                        "count": cumulative.count,
                        "rate": window.count / covered if covered > 0.0 else 0.0,
                    }
            return {
                "type": "snapshot",
                "seq": self._seq,
                "now": now,
                "uptime": max(0.0, now - self._created),
                "counters": self._counts(),
                "gauges": dict(self._gauges),
                "meters": meters,
                "histograms": histograms,
            }

    def reset(self) -> None:
        """Drop every metric (the mode is untouched)."""
        with self._lock:
            self._shards = []
            self._local = threading.local()
            self._gauges.clear()
            self._histograms.clear()
            self._created = self._clock()
            self._seq = 0


# ---------------------------------------------------------------------------
# The process-wide registry, the context-local tracer, and the hooks
# ---------------------------------------------------------------------------


_REGISTRY = Registry()

_TRACER: ContextVar[Tracer | None] = ContextVar("repro_obs_tracer", default=None)


def registry() -> Registry:
    """The process-wide registry every hook records into."""
    return _REGISTRY


#: The trace-side spelling of :func:`registry` (``counters().snapshot()``).
counters = registry


def set_registry(new: Registry) -> Registry:
    """Swap the process-wide registry (returns the previous one)."""
    global _REGISTRY
    previous = _REGISTRY
    _REGISTRY = new
    return previous


def tracer() -> Tracer:
    """The current context's tracer."""
    current = _TRACER.get()
    if current is None:
        current = Tracer()
        _TRACER.set(current)
    return current


def current_span() -> Span | None:
    """The innermost span open in the current context, or ``None``.

    The correlation hook for structured logging: a log record emitted
    mid-span carries this span's name and ``sid``.
    """
    current = _TRACER.get()
    return None if current is None else current.current


def span(name: str, **attributes: object):
    """Open a span under the current context's tracer.

    Returns the shared null span unless tracing is on, so ``with
    span(...):`` at a call site costs one mode check.  Note the keyword
    arguments are evaluated by the caller either way -- keep span
    attributes cheap (sizes and names, not rendered states).
    """
    if not _MODE or not _MODE & TRACE:
        return _NULL_SPAN
    return tracer().span(name, **attributes)


class _TimedOp:
    """An :func:`op` while telemetry is live: times the block into the
    registry, inside the op's span when tracing is on too."""

    __slots__ = ("name", "span", "start")

    def __init__(self, name: str, traced: Any):
        self.name = name
        self.span = traced
        self.start = 0.0

    def __enter__(self) -> Any:
        record = _NULL_SPAN if self.span is None else self.span.__enter__()
        self.start = time.perf_counter()
        return record

    def __exit__(self, *exc_info: Any) -> bool:
        _REGISTRY.record_op(self.name, time.perf_counter() - self.start)
        if self.span is not None:
            return bool(self.span.__exit__(*exc_info))
        return False


def op(name: str, **attributes: object):
    """``with op("blu.c.mask", letters=3) as current:`` -- one kernel
    entry point's single hook.

    Off, the shared null span.  Tracing, a span named ``name``; live, the
    block's latency recorded as ``<name>.seconds`` (op ``name``'s meter);
    both, both.  ``current`` is the span, or the null span when none is
    recorded.
    """
    mode = _MODE
    if not mode:
        return _NULL_SPAN
    if not mode & LIVE:
        return tracer().span(name, **attributes)
    return _TimedOp(name, tracer().span(name, **attributes) if mode & TRACE else None)


def inc(name: str, amount: int = 1) -> None:
    """Add to a monotonic counter (no-op while the mode is off)."""
    if _MODE:
        _REGISTRY.inc(name, amount)


def observe(name: str, value: float) -> None:
    """Record one histogram observation (no-op while the mode is off)."""
    if _MODE:
        _REGISTRY.observe(name, value)


def set_gauge(name: str, value: float) -> None:
    """Set a gauge (no-op while the mode is off)."""
    if _MODE:
        _REGISTRY.set_gauge(name, value)


def reset() -> None:
    """Clear the current context's spans and every recorded metric."""
    current = _TRACER.get()
    if current is not None:
        current.clear()
    _REGISTRY.reset()


# ---------------------------------------------------------------------------
# Memory tracking (opt-in; tracemalloc is process-wide and not free)
# ---------------------------------------------------------------------------


@dataclass
class MemorySample:
    """Allocation totals observed over one :func:`track_memory` block.

    ``peak_bytes`` is the high-water mark of traced allocations inside
    the block; ``current_bytes`` is what was still allocated when the
    block exited (retained state, e.g. the grown clause set).
    """

    current_bytes: int = 0
    peak_bytes: int = 0

    def to_json(self) -> dict[str, int]:
        return {"current_bytes": self.current_bytes, "peak_bytes": self.peak_bytes}


@contextmanager
def track_memory() -> Iterator[MemorySample]:
    """Measure allocations of a with-block via :mod:`tracemalloc`.

    Explicitly opt-in and independent of the tracing enable flag, because
    tracemalloc instruments every allocation in the process (a real
    slowdown, unlike spans).  If tracemalloc is already tracing, only the
    peak is reset so nested/outer tracking keeps working; otherwise
    tracing is started for the block and stopped afterwards.  The sample
    is filled in when the block exits.
    """
    import tracemalloc

    already_tracing = tracemalloc.is_tracing()
    if already_tracing:
        baseline = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
    else:
        baseline = 0
        tracemalloc.start()
    sample = MemorySample()
    try:
        yield sample
    finally:
        current, peak = tracemalloc.get_traced_memory()
        sample.current_bytes = max(0, current - baseline)
        sample.peak_bytes = max(0, peak - baseline)
        if not already_tracing:
            tracemalloc.stop()
