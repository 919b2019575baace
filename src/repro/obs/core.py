"""Tracing spans and kernel counters for the BLU/HLU stack.

The paper's complexity theorems (2.3.4, 2.3.6, 2.3.9) are claims about
*work done* -- resolvents generated, clauses retained, letters
eliminated -- not about wall-clock seconds.  This module is the
measurement substrate that lets the rest of the library report that work:

* a context-local :class:`Tracer` holding a span stack -- ``with
  span("blu.c.mask", letters=3):`` records wall time, nesting, and
  attributes as a tree of :class:`Span` values;
* a context-local :class:`Counters` registry of monotonic counters
  (:func:`inc`) and value histograms (:func:`observe`).

Everything sits behind a single module-level enable flag.  Instrumented
kernels call the module-level :func:`span` / :func:`inc` /
:func:`observe` helpers, which check the flag first, so the disabled
path costs one global load per call site -- a near-no-op, guarded by an
overhead test in ``tests/obs/test_core.py``.

State is held in a :class:`contextvars.ContextVar`, so threads and
``contextvars`` contexts each see their own tracer and counters while
sharing the one process-wide enable flag.  Zero dependencies.
"""

from __future__ import annotations

import itertools
import math
import time
from collections.abc import Iterator, Mapping
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field

__all__ = [
    "Span",
    "Tracer",
    "Histogram",
    "Counters",
    "MemorySample",
    "enable",
    "disable",
    "is_enabled",
    "enabled",
    "suspended",
    "tracer",
    "counters",
    "current_span",
    "span",
    "inc",
    "observe",
    "reset",
    "track_memory",
]

# The process-wide switch.  A plain module global (not a ContextVar) so
# the disabled check in span()/inc()/observe() is a single global load.
_ENABLED = False


def enable() -> None:
    """Turn instrumentation on (process-wide)."""
    global _ENABLED
    _ENABLED = True


def disable() -> None:
    """Turn instrumentation off (process-wide)."""
    global _ENABLED
    _ENABLED = False


def is_enabled() -> bool:
    """Whether spans and counters are currently being recorded."""
    return _ENABLED


@contextmanager
def enabled() -> Iterator[None]:
    """Enable instrumentation for the dynamic extent of a with-block,
    restoring the previous flag on exit."""
    global _ENABLED
    previous = _ENABLED
    _ENABLED = True
    try:
        yield
    finally:
        _ENABLED = previous


@contextmanager
def suspended() -> Iterator[None]:
    """Disable instrumentation for the dynamic extent of a with-block,
    restoring the previous flag on exit: work done inside opens no spans
    and counts nothing."""
    global _ENABLED
    previous = _ENABLED
    _ENABLED = False
    try:
        yield
    finally:
        _ENABLED = previous


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
# Counters
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


class Counters:
    """Named monotonic counters plus value histograms."""

    def __init__(self) -> None:
        self._counts: dict[str, int] = {}
        self._histograms: dict[str, Histogram] = {}

    def inc(self, name: str, amount: int = 1) -> None:
        self._counts[name] = self._counts.get(name, 0) + amount

    def observe(self, name: str, value: float) -> None:
        histogram = self._histograms.get(name)
        if histogram is None:
            histogram = self._histograms[name] = Histogram()
        histogram.observe(value)

    def get(self, name: str) -> int:
        """The current value of a counter (0 if never incremented)."""
        return self._counts.get(name, 0)

    def histogram(self, name: str) -> Histogram | None:
        return self._histograms.get(name)

    @property
    def counts(self) -> dict[str, int]:
        return dict(self._counts)

    @property
    def histograms(self) -> dict[str, Histogram]:
        return dict(self._histograms)

    def snapshot(self) -> dict[str, int]:
        """A frozen copy of the counter values (histograms excluded)."""
        return dict(self._counts)

    def delta(self, since: Mapping[str, int]) -> dict[str, int]:
        """Counter increments since a :meth:`snapshot`, zeros dropped."""
        out: dict[str, int] = {}
        for name, value in self._counts.items():
            change = value - since.get(name, 0)
            if change:
                out[name] = change
        return out

    def merge(self, other: "Counters") -> None:
        """Fold another registry into this one (counts summed,
        histograms merged).  The basis of multi-process trace merging:
        each ``--jobs`` worker records into its own registry and the
        parent folds them together."""
        for name, value in other._counts.items():
            self.inc(name, value)
        for name, histogram in other._histograms.items():
            mine = self._histograms.get(name)
            if mine is None:
                mine = self._histograms[name] = Histogram()
            mine.merge(histogram)

    def reset(self) -> None:
        """Zero every counter and drop every histogram."""
        self._counts.clear()
        self._histograms.clear()


# ---------------------------------------------------------------------------
# Context-local state and the module-level helpers the kernels call
# ---------------------------------------------------------------------------


class _ObsState:
    __slots__ = ("tracer", "counters")

    def __init__(self) -> None:
        self.tracer = Tracer()
        self.counters = Counters()


_STATE: ContextVar[_ObsState | None] = ContextVar("repro_obs_state", default=None)


def _state() -> _ObsState:
    state = _STATE.get()
    if state is None:
        state = _ObsState()
        _STATE.set(state)
    return state


def tracer() -> Tracer:
    """The current context's tracer."""
    return _state().tracer


def counters() -> Counters:
    """The current context's counter registry."""
    return _state().counters


def current_span() -> Span | None:
    """The innermost span open in the current context, or ``None``.

    The correlation hook for structured logging: a log record emitted
    mid-span carries this span's name and ``sid``.
    """
    state = _STATE.get()
    if state is None:
        return None
    return state.tracer.current


def span(name: str, **attributes: object):
    """Open a span under the current context's tracer.

    Returns the shared null span while instrumentation is disabled, so
    ``with span(...):`` at a call site costs one flag check.  Note the
    keyword arguments are evaluated by the caller either way -- keep
    span attributes cheap (sizes and names, not rendered states).
    """
    if not _ENABLED:
        return _NULL_SPAN
    return _state().tracer.span(name, **attributes)


def inc(name: str, amount: int = 1) -> None:
    """Add to a monotonic counter (no-op while disabled)."""
    if _ENABLED:
        _state().counters.inc(name, amount)


def observe(name: str, value: float) -> None:
    """Record one histogram observation (no-op while disabled)."""
    if _ENABLED:
        _state().counters.observe(name, value)


def reset() -> None:
    """Clear the current context's recorded spans and counters."""
    state = _STATE.get()
    if state is not None:
        state.tracer.clear()
        state.counters.reset()


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
