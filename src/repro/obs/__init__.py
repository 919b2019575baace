"""``repro.obs``: zero-dependency tracing spans and one metrics registry.

The observability layer for the whole stack.  Kernels call the
module-level hooks -- :func:`op` at an operation's entry point,
:func:`span` inside it, :func:`inc` and :func:`observe` for work
counts -- which are near-no-ops until :func:`enable` (tracing) or
:func:`enable_live` (live telemetry, :mod:`repro.obs.runtime`) sets a
bit of the one mode.  Counters and histograms land in one process-wide
:class:`Registry`: exporters render it with the context-local span tree
as JSON-lines or a counter table, and :mod:`repro.obs.runtime` streams
it as the telemetry feed.  See DESIGN.md section "Observability".

Typical use::

    from repro import obs
    from repro.obs.export import render_span_tree, counter_report

    obs.enable()
    db.insert("A1 | A2")
    print(render_span_tree(obs.tracer()))
    print(counter_report(obs.counters()).render())
"""

from repro.obs.core import (
    Histogram,
    MemorySample,
    Registry,
    Span,
    Tracer,
    counters,
    current_span,
    disable,
    disable_live,
    enable,
    enable_live,
    enabled,
    inc,
    is_enabled,
    is_live,
    observe,
    op,
    registry,
    reset,
    set_gauge,
    span,
    suspended,
    tracer,
    track_memory,
)
from repro.obs.export import (
    counter_report,
    counters_from_jsonl,
    export_jsonl,
    merge_jsonl,
    render_span_tree,
    spans_from_jsonl,
    validate_jsonl,
)
from repro.obs.profile import (
    Profile,
    SpanStats,
    folded_stacks,
    profile_from_jsonl,
    profile_spans,
    speedscope_document,
)
from repro.obs.report import hotspot_report
from repro.obs import attribution, baseline, history, live, metrics, provenance, runtime
from repro.obs import logging as structured_logging

__all__ = [
    "Span",
    "Tracer",
    "Histogram",
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
    "span",
    "op",
    "inc",
    "observe",
    "set_gauge",
    "reset",
    "track_memory",
    "render_span_tree",
    "export_jsonl",
    "spans_from_jsonl",
    "counters_from_jsonl",
    "merge_jsonl",
    "validate_jsonl",
    "counter_report",
    "Profile",
    "SpanStats",
    "profile_spans",
    "profile_from_jsonl",
    "folded_stacks",
    "speedscope_document",
    "hotspot_report",
    "current_span",
    "metrics",
    "baseline",
    "history",
    "attribution",
    "runtime",
    "live",
    "structured_logging",
    "provenance",
]
