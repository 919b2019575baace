"""``repro.obs``: zero-dependency tracing spans and kernel counters.

The observability layer for the whole stack.  Kernels call the
module-level helpers (:func:`span`, :func:`inc`, :func:`observe`), which
are near-no-ops until :func:`enable` is called; exporters render the
recorded telemetry as a span tree, JSON-lines, or a counter table.  See
DESIGN.md section "Observability".

Typical use::

    from repro import obs
    from repro.obs.export import render_span_tree, counter_report

    obs.enable()
    db.insert("A1 | A2")
    print(render_span_tree(obs.tracer()))
    print(counter_report(obs.counters()).render())
"""

from repro.obs.core import (
    Counters,
    Histogram,
    MemorySample,
    Span,
    Tracer,
    counters,
    current_span,
    disable,
    enable,
    enabled,
    inc,
    is_enabled,
    observe,
    reset,
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
    "Counters",
    "MemorySample",
    "enable",
    "disable",
    "is_enabled",
    "enabled",
    "suspended",
    "tracer",
    "counters",
    "span",
    "inc",
    "observe",
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
