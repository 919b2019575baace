"""Exporters for recorded spans and counters.

Three views of the same telemetry:

* :func:`render_span_tree` -- human-readable indented tree (the REPL's
  ``:trace show``);
* :func:`export_jsonl` / :func:`spans_from_jsonl` -- flat JSON-lines for
  tooling (``run_experiments.py --trace-out``), with enough structure
  (``id`` / ``parent``) to round-trip the span tree;
* :func:`counter_report` -- a counter summary table reusing the
  :class:`~repro.bench.harness.Report` renderer, so counter tables look
  like every other table the harness prints.

:func:`validate_jsonl` is the small schema check the CI smoke job runs
against emitted trace files, so exporter drift fails CI instead of
silently corrupting bench artifacts.
"""

from __future__ import annotations

import json
from collections.abc import Iterable, Mapping, Sequence

from repro.obs.core import Registry, Span, Tracer, histogram_from_json

__all__ = [
    "render_span_tree",
    "export_jsonl",
    "spans_from_jsonl",
    "counters_from_jsonl",
    "merge_jsonl",
    "validate_jsonl",
    "counter_report",
]


def _format_attributes(attributes: Mapping[str, object]) -> str:
    if not attributes:
        return ""
    inner = ", ".join(f"{k}={v}" for k, v in attributes.items())
    return f"  [{inner}]"


def render_span_tree(spans: Iterable[Span] | Tracer) -> str:
    """The span forest as indented plain text, one line per span."""
    roots = spans.roots if isinstance(spans, Tracer) else list(spans)
    lines: list[str] = []
    for root in roots:
        for depth, node in root.walk():
            lines.append(
                f"{'  ' * depth}{node.name}  {node.elapsed * 1000:.3f}ms"
                f"{_format_attributes(node.attributes)}"
            )
    return "\n".join(lines) if lines else "(no spans recorded)"


# ---------------------------------------------------------------------------
# JSON-lines
# ---------------------------------------------------------------------------

# One JSON object per line.  Record types:
#   {"type": "span", "id": int, "parent": int|null, "name": str,
#    "start": float, "elapsed": float, "attributes": {...}}
#   {"type": "counter", "name": str, "value": int}
#   {"type": "histogram", "name": str, "count": int, "total": float,
#    "min": float|null, "max": float|null, "buckets": {"<exp>": int}}
# A zero-count histogram has min/max null (the in-memory sentinels are
# +/-inf, which are not valid strict JSON); ``buckets`` maps the log-
# bucket exponent (see obs.core.Histogram) to its observation count.

_SPAN_KEYS = {"type", "id", "parent", "name", "start", "elapsed", "attributes"}
_COUNTER_KEYS = {"type", "name", "value"}
_HISTOGRAM_KEYS = {"type", "name", "count", "total", "min", "max", "buckets"}


def export_jsonl(
    spans: Iterable[Span] | Tracer, counters: Registry | None = None
) -> str:
    """Spans (and optionally counters) as JSON-lines text."""
    roots = spans.roots if isinstance(spans, Tracer) else list(spans)
    lines: list[str] = []
    next_id = 0

    def emit(node: Span, parent_id: int | None) -> None:
        nonlocal next_id
        span_id = next_id
        next_id += 1
        lines.append(
            json.dumps(
                {
                    "type": "span",
                    "id": span_id,
                    "parent": parent_id,
                    "name": node.name,
                    "start": node.start,
                    "elapsed": node.elapsed,
                    "attributes": {str(k): v for k, v in node.attributes.items()},
                },
                default=str,
                sort_keys=True,
            )
        )
        for child in node.children:
            emit(child, span_id)

    for root in roots:
        emit(root, None)
    if counters is not None:
        for name, value in sorted(counters.counts.items()):
            lines.append(
                json.dumps(
                    {"type": "counter", "name": name, "value": value},
                    sort_keys=True,
                )
            )
        for name, histogram in sorted(counters.histograms.items()):
            lines.append(
                json.dumps(
                    {
                        "type": "histogram",
                        "name": name,
                        "count": histogram.count,
                        "total": histogram.total,
                        "min": histogram.minimum if histogram.count else None,
                        "max": histogram.maximum if histogram.count else None,
                        "buckets": {
                            str(exp): n for exp, n in sorted(histogram.buckets.items())
                        },
                    },
                    sort_keys=True,
                )
            )
    return "\n".join(lines) + ("\n" if lines else "")


def spans_from_jsonl(text: str) -> list[Span]:
    """Rebuild the span forest from :func:`export_jsonl` output."""
    by_id: dict[int, Span] = {}
    roots: list[Span] = []
    for line in text.splitlines():
        if not line.strip():
            continue
        record = json.loads(line)
        if record.get("type") != "span":
            continue
        node = Span(
            name=record["name"],
            attributes=dict(record["attributes"]),
            start=record["start"],
            elapsed=record["elapsed"],
        )
        by_id[record["id"]] = node
        parent = record["parent"]
        if parent is None:
            roots.append(node)
        else:
            by_id[parent].children.append(node)
    return roots


def counters_from_jsonl(text: str) -> Registry:
    """Rebuild a counter registry from :func:`export_jsonl` output."""
    counters = Registry()
    for line in text.splitlines():
        if not line.strip():
            continue
        record = json.loads(line)
        if record.get("type") == "counter":
            counters.inc(record["name"], record["value"])
        elif record.get("type") == "histogram":
            counters.merge_histogram(record["name"], histogram_from_json(record))
    return counters


def merge_jsonl(texts: Sequence[str]) -> str:
    """Merge several :func:`export_jsonl` documents into one.

    Built for ``run_experiments.py --jobs``: each worker process emits
    its own trace, and the parent folds them into a single artifact.
    Span forests are concatenated in the order given (ids are freshly
    assigned, so colliding per-worker ids cannot corrupt the tree);
    counters are summed and histograms merged via
    :meth:`~repro.obs.core.Registry.merge`.  The result validates under
    :func:`validate_jsonl` whenever the inputs did.
    """
    roots: list[Span] = []
    merged = Registry()
    saw_counters = False
    for text in texts:
        roots.extend(spans_from_jsonl(text))
        part = counters_from_jsonl(text)
        if part.counts or part.histograms:
            saw_counters = True
        merged.merge(part)
    return export_jsonl(roots, merged if saw_counters else None)


def _is_int_string(value: object) -> bool:
    if not isinstance(value, str):
        return False
    try:
        int(value)
    except ValueError:
        return False
    return True


def validate_jsonl(text: str) -> list[str]:
    """Schema-check JSON-lines trace output; returns error strings.

    An empty list means the text is valid.  Checks every line parses,
    record types and keys are known, span parents reference earlier
    spans, and value types are sane.
    """
    errors: list[str] = []
    seen_span_ids: set[int] = set()
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
        if kind == "span":
            if set(record) != _SPAN_KEYS:
                errors.append(f"line {lineno}: span keys {sorted(record)} != expected")
                continue
            if not isinstance(record["id"], int):
                errors.append(f"line {lineno}: span id must be an int")
                continue
            if not isinstance(record["name"], str) or not record["name"]:
                errors.append(f"line {lineno}: span name must be a non-empty string")
            if not isinstance(record["attributes"], dict):
                errors.append(f"line {lineno}: span attributes must be an object")
            for key in ("start", "elapsed"):
                if not isinstance(record[key], (int, float)):
                    errors.append(f"line {lineno}: span {key} must be a number")
            parent = record["parent"]
            if parent is not None and parent not in seen_span_ids:
                errors.append(
                    f"line {lineno}: span parent {parent} not seen before child"
                )
            seen_span_ids.add(record["id"])
        elif kind == "counter":
            if set(record) != _COUNTER_KEYS:
                errors.append(f"line {lineno}: counter keys {sorted(record)} != expected")
            elif not isinstance(record["name"], str) or not isinstance(
                record["value"], int
            ):
                errors.append(f"line {lineno}: counter needs str name and int value")
        elif kind == "histogram":
            if set(record) != _HISTOGRAM_KEYS:
                errors.append(
                    f"line {lineno}: histogram keys {sorted(record)} != expected"
                )
                continue
            if not isinstance(record["count"], int) or record["count"] < 0:
                errors.append(
                    f"line {lineno}: histogram count must be a non-negative int"
                )
                continue
            empty = record["count"] == 0
            for key in ("min", "max"):
                value = record[key]
                if empty:
                    if value is not None:
                        errors.append(
                            f"line {lineno}: empty histogram must have null {key}"
                        )
                elif not isinstance(value, (int, float)) or isinstance(value, bool):
                    errors.append(
                        f"line {lineno}: histogram {key} must be a number"
                    )
            buckets = record["buckets"]
            if not isinstance(buckets, dict):
                errors.append(f"line {lineno}: histogram buckets must be an object")
            else:
                for exp, n in buckets.items():
                    if not _is_int_string(exp) or isinstance(n, bool) or not isinstance(n, int):
                        errors.append(
                            f"line {lineno}: histogram bucket {exp!r}: {n!r} must "
                            f"map an integer-string exponent to an int count"
                        )
                        break
                else:
                    total = sum(buckets.values())
                    if total != record["count"]:
                        errors.append(
                            f"line {lineno}: histogram buckets sum to {total}, "
                            f"count says {record['count']}"
                        )
        else:
            errors.append(f"line {lineno}: unknown record type {kind!r}")
    return errors


# ---------------------------------------------------------------------------
# Counter tables
# ---------------------------------------------------------------------------


def counter_report(
    counters: Registry | Mapping[str, int],
    ident: str = "OBS",
    title: str = "kernel counters",
    claim: str = "work done by the instrumented BLU/HLU kernels",
):
    """Counter values as a :class:`~repro.bench.harness.Report` table.

    Accepts either a :class:`~repro.obs.core.Registry` (histograms included as
    ``n/mean/min/max`` summary rows) or a plain name-to-value mapping
    (e.g. a :meth:`~repro.obs.core.Registry.delta`).
    """
    from repro.bench.harness import Report  # local import: harness imports obs.core

    report = Report(ident=ident, title=title, claim=claim, columns=("counter", "value"))
    if isinstance(counters, Registry):
        counts: Mapping[str, int] = counters.counts
        histograms = counters.histograms
    else:
        counts = counters
        histograms = {}
    for name in sorted(counts):
        report.add_row(name, counts[name])
    for name, histogram in sorted(histograms.items()):
        if not histogram.count:
            report.add_row(name, "n=0")
            continue
        report.add_row(
            name,
            f"n={histogram.count} mean={histogram.mean:.1f} "
            f"min={histogram.minimum:g} max={histogram.maximum:g} "
            f"p50={histogram.p50:g} p90={histogram.p90:g} p99={histogram.p99:g}",
        )
    return report
