"""Tests for repro.obs.export: span trees, JSON-lines, counter tables."""

import json

from repro.obs import core
from repro.obs.export import (
    counter_report,
    counters_from_jsonl,
    export_jsonl,
    render_span_tree,
    spans_from_jsonl,
    validate_jsonl,
)


def _record_sample():
    core.enable()
    with core.span("hlu.apply", update="insert"):
        with core.span("blu.c.mask", letters=2):
            core.inc("resolvents", 5)
        with core.span("blu.c.assert"):
            core.inc("clauses", 3)
    core.observe("state_size", 4.0)
    core.observe("state_size", 6.0)
    core.disable()
    return core.tracer(), core.counters()


class TestSpanTree:
    def test_renders_names_nesting_and_attributes(self):
        tracer, _ = _record_sample()
        text = render_span_tree(tracer)
        lines = text.splitlines()
        assert lines[0].startswith("hlu.apply")
        assert lines[1].startswith("  blu.c.mask")
        assert "letters=2" in lines[1]
        assert "ms" in lines[0]

    def test_empty_tracer_renders_placeholder(self):
        assert render_span_tree([]) == "(no spans recorded)"


class TestJsonl:
    def test_round_trip_preserves_tree_and_values(self):
        tracer, counters = _record_sample()
        text = export_jsonl(tracer, counters)

        roots = spans_from_jsonl(text)
        assert [r.name for r in roots] == ["hlu.apply"]
        assert roots[0].attributes == {"update": "insert"}
        assert [c.name for c in roots[0].children] == ["blu.c.mask", "blu.c.assert"]
        assert roots[0].children[0].attributes == {"letters": 2}
        assert roots[0].elapsed == tracer.roots[0].elapsed

        rebuilt = counters_from_jsonl(text)
        assert rebuilt.get("resolvents") == 5
        assert rebuilt.get("clauses") == 3
        histogram = rebuilt.histogram("state_size")
        assert histogram.count == 2
        assert histogram.minimum == 4.0
        assert histogram.maximum == 6.0

    def test_every_line_is_json(self):
        tracer, counters = _record_sample()
        for line in export_jsonl(tracer, counters).splitlines():
            json.loads(line)

    def test_non_string_attributes_round_trip(self):
        core.enable()
        with core.span("typed", letters=3, ratio=0.5, formula="phi", pair=(1, 2)):
            pass
        core.disable()
        text = export_jsonl(core.tracer())
        restored = spans_from_jsonl(text).pop().attributes
        assert restored["letters"] == 3
        assert restored["ratio"] == 0.5
        assert restored["formula"] == "phi"
        assert restored["pair"] == [1, 2]  # tuples come back as JSON arrays
        assert validate_jsonl(text) == []

    def test_histogram_round_trip_preserves_buckets_and_quantiles(self):
        _, counters = _record_sample()
        rebuilt = counters_from_jsonl(export_jsonl([], counters))
        original = counters.histogram("state_size")
        restored = rebuilt.histogram("state_size")
        assert restored.buckets == original.buckets
        assert restored.p50 == original.p50
        assert restored.p99 == original.p99

    def test_empty_histogram_exports_null_min_max(self):
        # Regression: the +/-inf sentinels used to leak into the JSON as
        # bare Infinity tokens, which no strict parser accepts.
        registry = core.Registry()
        registry.merge_histogram("never_observed", core.Histogram())
        text = export_jsonl([], registry)
        (record,) = [json.loads(line) for line in text.splitlines()]
        assert record["count"] == 0
        assert record["min"] is None
        assert record["max"] is None
        assert validate_jsonl(text) == []
        restored = counters_from_jsonl(text).histogram("never_observed")
        assert restored.count == 0
        assert restored.minimum == float("inf")
        assert restored.maximum == float("-inf")
        assert restored.p50 is None

    def test_pre_bucket_exports_still_load(self):
        record = {
            "type": "histogram",
            "name": "legacy",
            "count": 2,
            "total": 6.0,
            "min": 1.0,
            "max": 5.0,
        }
        restored = counters_from_jsonl(json.dumps(record)).histogram("legacy")
        assert restored.count == 2
        assert restored.buckets == {}
        assert restored.p50 == 5.0  # degrades to the clamp, not a crash

    def test_export_without_counters(self):
        tracer, _ = _record_sample()
        text = export_jsonl(tracer)
        assert '"type": "counter"' not in text

    def test_empty_export_is_empty(self):
        assert export_jsonl([]) == ""


class TestValidation:
    def test_valid_output_passes(self):
        tracer, counters = _record_sample()
        assert validate_jsonl(export_jsonl(tracer, counters)) == []

    def test_garbage_line_reported(self):
        errors = validate_jsonl("not json at all\n")
        assert errors and "line 1" in errors[0]

    def test_unknown_type_reported(self):
        errors = validate_jsonl('{"type": "mystery"}\n')
        assert any("unknown record type" in e for e in errors)

    def test_missing_span_key_reported(self):
        record = {"type": "span", "id": 0, "name": "x"}
        errors = validate_jsonl(json.dumps(record))
        assert any("span keys" in e for e in errors)

    def test_orphan_parent_reported(self):
        record = {
            "type": "span",
            "id": 1,
            "parent": 99,
            "name": "x",
            "start": 0.0,
            "elapsed": 0.0,
            "attributes": {},
        }
        errors = validate_jsonl(json.dumps(record))
        assert any("parent 99" in e for e in errors)

    def test_counter_value_type_checked(self):
        record = {"type": "counter", "name": "x", "value": "three"}
        errors = validate_jsonl(json.dumps(record))
        assert any("int value" in e for e in errors)

    def _histogram_record(self, **overrides):
        record = {
            "type": "histogram",
            "name": "h",
            "count": 2,
            "total": 6.0,
            "min": 2.0,
            "max": 4.0,
            "buckets": {"2": 2},
        }
        record.update(overrides)
        return json.dumps(record)

    def test_valid_histogram_record_passes(self):
        assert validate_jsonl(self._histogram_record()) == []

    def test_histogram_missing_buckets_reported(self):
        record = json.loads(self._histogram_record())
        del record["buckets"]
        errors = validate_jsonl(json.dumps(record))
        assert any("histogram keys" in e for e in errors)

    def test_histogram_negative_count_reported(self):
        errors = validate_jsonl(self._histogram_record(count=-1))
        assert any("non-negative int" in e for e in errors)

    def test_empty_histogram_must_have_null_min_max(self):
        errors = validate_jsonl(
            self._histogram_record(count=0, min=0.0, max=0.0, buckets={})
        )
        assert any("null min" in e for e in errors)
        assert any("null max" in e for e in errors)

    def test_nonempty_histogram_min_must_be_numeric(self):
        errors = validate_jsonl(self._histogram_record(min=None))
        assert any("min must be a number" in e for e in errors)

    def test_histogram_bucket_keys_must_be_integer_strings(self):
        errors = validate_jsonl(self._histogram_record(buckets={"two": 2}))
        assert any("integer-string exponent" in e for e in errors)

    def test_histogram_bucket_counts_must_sum_to_count(self):
        errors = validate_jsonl(self._histogram_record(buckets={"2": 1}))
        assert any("sum to 1" in e for e in errors)

    def test_blank_lines_ignored(self):
        tracer, counters = _record_sample()
        text = "\n" + export_jsonl(tracer, counters) + "\n\n"
        assert validate_jsonl(text) == []


class TestCounterReport:
    def test_from_registry_includes_histograms(self):
        _, counters = _record_sample()
        text = counter_report(counters).render()
        assert "resolvents" in text
        assert "5" in text
        assert "state_size" in text
        assert "mean=5.0" in text

    def test_from_plain_mapping(self):
        text = counter_report({"b": 2, "a": 1}).render()
        assert text.index("a") < text.index("b")  # sorted rows

    def test_custom_identity(self):
        _, counters = _record_sample()
        text = counter_report(counters, ident="STATS", title="deltas").render()
        assert "== STATS: deltas ==" in text
