"""Tests for repro.obs.core: spans, counters, isolation, and overhead."""

import contextvars
import math
import random
import threading
import timeit
import tracemalloc

import pytest

from repro.obs import core


class TestEnableFlag:
    def test_disabled_by_default(self):
        assert not core.is_enabled()

    def test_enable_disable(self):
        core.enable()
        assert core.is_enabled()
        core.disable()
        assert not core.is_enabled()

    def test_enabled_context_manager_restores(self):
        assert not core.is_enabled()
        with core.enabled():
            assert core.is_enabled()
        assert not core.is_enabled()

    def test_enabled_context_manager_preserves_on(self):
        core.enable()
        with core.enabled():
            pass
        assert core.is_enabled()


class TestMode:
    """One mode word: TRACE records spans, LIVE records op latencies,
    either counts, and suspended() switches both off."""

    def test_disable_leaves_telemetry_on(self):
        core.enable()
        core.enable_live()
        core.disable()
        assert core.is_live()
        assert not core.is_enabled()

    def test_suspended_switches_both_bits_off(self):
        core.enable()
        core.enable_live()
        with core.suspended():
            assert not core.is_enabled() and not core.is_live()
            core.inc("hidden")
            with core.op("hidden.op"):
                pass
        assert core.is_enabled() and core.is_live()
        assert core.counters().get("hidden") == 0
        assert core.tracer().roots == []
        assert core.registry().live_record()["meters"] == {}

    def test_live_bit_alone_counts(self):
        core.enable_live()
        core.inc("live_only", 2)
        core.observe("sizes", 3.0)
        assert core.counters().get("live_only") == 2
        assert core.counters().histogram("sizes").count == 1

    def test_op_is_a_span_when_tracing(self):
        core.enable()
        with core.op("blu.c.mask", letters=2) as current:
            current.set(clauses_out=3)
        (root,) = core.tracer().roots
        assert root.name == "blu.c.mask"
        assert root.attributes == {"letters": 2, "clauses_out": 3}
        assert core.registry().live_record()["meters"] == {}

    def test_op_is_a_latency_when_live(self):
        core.enable_live()
        with core.op("blu.c.mask", letters=2) as current:
            assert current is core._NULL_SPAN
        assert core.tracer().roots == []
        meters = core.registry().live_record()["meters"]
        assert meters["blu.c.mask"]["count"] == 1

    def test_op_records_both_when_both_bits_are_set(self):
        core.enable()
        core.enable_live()
        with pytest.raises(RuntimeError):
            with core.op("hlu.apply") as current:
                assert current.name == "hlu.apply"
                raise RuntimeError("boom")
        assert [span.name for span in core.tracer().roots] == ["hlu.apply"]
        assert core.tracer().depth == 0
        assert core.registry().live_record()["meters"]["hlu.apply"]["count"] == 1


class TestSpans:
    def test_nesting_recorded_as_tree(self):
        core.enable()
        with core.span("outer"):
            with core.span("middle"):
                with core.span("leaf"):
                    pass
            with core.span("sibling"):
                pass
        roots = core.tracer().roots
        assert [r.name for r in roots] == ["outer"]
        assert [c.name for c in roots[0].children] == ["middle", "sibling"]
        assert [g.name for g in roots[0].children[0].children] == ["leaf"]

    def test_attributes_and_set(self):
        core.enable()
        with core.span("work", letters=3) as span:
            span.set(clauses_out=7)
        recorded = core.tracer().roots[0]
        assert recorded.attributes == {"letters": 3, "clauses_out": 7}

    def test_elapsed_is_recorded(self):
        core.enable()
        with core.span("timed"):
            sum(range(1000))
        assert core.tracer().roots[0].elapsed > 0

    def test_stack_empties_after_exit(self):
        core.enable()
        with core.span("a"):
            assert core.tracer().depth == 1
        assert core.tracer().depth == 0

    def test_stack_unwinds_on_exception(self):
        core.enable()
        with pytest.raises(RuntimeError):
            with core.span("a"):
                raise RuntimeError("boom")
        assert core.tracer().depth == 0
        assert core.tracer().roots[0].elapsed >= 0

    def test_walk_yields_depths(self):
        core.enable()
        with core.span("outer"):
            with core.span("inner"):
                pass
        walked = [(depth, span.name) for depth, span in core.tracer().walk()]
        assert walked == [(0, "outer"), (1, "inner")]

    def test_disabled_span_is_null(self):
        with core.span("ignored", big=1) as span:
            pass
        assert span is core._NULL_SPAN
        assert core.tracer().roots == []


class TestTracerClear:
    def test_clear_with_no_open_spans_empties_roots(self):
        core.enable()
        with core.span("done"):
            pass
        core.tracer().clear()
        assert core.tracer().roots == []
        assert core.tracer().depth == 0

    def test_clear_inside_open_span_reanchors_it(self):
        """Regression: spans recorded after a mid-span clear() used to land
        on a parent that was no longer reachable from any root."""
        core.enable()
        with core.span("outer"):
            with core.span("finished_child"):
                pass
            core.tracer().clear()
            with core.span("after_clear"):
                pass
        roots = core.tracer().roots
        assert [r.name for r in roots] == ["outer"]
        assert [c.name for c in roots[0].children] == ["after_clear"]

    def test_clear_preserves_open_span_nesting(self):
        core.enable()
        with core.span("a"):
            with core.span("b"):
                core.tracer().clear()
                assert [r.name for r in core.tracer().roots] == ["a"]
                assert core.tracer().depth == 2
                with core.span("c"):
                    pass
        a = core.tracer().roots[0]
        assert [child.name for child in a.children] == ["b"]
        assert [g.name for g in a.children[0].children] == ["c"]


class TestCounters:
    def test_inc_and_get(self):
        core.enable()
        core.inc("x")
        core.inc("x", 4)
        assert core.counters().get("x") == 5

    def test_get_missing_is_zero(self):
        assert core.counters().get("never") == 0

    def test_disabled_inc_records_nothing(self):
        core.inc("x", 100)
        assert core.counters().get("x") == 0

    def test_histogram_observations(self):
        core.enable()
        for value in (2.0, 8.0, 5.0):
            core.observe("sizes", value)
        histogram = core.counters().histogram("sizes")
        assert histogram.count == 3
        assert histogram.minimum == 2.0
        assert histogram.maximum == 8.0
        assert histogram.mean == 5.0

    def test_snapshot_and_delta(self):
        core.enable()
        core.inc("a", 2)
        before = core.counters().snapshot()
        core.inc("a", 3)
        core.inc("b")
        assert core.counters().delta(before) == {"a": 3, "b": 1}

    def test_delta_drops_unchanged(self):
        core.enable()
        core.inc("steady", 5)
        before = core.counters().snapshot()
        assert core.counters().delta(before) == {}

    def test_reset_clears_counts_and_histograms(self):
        core.enable()
        core.inc("a")
        core.observe("h", 1.0)
        core.counters().reset()
        assert core.counters().counts == {}
        assert core.counters().histogram("h") is None

    def test_module_reset_clears_spans_too(self):
        core.enable()
        with core.span("s"):
            core.inc("c")
        core.reset()
        assert core.tracer().roots == []
        assert core.counters().counts == {}


class TestHistogramQuantiles:
    def test_empty_histogram_has_no_quantiles(self):
        histogram = core.Histogram()
        assert histogram.quantile(0.5) is None
        assert histogram.p50 is None
        assert histogram.p90 is None
        assert histogram.p99 is None

    def test_fraction_out_of_range_rejected(self):
        histogram = core.Histogram()
        histogram.observe(1.0)
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            histogram.quantile(1.5)
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            histogram.quantile(-0.1)

    def test_single_observation_is_every_quantile(self):
        histogram = core.Histogram()
        histogram.observe(3.5)
        assert histogram.quantile(0.0) == 3.5
        assert histogram.p50 == 3.5
        assert histogram.p99 == 3.5

    def test_non_positive_values_share_underflow_bucket(self):
        histogram = core.Histogram()
        for value in (0.0, -2.0, 5.0):
            histogram.observe(value)
        assert histogram.buckets[core._ZERO_BUCKET] == 2
        assert histogram.p50 == 0.0  # underflow estimate, clamped to range
        assert histogram.p99 == 5.0  # top bucket midpoint clamps to max

    def test_quantiles_monotone_in_q_randomized(self):
        rng = random.Random(0xBEEF)
        for trial in range(20):
            histogram = core.Histogram()
            for _ in range(rng.randrange(1, 200)):
                histogram.observe(rng.lognormvariate(0.0, 3.0))
            assert histogram.p50 <= histogram.p90 <= histogram.p99
            previous = -math.inf
            for q in (0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0):
                estimate = histogram.quantile(q)
                assert histogram.minimum <= estimate <= histogram.maximum
                assert estimate >= previous
                previous = estimate

    def test_estimate_within_one_bucket_of_true_quantile(self):
        # The estimate is the geometric midpoint of a power-of-two bucket,
        # so it sits within a factor of sqrt(2) of the true rank statistic.
        rng = random.Random(7)
        values = sorted(rng.lognormvariate(0.0, 2.0) for _ in range(500))
        histogram = core.Histogram()
        for value in values:
            histogram.observe(value)
        for q in (0.5, 0.9, 0.99):
            true = values[max(1, math.ceil(q * len(values))) - 1]
            estimate = histogram.quantile(q)
            assert true / math.sqrt(2) * 0.999 <= estimate
            assert estimate <= true * math.sqrt(2) * 1.001

    def test_bucketless_restore_degrades_to_maximum(self):
        # Histograms restored from exports that predate buckets still
        # answer quantiles (clamped), instead of failing.
        histogram = core.Histogram(count=3, total=9.0, minimum=1.0, maximum=5.0)
        assert histogram.p50 == 5.0


class TestHistogramMerge:
    def _filled(self, *values):
        histogram = core.Histogram()
        for value in values:
            histogram.observe(value)
        return histogram

    def test_merge_combines_counts_totals_and_range(self):
        left = self._filled(1.0, 4.0)
        right = self._filled(0.5, 16.0)
        left.merge(right)
        assert left.count == 4
        assert left.total == 21.5
        assert left.minimum == 0.5
        assert left.maximum == 16.0

    def test_merge_returns_self_so_window_merges_chain(self):
        left = self._filled(1.0)
        assert left.merge(self._filled(2.0)) is left

    def test_merging_empty_histogram_is_a_noop(self):
        """Regression: an empty histogram's min/max sentinels (inf/-inf)
        must not poison the target's range."""
        target = self._filled(2.0, 3.0)
        target.merge(core.Histogram())
        assert target.count == 2
        assert target.minimum == 2.0
        assert target.maximum == 3.0

    def test_merging_empty_with_bogus_finite_sentinels_is_a_noop(self):
        """A degraded export can restore an empty histogram with finite
        min/max; count == 0 must still win."""
        target = self._filled(2.0, 3.0)
        bogus_empty = core.Histogram(count=0, total=0.0, minimum=-99.0, maximum=99.0)
        target.merge(bogus_empty)
        assert target.minimum == 2.0
        assert target.maximum == 3.0
        assert target.count == 2

    def test_merging_into_empty_adopts_other_range(self):
        target = core.Histogram()
        target.merge(self._filled(2.0, 8.0))
        assert target.count == 2
        assert target.minimum == 2.0
        assert target.maximum == 8.0
        assert target.p50 is not None

    def test_empty_into_empty_keeps_quantiles_none(self):
        target = core.Histogram()
        target.merge(core.Histogram())
        assert target.count == 0
        assert target.p50 is None

    def test_mismatched_bucket_sets_union(self):
        # 0.001 and 1000.0 land in buckets the other histogram lacks.
        left = self._filled(0.001)
        right = self._filled(1000.0)
        left_buckets = set(left.buckets)
        right_buckets = set(right.buckets)
        assert left_buckets.isdisjoint(right_buckets)
        left.merge(right)
        assert set(left.buckets) == left_buckets | right_buckets
        assert sum(left.buckets.values()) == left.count == 2

    def test_merge_is_exact_vs_single_histogram(self):
        rng = random.Random(0xC0DE)
        values = [rng.lognormvariate(0.0, 2.0) for _ in range(300)]
        single = self._filled(*values)
        merged = core.Histogram()
        for start in range(0, len(values), 50):
            merged.merge(self._filled(*values[start : start + 50]))
        assert merged.count == single.count
        assert merged.buckets == single.buckets
        assert merged.minimum == single.minimum
        assert merged.maximum == single.maximum
        assert merged.p50 == single.p50
        assert merged.p99 == single.p99


class TestCountersMerge:
    def test_counts_sum_and_histograms_merge(self):
        left = core.Registry()
        left.inc("shared", 2)
        left.observe("h", 1.0)
        right = core.Registry()
        right.inc("shared", 3)
        right.inc("only_right")
        right.observe("h", 5.0)
        right.observe("only_right_h", 2.0)
        left.merge(right)
        assert left.get("shared") == 5
        assert left.get("only_right") == 1
        assert left.histogram("h").count == 2
        assert left.histogram("h").maximum == 5.0
        assert left.histogram("only_right_h").count == 1

    def test_merging_counters_with_empty_histogram_keeps_target_range(self):
        left = core.Registry()
        left.observe("h", 4.0)
        right = core.Registry()
        right.merge_histogram("h", core.Histogram())  # empty, sentinel min/max
        left.merge(right)
        assert left.histogram("h").minimum == 4.0
        assert left.histogram("h").maximum == 4.0


class TestSpanIds:
    def test_span_ids_are_unique_and_increasing(self):
        core.enable()
        with core.span("a") as a:
            with core.span("b") as b:
                pass
        assert a.sid > 0
        assert b.sid > a.sid

    def test_current_span_tracks_the_open_span(self):
        core.enable()
        assert core.current_span() is None
        with core.span("outer") as outer:
            assert core.current_span() is outer
            with core.span("inner") as inner:
                assert core.current_span() is inner
            assert core.current_span() is outer
        assert core.current_span() is None

    def test_current_span_is_none_while_disabled(self):
        with core.span("ignored"):
            assert core.current_span() is None


class TestTrackMemory:
    def test_records_peak_and_current(self):
        with core.track_memory() as sample:
            retained = [0] * 100_000
        assert sample.peak_bytes >= 100_000 * 8
        assert 0 <= sample.current_bytes <= sample.peak_bytes
        del retained
        assert not tracemalloc.is_tracing()

    def test_released_allocations_show_in_peak_not_current(self):
        with core.track_memory() as sample:
            transient = [0] * 100_000
            del transient
        assert sample.peak_bytes >= 100_000 * 8
        assert sample.current_bytes < sample.peak_bytes

    def test_nested_tracking_keeps_outer_alive(self):
        with core.track_memory() as outer:
            with core.track_memory() as inner:
                blob = [0] * 50_000
            assert tracemalloc.is_tracing()
            del blob
        assert not tracemalloc.is_tracing()
        assert inner.peak_bytes >= 50_000 * 8
        assert outer.peak_bytes >= inner.peak_bytes * 0  # both filled in
        assert outer.peak_bytes > 0

    def test_works_independently_of_enable_flag(self):
        assert not core.is_enabled()
        with core.track_memory() as sample:
            pass
        assert sample.peak_bytes >= 0

    def test_to_json_keys(self):
        sample = core.MemorySample(current_bytes=3, peak_bytes=9)
        assert sample.to_json() == {"current_bytes": 3, "peak_bytes": 9}


class TestIsolation:
    """The tracer is context-local; the counters are one process-wide
    registry, so every thread's and context's work lands in it."""

    def test_thread_gets_its_own_state(self):
        core.enable()
        core.inc("main_only")
        with core.span("main_span"):
            pass
        seen_in_thread = {}

        def worker():
            core.inc("thread_only", 7)
            with core.span("thread_span"):
                pass
            seen_in_thread["main_only"] = core.counters().get("main_only")
            seen_in_thread["roots"] = [s.name for s in core.tracer().roots]

        thread = threading.Thread(target=worker)
        thread.start()
        thread.join()
        assert seen_in_thread == {"main_only": 1, "roots": ["thread_span"]}
        assert [s.name for s in core.tracer().roots] == ["main_span"]
        assert core.counters().get("thread_only") == 7

    def test_fresh_contextvars_context_is_isolated(self):
        core.enable()
        core.inc("outer")

        def in_context():
            core.inc("inner", 3)
            with core.span("inner_span"):
                pass
            return (
                core.counters().get("outer"),
                core.counters().get("inner"),
                [s.name for s in core.tracer().roots],
            )

        result = contextvars.Context().run(in_context)
        assert result == (1, 3, ["inner_span"])
        assert core.counters().get("inner") == 3
        assert core.tracer().roots == []

    def test_enable_flag_is_process_wide(self):
        core.enable()
        flag_in_thread = []
        thread = threading.Thread(target=lambda: flag_in_thread.append(core.is_enabled()))
        thread.start()
        thread.join()
        assert flag_in_thread == [True]


def _bare(name):
    pass


class TestOverhead:
    def test_disabled_counter_path_is_near_noop(self):
        """The disabled instrumentation path must cost < 2x a bare call loop.

        One call per loop iteration on each side (same argument shape), so
        the measured difference is exactly the flag check inside inc().
        Best-of-several to shrug off scheduler noise.
        """
        assert not core.is_enabled()
        number = 50_000
        bare = min(
            timeit.repeat(
                "fn('overhead.probe')", globals={"fn": _bare}, number=number, repeat=9
            )
        )
        probed = min(
            timeit.repeat(
                "fn('overhead.probe')", globals={"fn": core.inc}, number=number, repeat=9
            )
        )
        ratio = probed / bare
        assert ratio < 2.0, f"disabled inc() cost {ratio:.2f}x a bare call"

    def test_disabled_span_records_nothing_and_is_cheap(self):
        assert not core.is_enabled()
        for _ in range(1000):
            with core.span("hot"):
                pass
        assert core.tracer().roots == []
