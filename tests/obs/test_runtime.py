"""Tests for the live side of the one registry: windowed metrics, op
meters, feeds, and the Prometheus exposition."""

import io
import json
import random
import re
import threading

import pytest

from repro.obs import core as obs
from repro.obs import runtime
from repro.obs.core import Histogram, Registry, WindowedHistogram


#: A per-kernel cache counter, the kind of name the memo-cache records.
HITS = "cache.logic.rclosure.hits"


class FakeClock:
    """An injectable clock the tests advance by hand."""

    def __init__(self, now: float = 0.0):
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> float:
        self.now += seconds
        return self.now


@pytest.fixture()
def clock():
    return FakeClock()


@pytest.fixture()
def registry(clock):
    return Registry(clock=clock)


class TestRateMeter:
    """Op meters are the counts of ``<op>.seconds`` windowed histograms:
    ``count`` over the whole lifetime, ``rate`` over the covered window."""

    @staticmethod
    def _meter(registry, now):
        return registry.live_record(now=now)["meters"]["ops"]

    def test_total_is_monotonic(self, registry):
        seen = []
        for step in range(50):
            registry.record_op("ops", 0.001, now=step * 0.7)
            seen.append(self._meter(registry, step * 0.7)["count"])
        assert seen == sorted(seen)
        assert seen[-1] == 50

    def test_rate_reflects_only_the_window(self, registry):
        for i in range(100):
            registry.record_op("ops", 0.001, now=float(i) * 0.1)  # first 10s
        # 60 seconds later the window is empty; the count is not.
        meter = self._meter(registry, 70.0)
        assert meter["rate"] == 0.0
        assert meter["count"] == 100

    def test_rate_is_events_per_covered_second(self, registry):
        for i in range(20):
            registry.record_op("ops", 0.001, now=float(i) * 0.5)  # 2/s for 10s
        assert self._meter(registry, 10.0)["rate"] == pytest.approx(2.0, rel=0.1)

    def test_zero_covered_time_reports_zero(self, registry):
        registry.record_op("ops", 0.001, now=0.0)
        assert self._meter(registry, 0.0)["rate"] == 0.0


class TestWindowedHistogram:
    def test_window_matches_brute_force_per_slot(self):
        """The windowed quantiles must equal a plain Histogram built from
        exactly the observations whose slots are still live."""
        rng = random.Random(0x5EED)
        windowed = WindowedHistogram()
        observations = []  # (slot_index, value)
        for step in range(400):
            now = step * 0.25  # 8 observations per 2s slot
            value = rng.lognormvariate(0.0, 2.0)
            windowed.observe(value, now=now)
            observations.append((int(now // 2.0), value))
        now = 400 * 0.25
        merged = windowed.window(now=now)
        # Live slots: the current slot plus the 5 most recent closed ones.
        current_slot = int(now // 2.0)
        brute = Histogram()
        for slot, value in observations:
            if slot >= current_slot - 5:
                brute.observe(value)
        assert merged.count == brute.count
        assert merged.buckets == brute.buckets
        assert merged.p50 == brute.p50
        assert merged.p90 == brute.p90
        assert merged.p99 == brute.p99
        assert windowed.cumulative.count == 400

    def test_old_observations_age_out(self):
        windowed = WindowedHistogram()
        windowed.observe(100.0, now=0.0)
        windowed.observe(1.0, now=60.0)
        window = windowed.window(now=60.0)
        assert window.count == 1
        assert window.maximum == 1.0
        assert windowed.cumulative.count == 2
        assert windowed.cumulative.maximum == 100.0

    def test_idle_gap_does_not_overfill_ring(self):
        windowed = WindowedHistogram()
        windowed.observe(1.0, now=0.0)
        windowed.observe(2.0, now=1e6)  # huge gap: only the ring's slots kept
        assert windowed.window(now=1e6).count == 1
        assert windowed.cumulative.count == 2


class TestMetricsRegistry:
    def test_snapshot_shape(self, registry, clock):
        registry.inc("events", 3)
        registry.set_gauge("rss", 12.5)
        registry.record_op("ops", 0.25)
        clock.advance(1.0)
        snap = registry.live_record()
        assert snap["type"] == "snapshot"
        assert snap["seq"] == 1
        assert snap["uptime"] == pytest.approx(1.0)
        assert snap["counters"] == {"events": 3}
        assert snap["gauges"] == {"rss": 12.5}
        assert snap["meters"]["ops"]["count"] == 1
        hist = snap["histograms"]["ops.seconds"]
        assert hist["count"] == 1
        assert hist["window"]["count"] == 1
        assert json.loads(json.dumps(snap)) == snap  # JSON-safe

    def test_record_op_pairs_meter_with_seconds_histogram(self, registry):
        registry.record_op("hlu.apply", 0.004)
        registry.observe("blu.c.state_clauses", 7)  # a value, not an op
        snap = registry.live_record()
        assert snap["meters"] == {"hlu.apply": snap["meters"]["hlu.apply"]}
        assert snap["meters"]["hlu.apply"]["count"] == 1
        assert snap["histograms"]["hlu.apply.seconds"]["count"] == 1

    def test_seq_increments_per_snapshot(self, registry):
        assert registry.live_record()["seq"] == 1
        assert registry.live_record()["seq"] == 2

    def test_reset_drops_everything(self, registry):
        registry.inc("x")
        registry.record_op("op", 0.1)
        registry.reset()
        snap = registry.live_record()
        assert snap["counters"] == {}
        assert snap["meters"] == {}
        assert snap["histograms"] == {}
        assert snap["seq"] == 1

    def test_concurrent_recording_is_consistent(self, registry):
        def hammer():
            for _ in range(1000):
                registry.inc("hits")
                registry.record_op("op", 0.001)

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        snap = registry.live_record()
        assert snap["counters"]["hits"] == 4000
        assert snap["meters"]["op"]["count"] == 4000
        assert snap["histograms"]["op.seconds"]["count"] == 4000


class TestModuleHooks:
    def test_disabled_hooks_record_nothing(self):
        assert not runtime.is_enabled()
        obs.inc("x")
        obs.observe("h", 1.0)
        obs.set_gauge("g", 2.0)
        with obs.op("op"):
            pass
        snap = runtime.registry().live_record()
        assert snap["counters"] == {}
        assert snap["meters"] == {}
        assert snap["histograms"] == {}
        assert snap["gauges"] == {}

    def test_disabled_timed_returns_shared_null_timer(self):
        assert obs.op("a") is obs.op("b")

    def test_enabled_hooks_record(self):
        runtime.enable()
        obs.inc("x", 2)
        with obs.op("op"):
            pass
        snap = runtime.registry().live_record()
        assert snap["counters"] == {"x": 2}
        assert snap["meters"]["op"]["count"] == 1
        assert snap["histograms"]["op.seconds"]["count"] == 1
        assert obs.tracer().roots == []  # telemetry alone opens no spans

    def test_set_registry_swaps(self, registry):
        previous = runtime.set_registry(registry)
        try:
            runtime.enable()
            obs.inc("swapped")
            assert registry.live_record()["counters"] == {"swapped": 1}
        finally:
            runtime.set_registry(previous)


class TestOneStore:
    def test_trace_and_live_record_read_the_same_counters(self):
        """Tracing and telemetry together: one session's updates and
        queries leave one set of counters, which the trace side's
        snapshot and the live record both report."""
        from repro.hlu.session import IncompleteDatabase

        obs.enable()
        runtime.enable()
        db = IncompleteDatabase.over(4)
        db.insert("A1 | A2")
        db.assert_("~A1 | A3")
        db.delete("A2")
        assert db.is_certain("A1 | A2 | A3 | ~A3")
        assert db.is_possible("A1")
        snapshot = obs.counters().snapshot()
        record = runtime.registry().live_record()
        assert snapshot == record["counters"]
        assert snapshot["hlu.updates"] == 3
        assert snapshot["hlu.queries"] == 2
        assert {"hlu.apply", "hlu.is_certain", "hlu.is_possible"} <= set(record["meters"])
        assert record["meters"]["hlu.apply"]["count"] == 3
        spans = [span.name for span in obs.tracer().roots]
        assert spans == ["hlu.apply"] * 3 + ["hlu.is_certain", "hlu.is_possible"]


class TestMergeSnapshots:
    def test_exact_histogram_merge_not_average_of_averages(self, clock):
        left = Registry(clock=clock)
        right = Registry(clock=clock)
        values_left = [0.001] * 99 + [10.0]
        values_right = [10.0] * 100
        for value in values_left:
            left.observe("op.seconds", value)
        for value in values_right:
            right.observe("op.seconds", value)
        merged = runtime.merge_snapshots([left.live_record(), right.live_record()])
        single = Histogram()
        for value in values_left + values_right:
            single.observe(value)
        hist = merged["histograms"]["op.seconds"]
        assert hist["count"] == 200
        assert hist["p50"] == single.p50
        assert hist["p99"] == single.p99

    def test_counters_meters_gauges_sum(self, clock):
        left = Registry(clock=clock)
        right = Registry(clock=clock)
        left.inc(HITS, 3)
        right.inc(HITS, 4)
        right.inc("only_right")
        left.set_gauge("proc.rss_bytes", 100.0)
        right.set_gauge("proc.rss_bytes", 50.0)
        for _ in range(5):
            left.record_op("ops", 0.001)
        for _ in range(7):
            right.record_op("ops", 0.001)
        merged = runtime.merge_snapshots([left.live_record(), right.live_record()])
        assert merged["counters"] == {HITS: 7, "only_right": 1}
        assert merged["gauges"] == {"proc.rss_bytes": 150.0}
        assert merged["meters"]["ops"]["count"] == 12

    def test_empty_input_gives_empty_snapshot(self):
        merged = runtime.merge_snapshots([])
        assert merged["counters"] == {}
        assert merged["histograms"] == {}


class TestPrometheusRendering:
    _SAMPLE = re.compile(
        r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})? (-?[0-9.eE+NaIninf]+)$"
    )

    def _parse(self, text):
        """A tiny text-exposition parser: returns {family: (type, [samples])}
        and asserts every sample line is well-formed and preceded by its
        family's HELP and TYPE comments."""
        families = {}
        helped, typed = set(), set()
        for line in text.splitlines():
            if line.startswith("# HELP "):
                helped.add(line.split()[2])
                continue
            if line.startswith("# TYPE "):
                _, _, family, kind = line.split(None, 3)
                typed.add(family)
                families[family] = (kind, [])
                continue
            match = self._SAMPLE.match(line)
            assert match, f"malformed sample line: {line!r}"
            name = match.group(1)
            family = next(
                (f for f in families if name == f or name.startswith(f + "_")), None
            )
            assert family is not None, f"sample {name!r} has no TYPE comment"
            families[family][1].append(line)
        assert helped == typed, "every family needs both HELP and TYPE"
        return families

    @staticmethod
    def _render(registry):
        return runtime.prometheus_from_snapshot(registry.live_record())

    def test_exposition_is_parseable_with_help_and_type(self, registry):
        registry.inc(HITS, 9)
        registry.set_gauge("proc.rss_bytes", 1024.0)
        registry.record_op("hlu.apply", 0.002)
        text = self._render(registry)
        families = self._parse(text)
        assert families["repro_cache_logic_rclosure_hits_total"][0] == "counter"
        assert families["repro_proc_rss_bytes"][0] == "gauge"
        assert families["repro_hlu_apply_ops_total"][0] == "counter"
        assert families["repro_hlu_apply_ops_rate"][0] == "gauge"
        kind, samples = families["repro_hlu_apply_seconds"]
        assert kind == "summary"
        assert any('quantile="0.5"' in line for line in samples)
        assert any(line.startswith("repro_hlu_apply_seconds_sum ") for line in samples)
        assert any(
            line.startswith("repro_hlu_apply_seconds_count ") for line in samples
        )

    def test_metric_names_are_sanitised(self, registry):
        registry.inc("blu.c.assert", 1)
        text = self._render(registry)
        assert "repro_blu_c_assert_total 1" in text

    def test_empty_registry_renders_empty(self, registry):
        assert self._render(registry) == ""

    def test_module_level_render_uses_process_registry(self):
        runtime.enable()
        obs.inc("events", 2)
        assert "repro_events_total 2" in runtime.render_prometheus()


class TestFeed:
    def _feed(self, clock, worker="w1", counters=None):
        registry = Registry(clock=clock)
        for name, value in (counters or {HITS: 2}).items():
            registry.inc(name, value)
        registry.record_op("hlu.apply", 0.003)
        buffer = io.StringIO()
        writer = runtime.TelemetryWriter(buffer, source=registry, worker=worker)
        writer.write_snapshot()
        clock.advance(1.0)
        writer.write_snapshot()
        return buffer.getvalue()

    def test_writer_emits_meta_then_snapshots(self, clock):
        meta, snapshots = runtime.read_feed(self._feed(clock))
        assert meta["type"] == "meta"
        assert meta["schema"] == runtime.FEED_SCHEMA_VERSION
        assert meta["worker"] == "w1"
        assert [snap["seq"] for snap in snapshots] == [1, 2]
        assert all(snap["worker"] == "w1" for snap in snapshots)

    def test_feed_validates(self, clock):
        assert runtime.validate_feed(self._feed(clock)) == []

    def test_empty_text_is_valid(self):
        assert runtime.validate_feed("") == []

    def test_close_on_untouched_writer_still_writes_meta(self, tmp_path):
        path = tmp_path / "feed.jsonl"
        writer = runtime.TelemetryWriter(str(path))
        writer.close()
        meta, snapshots = runtime.read_feed(path.read_text())
        assert meta is not None
        assert snapshots == []

    def test_validate_rejects_bad_json(self):
        errors = runtime.validate_feed("{nope")
        assert errors and "not valid JSON" in errors[0]

    def test_validate_rejects_snapshot_before_meta(self, clock):
        text = self._feed(clock)
        lines = text.splitlines()
        errors = runtime.validate_feed("\n".join(lines[1:]))
        assert any("before any meta" in error for error in errors)

    def test_validate_rejects_unsupported_schema(self, clock):
        text = self._feed(clock)
        lines = text.splitlines()
        meta = json.loads(lines[0])
        meta["schema"] = 99
        lines[0] = json.dumps(meta)
        errors = runtime.validate_feed("\n".join(lines))
        assert any("unsupported feed schema" in error for error in errors)

    def test_validate_rejects_bucket_sum_mismatch(self, clock):
        text = self._feed(clock)
        lines = text.splitlines()
        snap = json.loads(lines[1])
        name, hist = next(iter(snap["histograms"].items()))
        hist["count"] += 5
        lines[1] = json.dumps(snap)
        errors = runtime.validate_feed("\n".join(lines))
        assert any("buckets sum" in error for error in errors)

    def test_validate_rejects_missing_window(self, clock):
        text = self._feed(clock)
        lines = text.splitlines()
        snap = json.loads(lines[1])
        for hist in snap["histograms"].values():
            hist.pop("window")
        lines[1] = json.dumps(snap)
        errors = runtime.validate_feed("\n".join(lines))
        assert any("missing window" in error for error in errors)

    def test_merge_feeds_round_trips(self, clock):
        feed_a = self._feed(clock, worker="E6", counters={HITS: 2})
        feed_b = self._feed(clock, worker="E7", counters={HITS: 5})
        merged = runtime.merge_feeds([feed_a, feed_b])
        assert runtime.validate_feed(merged) == []
        meta, snapshots = runtime.read_feed(merged)
        assert meta["workers"] == ["E6", "E7"]
        combined = snapshots[-1]
        assert combined["worker"] == "merged"
        assert combined["counters"][HITS] == 7
        assert combined["meters"]["hlu.apply"]["count"] == 2

    def test_merge_feeds_of_nothing_is_still_a_valid_feed(self):
        merged = runtime.merge_feeds([])
        assert runtime.validate_feed(merged) == []


class TestPumpAndSampler:
    def test_sample_once_sets_process_gauges(self, registry):
        sampler = runtime.ResourceSampler(registry)
        sampler.sample_once()
        gauges = registry.live_record()["gauges"]
        assert gauges.get("proc.rss_bytes", 0) > 0
        assert "gc.gen0_objects" in gauges
        assert "gc.collections" in gauges

    def test_pump_once_samples_then_snapshots(self, registry):
        buffer = io.StringIO()
        writer = runtime.TelemetryWriter(buffer, source=registry, worker="w")
        pump = runtime.TelemetryPump(
            writer, interval=3600.0, sampler=runtime.ResourceSampler(registry)
        )
        pump.pump_once()
        meta, snapshots = runtime.read_feed(buffer.getvalue())
        assert meta is not None
        assert len(snapshots) == 1
        assert snapshots[0]["gauges"].get("proc.rss_bytes", 0) > 0

    def test_pump_thread_stop_flushes_final_snapshot(self, registry):
        buffer = io.StringIO()
        writer = runtime.TelemetryWriter(buffer, source=registry, worker="w")
        pump = runtime.TelemetryPump(writer, interval=3600.0)
        pump.start()
        registry.inc("late")
        pump.stop(final_snapshot=True)
        assert not pump.is_alive()
        _, snapshots = runtime.read_feed(buffer.getvalue())
        assert snapshots
        assert snapshots[-1]["counters"] == {"late": 1}
        assert runtime.validate_feed(buffer.getvalue()) == []
