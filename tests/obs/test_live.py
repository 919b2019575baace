"""Tests for repro.obs.live: dashboard rendering, display modes, tailing."""

import io

import pytest

from repro.obs import live
from repro.obs.core import Registry

#: Per-kernel cache counters, the names the memo-cache records.
HITS = "cache.logic.rclosure.hits"
MISSES = "cache.logic.rclosure.misses"


def _snapshot(counters=None, ops=None, gauges=None):
    """A live record via a real registry, so shapes never drift."""
    registry = Registry(clock=lambda: 1.0)
    for name, value in (counters or {}).items():
        registry.inc(name, value)
    for name, seconds_list in (ops or {}).items():
        for seconds in seconds_list:
            registry.record_op(name, seconds)
    for name, value in (gauges or {}).items():
        registry.set_gauge(name, value)
    return registry.live_record(now=2.0)


class TestDigests:
    def test_ops_per_second_sums_meters(self):
        snap = _snapshot(ops={"a": [0.001] * 4, "b": [0.001] * 2})
        total = snap["meters"]["a"]["rate"] + snap["meters"]["b"]["rate"]
        assert live.ops_per_second(snap) == pytest.approx(total)
        assert live.ops_per_second(None) == 0.0

    def test_latency_quantiles_merge_only_seconds_histograms(self):
        snap = _snapshot(ops={"a": [0.004] * 10})
        registry_other = Registry(clock=lambda: 1.0)
        registry_other.observe("clauses.retained", 500.0)  # not *.seconds
        merged = dict(snap)
        merged["histograms"] = {
            **snap["histograms"],
            **registry_other.live_record(now=2.0)["histograms"],
        }
        p50, p99 = live.latency_quantiles(merged)
        assert p50 is not None and p50 < 1.0  # seconds-scale, not clause-scale
        assert p99 is not None and p99 < 1.0

    def test_latency_quantiles_none_when_no_data(self):
        assert live.latency_quantiles(None) == (None, None)
        assert live.latency_quantiles(_snapshot()) == (None, None)

    def test_cache_hit_rate(self):
        snap = _snapshot(
            counters={HITS: 2, "cache.logic.reduce.hits": 1, MISSES: 1}
        )
        assert live.cache_hit_rate(snap) == 0.75
        assert live.cache_hit_rate(_snapshot()) is None
        assert live.cache_hit_rate(None) is None


class TestRenderDashboard:
    def _model(self):
        model = live.DashboardModel(title="test run")
        view = model.worker("E6")
        view.status = "done"
        view.snapshot = _snapshot(
            counters={HITS: 1, MISSES: 1},
            ops={"hlu.apply": [0.002] * 5},
        )
        model.worker("E7").status = "running"
        return model

    def test_renders_worker_rows_and_total(self):
        text = live.render_dashboard(self._model())
        lines = text.splitlines()
        assert "test run" in lines[0]
        assert any(line.startswith("E6") and "ok" in line for line in lines)
        assert any(line.startswith("E7") and ">" in line for line in lines)
        total = next(line for line in lines if line.startswith("TOTAL"))
        assert "1/2" in total
        assert "50%" in total

    def test_rss_line_when_gauge_present(self):
        model = live.DashboardModel()
        model.worker("w").snapshot = _snapshot(
            gauges={"proc.rss_bytes": 32 * 1024 * 1024.0}
        )
        assert "rss 32.0MB" in live.render_dashboard(model)

    def test_merged_snapshot_sums_workers(self):
        model = live.DashboardModel()
        model.worker("a").snapshot = _snapshot(counters={HITS: 2})
        model.worker("b").snapshot = _snapshot(counters={HITS: 3})
        merged = model.merged_snapshot()
        assert merged["counters"][HITS] == 5


class TestRenderWatch:
    def test_empty_snapshot_says_so(self):
        assert live.render_watch(None) == "(no telemetry recorded yet)"
        assert live.render_watch(_snapshot()) == "(no telemetry recorded yet)"

    def test_ops_table_pairs_meter_with_seconds(self):
        text = live.render_watch(_snapshot(ops={"hlu.apply": [0.002, 0.004]}))
        assert "hlu.apply" in text
        row = next(line for line in text.splitlines() if "hlu.apply" in line)
        assert " 2 " in row  # count column
        assert "ms" in row

    def test_counters_and_cache_rate_shown(self):
        text = live.render_watch(
            _snapshot(counters={HITS: 9, MISSES: 1})
        )
        assert f"{HITS}=9" in text
        assert "cache hit rate: 90%" in text


class TestLiveDisplay:
    def test_headless_emits_plain_lines(self):
        stream = io.StringIO()
        display = live.LiveDisplay(stream, headless=True)
        model = live.DashboardModel()
        model.worker("w").snapshot = _snapshot(ops={"op": [0.001]})
        display.update(model)
        display.update(model)
        output = stream.getvalue()
        assert "\x1b[" not in output
        assert output.count("[live]") == 2

    def test_ansi_mode_repaints_in_place(self):
        stream = io.StringIO()
        display = live.LiveDisplay(stream, headless=False)
        model = live.DashboardModel()
        model.worker("w")
        display.update(model)
        first = stream.getvalue()
        assert "\x1b[2K" in first  # erase-line per row
        assert "\x1b[" + str(first.count("\n")) + "F" not in first  # no cursor-up yet
        display.update(model)
        assert "F" in stream.getvalue()[len(first) :]  # second frame moves up

    def test_headless_close_renders_full_dashboard(self):
        stream = io.StringIO()
        display = live.LiveDisplay(stream, headless=True)
        model = live.DashboardModel()
        model.worker("w").status = "done"
        display.close(model)
        assert "TOTAL" in stream.getvalue()

    def test_is_headless_honours_env(self, monkeypatch):
        stream = io.StringIO()  # not a TTY
        assert live.is_headless(stream)
        monkeypatch.setenv("REPRO_LIVE_HEADLESS", "1")
        assert live.is_headless(None)
        monkeypatch.delenv("REPRO_LIVE_HEADLESS")
        monkeypatch.setenv("TERM", "dumb")
        assert live.is_headless(stream)


class TestFeedTailer:
    def test_missing_file_is_not_started_yet(self, tmp_path):
        tailer = live.FeedTailer(str(tmp_path / "absent.jsonl"))
        assert tailer.poll() == []
        assert tailer.latest_snapshot() is None

    def test_incremental_polling(self, tmp_path):
        path = tmp_path / "feed.jsonl"
        tailer = live.FeedTailer(str(path))
        path.write_text('{"type": "meta", "schema": 1}\n')
        assert [r["type"] for r in tailer.poll()] == ["meta"]
        with path.open("a") as handle:
            handle.write('{"type": "snapshot", "seq": 1, "worker": "E6"}\n')
        latest = tailer.latest_snapshot()
        assert latest["seq"] == 1
        assert tailer.poll() == []  # nothing new

    def test_partial_last_line_is_deferred(self, tmp_path):
        path = tmp_path / "feed.jsonl"
        path.write_text('{"type": "meta", "schema": 1}\n{"type": "snap')
        tailer = live.FeedTailer(str(path))
        assert [r["type"] for r in tailer.poll()] == ["meta"]
        with path.open("a") as handle:
            handle.write('shot", "seq": 2}\n')
        assert tailer.poll()[0]["seq"] == 2

    def test_tail_snapshots_updates_model_by_worker_label(self, tmp_path):
        path = tmp_path / "feed.jsonl"
        path.write_text(
            '{"type": "meta", "schema": 1}\n'
            '{"type": "snapshot", "seq": 1, "worker": "E6", "counters": {}}\n'
        )
        model = live.DashboardModel()
        model.worker("E6")
        live.tail_snapshots([live.FeedTailer(str(path))], model)
        view = model.workers["E6"]
        assert view.status == "running"
        assert view.snapshot["seq"] == 1
