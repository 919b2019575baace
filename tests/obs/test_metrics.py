"""Tests for the run-record model (repro.obs.metrics)."""

import json
import math

import pytest

from repro.bench.harness import Report, Timing
from repro.errors import MetricsError, MetricsVersionError
from repro.obs import baseline, metrics


def make_report(ident="E1", **overrides) -> Report:
    report = Report(
        ident=ident,
        title=f"experiment {ident}",
        claim="claims scale",
        columns=("size", "value"),
    )
    report.holds = overrides.get("holds", True)
    report.counters = overrides.get("counters", {"blu.c.assert.calls": 3})
    report.metrics = overrides.get("metrics", {"loglog_slope": 1.02})
    report.memory = overrides.get("memory")
    return report


def make_record(**report_overrides) -> metrics.RunRecord:
    return metrics.record_from_reports(
        [(make_report(**report_overrides), Timing([0.25, 0.2, 0.3]))],
        git_sha="deadbeef",
    )


class TestTimingJson:
    def test_schema_keys_pinned(self):
        # The exact key set of the timing object inside BENCH_*.json.
        data = Timing([0.2, 0.1, 0.4]).to_json()
        assert set(data) == {
            "best", "median", "mean", "min", "max", "stddev",
            "repeats", "samples",
        }

    def test_round_trip_preserves_samples_and_stats(self):
        original = Timing([0.2, 0.1, 0.4])
        restored = Timing.from_json(
            json.loads(json.dumps(original.to_json()))
        )
        assert restored.samples == original.samples
        assert restored == original  # float value: the best repeat
        assert restored.median == original.median
        assert restored.stddev == original.stddev

    def test_from_json_requires_samples(self):
        with pytest.raises(ValueError, match="samples"):
            Timing.from_json({"best": 0.2})

    def test_stats(self):
        timing = Timing([0.3, 0.1, 0.2])
        assert timing == pytest.approx(0.1)  # behaves as its best
        assert timing.best == pytest.approx(0.1)
        assert timing.minimum == pytest.approx(0.1)
        assert timing.maximum == pytest.approx(0.3)
        assert timing.median == pytest.approx(0.2)
        assert timing.mean == pytest.approx(0.2)
        assert timing.stddev == pytest.approx(math.sqrt(2 / 300))

    def test_even_sample_count_median(self):
        assert Timing([1.0, 2.0, 3.0, 10.0]).median == pytest.approx(2.5)

    def test_single_sample(self):
        timing = Timing([0.5])
        assert timing.stddev == 0.0
        assert timing.median == 0.5

    def test_empty_samples_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            Timing([])


class TestRecordBuilding:
    def test_record_from_reports(self):
        record = make_record()
        assert record.schema_version == metrics.SCHEMA_VERSION
        assert record.git_sha == "deadbeef"
        assert record.idents == ["E1"]
        exp = record.experiment("E1")
        assert exp.counters == {"blu.c.assert.calls": 3}
        assert exp.fits == {"loglog_slope": 1.02}
        assert exp.median_seconds == pytest.approx(0.25)
        assert exp.best_seconds == pytest.approx(0.2)

    def test_fingerprint_has_environment_identity(self):
        fingerprint = metrics.machine_fingerprint()
        assert fingerprint["python"]
        assert fingerprint["platform"]
        assert "cpu_count" in fingerprint

    def test_git_sha_detected_in_repo(self):
        # The test suite runs inside the repo checkout.
        sha = metrics.current_git_sha()
        assert sha is None or (len(sha) == 40 and set(sha) <= set("0123456789abcdef"))

    def test_plain_float_seconds_become_single_sample(self):
        record = metrics.record_from_reports(
            [(make_report(), 0.5)], git_sha=None
        )
        seconds = record.experiment("E1").seconds
        assert seconds["samples"] == [0.5]
        assert seconds["repeats"] == 1


class TestJsonRoundTrip:
    def test_round_trip(self):
        record = make_record()
        data = json.loads(json.dumps(metrics.run_record_to_json(record)))
        restored = metrics.run_record_from_json(data)
        assert restored.schema_version == record.schema_version
        assert restored.git_sha == record.git_sha
        assert restored.experiment("E1").counters == {"blu.c.assert.calls": 3}
        assert restored.experiment("E1").fits == {"loglog_slope": 1.02}
        assert restored.experiment("E1").median_seconds == pytest.approx(0.25)

    def test_empty_record_round_trips(self):
        record = metrics.record_from_reports([], git_sha=None)
        restored = metrics.run_record_from_json(
            json.loads(json.dumps(metrics.run_record_to_json(record)))
        )
        assert restored.experiments == []

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_fits_serialize_as_null_with_warning(self, bad):
        record = make_record(metrics={"exp_base": bad})
        with pytest.warns(UserWarning, match="non-finite"):
            data = metrics.run_record_to_json(record)
        assert data["experiments"][0]["fits"]["exp_base"] is None
        restored = metrics.run_record_from_json(data)
        assert restored.experiment("E1").fits["exp_base"] is None

    def test_schema_version_mismatch_rejected_with_clear_error(self):
        data = metrics.run_record_to_json(make_record())
        data["schema_version"] = metrics.SCHEMA_VERSION + 1
        with pytest.raises(MetricsError, match="schema_version"):
            metrics.run_record_from_json(data)

    def test_future_schema_raises_dedicated_version_error(self):
        data = metrics.run_record_to_json(make_record())
        data["schema_version"] = 99
        with pytest.raises(MetricsVersionError, match="schema_version 99"):
            metrics.run_record_from_json(data)

    def test_memory_round_trips(self):
        record = make_record(memory={"current_bytes": 1024, "peak_bytes": 4096})
        data = json.loads(json.dumps(metrics.run_record_to_json(record)))
        assert data["experiments"][0]["memory"] == {
            "current_bytes": 1024,
            "peak_bytes": 4096,
        }
        restored = metrics.run_record_from_json(data)
        assert restored.experiment("E1").memory == {
            "current_bytes": 1024,
            "peak_bytes": 4096,
        }

    def test_memory_defaults_to_null(self):
        data = metrics.run_record_to_json(make_record())
        assert data["experiments"][0]["memory"] is None
        restored = metrics.run_record_from_json(data)
        assert restored.experiment("E1").memory is None

    def test_schema_v1_record_loads_with_no_memory(self):
        data = metrics.run_record_to_json(make_record())
        data["schema_version"] = 1
        for experiment in data["experiments"]:
            del experiment["memory"]  # the key did not exist in v1
        restored = metrics.run_record_from_json(data)
        assert restored.schema_version == 1
        assert restored.experiment("E1").memory is None

    def test_schema_v4_record_with_throughput_block_loads_and_compares(self):
        # Version 4 records once carried a service load-run block; it is
        # no longer written, and a record that has one still loads and
        # compares on its experiments.
        data = metrics.run_record_to_json(make_record())
        assert "throughput" not in data
        data["throughput"] = {"scenario": "mixed", "ops_per_second": 2734.1, "operations": {}}
        restored = metrics.run_record_from_json(data)
        assert restored.schema_version == 4
        comparison = baseline.compare(restored, make_record())
        assert comparison.regressions() == []
        assert {delta.experiment for delta in comparison.deltas} == {"E1"}

    def test_memory_with_wrong_keys_rejected(self):
        data = metrics.run_record_to_json(
            make_record(memory={"current_bytes": 1, "peak_bytes": 2})
        )
        data["experiments"][0]["memory"] = {"peak_bytes": 2}
        with pytest.raises(MetricsError, match="memory"):
            metrics.run_record_from_json(data)

    def test_memory_with_non_int_bytes_rejected(self):
        data = metrics.run_record_to_json(
            make_record(memory={"current_bytes": 1, "peak_bytes": 2})
        )
        data["experiments"][0]["memory"]["peak_bytes"] = "big"
        with pytest.raises(MetricsError, match="int byte count"):
            metrics.run_record_from_json(data)

    def test_missing_key_reported(self):
        data = metrics.run_record_to_json(make_record())
        del data["experiments"][0]["counters"]
        with pytest.raises(MetricsError, match="counters"):
            metrics.run_record_from_json(data)

    def test_bad_counter_type_reported(self):
        data = metrics.run_record_to_json(make_record())
        data["experiments"][0]["counters"]["x"] = "three"
        with pytest.raises(MetricsError, match="str -> int"):
            metrics.run_record_from_json(data)

    def test_duplicate_ident_rejected(self):
        data = metrics.run_record_to_json(make_record())
        data["experiments"].append(dict(data["experiments"][0]))
        with pytest.raises(MetricsError, match="duplicate"):
            metrics.run_record_from_json(data)

    def test_non_object_rejected(self):
        with pytest.raises(MetricsError, match="object"):
            metrics.run_record_from_json([1, 2, 3])


class TestFiles:
    def test_write_and_read_round_trip(self, tmp_path):
        record = make_record()
        path = metrics.write_run_record(record, tmp_path / "BENCH_x.json")
        restored = metrics.read_run_record(path)
        assert restored.experiment("E1").counters == {"blu.c.assert.calls": 3}

    def test_write_is_atomic_no_tmp_left_behind(self, tmp_path):
        metrics.write_run_record(make_record(), tmp_path / "BENCH_x.json")
        leftovers = [p for p in tmp_path.iterdir() if p.suffix == ".tmp"]
        assert leftovers == []

    def test_read_missing_file_is_metrics_error(self, tmp_path):
        with pytest.raises(MetricsError, match="cannot read"):
            metrics.read_run_record(tmp_path / "nope.json")

    def test_read_invalid_json_is_metrics_error(self, tmp_path):
        bad = tmp_path / "BENCH_bad.json"
        bad.write_text("{not json")
        with pytest.raises(MetricsError, match="not valid JSON"):
            metrics.read_run_record(bad)

    def test_bench_filename_shape(self):
        name = metrics.bench_filename()
        assert name.startswith(metrics.BENCH_PREFIX)
        assert name.endswith(".json")

    def test_latest_bench_file_orders_by_timestamp(self, tmp_path):
        older = tmp_path / "BENCH_20260101_000000.json"
        newer = tmp_path / "BENCH_20260801_120000.json"
        # Write newer first so mtimes cannot be what orders them.
        metrics.write_run_record(make_record(), newer)
        metrics.write_run_record(make_record(), older)
        assert metrics.latest_bench_file(tmp_path) == newer
        assert metrics.find_bench_files(tmp_path) == [older, newer]

    def test_latest_bench_file_empty_directory(self, tmp_path):
        assert metrics.latest_bench_file(tmp_path) is None
        assert metrics.latest_bench_file(tmp_path / "missing") is None


class TestSummary:
    def test_summary_report_renders(self):
        record = make_record()
        text = metrics.summary_report(record, source="x.json").render()
        assert "E1" in text
        assert "holds" in text
        assert "deadbeef" in text

    def test_summary_of_empty_record(self):
        record = metrics.record_from_reports([], git_sha=None)
        text = metrics.summary_report(record).render()
        assert "0 experiment(s)" in text

    def test_summary_marks_divergence_and_null_fits(self):
        report = make_report(holds=False, metrics={"slope": None})
        record = metrics.record_from_reports([(report, 0.1)], git_sha=None)
        text = metrics.summary_report(record).render()
        assert "DIVERGES" in text
        assert "slope=null" in text

    def test_summary_shows_peak_memory_when_tracked(self):
        with_mem = make_record(
            memory={"current_bytes": 0, "peak_bytes": 3 * 1024 * 1024}
        )
        assert "3.0MB" in metrics.summary_report(with_mem).render()
        without = metrics.summary_report(make_record()).render()
        assert "MB" not in without
