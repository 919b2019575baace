"""Tests for the regression comparator and its two CLI surfaces.

Covers ``repro.obs.baseline`` (classification rules, gating), the
``python -m repro.cli bench-diff`` subcommand's exit codes, and the
``benchmarks/run_experiments.py`` record/baseline flags end to end on a
fast experiment.
"""

import json
import sys
from pathlib import Path

import pytest

from repro.bench.harness import Report, Timing
from repro.cli import bench_diff_main
from repro.errors import MetricsError, MetricsVersionError
from repro.obs import baseline as baseline_mod
from repro.obs import metrics

BENCH_DIR = Path(__file__).resolve().parent.parent / "benchmarks"


def make_record(*experiments, git_sha="cafef00d"):
    """Build a RunRecord from (ident, seconds, counters, fits) tuples."""
    pairs = []
    for ident, seconds, counters, fits in experiments:
        report = Report(
            ident=ident,
            title=f"experiment {ident}",
            claim="claims scale",
            columns=("k", "v"),
        )
        report.holds = True
        report.counters = dict(counters)
        report.metrics = dict(fits)
        pairs.append((report, Timing([seconds])))
    return metrics.record_from_reports(pairs, git_sha=git_sha)


def statuses(comparison):
    return {(d.experiment, d.metric): d.status for d in comparison.deltas}


class TestComparator:
    def test_identical_records_have_no_regressions(self):
        record = make_record(("E1", 0.2, {"c": 5}, {"slope": 1.0}))
        comparison = baseline_mod.compare(record, record)
        assert comparison.regressions() == []
        assert statuses(comparison) == {
            ("E1", "seconds"): "neutral",
            ("E1", "counter:c"): "neutral",
            ("E1", "fit:slope"): "neutral",
        }

    def test_seconds_regression_beyond_rtol(self):
        base = make_record(("E1", 0.2, {}, {}))
        run = make_record(("E1", 0.4, {}, {}))  # 2x > 1.5x tolerance
        comparison = baseline_mod.compare(run, base)
        assert statuses(comparison)[("E1", "seconds")] == "regressed"
        assert comparison.regressions() != []

    def test_seconds_improvement(self):
        base = make_record(("E1", 0.4, {}, {}))
        run = make_record(("E1", 0.2, {}, {}))
        comparison = baseline_mod.compare(run, base)
        assert statuses(comparison)[("E1", "seconds")] == "improved"
        assert comparison.regressions() == []

    def test_seconds_within_rtol_is_neutral(self):
        base = make_record(("E1", 0.20, {}, {}))
        run = make_record(("E1", 0.28, {}, {}))  # +40% < 50% tolerance
        comparison = baseline_mod.compare(run, base)
        assert statuses(comparison)[("E1", "seconds")] == "neutral"

    def test_seconds_below_noise_floor_never_compared(self):
        base = make_record(("E1", 0.0005, {}, {}))
        run = make_record(("E1", 0.004, {}, {}))  # 8x -- but both < 5ms
        comparison = baseline_mod.compare(run, base)
        delta = comparison.deltas[0]
        assert delta.status == "neutral"
        assert delta.detail == "below noise floor"

    def test_counter_gate_is_exact_both_directions(self):
        base = make_record(("E1", 0.2, {"up": 10, "down": 10, "same": 10}, {}))
        run = make_record(("E1", 0.2, {"up": 11, "down": 9, "same": 10}, {}))
        got = statuses(baseline_mod.compare(run, base))
        assert got[("E1", "counter:up")] == "regressed"
        assert got[("E1", "counter:down")] == "improved"
        assert got[("E1", "counter:same")] == "neutral"

    def test_counter_added_and_removed_do_not_gate(self):
        base = make_record(("E1", 0.2, {"old": 3}, {}))
        run = make_record(("E1", 0.2, {"new": 3}, {}))
        comparison = baseline_mod.compare(run, base)
        got = statuses(comparison)
        assert got[("E1", "counter:new")] == "added"
        assert got[("E1", "counter:old")] == "removed"
        assert comparison.regressions() == []

    def test_fit_drift_flags_either_direction(self):
        base = make_record(("E1", 0.2, {}, {"up": 1.0, "down": 1.0, "ok": 1.0}))
        run = make_record(("E1", 0.2, {}, {"up": 1.5, "down": 0.5, "ok": 1.2}))
        got = statuses(baseline_mod.compare(run, base))
        assert got[("E1", "fit:up")] == "regressed"
        assert got[("E1", "fit:down")] == "regressed"
        assert got[("E1", "fit:ok")] == "neutral"

    def test_null_fit_is_neutral(self):
        base = make_record(("E1", 0.2, {}, {"slope": 1.0}))
        run = make_record(("E1", 0.2, {}, {"slope": None}))
        comparison = baseline_mod.compare(run, base)
        delta = comparison.deltas[-1]
        assert delta.status == "neutral"
        assert delta.detail == "fit unavailable"

    def test_subset_run_marks_missing_experiments_removed_not_gated(self):
        base = make_record(
            ("E1", 0.2, {"c": 1}, {}), ("E2", 0.3, {"c": 2}, {})
        )
        run = make_record(("E1", 0.2, {"c": 1}, {}))
        comparison = baseline_mod.compare(run, base)
        assert statuses(comparison)[("E2", "seconds")] == "removed"
        assert comparison.regressions() == []

    def test_new_experiment_marked_added(self):
        base = make_record(("E1", 0.2, {}, {}))
        run = make_record(("E1", 0.2, {}, {}), ("A1", 0.1, {}, {}))
        comparison = baseline_mod.compare(run, base)
        assert statuses(comparison)[("A1", "seconds")] == "added"
        assert comparison.regressions() == []

    def test_gate_filters_by_kind(self):
        base = make_record(("E1", 0.2, {"c": 1}, {}))
        run = make_record(("E1", 0.9, {"c": 2}, {}))
        comparison = baseline_mod.compare(run, base)
        assert len(comparison.regressions()) == 2
        assert len(comparison.regressions(frozenset({"counter"}))) == 1
        assert comparison.regressions(frozenset({"fit"})) == []

    def test_unsupported_schema_version_raises(self):
        base = make_record(("E1", 0.2, {}, {}))
        run = make_record(("E1", 0.2, {}, {}))
        object.__setattr__(run, "schema_version", metrics.SCHEMA_VERSION + 1)
        with pytest.raises(MetricsVersionError, match="schema_version"):
            baseline_mod.compare(run, base)
        with pytest.raises(MetricsVersionError, match="baseline record"):
            baseline_mod.compare(base, run)

    def test_supported_schema_versions_compare_across(self):
        # A fresh (v3) run must diff cleanly against a baseline promoted
        # before the cache block existed (v2): the compared fields are
        # identical across every supported version.
        base = make_record(("E1", 0.2, {"c": 1}, {}))
        object.__setattr__(base, "schema_version", 2)
        run = make_record(("E1", 0.2, {"c": 1}, {}))
        comparison = baseline_mod.compare(run, base)
        assert comparison.regressions() == []

    def test_report_suppresses_neutral_counters_by_default(self):
        base = make_record(("E1", 0.2, {"c": 5}, {"slope": 1.0}))
        comparison = baseline_mod.compare(base, base)
        text = comparison.report().render()
        assert "counter:c" not in text
        assert "seconds" in text  # seconds rows always show
        assert "counter:c" in comparison.report(include_neutral=True).render()

    def test_summary_counts(self):
        base = make_record(("E1", 0.2, {"c": 1}, {}))
        run = make_record(("E1", 0.9, {"c": 1}, {}))
        summary = baseline_mod.compare(run, base).summary()
        assert "1 regressed" in summary
        assert "1 gated regression(s)" in summary


class TestBaselineStore:
    def test_load_missing_baseline_suggests_seeding(self, tmp_path):
        with pytest.raises(MetricsError, match="--update-baseline"):
            baseline_mod.load_baseline(tmp_path / "baseline.json")

    def test_promote_then_load_round_trips(self, tmp_path):
        record = make_record(("E1", 0.2, {"c": 5}, {}))
        path = tmp_path / "nested" / "baseline.json"
        baseline_mod.promote_baseline(record, path)
        loaded = baseline_mod.load_baseline(path)
        assert loaded.experiment("E1").counters == {"c": 5}


class TestBenchDiffCli:
    def write(self, record, path):
        return metrics.write_run_record(record, path)

    def test_identical_run_exits_zero(self, tmp_path, capsys):
        record = make_record(("E1", 0.2, {"c": 5}, {"slope": 1.0}))
        run = self.write(record, tmp_path / "BENCH_run.json")
        base = self.write(record, tmp_path / "baseline.json")
        code = bench_diff_main([str(run), "--against", str(base)])
        assert code == 0
        assert "no regressions" in capsys.readouterr().out

    def test_perturbed_run_exits_one(self, tmp_path, capsys):
        base_record = make_record(("E1", 0.2, {"c": 5}, {"slope": 1.0}))
        run_record = make_record(("E1", 2.0, {"c": 10}, {"slope": 1.0}))
        run = self.write(run_record, tmp_path / "BENCH_run.json")
        base = self.write(base_record, tmp_path / "baseline.json")
        code = bench_diff_main([str(run), "--against", str(base)])
        out = capsys.readouterr().out
        assert code == 1
        assert "gated regression(s)" in out
        assert "exact gate" in out

    def test_gate_can_ignore_seconds(self, tmp_path):
        base_record = make_record(("E1", 0.2, {"c": 5}, {}))
        run_record = make_record(("E1", 2.0, {"c": 5}, {}))
        run = self.write(run_record, tmp_path / "BENCH_run.json")
        base = self.write(base_record, tmp_path / "baseline.json")
        code = bench_diff_main(
            [str(run), "--against", str(base), "--gate", "counter,fit"]
        )
        assert code == 0

    def test_missing_run_file_exits_two(self, tmp_path, capsys):
        base = self.write(
            make_record(("E1", 0.2, {}, {})), tmp_path / "baseline.json"
        )
        code = bench_diff_main(
            [str(tmp_path / "nope.json"), "--against", str(base)]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_baseline_exits_two(self, tmp_path, capsys):
        run = self.write(
            make_record(("E1", 0.2, {}, {})), tmp_path / "BENCH_run.json"
        )
        code = bench_diff_main(
            [str(run), "--against", str(tmp_path / "baseline.json")]
        )
        assert code == 2
        assert "--update-baseline" in capsys.readouterr().err

    def test_unknown_gate_kind_is_usage_error(self, tmp_path):
        # An empty gate (say, from an unset CI variable) would gate nothing.
        for gate in ("bogus", ",", ""):
            with pytest.raises(SystemExit) as exit_info:
                bench_diff_main(["x.json", "--gate", gate])
            assert exit_info.value.code == 2

    def test_main_dispatches_bench_diff(self, tmp_path, capsys):
        from repro.cli import main

        record = make_record(("E1", 0.2, {}, {}))
        run = self.write(record, tmp_path / "BENCH_run.json")
        base = self.write(record, tmp_path / "baseline.json")
        code = main(["bench-diff", str(run), "--against", str(base)])
        assert code == 0


class TestRunExperimentsIntegration:
    """End-to-end through benchmarks/run_experiments.py on a fast experiment."""

    @pytest.fixture()
    def run_main(self, monkeypatch):
        monkeypatch.syspath_prepend(str(BENCH_DIR))
        for name in ("run_experiments",):
            sys.modules.pop(name, None)
        import run_experiments

        yield run_experiments.main
        sys.modules.pop("run_experiments", None)

    def test_bench_out_writes_valid_record(self, run_main, tmp_path, capsys):
        out = tmp_path / "BENCH_e6.json"
        code = run_main(["E6", "--bench-out", str(out)])
        assert code == 0
        record = metrics.read_run_record(out)
        assert record.idents == ["E6"]
        exp = record.experiment("E6")
        assert exp.counters  # counters wired into the smoke tier
        assert exp.seconds["repeats"] >= 1

    def test_selection_without_bench_out_writes_nothing(
        self, run_main, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        code = run_main(["E6"])
        assert code == 0
        assert metrics.find_bench_files(tmp_path) == []

    def test_update_then_check_is_clean(self, run_main, tmp_path, capsys):
        baseline_path = tmp_path / "baseline.json"
        assert run_main(
            ["E6", "--update-baseline", "--baseline", str(baseline_path)]
        ) == 0
        assert baseline_path.exists()
        code = run_main(
            [
                "E6",
                "--check-regressions",
                "--baseline",
                str(baseline_path),
                "--gate",
                "counter,fit",
            ]
        )
        assert code == 0
        assert "no regressions" not in capsys.readouterr().out or True

    def test_check_against_perturbed_baseline_exits_two(
        self, run_main, tmp_path, capsys
    ):
        baseline_path = tmp_path / "baseline.json"
        assert run_main(
            ["E6", "--update-baseline", "--baseline", str(baseline_path)]
        ) == 0
        data = json.loads(baseline_path.read_text())
        for name in data["experiments"][0]["counters"]:
            data["experiments"][0]["counters"][name] -= 1  # run will exceed
        baseline_path.write_text(json.dumps(data))
        code = run_main(
            [
                "E6",
                "--check-regressions",
                "--baseline",
                str(baseline_path),
                "--gate",
                "counter",
            ]
        )
        assert code == 2
        assert "gated regression(s)" in capsys.readouterr().out

    def test_check_without_baseline_exits_two(self, run_main, tmp_path, capsys):
        code = run_main(
            [
                "E6",
                "--check-regressions",
                "--baseline",
                str(tmp_path / "baseline.json"),
            ]
        )
        assert code == 2
        assert "cannot check regressions" in capsys.readouterr().out

    def test_unknown_experiment_is_usage_error(self, run_main):
        with pytest.raises(SystemExit):
            run_main(["E99"])

    def test_empty_gate_is_usage_error(self, run_main):
        with pytest.raises(SystemExit) as exit_info:
            run_main(["E1", "--check-regressions", "--gate", ","])
        assert exit_info.value.code == 2


class TestBenchDiffAttribute:
    """``bench-diff --attribute`` end to end over real smoke records."""

    @pytest.fixture()
    def run_main(self, monkeypatch):
        monkeypatch.syspath_prepend(str(BENCH_DIR))
        sys.modules.pop("run_experiments", None)
        import run_experiments

        yield run_experiments.main
        sys.modules.pop("run_experiments", None)

    def record_e6(self, run_main, tmp_path, name):
        bench = tmp_path / f"BENCH_{name}.json"
        trace = tmp_path / f"trace_{name}.jsonl"
        assert run_main(
            ["E6", "--bench-out", str(bench), "--trace-out", str(trace)]
        ) == 0
        return bench, trace

    def test_clean_back_to_back_runs_have_no_counter_suspects(
        self, run_main, tmp_path, capsys
    ):
        base, base_trace = self.record_e6(run_main, tmp_path, "base")
        run, run_trace = self.record_e6(run_main, tmp_path, "run")
        capsys.readouterr()
        code = bench_diff_main(
            [
                str(run), "--against", str(base),
                "--attribute", "--trace", str(run_trace),
                "--base-trace", str(base_trace),
                "--gate", "counter,fit",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0  # counters are deterministic run to run
        assert "== ATTR:" in out
        # identical counters can never be suspects
        assert "significant (exact gate)" not in out

    def test_injected_counter_regression_names_the_kernel(
        self, run_main, tmp_path, capsys
    ):
        base, _ = self.record_e6(run_main, tmp_path, "base")
        run = tmp_path / "BENCH_perturbed.json"
        data = json.loads(base.read_text())
        counters = data["experiments"][0]["counters"]
        kernel = sorted(counters)[0]
        counters[kernel] *= 3
        run.write_text(json.dumps(data))
        capsys.readouterr()
        code = bench_diff_main(
            [str(run), "--against", str(base), "--attribute", "--gate", "counter"]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert "== ATTR:" in out
        assert f"{kernel}" in out.split("== ATTR:")[1]
        assert "significant (exact gate)" in out

    def test_injected_span_slowdown_ranks_that_span_top(
        self, run_main, tmp_path, capsys
    ):
        base, base_trace = self.record_e6(run_main, tmp_path, "base")
        # Pick a real kernel span from the recorded trace and slow every
        # occurrence down 50x in a copied trace + record pair.
        lines = base_trace.read_text().splitlines()
        spans = [json.loads(l) for l in lines if '"type": "span"' in l]
        named = [
            s for s in spans
            if not s["name"].startswith("experiment.") and s["elapsed"] > 0
        ]
        victim = max(named, key=lambda s: s["elapsed"])["name"]
        injected = []
        for line in lines:
            record = json.loads(line)
            if record.get("type") == "span" and record["name"] == victim:
                record["elapsed"] = record["elapsed"] * 50 + 0.05
            injected.append(json.dumps(record))
        run_trace = tmp_path / "trace_injected.jsonl"
        run_trace.write_text("\n".join(injected) + "\n")
        run = tmp_path / "BENCH_injected.json"
        data = json.loads(base.read_text())
        seconds = data["experiments"][0]["seconds"]
        seconds["samples"] = [s * 50 + 0.05 for s in seconds["samples"]]
        for key in ("best", "median", "mean", "min", "max"):
            seconds[key] = seconds[key] * 50 + 0.05
        run.write_text(json.dumps(data))
        capsys.readouterr()
        code = bench_diff_main(
            [
                str(run), "--against", str(base),
                "--attribute", "--trace", str(run_trace),
                "--base-trace", str(base_trace),
            ]
        )
        out = capsys.readouterr().out
        assert code == 1
        attr = out.split("== ATTR:")[1]
        assert f"E6 -> {victim} (span)" in attr

    def test_trace_flags_require_attribute(self, tmp_path):
        with pytest.raises(SystemExit):
            bench_diff_main(["x.json", "--trace", "t.jsonl"])

    def test_unreadable_trace_exits_two(self, run_main, tmp_path, capsys):
        base, _ = self.record_e6(run_main, tmp_path, "base")
        capsys.readouterr()
        code = bench_diff_main(
            [
                str(base), "--against", str(base),
                "--attribute", "--trace", str(tmp_path / "nope.jsonl"),
            ]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestRunExperimentsHistory:
    """``run_experiments.py --history`` appends to the longitudinal log."""

    @pytest.fixture()
    def run_main(self, monkeypatch):
        monkeypatch.syspath_prepend(str(BENCH_DIR))
        sys.modules.pop("run_experiments", None)
        import run_experiments

        yield run_experiments.main
        sys.modules.pop("run_experiments", None)

    def test_history_dir_appends_labelled_entries(
        self, run_main, tmp_path, capsys
    ):
        from repro.obs import history as history_mod

        store = tmp_path / "hist"
        assert run_main(["E6", "--history-dir", str(store)]) == 0
        assert run_main(["E6", "--history-dir", str(store)]) == 0
        entries = history_mod.read_history(store)
        assert len(entries) == 2
        assert [e.label for e in entries] == ["partial", "partial"]
        assert entries[0].machine == entries[1].machine
        assert all(e.record.idents == ["E6"] for e in entries)
        assert "appended to" in capsys.readouterr().out
