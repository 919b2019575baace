"""Tests for the interactive HLU shell (repro.cli)."""

import pytest

from repro.cli import Shell, main
from repro.obs import core as obs_core


@pytest.fixture()
def shell():
    return Shell(5)


@pytest.fixture()
def traced_shell():
    """A shell with instrumentation on; flag and state restored afterwards."""
    obs_core.reset()
    shell = Shell(5)
    shell.execute(":trace on")
    yield shell
    obs_core.disable()
    obs_core.reset()


class TestUpdates:
    def test_apply_program(self, shell):
        assert shell.execute("(insert {A1 | A2})") == "ok"
        assert shell.execute("? A1 | A2") == "certain"

    def test_script_of_programs_on_one_line(self, shell):
        shell.execute("(assert {A1}) (insert {~A1})")
        assert shell.execute("? ~A1") == "certain"

    def test_inconsistency_reported(self, shell):
        shell.execute("(assert {A1})")
        out = shell.execute("(assert {~A1})")
        assert "inconsistent" in out

    def test_blank_and_comment_lines_ignored(self, shell):
        assert shell.execute("") == ""
        assert shell.execute("   ; a comment") == ""


class TestQueries:
    def test_certain_and_possible(self, shell):
        shell.execute("(assert {A1 | A2})")
        assert shell.execute("? A1") == "not certain"
        assert shell.execute("?? A1") == "possible"
        assert shell.execute("?? ~A1 & ~A2") == "impossible"

    def test_query_parse_error_is_friendly(self, shell):
        assert shell.execute("? A1 &").startswith("error:")

    def test_unknown_letter_is_friendly(self, shell):
        assert shell.execute("? A9").startswith("error:")


class TestCommands:
    def test_state(self, shell):
        shell.execute("(assert {A1})")
        assert "A1" in shell.execute(":state")

    def test_worlds_and_literals(self, shell):
        shell.execute("(assert {A1, ~A2})")
        worlds = shell.execute(":worlds 2")
        assert "A1" in worlds
        literals = shell.execute(":literals")
        assert "A1" in literals and "~A2" in literals

    def test_history(self, shell):
        assert shell.execute(":history") == "(no updates yet)"
        shell.execute("(insert {A1})")
        assert "(insert" in shell.execute(":history")

    def test_backend_switch_preserves_semantics(self, shell):
        shell.execute("(insert {A1 | A2})")
        assert shell.execute(":backend") == "clausal"
        assert shell.execute(":backend instance") == "switched to instance"
        assert shell.execute("? A1 | A2") == "certain"

    def test_reset(self, shell):
        shell.execute("(assert {A1})")
        shell.execute(":reset")
        assert shell.execute("? A1") == "not certain"

    def test_help_and_quit(self, shell):
        assert ":state" in shell.execute(":help")
        shell.execute(":quit")
        assert shell.done

    def test_unknown_command(self, shell):
        assert shell.execute(":frobnicate").startswith("error:")

    def test_unknown_command_suggests_nearest(self, shell):
        out = shell.execute(":stat")
        assert out.startswith("error:")
        assert "did you mean :stats?" in out
        assert "did you mean :trace?" in shell.execute(":tracer")

    def test_unrecognised_input(self, shell):
        assert shell.execute("hello").startswith("error:")


class TestObservabilityCommands:
    def test_trace_on_off(self, traced_shell):
        assert obs_core.is_enabled()
        assert traced_shell.execute(":trace off") == "tracing off"
        assert not obs_core.is_enabled()

    def test_trace_show_has_span_tree(self, traced_shell):
        traced_shell.execute("(insert {A1 | A2})")
        tree = traced_shell.execute(":trace show")
        assert "hlu.apply" in tree
        assert "blu.c.mask" in tree

    def test_trace_clear(self, traced_shell):
        traced_shell.execute("(insert {A1})")
        assert traced_shell.execute(":trace clear") == "trace cleared"
        assert traced_shell.execute(":trace show") == "(no spans recorded)"

    def test_trace_bad_mode(self, traced_shell):
        assert traced_shell.execute(":trace sideways").startswith("error:")

    def test_stats_counts_kernel_work(self, traced_shell):
        traced_shell.execute("(insert {A1 | A2})")
        stats = traced_shell.execute(":stats")
        assert "hlu.updates" in stats
        assert "blu.c.mask.calls" in stats

    def test_stats_reset_zeroes_deltas(self, traced_shell):
        traced_shell.execute("(insert {A1})")
        assert traced_shell.execute(":stats reset") == "counters reset"
        assert traced_shell.execute(":stats") == (
            "(no counter activity since the last reset)"
        )
        traced_shell.execute("? A1")
        assert "hlu.queries" in traced_shell.execute(":stats")

    def test_stats_hints_when_tracing_off(self, shell):
        out = shell.execute(":stats")
        assert "try :trace on" in out

    def test_help_mentions_stats_and_trace(self, shell):
        help_text = shell.execute(":help")
        assert ":stats" in help_text
        assert ":trace" in help_text


class TestProfileCommand:
    def test_profile_shows_hotspot_table(self, traced_shell):
        traced_shell.execute("(insert {A1 | A2})")
        out = traced_shell.execute(":profile")
        assert "trace hotspots" in out
        assert "self ms" in out
        assert "hlu.apply" in out

    def test_profile_row_limit(self, traced_shell):
        traced_shell.execute("(insert {A1 | A2})")
        out = traced_shell.execute(":profile 1")
        assert "cooler name(s) not shown" in out
        # header + claim + observed + column line + rule + one data row
        assert len(out.splitlines()) == 6

    def test_profile_bad_limit_is_friendly(self, traced_shell):
        out = traced_shell.execute(":profile lots")
        assert out.startswith("error:")

    def test_profile_hints_when_tracing_off(self, shell):
        assert "try :trace on" in shell.execute(":profile")

    def test_profile_with_no_spans_yet(self, traced_shell):
        assert traced_shell.execute(":profile") == "(no spans recorded)"

    def test_profile_suggested_for_typo(self, shell):
        assert "did you mean :profile?" in shell.execute(":profil")

    def test_help_mentions_profile(self, shell):
        assert ":profile" in shell.execute(":help")


class TestTraceReportMain:
    def make_trace(self, tmp_path, name="trace.jsonl"):
        from repro.obs.core import Span
        from repro.obs.export import export_jsonl

        kernel = Span("logic.kernel", {"clauses_in": 4}, start=0.1, elapsed=0.8)
        root = Span("blu.op", {}, start=0.0, elapsed=1.0, children=[kernel])
        path = tmp_path / name
        path.write_text(export_jsonl([root]))
        return path

    def test_prints_hotspot_table(self, tmp_path, capsys):
        path = self.make_trace(tmp_path)
        assert main(["trace-report", str(path)]) == 0
        out = capsys.readouterr().out
        assert "trace hotspots" in out
        assert "logic.kernel" in out

    def test_writes_flamegraph_exports(self, tmp_path, capsys):
        import json

        path = self.make_trace(tmp_path)
        folded = tmp_path / "out.folded"
        speedscope = tmp_path / "out.speedscope.json"
        code = main(
            [
                "trace-report",
                str(path),
                "--folded",
                str(folded),
                "--speedscope",
                str(speedscope),
            ]
        )
        assert code == 0
        assert "blu.op;logic.kernel 800000" in folded.read_text()
        document = json.loads(speedscope.read_text())
        assert document["profiles"][0]["type"] == "evented"
        out = capsys.readouterr().out
        assert "folded stacks written" in out
        assert "speedscope profile written" in out

    def test_missing_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "nope.jsonl"
        assert main(["trace-report", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}:")
        assert len(err.strip().splitlines()) == 1

    def test_schema_drift_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"type": "mystery"}\n')
        assert main(["trace-report", str(bad)]) == 2
        assert "unknown record type" in capsys.readouterr().err

    def test_no_validate_skips_schema_check(self, tmp_path, capsys):
        # A legacy histogram record (no buckets) fails validation but
        # the span analysis does not need it.
        path = self.make_trace(tmp_path)
        legacy = '{"type": "histogram", "name": "h", "count": 1, "total": 2.0, "min": 2.0, "max": 2.0}\n'
        path.write_text(path.read_text() + legacy)
        assert main(["trace-report", str(path)]) == 2
        capsys.readouterr()
        assert main(["trace-report", str(path), "--no-validate"]) == 0

    def test_limit_flag(self, tmp_path, capsys):
        path = self.make_trace(tmp_path)
        assert main(["trace-report", str(path), "--limit", "1"]) == 0
        assert "1 cooler name(s) not shown" in capsys.readouterr().out


class TestMain:
    def test_script_mode(self, tmp_path, capsys):
        script = tmp_path / "session.hlu"
        script.write_text(
            "(assert {A1 | A2})\n"
            "? A1 | A2\n"
            ":literals\n"
        )
        code = main(["--letters", "3", "--script", str(script)])
        captured = capsys.readouterr()
        assert code == 0
        assert "certain" in captured.out

    def test_named_letters(self, tmp_path, capsys):
        script = tmp_path / "s.hlu"
        script.write_text("(insert {Rain})\n? Rain\n")
        code = main(["--letters", "Rain,Wet", "--script", str(script)])
        assert code == 0
        assert "certain" in capsys.readouterr().out


class TestPersistenceCommands:
    def test_save_and_load_round_trip(self, shell, tmp_path):
        shell.execute("(assert {A1 | A2}) (insert {A3})")
        path = tmp_path / "session.txt"
        assert shell.execute(f":save {path}") == f"saved to {path}"
        shell.execute(":reset")
        assert shell.execute("? A3") == "not certain"
        out = shell.execute(f":load {path}")
        assert "2 update(s)" in out
        assert shell.execute("? A3") == "certain"
        assert shell.execute("? A1 | A2") == "certain"

    def test_save_without_path(self, shell):
        assert shell.execute(":save").startswith("error:")

    def test_load_without_path(self, shell):
        assert shell.execute(":load").startswith("error:")

    def test_canonical_command(self, shell):
        shell.execute("(assert {~A1 | A2 | A3, ~A1 | A2 | ~A3})")
        assert shell.execute(":canonical") == "{~A1 | A2}"


class TestStatsAll:
    def test_stats_all_shows_absolute_totals(self, traced_shell):
        traced_shell.execute("(insert {A1})")
        traced_shell.execute(":stats reset")
        totals = traced_shell.execute(":stats all")
        # Absolute totals survive a :stats reset (which only moves the
        # delta baseline).
        assert "hlu.updates" in totals
        assert "absolute" in totals

    def test_stats_all_hints_when_tracing_off(self, shell):
        assert "try :trace on" in shell.execute(":stats all")

    def test_stats_bad_argument(self, shell):
        out = shell.execute(":stats sideways")
        assert out.startswith("error:")
        assert "all" in out


class TestBenchCommand:
    def make_bench_file(self, directory, name="BENCH_20260805_120000.json"):
        from repro.bench.harness import Report, Timing
        from repro.obs import metrics

        report = Report(
            ident="E6", title="example 3.15", claim="c", columns=("k",)
        )
        report.holds = True
        report.counters = {"blu.c.mask.calls": 4}
        record = metrics.record_from_reports(
            [(report, Timing([0.01]))], git_sha="cafef00d"
        )
        return metrics.write_run_record(record, directory / name)

    def test_bench_last_summarises_latest_record(
        self, shell, tmp_path, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        self.make_bench_file(tmp_path, "BENCH_20260101_000000.json")
        latest = self.make_bench_file(tmp_path)
        out = shell.execute(":bench last")
        assert "E6" in out
        assert latest.name in out

    def test_bench_last_without_records_is_friendly(
        self, shell, tmp_path, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        out = shell.execute(":bench last")
        assert "no BENCH_" in out
        assert "run_experiments.py" in out

    def test_bench_explicit_file(self, shell, tmp_path):
        path = self.make_bench_file(tmp_path)
        out = shell.execute(f":bench {path}")
        assert "E6" in out

    def test_bench_bad_file_is_error_not_crash(self, shell, tmp_path):
        bad = tmp_path / "BENCH_bad.json"
        bad.write_text("{broken")
        out = shell.execute(f":bench {bad}")
        assert out.startswith("error:")

    def test_help_mentions_bench(self, shell):
        assert ":bench last" in shell.execute(":help")


class TestWatchCommand:
    @pytest.fixture(autouse=True)
    def clean_runtime(self):
        from repro.obs import runtime

        runtime.disable()
        runtime.reset()
        yield
        runtime.disable()
        runtime.reset()

    def test_watch_auto_enables_telemetry(self, shell):
        from repro.obs import runtime

        assert not runtime.is_enabled()
        out = shell.execute(":watch")
        assert runtime.is_enabled()
        assert "now recording" in out

    def test_watch_shows_per_op_table_after_updates(self, shell):
        shell.execute(":watch")  # enables telemetry
        shell.execute("(insert {A1 | A2})")
        shell.execute("? A1")
        out = shell.execute(":watch")
        assert "hlu.apply" in out
        assert "hlu.is_certain" in out
        assert "hlu.updates=1" in out  # the session's obs counter
        assert "ops/s" in out and "p50" in out and "p99" in out

    def test_watch_bad_interval_is_friendly(self, shell):
        assert shell.execute(":watch nope").startswith("error:")
        assert shell.execute(":watch -1").startswith("error:")
        assert shell.execute(":watch 0").startswith("error:")

    def test_watch_with_interval_but_no_tty_renders_once(self, shell):
        shell.execute(":watch")
        shell.execute("(insert {A1})")
        out = shell.execute(":watch 0.5")  # stdout is not a tty under pytest
        assert "hlu.apply" in out
        assert "\x1b[" not in out

    def test_watch_suggested_for_typo(self, shell):
        assert "did you mean :watch?" in shell.execute(":watc")

    def test_help_mentions_watch(self, shell):
        assert ":watch" in shell.execute(":help")


class TestTelemetryMain:
    def _write_feed(self, path):
        from repro.obs import runtime
        from repro.obs.core import Registry

        registry = Registry(clock=lambda: 1.0)
        registry.inc("cache.logic.rclosure.hits", 3)
        registry.inc("cache.logic.rclosure.misses", 1)
        registry.record_op("hlu.apply", 0.002)
        writer = runtime.TelemetryWriter(str(path), source=registry, worker="E6")
        writer.write_snapshot(now=2.0)
        writer.close()

    def test_summarises_feed(self, tmp_path, capsys):
        feed = tmp_path / "telemetry.jsonl"
        self._write_feed(feed)
        assert main(["telemetry", str(feed)]) == 0
        out = capsys.readouterr().out
        assert "feed schema 1" in out
        assert "workers: E6" in out
        assert "hlu.apply" in out
        assert "cache hit rate: 75%" in out

    def test_prometheus_rendering(self, tmp_path, capsys):
        feed = tmp_path / "telemetry.jsonl"
        self._write_feed(feed)
        assert main(["telemetry", str(feed), "--prometheus"]) == 0
        out = capsys.readouterr().out
        assert "# TYPE repro_cache_logic_rclosure_hits_total counter" in out
        assert "repro_cache_logic_rclosure_hits_total 3" in out
        assert "# TYPE repro_hlu_apply_seconds summary" in out

    def test_missing_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "absent.jsonl"
        assert main(["telemetry", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}:")
        assert len(err.strip().splitlines()) == 1

    _DRIFTED_META = (
        '{"type": "meta", "schema": 42, "window_seconds": 10.0, '
        '"slots": 5, "worker": null}\n'
    )

    def test_schema_drift_exits_2(self, tmp_path, capsys):
        feed = tmp_path / "bad.jsonl"
        feed.write_text(self._DRIFTED_META)
        assert main(["telemetry", str(feed)]) == 2
        assert "unsupported feed schema" in capsys.readouterr().err

    def test_no_validate_skips_schema_check(self, tmp_path, capsys):
        feed = tmp_path / "old.jsonl"
        feed.write_text(self._DRIFTED_META)
        assert main(["telemetry", str(feed), "--no-validate"]) == 0
        assert "no snapshots" in capsys.readouterr().out

    def test_empty_feed_reports_no_snapshots(self, tmp_path, capsys):
        feed = tmp_path / "empty.jsonl"
        from repro.obs import runtime

        writer = runtime.TelemetryWriter(str(feed), worker="E6")
        writer.close()
        assert main(["telemetry", str(feed)]) == 0
        assert "no snapshots" in capsys.readouterr().out


@pytest.fixture()
def audited_shell():
    """A shell with the audit trail cleaned up afterwards."""
    from repro.hlu import audit

    audit.disable()
    yield Shell(5)
    audit.disable()


class TestWhyCommand:
    def test_why_certain_formula_renders_verified_proof(self, shell):
        shell.execute("(assert {A1 | A2, ~A2 | A1})")
        out = shell.execute(":why A1")
        assert "why A1 is certain" in out
        assert "assumption" in out
        assert "independently verified" in out

    def test_why_not_certain(self, shell):
        shell.execute("(assert {A1 | A2})")
        out = shell.execute(":why A1")
        assert out.startswith("not certain")

    def test_why_without_args_explains_inconsistency(self, shell):
        shell.execute("(assert {A1})")
        shell.execute("(assert {~A1})")
        out = shell.execute(":why")
        assert "why the state is inconsistent" in out
        assert "resolve" in out
        assert "independently verified" in out

    def test_why_on_consistent_state(self, shell):
        assert "state is consistent" in shell.execute(":why")

    def test_why_tautology(self, shell):
        assert "tautology" in shell.execute(":why A1 | ~A1")

    def test_why_conjunction_proves_each_clause(self, shell):
        shell.execute("(assert {A1, A2})")
        out = shell.execute(":why A1 & A2")
        assert out.count("independently verified") == 2

    def test_why_leaves_provenance_disabled(self, shell):
        from repro.obs import provenance

        shell.execute("(assert {A1})")
        shell.execute(":why A1")
        assert not provenance.is_enabled()


class TestAuditShellCommand:
    def test_on_record_show_replay_off(self, audited_shell):
        sh = audited_shell
        assert "audit on" in sh.execute(":audit on")
        sh.execute("(insert {A1 | A2})")
        sh.execute("? A1 | A2")
        listing = sh.execute(":audit")
        assert "session" in listing
        assert "apply" in listing and "query_certain" in listing
        assert "replay: " in sh.execute(":audit replay")
        assert "audit off" == sh.execute(":audit off")

    def test_show_respects_limit(self, audited_shell):
        sh = audited_shell
        sh.execute(":audit on")
        for _ in range(3):
            sh.execute("(insert {A1})")
        assert len(sh.execute(":audit 2").splitlines()) == 2

    def test_save_writes_replayable_file(self, audited_shell, tmp_path):
        sh = audited_shell
        sh.execute(":audit on")
        sh.execute("(insert {A1})")
        path = tmp_path / "audit_repl.jsonl"
        assert "saved" in sh.execute(f":audit save {path}")
        assert main(["audit", str(path), "--replay"]) == 0

    def test_audit_on_file_streams(self, audited_shell, tmp_path):
        sh = audited_shell
        path = tmp_path / "audit_stream.jsonl"
        sh.execute(f":audit on {path}")
        sh.execute("(insert {A1})")
        assert "streaming to a file" in sh.execute(":audit")
        sh.execute(":audit off")
        assert main(["audit", str(path), "--replay"]) == 0

    def test_off_when_already_off(self, audited_shell):
        assert "already off" in audited_shell.execute(":audit off")

    def test_unknown_subcommand(self, audited_shell):
        assert "error" in audited_shell.execute(":audit sideways")


def _saved_session(tmp_path, *programs):
    shell = Shell(5)
    for program in programs:
        shell.execute(program)
    path = tmp_path / "session.txt"
    shell.execute(f":save {path}")
    return str(path)


class TestExplainMain:
    def test_certain_prints_verified_refutation(self, tmp_path, capsys):
        session = _saved_session(tmp_path, "(assert {A1 | A2, ~A2 | A1})")
        assert main(["explain", session, "--certain", "A1"]) == 0
        out = capsys.readouterr().out
        assert "why A1 is certain" in out
        assert "independently verified" in out

    def test_not_certain_exits_1(self, tmp_path, capsys):
        session = _saved_session(tmp_path, "(assert {A1 | A2})")
        assert main(["explain", session, "--certain", "A1"]) == 1
        assert "not certain" in capsys.readouterr().out

    def test_clause_in_closure(self, tmp_path, capsys):
        session = _saved_session(tmp_path, "(assert {A1 | A2, ~A1 | A3})")
        assert main(["explain", session, "--clause", "A2 | A3"]) == 0
        assert "in the closure" in capsys.readouterr().out

    def test_clause_not_derivable_exits_1(self, tmp_path, capsys):
        session = _saved_session(tmp_path, "(assert {A1 | A2})")
        assert main(["explain", session, "--clause", "A3"]) == 1
        assert "not in the resolution closure" in capsys.readouterr().out

    def test_default_explains_inconsistency(self, tmp_path, capsys):
        session = _saved_session(tmp_path, "(assert {A1})", "(assert {~A1})")
        assert main(["explain", session]) == 0
        assert "why the state is inconsistent" in capsys.readouterr().out

    def test_consistent_state_exits_1(self, tmp_path, capsys):
        session = _saved_session(tmp_path, "(assert {A1})")
        assert main(["explain", session]) == 1
        assert "state is consistent" in capsys.readouterr().out

    def test_json_output_round_trips(self, tmp_path, capsys):
        import json as json_mod

        from repro.obs import provenance

        session = _saved_session(tmp_path, "(assert {A1})", "(assert {~A1})")
        assert main(["explain", session, "--json"]) == 0
        document = json_mod.loads(capsys.readouterr().out)
        steps = provenance.derivation_from_json(document)
        assert provenance.verify_derivation(steps, target=frozenset()) == []

    def test_missing_session_exits_2(self, tmp_path, capsys):
        path = tmp_path / "absent.txt"
        assert main(["explain", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}:")
        assert len(err.strip().splitlines()) == 1

    def test_budget_overflow_exits_2(self, tmp_path, capsys):
        import itertools

        clauses = ", ".join(
            "(" + " | ".join(
                f"{'~' if s else ''}A{i + 1}" for i, s in enumerate(signs)
            ) + ")"
            for signs in itertools.product([0, 1], repeat=4)
        )
        session = _saved_session(tmp_path, f"(assert {{{clauses}}})")
        assert main(
            ["explain", session, "--max-clauses", "5"]
        ) == 2
        assert "--max-clauses" in capsys.readouterr().err


class TestAuditMain:
    def _trail(self, tmp_path, tamper=None):
        from repro.hlu import audit

        audit.disable()
        trail = audit.enable()
        shell = Shell(5)  # created while enabled: auto-registers
        shell.execute("(insert {A1 | A2})")
        shell.execute("? A1 | A2")
        audit.disable()
        if tamper is not None:
            tamper(trail.records)
        path = tmp_path / "audit_main.jsonl"
        trail.save(path)
        return str(path)

    def test_summarises_and_replays(self, tmp_path, capsys):
        path = self._trail(tmp_path)
        assert main(["audit", path, "--replay", "--limit", "5"]) == 0
        out = capsys.readouterr().out
        assert "1 session(s), 2 op(s)" in out
        assert "audit replay" in out and "ok" in out

    def test_schema_drift_exits_2(self, tmp_path, capsys):
        def drift(records):
            records[0]["schema"] = 99

        path = self._trail(tmp_path, tamper=drift)
        assert main(["audit", path]) == 2
        assert "schema" in capsys.readouterr().err

    def test_structural_problem_exits_2(self, tmp_path, capsys):
        def gap(records):
            records[-1]["seq"] = 7

        path = self._trail(tmp_path, tamper=gap)
        assert main(["audit", path]) == 2
        assert "seq" in capsys.readouterr().err

    def test_failed_replay_exits_2(self, tmp_path, capsys):
        def forge(records):
            for record in records:
                if record.get("post") is not None:
                    record["post"]["digest"] = "00" * 8

        path = self._trail(tmp_path, tamper=forge)
        assert main(["audit", path, "--replay"]) == 2
        assert "mismatch" in capsys.readouterr().out

    def test_missing_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "absent.jsonl"
        assert main(["audit", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}:")
        assert len(err.strip().splitlines()) == 1


class TestInputErrorPaths:
    """Every file-reading subcommand: one `error: <path>: ...` line, exit 2.

    Pinned for both a missing path and a non-UTF-8 (binary) file -- the
    latter used to escape as a raw UnicodeDecodeError traceback.
    """

    SUBCOMMANDS = (
        lambda p: ["bench-diff", p],
        lambda p: ["trace-report", p],
        lambda p: ["telemetry", p],
        lambda p: ["explain", p, "--certain", "A1"],
        lambda p: ["audit", p],
        lambda p: ["perf-history", "record", p],
    )

    @pytest.mark.parametrize("argv_for", SUBCOMMANDS)
    def test_missing_file_is_one_error_line_exit_2(
        self, argv_for, tmp_path, capsys
    ):
        path = str(tmp_path / "missing.input")
        assert main(argv_for(path)) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}:")
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("argv_for", SUBCOMMANDS)
    def test_binary_file_is_one_error_line_exit_2(
        self, argv_for, tmp_path, capsys
    ):
        target = tmp_path / "binary.input"
        target.write_bytes(b"\xff\xfe\x00BENCH\x9d\x80")
        assert main(argv_for(str(target))) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {target}:")
        assert len(err.strip().splitlines()) == 1


class TestPerfHistoryMain:
    def make_record_file(self, tmp_path, name, seconds=0.02, counter=100,
                         git_sha="a" * 40):
        from repro.bench.harness import Report, Timing
        from repro.obs import metrics

        report = Report(ident="E6", title="t", claim="c", columns=("k", "v"))
        report.holds = True
        report.counters = {"resolution.steps": counter}
        record = metrics.record_from_reports(
            [(report, Timing([seconds] * 3))], git_sha=git_sha
        )
        return str(metrics.write_run_record(record, tmp_path / name))

    def seed_store(self, tmp_path, specs):
        store = tmp_path / "hist"
        for sha, seconds, counter in specs:
            path = self.make_record_file(
                tmp_path, f"BENCH_{sha[:4]}.json", seconds, counter, sha
            )
            assert main(
                ["perf-history", "record", path, "--dir", str(store)]
            ) == 0
        return str(store)

    def test_record_appends_and_reports_target(self, tmp_path, capsys):
        store = self.seed_store(tmp_path, [("a" * 40, 0.02, 100)])
        out = capsys.readouterr().out
        assert "recorded aaaaaaa" in out
        assert "history.jsonl" in out
        from repro.obs import history as history_mod

        assert len(history_mod.read_history(store)) == 1

    def test_trend_renders_sparkline_table(self, tmp_path, capsys):
        store = self.seed_store(
            tmp_path, [("a" * 40, 0.02, 100), ("b" * 40, 0.021, 100)]
        )
        capsys.readouterr()
        assert main(["perf-history", "trend", "--dir", store]) == 0
        out = capsys.readouterr().out
        assert "== TREND:" in out
        assert "E6" in out

    def test_trend_exits_1_on_drift(self, tmp_path, capsys):
        store = self.seed_store(
            tmp_path,
            [
                ("a" * 40, 0.02, 100),
                ("b" * 40, 0.02, 100),
                ("c" * 40, 0.06, 100),
                ("d" * 40, 0.06, 100),
            ],
        )
        capsys.readouterr()
        assert main(["perf-history", "trend", "--dir", store]) == 1
        assert "regressed at ccccccc" in capsys.readouterr().out

    def test_bisect_names_the_first_drifting_commit(self, tmp_path, capsys):
        store = self.seed_store(
            tmp_path,
            [
                ("a" * 40, 0.02, 100),
                ("b" * 40, 0.02, 100),
                ("c" * 40, 0.02, 140),
            ],
        )
        capsys.readouterr()
        assert main(["perf-history", "bisect", "--dir", store]) == 0
        out = capsys.readouterr().out
        assert "E6 counter:resolution.steps: regressed at ccccccc" in out

    def test_bisect_on_stable_history_exits_1(self, tmp_path, capsys):
        store = self.seed_store(
            tmp_path, [("a" * 40, 0.02, 100), ("b" * 40, 0.02, 100)]
        )
        capsys.readouterr()
        assert main(["perf-history", "bisect", "--dir", store]) == 1
        assert "no changepoint" in capsys.readouterr().out

    def test_machine_filter_current_matches_recorded_entries(
        self, tmp_path, capsys
    ):
        store = self.seed_store(
            tmp_path, [("a" * 40, 0.02, 100), ("b" * 40, 0.02, 100)]
        )
        capsys.readouterr()
        assert main(
            ["perf-history", "trend", "--dir", store, "--machine", "current"]
        ) == 0
        assert "E6" in capsys.readouterr().out

    def test_schema_drift_exits_2(self, tmp_path, capsys):
        import json as json_mod

        store = tmp_path / "hist"
        path = self.make_record_file(tmp_path, "BENCH_a.json")
        assert main(["perf-history", "record", path, "--dir", str(store)]) == 0
        store_file = store / "history.jsonl"
        line = json_mod.loads(store_file.read_text().splitlines()[0])
        line["schema_version"] = 99
        store_file.write_text(json_mod.dumps(line) + "\n")
        capsys.readouterr()
        assert main(["perf-history", "trend", "--dir", str(store)]) == 2
        assert "newer" in capsys.readouterr().err

    def test_missing_store_exits_2_with_seeding_hint(self, tmp_path, capsys):
        assert main(
            ["perf-history", "trend", "--dir", str(tmp_path / "none")]
        ) == 2
        assert "perf-history record" in capsys.readouterr().err


class TestTrendCommand:
    def test_trend_renders_history_from_cwd(self, shell, tmp_path, monkeypatch):
        from repro.bench.harness import Report, Timing
        from repro.obs import history as history_mod
        from repro.obs import metrics

        monkeypatch.chdir(tmp_path)
        for day, sha in enumerate(("a" * 40, "b" * 40), 1):
            report = Report(ident="E6", title="t", claim="c", columns=("k",))
            report.holds = True
            report.counters = {"c": 1}
            record = metrics.record_from_reports(
                [(report, Timing([0.02] * 3))], git_sha=sha
            )
            history_mod.append_history(
                record,
                directory=tmp_path / history_mod.DEFAULT_HISTORY_RELPATH,
                recorded=f"2026-08-{day:02d}T00:00:00Z",
            )
        output = shell.execute(":trend")
        assert "== TREND:" in output
        assert "E6" in output
        filtered = shell.execute(":trend E6")
        assert "E6" in filtered
        missing = shell.execute(":trend E99")
        assert "no history" in missing

    def test_trend_without_history_is_friendly(self, shell, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        output = shell.execute(":trend")
        assert output.startswith("error:")
        assert "perf-history record" in output

    def test_trend_suggested_for_typo(self, shell):
        assert "did you mean :trend" in shell.execute(":trned")

    def test_help_mentions_trend_and_perf_history(self, shell):
        text = shell.execute(":help")
        assert ":trend" in text
        assert "perf-history" in text
