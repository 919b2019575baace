"""CI smoke for the live-telemetry path: ``--jobs 2 --live`` headless must
render the per-worker dashboard, write a telemetry feed that passes the
schema check, and round-trip through ``python -m repro.cli telemetry``.

Kept fast by running only the sub-second worked examples; marked
``smoke`` so it can be selected alone with ``pytest -m smoke``.
"""

import pytest

from repro.cli import main as cli_main
from repro.obs import core
from repro.obs import runtime


@pytest.fixture(autouse=True)
def clean_state(monkeypatch):
    monkeypatch.setenv("REPRO_LIVE_HEADLESS", "1")
    yield
    core.disable()
    core.reset()
    runtime.disable()
    runtime.reset()


@pytest.fixture()
def run_main(monkeypatch):
    import sys
    from pathlib import Path

    bench_dir = Path(__file__).resolve().parent.parent / "benchmarks"
    monkeypatch.syspath_prepend(str(bench_dir))
    sys.modules.pop("run_experiments", None)
    import run_experiments

    yield run_experiments.main
    sys.modules.pop("run_experiments", None)


@pytest.mark.smoke
def test_jobs_two_live_writes_valid_feed_and_dashboard(
    run_main, tmp_path, capsys
):
    feed_path = tmp_path / "telemetry_smoke.jsonl"
    code = run_main(
        ["E6", "E7", "--jobs", "2", "--live", "--telemetry-out", str(feed_path)]
    )
    captured = capsys.readouterr()
    assert code == 0
    assert f"telemetry feed written to {feed_path}" in captured.out

    # Headless dashboard: plain [live] progress lines plus a final frame
    # with one row per worker and the fleet TOTAL.
    assert "[live]" in captured.err
    assert "\x1b[" not in captured.err
    final_frame = captured.err[captured.err.rindex("== run_experiments") :]
    assert "E6" in final_frame and "E7" in final_frame
    assert "TOTAL" in final_frame
    assert "ops/s" in final_frame and "p50" in final_frame and "p99" in final_frame

    text = feed_path.read_text()
    errors = runtime.validate_feed(text)
    assert errors == [], "\n".join(errors)

    meta, snapshots = runtime.read_feed(text)
    assert meta["schema"] == runtime.FEED_SCHEMA_VERSION
    assert meta["workers"] == ["E6", "E7"]
    workers_seen = {snap.get("worker") for snap in snapshots}
    assert {"E6", "E7", "merged"} <= workers_seen
    combined = next(s for s in snapshots if s.get("worker") == "merged")
    # The instrumented hot layers fed the workers' registries.
    assert combined["meters"], "no rate meters reached the merged snapshot"
    assert any(name.endswith(".seconds") for name in combined["histograms"])


@pytest.mark.smoke
def test_cli_telemetry_round_trips_the_feed(run_main, tmp_path, capsys):
    feed_path = tmp_path / "telemetry_roundtrip.jsonl"
    assert run_main(["E6", "--telemetry-out", str(feed_path)]) == 0
    capsys.readouterr()

    code = cli_main(["telemetry", str(feed_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert f"feed schema {runtime.FEED_SCHEMA_VERSION}" in out
    assert "snapshot(s)" in out
    assert "final state" in out

    code = cli_main(["telemetry", str(feed_path), "--prometheus"])
    out = capsys.readouterr().out
    assert code == 0
    assert "# TYPE" in out and "# HELP" in out

    # A corrupted feed must fail the schema gate with exit 2.
    bad = tmp_path / "bad.jsonl"
    bad.write_text("{not json\n")
    assert cli_main(["telemetry", str(bad)]) == 2


def test_single_job_live_telemetry_in_process(run_main, tmp_path, capsys):
    feed_path = tmp_path / "telemetry_single.jsonl"
    code = run_main(["E6", "--live", "--telemetry-out", str(feed_path)])
    captured = capsys.readouterr()
    assert code == 0
    assert "TOTAL" in captured.err
    text = feed_path.read_text()
    assert runtime.validate_feed(text) == [], "\n".join(runtime.validate_feed(text))
    meta, snapshots = runtime.read_feed(text)
    assert meta["worker"] == "main"
    assert snapshots, "in-process run streamed no snapshots"
    assert snapshots[-1]["meters"], "hot-layer hooks recorded nothing"
    # Telemetry must not leak into the next (non-telemetry) run.
    assert not runtime.is_enabled()


def test_telemetry_disabled_by_default_records_nothing(run_main, capsys):
    runtime.reset()
    code = run_main(["E6"])
    capsys.readouterr()
    assert code == 0
    # The harness counts kernel work into the one registry while it
    # measures, but without telemetry no op latency is recorded.
    snap = runtime.registry().live_record()
    assert snap["meters"] == {}
    assert not any(name.endswith(".seconds") for name in snap["histograms"])
    assert not runtime.is_enabled()


def test_telemetry_leaves_experiment_counters_unchanged(run_main, tmp_path, capsys):
    """Telemetry counts into the same registry the counter gate reads, so
    only the harness's snapshot/delta keeps it out of the per-experiment
    counters: they must be identical with and without a feed."""
    import json

    plain = tmp_path / "plain.json"
    live = tmp_path / "live.json"
    assert run_main(["E6", "E7", "--bench-out", str(plain)]) == 0
    assert run_main(
        ["E6", "E7", "--bench-out", str(live),
         "--telemetry-out", str(tmp_path / "feed.jsonl")]
    ) == 0
    capsys.readouterr()

    def counters(path):
        record = json.loads(path.read_text())
        return {exp["ident"]: exp["counters"] for exp in record["experiments"]}

    expected = counters(plain)
    assert sorted(expected) == ["E6", "E7"]
    assert all(expected.values()), "the experiments recorded no counters"
    assert counters(live) == expected


def test_telemetry_interval_must_be_positive(run_main, capsys):
    with pytest.raises(SystemExit):
        run_main(["E6", "--live", "--telemetry-interval", "0"])
    capsys.readouterr()
