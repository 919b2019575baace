#!/usr/bin/env python3
"""Run the E1--E17 / A1--A4 experiment suite and print claim-vs-measured tables.

This is the report generator behind EXPERIMENTS.md::

    python benchmarks/run_experiments.py                 # all experiments
    python benchmarks/run_experiments.py E3 A1           # a selection
    python benchmarks/run_experiments.py --smoke         # fast correctness tier
    python benchmarks/run_experiments.py E1 --trace-out trace.jsonl
    python benchmarks/run_experiments.py E16 --profile-out e16.folded --mem
    python benchmarks/run_experiments.py --smoke --cache --jobs 2

``--trace-out FILE`` enables the ``repro.obs`` instrumentation for the
whole run and writes every recorded span and counter as JSON-lines
(schema-checked by ``tests/test_trace_smoke.py``).  ``--profile-out
FILE`` likewise enables instrumentation and writes a flamegraph view of
the run: collapsed folded stacks (``flamegraph.pl`` format), or a
speedscope JSON profile when FILE ends in ``.json``.  ``--mem`` tracks
per-experiment memory via ``tracemalloc`` (a real slowdown, so opt-in):
peak/current bytes land in the run record's ``memory`` block and on the
``experiment.*`` spans.  Analyse any ``--trace-out`` file afterwards
with ``python -m repro.cli trace-report``.

``--cache`` turns on the kernel memo-cache (``repro.cache``) for the
run; per-kernel hit/miss/eviction stats land in the run record's
``cache`` block (schema 3).  ``--jobs N`` fans the selected experiments
out over ``N`` worker processes: wall times are measured inside each
worker, per-worker traces are merged into one ``--trace-out`` /
``--profile-out`` artifact (counters summed, histograms merged), and
per-worker cache stats are summed into the record.

``--live`` turns on live runtime telemetry (``repro.obs.runtime``) and
renders an in-place ANSI dashboard on stderr while the run works:
per-worker status, windowed ops/s, p50/p99 latency, and kernel-cache
hit rate (headless environments -- no TTY, ``TERM=dumb``, or
``REPRO_LIVE_HEADLESS=1`` -- get one plain summary line per refresh
instead).  ``--telemetry-out FILE`` streams the schema-versioned JSONL
telemetry feed to a file (per-worker feeds are merged, keeping each
worker's snapshots plus one combined record); replay or summarise it
afterwards with ``python -m repro.cli telemetry FILE``.

``--audit-out FILE`` enables the session audit trail
(``repro.hlu.audit``) for the whole run: every database session an
experiment opens records its operations -- args, pre/post fingerprints,
outcomes -- as JSONL.  Per-worker trails are concatenated (session ids
embed the worker pid, so they never collide); validate and replay the
result with ``python -m repro.cli audit FILE --replay``.

Performance trajectory (see README "Performance trajectory"):

* a full run writes a schema-versioned ``BENCH_<timestamp>.json`` run
  record at the repo root by default (``--bench-out FILE`` to choose the
  path, ``--no-bench-out`` to skip; selections only write when asked);
* ``--check-regressions`` compares the run against the committed
  baseline (``--baseline PATH``) and exits nonzero on gated regressions,
  so CI can hold the line;
* ``--update-baseline`` promotes the run record to be the new baseline;
* ``--history`` (or ``--history-dir DIR``) also appends the record to
  the longitudinal perf history (``benchmarks/history/``), the
  append-only log behind ``python -m repro.cli perf-history
  trend|bisect`` and the ``:trend`` shell command.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import re
import shutil
import sys
import tempfile
import time
from pathlib import Path

from repro import obs
from repro.bench import experiments
from repro.cache import core as cache_mod
from repro.errors import MetricsError
from repro.hlu import audit as audit_mod
from repro.obs import baseline as baseline_mod
from repro.obs import live as live_mod
from repro.obs import metrics as metrics_mod
from repro.obs import runtime as runtime_mod

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_BASELINE = REPO_ROOT / baseline_mod.DEFAULT_BASELINE_RELPATH

RUNNERS = [
    experiments.e01_assert_linear,
    experiments.e02_combine_quadratic,
    experiments.e03_complement_exponential,
    experiments.e04_mask_blowup,
    experiments.e05_genmask_exponential,
    experiments.e06_example_315,
    experiments.e07_example_325,
    experiments.e08_inset_example,
    experiments.e09_congruence_theorem,
    experiments.e10_emulation,
    experiments.e11_wilkins_tradeoff,
    experiments.e12_hlu_equivalence,
    experiments.e13_relational_grounding,
    experiments.e14_tabular_gap,
    experiments.e15_minimal_change,
    experiments.e16_hlu_bottleneck,
    experiments.e17_template_coverage,
    experiments.a01_simplify_ablation,
    experiments.a02_mask_strategy,
    experiments.a03_backend_crossover,
    experiments.a04_wilkins_hybrid,
]

#: The sub-second correctness tier (mirrors tests/test_experiments_fast.py
#: plus the exact-output E13): deterministic counters, no timing sweeps --
#: what CI gates on.
SMOKE_IDENTS = {"E6", "E7", "E8", "E9", "E10", "E12", "E13", "E14", "E15", "E17"}


def runner_ident(runner) -> str:
    """``e01_assert_linear`` -> ``E1``; ``a04_wilkins_hybrid`` -> ``A4``."""
    match = re.match(r"([ae])(\d+)_", runner.__name__)
    if match is None:  # pragma: no cover - registry invariant
        raise ValueError(f"unrecognised runner name {runner.__name__!r}")
    return f"{match.group(1).upper()}{int(match.group(2))}"


RUNNERS_BY_IDENT = {runner_ident(runner): runner for runner in RUNNERS}


def _run_one(runner, mem: bool):
    """One experiment, optionally under tracemalloc."""
    if mem:
        with obs.track_memory() as sample:
            report = runner()
        report.memory = sample.to_json()
        return report, sample
    return runner(), None


def _run_traced(ident: str, runner, mem: bool, tracing: bool):
    """One experiment under its ``experiment.<ident>`` span, timed."""
    start = time.perf_counter()
    if tracing:
        with obs.span(f"experiment.{ident}") as exp_span:
            report, sample = _run_one(runner, mem)
            if sample is not None:
                exp_span.set(
                    mem_peak_bytes=sample.peak_bytes,
                    mem_current_bytes=sample.current_bytes,
                )
    else:
        report, sample = _run_one(runner, mem)
    elapsed = time.perf_counter() - start
    return report, sample, elapsed


def _feed_path(feed_dir: str, ident: str) -> str:
    """The per-worker telemetry feed file for one experiment."""
    return os.path.join(feed_dir, f"feed_{ident}.jsonl")


def _audit_path(audit_dir: str, ident: str) -> str:
    """The per-worker audit trail file for one experiment."""
    return os.path.join(audit_dir, f"audit_{ident}.jsonl")


def _worker_run(
    ident: str,
    mem: bool,
    tracing: bool,
    use_cache: bool,
    cache_capacity: int | None = None,
    feed_dir: str | None = None,
    feed_interval: float = 0.5,
    audit_dir: str | None = None,
) -> dict:
    """One experiment inside a ``--jobs`` worker process.

    The worker owns its own obs registry and kernel cache; everything the
    parent needs to merge comes back in one picklable payload.  Seconds
    are measured here, in the worker, so the number means "time this
    experiment took" rather than "time the parent waited".

    With ``feed_dir`` set the worker also runs live telemetry: the
    registry is reset (pool processes are reused across tasks) and a
    background pump streams snapshots to this experiment's feed file,
    which the parent tails for the ``--live`` dashboard and merges into
    the ``--telemetry-out`` artifact.
    """
    runner = RUNNERS_BY_IDENT[ident]
    if use_cache:
        cache_mod.enable_cache(cache_capacity)
    if tracing:
        obs.reset()
        obs.enable()
    pump = None
    writer = None
    if feed_dir is not None:
        runtime_mod.reset()
        runtime_mod.enable()
        writer = runtime_mod.TelemetryWriter(_feed_path(feed_dir, ident), worker=ident)
        pump = runtime_mod.TelemetryPump(
            writer, feed_interval, runtime_mod.ResourceSampler()
        )
        pump.start()
    if audit_dir is not None:
        audit_mod.enable(_audit_path(audit_dir, ident))
    try:
        report, sample, elapsed = _run_traced(ident, runner, mem, tracing)
    finally:
        if audit_dir is not None:
            audit_mod.disable()
        if pump is not None:
            pump.stop(final_snapshot=True)
            runtime_mod.disable()
            writer.close()
    audit_text = None
    if audit_dir is not None:
        try:
            audit_text = Path(_audit_path(audit_dir, ident)).read_text()
        except OSError:
            audit_text = ""
    trace_text = None
    if tracing:
        obs.disable()
        from repro.obs.export import export_jsonl

        trace_text = export_jsonl(obs.tracer(), obs.counters())
    stats = cache_mod.cache_stats() if use_cache else {}
    if use_cache:
        cache_mod.disable_cache()
        cache_mod.clear_caches()
    return {
        "ident": ident,
        "report": report,
        "elapsed": elapsed,
        "peak_bytes": sample.peak_bytes if sample is not None else None,
        "trace": trace_text,
        "cache_stats": stats,
        "audit": audit_text,
    }


class _LiveFeedWriter(runtime_mod.TelemetryWriter):
    """A TelemetryWriter that also repaints the live dashboard.

    Used on the in-process (``--jobs 1``) path, where the pump thread is
    the only thing that runs between experiment steps: each streamed
    snapshot doubles as a dashboard refresh.
    """

    def __init__(self, sink, worker, display=None, model=None):
        super().__init__(sink, worker=worker)
        self._display = display
        self._model = model
        self._label = worker or "main"

    def write_snapshot(self, now: float | None = None) -> dict:
        snap = super().write_snapshot(now)
        if self._display is not None and self._model is not None:
            view = self._model.worker(self._label)
            view.snapshot = snap
            if view.status == "pending":
                view.status = "running"
            self._display.update(self._model)
        return snap


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="run_experiments",
        description="Regenerate the paper's claims (experiments E1..E17, A1..A4).",
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        metavar="EXPERIMENT",
        help="experiment idents to run (e.g. E3 A1); default: all",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="run the fast correctness tier (deterministic counters, "
        "no timing sweeps)",
    )
    parser.add_argument(
        "--trace-out",
        metavar="FILE",
        default=None,
        help="enable repro.obs and write spans + counters as JSON-lines",
    )
    parser.add_argument(
        "--profile-out",
        metavar="FILE",
        default=None,
        help="enable repro.obs and write a flamegraph view of the run: "
        "folded stacks (flamegraph.pl), or speedscope JSON if FILE ends "
        "in .json",
    )
    parser.add_argument(
        "--mem",
        action="store_true",
        help="track per-experiment memory with tracemalloc (peak/current "
        "bytes in the run record and on experiment spans; slows the run)",
    )
    parser.add_argument(
        "--cache",
        action="store_true",
        help="enable the kernel memo-cache (repro.cache) for the run; "
        "per-kernel hit/miss stats land in the run record's cache block",
    )
    parser.add_argument(
        "--cache-capacity",
        type=int,
        metavar="N",
        default=None,
        help="per-kernel LRU entry bound for --cache "
        f"(default: {cache_mod.DEFAULT_CAPACITY})",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        metavar="N",
        default=1,
        help="fan the selected experiments out over N worker processes "
        "(traces merged, cache stats summed; default: 1, in-process)",
    )
    parser.add_argument(
        "--live",
        action="store_true",
        help="enable live runtime telemetry and render an in-place "
        "dashboard on stderr (per-worker ops/s, windowed p50/p99, cache "
        "hit rate); headless environments get plain summary lines",
    )
    parser.add_argument(
        "--telemetry-out",
        metavar="FILE",
        default=None,
        help="enable live runtime telemetry and write the JSONL feed "
        "here (per-worker feeds merged; inspect with "
        "'python -m repro.cli telemetry FILE')",
    )
    parser.add_argument(
        "--telemetry-interval",
        type=float,
        metavar="SECONDS",
        default=0.5,
        help="seconds between telemetry snapshots / dashboard refreshes "
        "(default: 0.5)",
    )
    parser.add_argument(
        "--audit-out",
        metavar="FILE",
        default=None,
        help="enable the session audit trail (repro.hlu.audit) for the "
        "run and write it here as JSONL (per-worker trails concatenated; "
        "check with 'python -m repro.cli audit FILE --replay')",
    )
    parser.add_argument(
        "--bench-out",
        metavar="FILE",
        default=None,
        help="write the run record here (default for full runs: "
        "BENCH_<timestamp>.json at the repo root)",
    )
    parser.add_argument(
        "--no-bench-out",
        action="store_true",
        help="never write a run record, even for a full run",
    )
    parser.add_argument(
        "--baseline",
        metavar="FILE",
        default=str(DEFAULT_BASELINE),
        help="baseline run record for --check-regressions / --update-baseline "
        "(default: benchmarks/baselines/baseline.json)",
    )
    parser.add_argument(
        "--check-regressions",
        action="store_true",
        help="diff this run against the baseline and exit nonzero on "
        "gated regressions",
    )
    parser.add_argument(
        "--gate",
        metavar="KINDS",
        default="seconds,counter,fit",
        help="comma-separated metric kinds that can fail the gate "
        "(subset of: seconds,counter,fit)",
    )
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help="promote this run's record to be the baseline",
    )
    parser.add_argument(
        "--history",
        action="store_true",
        help="append this run's record to the longitudinal perf history "
        "(benchmarks/history/; inspect with "
        "'python -m repro.cli perf-history trend')",
    )
    parser.add_argument(
        "--history-dir",
        metavar="DIR",
        default=None,
        help="history directory or .jsonl file for --history "
        "(implies --history; default: benchmarks/history/)",
    )
    options = parser.parse_args(argv)

    wanted = {name.upper() for name in options.experiments}
    if options.smoke:
        wanted |= SMOKE_IDENTS
    known = {runner_ident(runner) for runner in RUNNERS}
    unknown = sorted(wanted - known)
    if unknown:
        parser.error(
            f"unknown experiment(s): {', '.join(unknown)} "
            f"(known: E1..E17, A1..A4)"
        )
    try:
        gate = baseline_mod.parse_gate(options.gate)
    except ValueError as error:
        parser.error(str(error))
    if options.jobs < 1:
        parser.error(f"--jobs must be >= 1, got {options.jobs}")
    if options.telemetry_interval <= 0:
        parser.error(
            f"--telemetry-interval must be > 0, got {options.telemetry_interval}"
        )
    if options.cache_capacity is not None:
        if options.cache_capacity < 0:
            parser.error(
                f"--cache-capacity must be >= 0, got {options.cache_capacity}"
            )
        if not options.cache:
            parser.error("--cache-capacity requires --cache")

    tracing = options.trace_out is not None or options.profile_out is not None
    trace_handle = None
    profile_handle = None
    if options.trace_out is not None:
        try:
            trace_handle = open(options.trace_out, "w")
        except OSError as exc:
            parser.error(f"cannot write --trace-out file: {exc}")
    if options.profile_out is not None:
        try:
            profile_handle = open(options.profile_out, "w")
        except OSError as exc:
            parser.error(f"cannot write --profile-out file: {exc}")
    telemetry_handle = None
    if options.telemetry_out is not None:
        try:
            telemetry_handle = open(options.telemetry_out, "w")
        except OSError as exc:
            parser.error(f"cannot write --telemetry-out file: {exc}")
    audit_handle = None
    if options.audit_out is not None:
        try:
            audit_handle = open(options.audit_out, "w")
        except OSError as exc:
            parser.error(f"cannot write --audit-out file: {exc}")
    selected = [
        runner_ident(runner)
        for runner in RUNNERS
        if not wanted or runner_ident(runner) in wanted
    ]

    def emit(ident: str, report, elapsed: float, peak_bytes: int | None) -> int:
        print(report.render())
        timing_note = f"(ran in {elapsed:.1f}s"
        if peak_bytes is not None:
            timing_note += f", peak {peak_bytes / (1024 * 1024):.1f}MB"
        print(timing_note + ")\n")
        return 0 if report.holds else 1

    failures = 0
    results: list[tuple[object, object]] = []
    cache_kernels: dict[str, dict[str, int]] = {}
    trace_text: str | None = None
    telemetry = options.live or options.telemetry_out is not None
    telemetry_text: str | None = None
    display: live_mod.LiveDisplay | None = None
    model: live_mod.DashboardModel | None = None
    if options.live:
        model = live_mod.DashboardModel(
            title=f"run_experiments ({len(selected)} experiment(s), "
            f"--jobs {options.jobs})"
        )
        display = live_mod.LiveDisplay(sys.stderr)

    if options.jobs > 1:
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures import wait as futures_wait

        from repro.obs.export import merge_jsonl

        trace_parts: list[str] = []
        cache_parts: list[dict[str, dict[str, int]]] = []
        audit_parts: list[str] = []
        feed_dir = tempfile.mkdtemp(prefix="repro_telemetry_") if telemetry else None
        audit_dir = (
            tempfile.mkdtemp(prefix="repro_audit_")
            if audit_handle is not None
            else None
        )
        if model is not None:
            for ident in selected:
                model.worker(ident)
        try:
            with ProcessPoolExecutor(max_workers=options.jobs) as pool:
                futures = [
                    pool.submit(
                        _worker_run,
                        ident,
                        options.mem,
                        tracing,
                        options.cache,
                        options.cache_capacity,
                        feed_dir,
                        options.telemetry_interval,
                        audit_dir,
                    )
                    for ident in selected
                ]
                if display is not None and model is not None and feed_dir is not None:
                    tailers = [
                        live_mod.FeedTailer(_feed_path(feed_dir, ident))
                        for ident in selected
                    ]
                    pending = set(futures)
                    while pending:
                        _, pending = futures_wait(
                            pending, timeout=options.telemetry_interval
                        )
                        for ident, future in zip(selected, futures):
                            view = model.worker(ident)
                            if future.done():
                                view.status = (
                                    "failed" if future.exception() else "done"
                                )
                            elif future.running():
                                view.status = "running"
                        live_mod.tail_snapshots(tailers, model)
                        display.update(model)
                for ident, future in zip(selected, futures):
                    payload = future.result()
                    results.append((payload["report"], payload["elapsed"]))
                    failures += emit(
                        ident, payload["report"], payload["elapsed"],
                        payload["peak_bytes"],
                    )
                    if payload["trace"] is not None:
                        trace_parts.append(payload["trace"])
                    if payload["cache_stats"]:
                        cache_parts.append(payload["cache_stats"])
                    if payload["audit"]:
                        audit_parts.append(payload["audit"])
            if feed_dir is not None:
                feed_texts = []
                for ident in selected:
                    try:
                        feed_texts.append(Path(_feed_path(feed_dir, ident)).read_text())
                    except OSError:
                        pass
                telemetry_text = runtime_mod.merge_feeds(feed_texts)
        finally:
            if feed_dir is not None:
                shutil.rmtree(feed_dir, ignore_errors=True)
            if audit_dir is not None:
                shutil.rmtree(audit_dir, ignore_errors=True)
        if audit_handle is not None:
            audit_handle.write("".join(audit_parts))
        if tracing:
            trace_text = merge_jsonl(trace_parts)
        cache_kernels = cache_mod.merge_stats(cache_parts)
    else:
        if options.cache:
            cache_mod.enable_cache(options.cache_capacity)
        if tracing:
            obs.reset()
            obs.enable()
        pump = None
        feed_buffer: io.StringIO | None = None
        if telemetry:
            runtime_mod.reset()
            runtime_mod.enable()
            feed_buffer = io.StringIO()
            writer = _LiveFeedWriter(
                feed_buffer, worker="main", display=display, model=model
            )
            pump = runtime_mod.TelemetryPump(
                writer, options.telemetry_interval, runtime_mod.ResourceSampler()
            )
            pump.start()
        if audit_handle is not None:
            # Stream straight into the (already truncated) output file;
            # the writer wraps the handle without taking ownership.
            audit_mod.enable(audit_handle)
        try:
            for ident in selected:
                report, sample, elapsed = _run_traced(
                    ident, RUNNERS_BY_IDENT[ident], options.mem, tracing
                )
                results.append((report, elapsed))
                failures += emit(
                    ident, report, elapsed,
                    sample.peak_bytes if sample is not None else None,
                )
        finally:
            if audit_handle is not None:
                audit_mod.disable()
            if pump is not None:
                pump.stop(final_snapshot=True)
                runtime_mod.disable()
                telemetry_text = feed_buffer.getvalue()
            if options.cache:
                cache_kernels = cache_mod.cache_stats()
                cache_mod.disable_cache()
                cache_mod.clear_caches()
            if tracing:
                obs.disable()
                from repro.obs.export import export_jsonl

                trace_text = export_jsonl(obs.tracer(), obs.counters())

    if display is not None and model is not None:
        for view in model.workers.values():
            if view.status in ("pending", "running"):
                view.status = "done"
        display.close(model)

    if telemetry_handle is not None:
        with telemetry_handle:
            telemetry_handle.write(telemetry_text or "")
        print(f"telemetry feed written to {options.telemetry_out}")

    if audit_handle is not None:
        audit_handle.close()
        print(f"audit trail written to {options.audit_out}")

    if tracing and trace_text is not None:
        if trace_handle is not None:
            with trace_handle:
                trace_handle.write(trace_text)
            print(f"trace written to {options.trace_out}")
        if profile_handle is not None:
            from repro.obs.export import spans_from_jsonl
            from repro.obs.profile import folded_stacks, speedscope_document

            spans = spans_from_jsonl(trace_text)
            with profile_handle:
                if options.profile_out.endswith(".json"):
                    json.dump(
                        speedscope_document(spans, name="run_experiments"),
                        profile_handle,
                    )
                    profile_handle.write("\n")
                else:
                    profile_handle.write(folded_stacks(spans))
            print(f"profile written to {options.profile_out}")

    record = metrics_mod.record_from_reports(
        results,
        root=REPO_ROOT,
        cache={"enabled": options.cache, "kernels": cache_kernels},
    )

    full_run = not wanted
    if options.bench_out is not None:
        bench_path: Path | None = Path(options.bench_out)
    elif full_run and not options.no_bench_out:
        bench_path = REPO_ROOT / metrics_mod.bench_filename()
    else:
        bench_path = None
    if bench_path is not None and not options.no_bench_out:
        metrics_mod.write_run_record(record, bench_path)
        print(f"run record written to {bench_path}")

    if options.update_baseline:
        promoted = baseline_mod.promote_baseline(record, options.baseline)
        print(f"baseline updated: {promoted}")

    if options.history or options.history_dir is not None:
        from repro.obs import history as history_mod

        history_dir = (
            Path(options.history_dir)
            if options.history_dir is not None
            else REPO_ROOT / history_mod.DEFAULT_HISTORY_RELPATH
        )
        entry = history_mod.append_history(
            record,
            directory=history_dir,
            label="smoke" if options.smoke else ("full" if full_run else "partial"),
        )
        print(
            f"history entry {entry.short_sha} ({entry.label}) appended to "
            f"{history_mod.history_path(history_dir)}"
        )

    regressions = 0
    if options.check_regressions and not options.update_baseline:
        try:
            base = baseline_mod.load_baseline(options.baseline)
            comparison = baseline_mod.compare(record, base)
        except MetricsError as exc:
            print(f"cannot check regressions: {exc}")
            return 2
        print(comparison.report().render())
        regressions = len(comparison.regressions(gate))
        if regressions:
            print(
                f"{regressions} gated regression(s) vs {options.baseline} "
                f"(gate: {', '.join(sorted(gate))})"
            )

    if failures:
        print(f"{failures} experiment(s) diverged from the paper's claims")
        return 1
    if regressions:
        return 2
    print("all selected experiments reproduce the paper's claimed shapes")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
