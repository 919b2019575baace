"""An interactive HLU shell over :class:`IncompleteDatabase`.

Run ``python -m repro.cli --letters 5`` (or the ``repro-hlu`` console
script) and type HLU programs in the paper's surface syntax::

    hlu> (assert {~A1 | A3, A1 | A4, A4 | A5, ~A1 | ~A2 | ~A5})
    hlu> (insert {A1 | A2})
    hlu> ? A1 | A2
    certain
    hlu> :state

Commands:

=================  ==================================================
``(...)``          apply an HLU program (assert/mask/insert/delete/
                   modify/where)
``? <formula>``    is the formula certain (true in every world)?
``?? <formula>``   is the formula possible (true in some world)?
``:state``         show the state in the backend representation
``:canonical``     show the state as prime implicates (canonical form)
``:worlds [n]``    list up to n possible worlds (default 8)
``:literals``      the literals certain in every world
``:history``       the updates applied so far
``:backend <b>``   switch to ``clausal`` or ``instance``
``:reset``         back to total ignorance
``:save <file>``   write the session (state + history) to a file
``:load <file>``   restore a session saved with :save
``:trace <c>``     ``on`` / ``off`` instrumentation; ``show`` the span
                   tree recorded so far; ``clear`` it
``:stats``         kernel counter deltas since the last ``:stats reset``
                   (needs ``:trace on``); ``:stats all`` for absolute
                   totals
``:profile [n]``   hotspot table of the spans recorded so far -- self
                   time, call counts, p50/p90/p99 -- top ``n`` rows
                   (default 15; needs ``:trace on``)
``:bench last``    summary of the most recent ``BENCH_*.json`` run
                   record (``:bench <file>`` for a specific one)
``:trend [e]``     per-experiment sparkline trends from the perf
                   history in ``benchmarks/history/`` (optionally
                   limited to the named experiment idents)
``:cache <c>``     ``on [capacity]`` / ``off`` kernel memoisation;
                   ``stats`` per-kernel hit/miss/eviction table;
                   ``clear`` drops every cached entry
``:watch [n]``     live telemetry view: per-op counts, windowed ops/s
                   and p50/p99, counters, gauges (auto-enables
                   ``repro.obs.runtime``); with ``n`` seconds and a
                   TTY, refreshes every ``n`` seconds until Ctrl-C
``:why [f]``       an independently verified derivation of why formula
                   ``f`` is certain (by refutation); with no argument,
                   of why the state is inconsistent (the empty clause)
``:audit <c>``     ``on [file]`` / ``off`` the session audit trail;
                   ``:audit [n]`` shows the last ``n`` in-memory
                   records (default 10); ``save <file>`` writes them
                   out; ``replay`` re-applies and checks the trail
``:help``          this text
``:quit``          leave
=================  ==================================================

The module doubles as the home of the benchmark-diff, trace-analysis,
and explain/audit tools::

    python -m repro.cli bench-diff BENCH_x.json [--against baseline.json]
        [--attribute [--trace t.jsonl] [--base-trace b.jsonl]]
    python -m repro.cli perf-history record BENCH_x.json [--label L]
    python -m repro.cli perf-history trend [EXPERIMENT ...] [--metric M]
    python -m repro.cli perf-history bisect [EXPERIMENT ...]
    python -m repro.cli trace-report trace.jsonl [--limit N]
        [--folded out.folded] [--speedscope out.speedscope.json]
    python -m repro.cli telemetry telemetry.jsonl [--prometheus]
    python -m repro.cli explain session.txt [--certain F | --clause C]
        [--max-clauses N] [--json]
    python -m repro.cli audit audit.jsonl [--replay] [--limit N]
    python -m repro.cli serve --socket /tmp/repro.sock
        [--telemetry-out feed.jsonl] [--audit-out trail.jsonl]

``bench-diff`` renders the run-vs-baseline regression table and exits
nonzero when gated metrics regressed (see README "Performance
trajectory"); with ``--attribute`` it also prints the ranked
regression-suspect table (per-span self-time deltas when traces are
supplied, per-kernel counter deltas, quantile shifts); ``perf-history``
maintains the append-only longitudinal log in ``benchmarks/history/``
(``record`` appends a run, ``trend`` renders sparkline trends, and
``bisect`` names the first commit where a metric left its noise band);
``trace-report`` schema-checks a ``--trace-out`` JSON-lines
file, prints its hotspot table, and can export flamegraph views (folded
stacks for ``flamegraph.pl``, JSON for speedscope); ``telemetry``
schema-checks a ``--telemetry-out`` JSONL feed and replays it as a
summary (workers, snapshot counts, final per-op table -- or the final
state as a Prometheus text exposition with ``--prometheus``);
``explain`` loads a saved session file and prints a derivation -- of why
a formula is certain, a clause is in the closure, or the state is
inconsistent -- re-checked by the independent verifier (exit 1 when no
derivation exists, 2 when verification fails); ``audit`` schema-checks a
session audit trail (exit 2 on drift) and, with ``--replay``, rebuilds
every session, re-applies each operation, and exits 2 when any recorded
fingerprint or outcome disagrees; ``serve`` runs the concurrent update
service (newline-delimited JSON over a Unix or TCP socket, graceful
drain on SIGTERM -- see :mod:`repro.server`; ``perfbench/run.py``
measures it and checks every answer).
"""

from __future__ import annotations

import argparse
import difflib
import sys

from repro import obs
from repro.errors import ReproError
from repro.hlu.session import IncompleteDatabase

__all__ = ["Shell", "main"]

_HELP = __doc__.split("Commands:", 1)[1]

_COMMANDS = (
    "state",
    "worlds",
    "literals",
    "canonical",
    "history",
    "backend",
    "reset",
    "save",
    "load",
    "trace",
    "stats",
    "profile",
    "bench",
    "trend",
    "cache",
    "watch",
    "why",
    "audit",
    "help",
    "quit",
    "exit",
)


class Shell:
    """The REPL engine, decoupled from stdin/stdout for testability.

    :meth:`execute` takes one input line and returns the text to print
    (possibly empty); it never raises on user errors.
    """

    def __init__(self, letters: int | list[str] = 5, backend: str = "clausal"):
        self._letters = letters
        self._db = IncompleteDatabase.over(letters, backend=backend)
        self._stats_baseline: dict[str, int] = obs.counters().snapshot()
        self.done = False

    @property
    def db(self) -> IncompleteDatabase:
        """The live session."""
        return self._db

    def execute(self, line: str) -> str:
        line = line.strip()
        if not line or line.startswith(";"):
            return ""
        try:
            return self._dispatch(line)
        except ReproError as error:
            return f"error: {error}"

    def _dispatch(self, line: str) -> str:
        if line.startswith("??"):
            possible = self._db.is_possible(line[2:].strip())
            return "possible" if possible else "impossible"
        if line.startswith("?"):
            certain = self._db.is_certain(line[1:].strip())
            return "certain" if certain else "not certain"
        if line.startswith(":"):
            return self._command(line[1:])
        if line.startswith("("):
            self._db.run(line)
            status = "ok" if self._db.is_consistent() else "ok (state is now inconsistent!)"
            return status
        return f"error: unrecognised input {line!r} (try :help)"

    def _command(self, command: str) -> str:
        parts = command.split()
        name, args = parts[0], parts[1:]
        if name == "state":
            return str(self._db.state)
        if name == "worlds":
            limit = int(args[0]) if args else 8
            return self._db.worlds().describe(limit=limit)
        if name == "literals":
            literals = sorted(self._db.certain_literals())
            return ", ".join(literals) if literals else "(none)"
        if name == "canonical":
            return str(self._db.canonical_clauses())
        if name == "history":
            if not self._db.history:
                return "(no updates yet)"
            return "\n".join(
                f"{i:3}. {update}" for i, update in enumerate(self._db.history, 1)
            )
        if name == "backend":
            if not args:
                return self._db.backend
            self._db = self._db.with_backend(args[0])
            return f"switched to {args[0]}"
        if name == "reset":
            self._db = IncompleteDatabase.over(self._letters, backend=self._db.backend)
            return "reset to total ignorance"
        if name == "save":
            if not args:
                return "error: :save needs a file path"
            from repro.hlu.persistence import dump_session

            with open(args[0], "w") as handle:
                handle.write(dump_session(self._db))
            return f"saved to {args[0]}"
        if name == "load":
            if not args:
                return "error: :load needs a file path"
            from repro.hlu.persistence import load_session

            with open(args[0]) as handle:
                self._db = load_session(handle.read())
            return f"loaded {args[0]} ({len(self._db.history)} update(s) of history)"
        if name == "trace":
            return self._trace_command(args)
        if name == "stats":
            return self._stats_command(args)
        if name == "profile":
            return self._profile_command(args)
        if name == "bench":
            return self._bench_command(args)
        if name == "trend":
            return self._trend_command(args)
        if name == "cache":
            return self._cache_command(args)
        if name == "watch":
            return self._watch_command(args)
        if name == "why":
            return self._why_command(args)
        if name == "audit":
            return self._audit_command(args)
        if name == "help":
            return _HELP.strip("\n")
        if name in ("quit", "exit", "q"):
            self.done = True
            return ""
        close = difflib.get_close_matches(name, _COMMANDS, n=1)
        hint = f" -- did you mean :{close[0]}?" if close else ""
        return f"error: unknown command :{name}{hint} (try :help)"

    def _trace_command(self, args: list[str]) -> str:
        mode = args[0] if args else "show"
        if mode == "on":
            obs.enable()
            return "tracing on"
        if mode == "off":
            obs.disable()
            return "tracing off"
        if mode == "show":
            from repro.obs.export import render_span_tree

            return render_span_tree(obs.tracer())
        if mode == "clear":
            obs.tracer().clear()
            return "trace cleared"
        return "error: :trace takes on, off, show, or clear"

    def _stats_command(self, args: list[str]) -> str:
        from repro.obs.export import counter_report

        if args and args[0] == "reset":
            self._stats_baseline = obs.counters().snapshot()
            return "counters reset"
        if args and args[0] == "all":
            totals = obs.counters().counts
            if not totals:
                if not obs.is_enabled():
                    return (
                        "(no counter activity -- instrumentation is off; "
                        "try :trace on)"
                    )
                return "(no counter activity recorded)"
            report = counter_report(
                totals,
                ident="STATS",
                title="kernel counters (absolute)",
                claim="absolute counter totals for this session",
            )
            return report.render().rstrip("\n")
        if args:
            return "error: :stats takes no argument, all, or reset"
        delta = obs.counters().delta(self._stats_baseline)
        if not delta:
            if not obs.is_enabled():
                return "(no counter activity -- instrumentation is off; try :trace on)"
            return "(no counter activity since the last reset)"
        report = counter_report(
            delta,
            ident="STATS",
            title="kernel counters",
            claim="counter deltas since the last :stats reset",
        )
        return report.render().rstrip("\n")

    def _profile_command(self, args: list[str]) -> str:
        from repro.obs.report import hotspot_report

        limit = 15
        if args:
            try:
                limit = int(args[0])
            except ValueError:
                return "error: :profile takes an optional row limit (a number)"
        tracer = obs.tracer()
        if not tracer.roots:
            if not obs.is_enabled():
                return "(no spans recorded -- instrumentation is off; try :trace on)"
            return "(no spans recorded)"
        return hotspot_report(tracer, limit=limit).render().rstrip("\n")

    def _cache_command(self, args: list[str]) -> str:
        from repro import cache

        mode = args[0] if args else "stats"
        if mode == "on":
            capacity = None
            if len(args) > 1:
                try:
                    capacity = int(args[1])
                except ValueError:
                    return "error: :cache on takes an optional capacity (a number)"
                if capacity < 0:
                    return "error: cache capacity must be >= 0"
            cache.enable_cache(capacity)
            return f"kernel cache on (capacity {cache.cache_capacity()} per kernel)"
        if mode == "off":
            cache.disable_cache()
            return "kernel cache off (entries kept; :cache clear to drop them)"
        if mode == "clear":
            cache.clear_caches()
            return "kernel cache cleared"
        if mode == "stats":
            stats = cache.cache_stats()
            state = "on" if cache.cache_enabled() else "off"
            if not stats:
                return f"(kernel cache {state}; no lookups recorded)"
            from repro.bench.harness import Report

            report = Report(
                ident="CACHE",
                title=f"kernel memo-cache ({state})",
                claim="per-kernel hit/miss/eviction tallies",
                columns=("kernel",) + cache.STAT_KEYS,
            )
            for kernel, values in stats.items():
                report.add_row(kernel, *(values[key] for key in cache.STAT_KEYS))
            return report.render().rstrip("\n")
        return "error: :cache takes on [capacity], off, stats, or clear"

    def _watch_command(self, args: list[str]) -> str:
        from repro.obs import live, runtime

        interval = None
        if args:
            try:
                interval = float(args[0])
            except ValueError:
                return "error: :watch takes an optional refresh interval in seconds"
            if interval <= 0:
                return "error: :watch interval must be > 0"
        newly_enabled = not runtime.is_enabled()
        if newly_enabled:
            runtime.enable()
        frame = live.render_watch(
            runtime.registry().live_record(), title="live telemetry"
        )
        if newly_enabled:
            frame += "\n(telemetry was off -- now recording; run some updates)"
        if interval is None or not sys.stdout.isatty():
            return frame
        # Interactive refresh loop: repaint in place until Ctrl-C.
        import time

        display_height = 0
        try:
            while True:
                frame = live.render_watch(
                    runtime.registry().live_record(), title="live telemetry"
                )
                lines = frame.split("\n")
                if display_height:
                    sys.stdout.write(f"\x1b[{display_height}F")
                sys.stdout.write("".join(f"\x1b[2K{line}\n" for line in lines))
                sys.stdout.flush()
                display_height = len(lines)
                time.sleep(interval)
        except KeyboardInterrupt:
            return ""

    def _why_command(self, args: list[str]) -> str:
        from repro.logic.clauses import clause_to_str
        from repro.logic.cnf import formula_to_clauses
        from repro.logic.parser import parse_formula
        from repro.obs import provenance

        clause_set = self._db.clauses()
        if not args:
            steps = provenance.explain_inconsistency(clause_set)
            if steps is None:
                return (
                    "state is consistent -- no derivation of the empty "
                    "clause exists (try :why <formula>)"
                )
            return self._render_proof("why the state is inconsistent", steps)
        formula = parse_formula(" ".join(args))
        query = formula_to_clauses(formula, self._db.vocabulary)
        targets = query.sorted_clauses()
        if not targets:
            return "certain (the formula is a tautology -- nothing to derive)"
        blocks = []
        for target in targets:
            rendered = clause_to_str(self._db.vocabulary, target)
            steps = provenance.explain_entailment(clause_set, target)
            if steps is None:
                return (
                    f"not certain: no refutation derives {rendered} "
                    "(a world violating it is possible)"
                )
            blocks.append(self._render_proof(f"why {rendered} is certain", steps))
        return "\n\n".join(blocks)

    def _render_proof(self, title: str, steps) -> str:
        from repro.obs import provenance

        defects = provenance.verify_derivation(
            steps, target=steps[-1].clause, axioms=self._db.clauses().clauses
        )
        proof = provenance.render_derivation(steps, self._db.vocabulary)
        status = (
            "independently verified"
            if not defects
            else "VERIFICATION FAILED: " + "; ".join(defects)
        )
        return f"{title}:\n{proof}\n({len(steps)} step(s), {status})"

    def _audit_command(self, args: list[str]) -> str:
        from repro.errors import AuditError
        from repro.hlu import audit as audit_mod

        mode = args[0] if args else "show"
        if mode == "on":
            if len(args) > 1:
                audit_mod.enable(args[1])
                self._db.attach_audit()
                return f"audit on -> {args[1]} (append-only JSONL)"
            audit_mod.enable()
            self._db.attach_audit()
            return "audit on (in-memory; :audit save <file> to write it out)"
        if mode == "off":
            if not audit_mod.is_enabled():
                return "audit is already off"
            audit_mod.disable()
            return "audit off"
        if mode == "save":
            if len(args) < 2:
                return "error: :audit save needs a file path"
            sink = audit_mod.sink()
            if not isinstance(sink, audit_mod.AuditTrail):
                return (
                    "error: :audit save needs the in-memory trail "
                    "(a file sink already persists its records)"
                )
            sink.save(args[1])
            return f"saved {len(sink)} audit record(s) to {args[1]}"
        if mode == "replay":
            sink = audit_mod.sink()
            if not isinstance(sink, audit_mod.AuditTrail):
                return (
                    "error: :audit replay needs the in-memory trail "
                    "(use 'python -m repro.cli audit FILE --replay' on files)"
                )
            try:
                return audit_mod.replay_audit(sink).render()
            except AuditError as error:
                return f"error: {error}"
        if mode == "show":
            limit = 10
        else:
            try:
                limit = int(mode)
            except ValueError:
                return (
                    "error: :audit takes on [file], off, save <file>, "
                    "replay, or a record count"
                )
        sink = audit_mod.sink()
        if sink is None:
            return "(audit is off; :audit on to start recording)"
        if not isinstance(sink, audit_mod.AuditTrail):
            return "(audit records are streaming to a file; :audit off closes it)"
        records = sink.records[-limit:] if limit > 0 else []
        if not records:
            return "(no audit records yet)"
        lines = []
        for record in records:
            if record["kind"] == "session":
                lines.append(
                    f"{record['session']}  session  backend={record['backend']} "
                    f"{len(record['letters'])} letter(s), "
                    f"{len(record['initial'])} clause(s)"
                )
                continue
            head = f"{record['session']} #{record['seq']}  {record['op']}"
            if record["args"]:
                head += f" {record['args']}"
            post = record.get("post")
            shape = (
                f" {record['pre']['n']}->{post['n']} clause(s)" if post else ""
            )
            error = f" ({record['error']})" if "error" in record else ""
            lines.append(
                f"{head}  -> {record['outcome']}{shape} "
                f"[{record['wall_ms']:.2f}ms]{error}"
            )
        return "\n".join(lines)

    def _bench_command(self, args: list[str]) -> str:
        from repro.obs import metrics

        target = args[0] if args else "last"
        if target == "last":
            from pathlib import Path

            directory = Path.cwd()
            found = metrics.latest_bench_file(directory)
            if found is None:
                return (
                    f"(no {metrics.BENCH_PREFIX}*.json run records in "
                    f"{directory}; record one with "
                    f"'python benchmarks/run_experiments.py')"
                )
            path = found
        else:
            path = target
        try:
            record = metrics.read_run_record(path)
        except ReproError as error:
            return f"error: {error}"
        report = metrics.summary_report(record, source=str(path))
        return report.render().rstrip("\n")

    def _trend_command(self, args: list[str]) -> str:
        from pathlib import Path

        from repro.obs import history as history_mod

        directory = Path.cwd() / history_mod.DEFAULT_HISTORY_RELPATH
        try:
            entries = history_mod.read_history(directory)
        except ReproError as error:
            return f"error: {error}"
        report = history_mod.trend_report(
            entries,
            experiments=args or None,
            source=str(history_mod.history_path(directory)),
        )
        if not report.rows:
            wanted = ", ".join(args) if args else "(any)"
            return f"(no history for experiment(s) {wanted})"
        return report.render().rstrip("\n")


def _input_error(path: object, problem: object) -> int:
    """The uniform CLI input failure: one stderr line, exit code 2.

    Every file-reading subcommand funnels unreadable/missing/malformed
    input through here, so the shape is always ``error: <path>: ...``
    and never a raw traceback.
    """
    print(f"error: {path}: {problem}", file=sys.stderr)
    return 2


def _read_input_file(path: str) -> str:
    """Read a CLI input file as text; raises ``OSError`` or
    ``UnicodeDecodeError`` (both handled by callers via
    :func:`_input_error`)."""
    with open(path, encoding="utf-8") as handle:
        return handle.read()


def bench_diff_main(argv: list[str]) -> int:
    """``python -m repro.cli bench-diff``: diff a run record vs a baseline.

    Exits 0 when no gated metric regressed, 1 when one did, 2 on a
    usage/data error (missing file, malformed record, schema mismatch).
    With ``--attribute`` the ranked-suspect table
    (:mod:`repro.obs.attribution`) prints under the regression table --
    per-experiment counter deltas always, per-span self-time deltas and
    quantile shifts when ``--trace``/``--base-trace`` supply the two
    recorded traces.
    """
    from repro.obs import baseline as baseline_mod
    from repro.obs import metrics as metrics_mod

    parser = argparse.ArgumentParser(
        prog="repro-hlu bench-diff",
        description="Compare a BENCH_*.json run record against a baseline.",
    )
    parser.add_argument("run", help="the run record (BENCH_*.json) to check")
    parser.add_argument(
        "--against",
        metavar="FILE",
        default=None,
        help="baseline run record (default: benchmarks/baselines/baseline.json "
        "next to the installed repo, else required)",
    )
    parser.add_argument(
        "--gate",
        metavar="KINDS",
        default="seconds,counter,fit",
        help="comma-separated metric kinds that can fail the diff "
        "(subset of: seconds,counter,fit)",
    )
    parser.add_argument(
        "--include-neutral",
        action="store_true",
        help="show neutral counter/fit rows too",
    )
    parser.add_argument(
        "--attribute",
        action="store_true",
        help="also print the ranked regression-suspect table "
        "(repro.obs.attribution)",
    )
    parser.add_argument(
        "--trace",
        metavar="FILE",
        default=None,
        help="this run's --trace-out JSONL, for span-level attribution "
        "(requires --attribute)",
    )
    parser.add_argument(
        "--base-trace",
        metavar="FILE",
        default=None,
        help="the baseline run's --trace-out JSONL (requires --attribute)",
    )
    options = parser.parse_args(argv)
    try:
        gate = baseline_mod.parse_gate(options.gate)
    except ValueError as error:
        parser.error(str(error))
    if (options.trace or options.base_trace) and not options.attribute:
        parser.error("--trace/--base-trace require --attribute")
    against = options.against
    if against is None:
        from pathlib import Path

        against = Path.cwd() / baseline_mod.DEFAULT_BASELINE_RELPATH
    try:
        run = metrics_mod.read_run_record(options.run)
    except ReproError as error:
        return _input_error(options.run, error)
    try:
        base = baseline_mod.load_baseline(against)
    except ReproError as error:
        return _input_error(against, error)
    try:
        comparison = baseline_mod.compare(run, base)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    print(comparison.report(include_neutral=options.include_neutral).render())

    if options.attribute:
        from repro.obs import attribution as attribution_mod
        from repro.obs.export import spans_from_jsonl

        traces = {}
        for trace_path in (options.trace, options.base_trace):
            if trace_path is None:
                traces[trace_path] = None
                continue
            try:
                traces[trace_path] = spans_from_jsonl(_read_input_file(trace_path))
            except (OSError, UnicodeDecodeError) as exc:
                return _input_error(trace_path, exc)
            except (ValueError, KeyError, TypeError) as exc:
                return _input_error(trace_path, f"malformed trace: {exc}")
        run_spans = traces[options.trace]
        base_spans = traces[options.base_trace]
        attributed = attribution_mod.attribute(
            run, base, run_spans=run_spans, base_spans=base_spans
        )
        print(attributed.report().render())

    regressions = comparison.regressions(gate)
    if regressions:
        print(
            f"{len(regressions)} gated regression(s) "
            f"(gate: {', '.join(sorted(gate))})"
        )
        return 1
    print("no regressions against the baseline")
    return 0


def trace_report_main(argv: list[str]) -> int:
    """``python -m repro.cli trace-report``: analyse a ``--trace-out`` file.

    Schema-checks the JSON-lines trace (exit 2 on drift or unreadable
    input), prints the hotspot table -- per-span-name self time, call
    counts, and p50/p90/p99 of per-call self times -- and optionally
    writes flamegraph exports: ``--folded`` (collapsed folded-stack text
    for ``flamegraph.pl``) and ``--speedscope`` (speedscope JSON).
    """
    import json

    from repro.obs.export import spans_from_jsonl, validate_jsonl
    from repro.obs.profile import folded_stacks, speedscope_document
    from repro.obs.report import hotspot_report

    parser = argparse.ArgumentParser(
        prog="repro-hlu trace-report",
        description="Hotspot table and flamegraph exports for a recorded trace.",
    )
    parser.add_argument(
        "trace", help="JSON-lines trace file (run_experiments.py --trace-out)"
    )
    parser.add_argument(
        "--limit",
        type=int,
        default=15,
        metavar="N",
        help="show the N hottest span names (default 15)",
    )
    parser.add_argument(
        "--folded",
        metavar="FILE",
        default=None,
        help="also write collapsed folded stacks (flamegraph.pl format)",
    )
    parser.add_argument(
        "--speedscope",
        metavar="FILE",
        default=None,
        help="also write a speedscope-compatible JSON profile",
    )
    parser.add_argument(
        "--no-validate",
        action="store_true",
        help="skip the JSON-lines schema check (e.g. for traces from "
        "older builds)",
    )
    options = parser.parse_args(argv)
    try:
        text = _read_input_file(options.trace)
    except (OSError, UnicodeDecodeError) as exc:
        return _input_error(options.trace, exc)
    if not options.no_validate:
        errors = validate_jsonl(text)
        if errors:
            for error in errors:
                print(f"error: {options.trace}: {error}", file=sys.stderr)
            return 2
    try:
        spans = spans_from_jsonl(text)
    except (ValueError, KeyError, TypeError) as exc:
        print(f"error: cannot parse trace file {options.trace}: {exc}", file=sys.stderr)
        return 2
    print(hotspot_report(spans, limit=options.limit).render())
    if options.folded is not None:
        with open(options.folded, "w") as handle:
            handle.write(folded_stacks(spans))
        print(f"folded stacks written to {options.folded}")
    if options.speedscope is not None:
        with open(options.speedscope, "w") as handle:
            json.dump(speedscope_document(spans, name=options.trace), handle)
            handle.write("\n")
        print(f"speedscope profile written to {options.speedscope}")
    return 0


def telemetry_main(argv: list[str]) -> int:
    """``python -m repro.cli telemetry``: replay a telemetry JSONL feed.

    Schema-checks the feed (exit 2 on drift or unreadable input), prints
    its provenance (schema, window, workers, snapshot counts) and the
    final per-op summary -- windowed ops/s and p50/p99 from the last
    snapshot of each worker, merged exactly, then its counters and
    gauges.  ``--prometheus`` instead renders that final merged state in
    Prometheus text exposition format.
    """
    from repro.obs import live
    from repro.obs import runtime

    parser = argparse.ArgumentParser(
        prog="repro-hlu telemetry",
        description="Summarise a telemetry feed (run_experiments.py --telemetry-out).",
    )
    parser.add_argument(
        "feed", help="JSONL telemetry feed (run_experiments.py --telemetry-out)"
    )
    parser.add_argument(
        "--prometheus",
        action="store_true",
        help="render the final merged state as a Prometheus text exposition",
    )
    parser.add_argument(
        "--no-validate",
        action="store_true",
        help="skip the feed schema check (e.g. for feeds from older builds)",
    )
    options = parser.parse_args(argv)
    try:
        text = _read_input_file(options.feed)
    except (OSError, UnicodeDecodeError) as exc:
        return _input_error(options.feed, exc)
    if not options.no_validate:
        errors = runtime.validate_feed(text)
        if errors:
            for error in errors:
                print(f"error: {options.feed}: {error}", file=sys.stderr)
            return 2
    meta, snapshots = runtime.read_feed(text)
    if not snapshots:
        print(f"{options.feed}: feed has no snapshots")
        return 0

    # The final state: each worker's last snapshot, merged exactly (a
    # pre-merged "merged" record, when present, already is that).
    finals: dict[str, dict] = {}
    for snap in snapshots:
        finals[str(snap.get("worker") or "main")] = snap
    if "merged" in finals and len(finals) > 1:
        final = finals.pop("merged")
    elif len(finals) == 1:
        final = next(iter(finals.values()))
    else:
        final = runtime.merge_snapshots(list(finals.values()))

    if options.prometheus:
        print(runtime.prometheus_from_snapshot(final), end="")
        return 0

    if meta is not None:
        workers = meta.get("workers") or (
            [meta["worker"]] if meta.get("worker") else []
        )
        print(
            f"{options.feed}: feed schema {meta.get('schema')}, "
            f"window {meta.get('window_seconds')}s x {meta.get('slots')} slot(s)"
        )
        if workers:
            print(f"workers: {', '.join(str(w) for w in workers)}")
    per_worker: dict[str, int] = {}
    for snap in snapshots:
        label = str(snap.get("worker") or "main")
        per_worker[label] = per_worker.get(label, 0) + 1
    print(
        f"{len(snapshots)} snapshot(s): "
        + ", ".join(f"{label} x{n}" for label, n in sorted(per_worker.items()))
    )
    print()
    print(live.render_watch(final, title=f"final state ({options.feed})"))
    return 0


def explain_main(argv: list[str]) -> int:
    """``python -m repro.cli explain``: a verified derivation for a session.

    Loads a session file (written by the REPL's ``:save`` or
    :func:`repro.hlu.persistence.dump_session`) and derives -- then
    re-checks with the independent verifier -- why a formula is certain
    (``--certain``, by refutation), why a clause is in the resolution
    closure (``--clause``), or, by default, why the state is
    inconsistent.  Exits 0 with the rendered (or ``--json``) proof, 1
    when no derivation exists (the formula is not certain / the clause
    not derivable / the state consistent), 2 on unreadable input, an
    exhausted ``--max-clauses`` budget, or a derivation the verifier
    rejects.
    """
    import json

    from repro.errors import ClosureBudgetError
    from repro.hlu.persistence import load_session
    from repro.logic.clauses import clause_to_str
    from repro.logic.cnf import formula_to_clauses
    from repro.logic.parser import parse_formula
    from repro.obs import provenance

    parser = argparse.ArgumentParser(
        prog="repro-hlu explain",
        description="Derive, and independently verify, why a saved session "
        "state entails a formula, contains a clause, or is inconsistent.",
    )
    parser.add_argument(
        "session", help="a session file (REPL :save / hlu.persistence)"
    )
    question = parser.add_mutually_exclusive_group()
    question.add_argument(
        "--certain",
        metavar="FORMULA",
        default=None,
        help="explain why this formula is certain (one refutation per "
        "clause of its CNF)",
    )
    question.add_argument(
        "--clause",
        metavar="CLAUSE",
        default=None,
        help="explain why this clause is in the resolution closure",
    )
    parser.add_argument(
        "--max-clauses",
        type=int,
        default=100_000,
        metavar="N",
        help="saturation budget for the explanation (default 100000)",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit each derivation as one schema-versioned JSON document "
        "per line instead of the rendered proof",
    )
    options = parser.parse_args(argv)
    try:
        db = load_session(_read_input_file(options.session))
    except (OSError, UnicodeDecodeError) as exc:
        return _input_error(options.session, exc)
    except ReproError as exc:
        return _input_error(options.session, exc)
    clause_set = db.clauses()
    vocabulary = db.vocabulary

    proofs: list[tuple[str, list]] = []
    try:
        if options.clause is not None:
            query = formula_to_clauses(parse_formula(options.clause), vocabulary)
            targets = query.sorted_clauses()
            if len(targets) != 1:
                print(
                    "error: --clause needs a single disjunction of literals "
                    f"(got {len(targets)} clause(s))",
                    file=sys.stderr,
                )
                return 2
            target = targets[0]
            rendered = clause_to_str(vocabulary, target)
            steps = provenance.explain_in_closure(
                clause_set, target, max_clauses=options.max_clauses
            )
            if steps is None:
                print(
                    f"{rendered} is not in the resolution closure "
                    "(an entailed-but-subsumed clause needs --certain)"
                )
                return 1
            proofs.append((f"why {rendered} is in the closure", steps))
        elif options.certain is not None:
            query = formula_to_clauses(parse_formula(options.certain), vocabulary)
            targets = query.sorted_clauses()
            if not targets:
                print("certain (the formula is a tautology -- nothing to derive)")
                return 0
            for target in targets:
                rendered = clause_to_str(vocabulary, target)
                steps = provenance.explain_entailment(
                    clause_set, target, max_clauses=options.max_clauses
                )
                if steps is None:
                    print(
                        f"not certain: no refutation derives {rendered} "
                        "(a world violating it is possible)"
                    )
                    return 1
                proofs.append((f"why {rendered} is certain", steps))
        else:
            steps = provenance.explain_inconsistency(
                clause_set, max_clauses=options.max_clauses
            )
            if steps is None:
                print(
                    f"{options.session}: state is consistent -- no derivation "
                    "of the empty clause exists"
                )
                return 1
            proofs.append(("why the state is inconsistent", steps))
    except ReproError as exc:
        if isinstance(exc, ClosureBudgetError):
            print(f"error: {exc} (raise --max-clauses?)", file=sys.stderr)
        else:
            print(f"error: {exc}", file=sys.stderr)
        return 2

    failed = False
    for title, steps in proofs:
        defects = provenance.verify_derivation(
            steps, target=steps[-1].clause, axioms=clause_set.clauses
        )
        if defects:
            failed = True
            for defect in defects:
                print(f"error: {title}: {defect}", file=sys.stderr)
            continue
        if options.json:
            print(json.dumps(provenance.derivation_to_json(steps), sort_keys=True))
        else:
            print(f"{title}:")
            print(provenance.render_derivation(steps, vocabulary))
            print(f"({len(steps)} step(s), independently verified)")
    return 2 if failed else 0


def audit_main(argv: list[str]) -> int:
    """``python -m repro.cli audit``: validate / summarise / replay a trail.

    Schema-checks and structurally validates an audit JSONL file (exit 2
    on drift or malformed records), prints a summary, and -- with
    ``--replay`` -- rebuilds every recorded session, re-applies each
    operation, and checks the recorded pre/post fingerprints and query
    outcomes, exiting 2 on any disagreement.
    """
    from repro.errors import AuditError
    from repro.hlu import audit as audit_mod

    parser = argparse.ArgumentParser(
        prog="repro-hlu audit",
        description="Validate, summarise, and replay a session audit trail.",
    )
    parser.add_argument(
        "trail",
        help="audit JSONL file (REPL ':audit on FILE' or "
        "run_experiments.py --audit-out)",
    )
    parser.add_argument(
        "--replay",
        action="store_true",
        help="rebuild every session and re-apply each operation, checking "
        "the recorded fingerprints and outcomes",
    )
    parser.add_argument(
        "--limit",
        type=int,
        default=0,
        metavar="N",
        help="also print the last N operation records",
    )
    options = parser.parse_args(argv)
    try:
        records = audit_mod.read_audit(options.trail)
    except (OSError, UnicodeDecodeError) as exc:
        return _input_error(options.trail, exc)
    except AuditError as exc:
        return _input_error(options.trail, exc)
    problems = audit_mod.validate_audit(records)
    if problems:
        for problem in problems:
            print(f"error: {options.trail}: {problem}", file=sys.stderr)
        return 2
    sessions = [r for r in records if r["kind"] == "session"]
    ops = [r for r in records if r["kind"] == "op"]
    outcomes: dict[str, int] = {}
    for record in ops:
        outcomes[record["outcome"]] = outcomes.get(record["outcome"], 0) + 1
    summary = ", ".join(f"{name} x{n}" for name, n in sorted(outcomes.items()))
    print(
        f"{options.trail}: schema {audit_mod.AUDIT_SCHEMA_VERSION}, "
        f"{len(sessions)} session(s), {len(ops)} op(s)"
        + (f" ({summary})" if summary else "")
    )
    for record in ops[-options.limit:] if options.limit > 0 else []:
        head = f"  {record['session']} #{record['seq']} {record['op']}"
        if record["args"]:
            head += f" {record['args']}"
        print(f"{head} -> {record['outcome']} [{record['wall_ms']:.2f}ms]")
    if options.replay:
        try:
            report = audit_mod.replay_audit(records)
        except AuditError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(report.render())
        if not report.ok:
            return 2
    return 0


def perf_history_main(argv: list[str]) -> int:
    """``python -m repro.cli perf-history``: the longitudinal perf log.

    ``record RUN`` appends one BENCH run record to the append-only
    history store (default ``benchmarks/history/history.jsonl``);
    ``trend`` renders per-experiment sparkline tables and exits 1 when a
    metric has drifted out of its noise band; ``bisect`` names the first
    recorded commit where each drifting metric left the band (exit 0
    when it found one, 1 when everything is stable).  All subcommands
    exit 2 on missing, unreadable, or schema-drifted input.
    """
    from pathlib import Path

    from repro.obs import history as history_mod
    from repro.obs import metrics as metrics_mod

    parser = argparse.ArgumentParser(
        prog="repro-hlu perf-history",
        description="Record and interrogate the longitudinal benchmark history.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    def add_dir(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "--dir",
            metavar="DIR",
            default=None,
            help="history directory or .jsonl file "
            "(default: benchmarks/history/ under the current directory)",
        )

    record_parser = subparsers.add_parser(
        "record", help="append a BENCH run record to the history"
    )
    record_parser.add_argument("run", help="the BENCH_*.json run record to append")
    add_dir(record_parser)
    record_parser.add_argument(
        "--label",
        default="full",
        help="entry label, e.g. full/smoke/baseline (default: full)",
    )

    def add_query_args(sub: argparse.ArgumentParser, metric_default: str | None) -> None:
        sub.add_argument(
            "experiments",
            nargs="*",
            metavar="EXPERIMENT",
            help="experiment ident(s); default: every experiment in the "
            "most recent entry",
        )
        add_dir(sub)
        sub.add_argument(
            "--metric",
            default=metric_default,
            metavar="METRIC",
            help="seconds, counter:NAME or fit:NAME"
            + (
                " (default: seconds)"
                if metric_default
                else " (default: scan every recorded metric)"
            ),
        )
        sub.add_argument(
            "--last",
            type=int,
            default=0,
            metavar="N",
            help="only consider the N most recent runs (default: all)",
        )
        sub.add_argument(
            "--machine",
            default=None,
            metavar="KEY",
            help="filter to one machine key; 'current' resolves this "
            "machine's key (default: no filter)",
        )

    trend_parser = subparsers.add_parser(
        "trend", help="per-experiment sparkline trend table with drift verdicts"
    )
    add_query_args(trend_parser, "seconds")
    bisect_parser = subparsers.add_parser(
        "bisect", help="name the first commit where a metric left its noise band"
    )
    add_query_args(bisect_parser, None)

    options = parser.parse_args(argv)
    directory = options.dir or (Path.cwd() / history_mod.DEFAULT_HISTORY_RELPATH)

    if options.command == "record":
        try:
            record = metrics_mod.read_run_record(options.run)
        except ReproError as error:
            return _input_error(options.run, error)
        try:
            entry = history_mod.append_history(
                record, directory=directory, label=options.label
            )
        except OSError as error:
            return _input_error(directory, error)
        target = history_mod.history_path(directory)
        print(
            f"recorded {entry.short_sha} ({entry.label}, machine "
            f"{entry.machine}) -> {target}"
        )
        return 0

    machine = options.machine
    if machine == "current":
        machine = history_mod.machine_key(metrics_mod.machine_fingerprint())
    try:
        entries = history_mod.read_history(directory)
    except ReproError as error:
        return _input_error(history_mod.history_path(directory), error)
    experiments = list(options.experiments) or (
        list(entries[-1].record.idents) if entries else []
    )

    if options.command == "trend":
        report = history_mod.trend_report(
            entries,
            experiments=experiments or None,
            metric=options.metric,
            last=options.last,
            machine=machine,
            source=str(history_mod.history_path(directory)),
        )
        print(report.render())
        return 0 if report.holds else 1

    changepoints = []
    for ident in experiments:
        metrics = (
            [options.metric]
            if options.metric
            else history_mod.available_metrics(entries, ident)
        )
        for metric in metrics:
            trend = history_mod.experiment_trend(
                entries,
                ident,
                metric=metric,
                last=options.last,
                machine=machine,
            )
            changepoint = history_mod.detect_changepoint(trend)
            if changepoint is not None:
                changepoints.append(changepoint)
    if not changepoints:
        print(
            f"no changepoint across {len(entries)} run(s): every tracked "
            f"metric stayed inside its noise band"
        )
        return 1
    for changepoint in changepoints:
        point = changepoint.point
        print(
            f"{changepoint.experiment} {changepoint.metric}: "
            f"{changepoint.status} at {point.short_sha} "
            f"({point.recorded}, {point.label}) -- "
            f"{changepoint.before:.6g} -> {changepoint.after:.6g} "
            f"({changepoint.relative:+.0%})"
        )
    return 0


def main(argv: list[str] | None = None) -> int:
    """Console entry point."""
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "bench-diff":
        return bench_diff_main(argv[1:])
    if argv and argv[0] == "perf-history":
        return perf_history_main(argv[1:])
    if argv and argv[0] == "trace-report":
        return trace_report_main(argv[1:])
    if argv and argv[0] == "telemetry":
        return telemetry_main(argv[1:])
    if argv and argv[0] == "explain":
        return explain_main(argv[1:])
    if argv and argv[0] == "audit":
        return audit_main(argv[1:])
    if argv and argv[0] == "serve":
        from repro.server.service import serve_main

        return serve_main(argv[1:])
    parser = argparse.ArgumentParser(
        prog="repro-hlu", description="Interactive HLU shell (Hegner, PODS 1987)"
    )
    parser.add_argument(
        "--letters",
        default="5",
        help="vocabulary: a count (standard A1..An) or comma-separated names",
    )
    parser.add_argument(
        "--backend", choices=("clausal", "instance"), default="clausal"
    )
    parser.add_argument(
        "--script", help="run HLU programs from a file, then exit", default=None
    )
    options = parser.parse_args(argv)

    letters: int | list[str]
    if options.letters.isdigit():
        letters = int(options.letters)
    else:
        letters = [name.strip() for name in options.letters.split(",")]
    shell = Shell(letters, backend=options.backend)

    if options.script:
        with open(options.script) as handle:
            for line in handle:
                output = shell.execute(line)
                if output:
                    print(output)
        return 0

    print("HLU shell -- :help for commands, :quit to leave")
    while not shell.done:
        try:
            line = input("hlu> ")
        except EOFError:
            break
        output = shell.execute(line)
        if output:
            print(output)
    return 0


if __name__ == "__main__":
    sys.exit(main())
