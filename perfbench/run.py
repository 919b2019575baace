"""The served-update benchmark: one workload, one seed, one JSON result.

Run from the repository root::

    python3 perfbench/run.py --workload mixed_small --seed 1 --seconds 20 --trace 0

``--trace 0`` serves the workload from separate ``repro.cli serve``
processes and reports the end-to-end metrics, every time in them scaled
to a reference host speed (see perfbench/calibrate.py).  ``--trace 1`` does the
same served run and then replays the op lists through an in-process
service, untraced and traced, to report per-layer metrics (and the
served p99 latencies, which have no bound).  Either way every served
answer is checked against an offline reference replay, and the run
exits 1 when any answer is wrong or any op fails.  Tables go to stderr;
the last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import time
from pathlib import Path

ROOT = Path.cwd()
OUT_DIR = ROOT / ".perfbench_out"


def _arguments(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = _arguments(argv)
    if not (ROOT / "src" / "repro" / "server" / "service.py").is_file():
        print("perfbench: src/repro not found; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import check, plan as plan_mod, report, served

    spec = plan_mod.load_spec()
    if args.workload not in spec["workloads"]:
        print(f"perfbench: unknown workload {args.workload!r} "
              f"(known: {', '.join(spec['workloads'])})", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    backend = spec["workloads"][args.workload]["reference"]

    shutil.rmtree(OUT_DIR, ignore_errors=True)
    OUT_DIR.mkdir()
    plan = plan_mod.build_plan(args.workload, args.seed, spec)
    run = served.run_served(plan, args.seconds, OUT_DIR)

    started = time.perf_counter()
    expected = check.expect_plan(plan, backend)
    problems = check.check_run(
        plan, expected, [(p.responses, p.states) for p in run.passes], backend)
    problems += [f"bookkeeping: {line!r}" for line in run.bookkeeping
                 if not json.loads(line).get("ok")]
    check_s = time.perf_counter() - started
    attempted = sum(p.ops for p in run.passes)
    failed = sum(
        1 for p in run.passes for lines in p.responses for line in lines
        if not json.loads(line).get("ok")
    )
    for problem in problems[:20]:
        print(f"perfbench: MISMATCH {problem}", file=sys.stderr)

    metrics, notes = report.end_to_end(run)
    title = (f"== {args.workload} seed {args.seed}: {len(run.passes)} passes of "
             f"{plan.op_count()} ops, {attempted} timed requests, "
             f"{len(problems)} mismatches (check {check_s:.1f}s) ==")
    print(report.render_metrics(title, metrics), file=sys.stderr)
    # Zero on every correct run, so it is printed here and not a metric.
    notes.append(f"error_fraction: {failed / attempted:.6g} ({failed} of {attempted} ops)")
    for note in notes:
        print(f"  {note}", file=sys.stderr)

    tails = {f"served.{name}": metrics.pop(name) for name in report.TAIL_METRICS}
    if args.trace:
        from perfbench import traced

        layers = traced.per_layer(plan, spec, run, OUT_DIR)
        print(traced.render_layers(layers), file=sys.stderr)
        metrics = {**layers.metrics, **tails}
        print(report.render_metrics("== per-layer metrics ==", metrics), file=sys.stderr)

    correct = not problems and failed == 0
    print(json.dumps(report.result_line(correct, attempted, failed, metrics)))
    # A wrong answer or a refused op fails the run; the line above stays
    # for diagnosis.
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
