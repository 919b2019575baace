"""Exact percentiles, the end-to-end metrics, and the printed tables."""

from __future__ import annotations

import math
import statistics
from typing import Any

from perfbench.calibrate import REFERENCE_S, factor
from perfbench.served import PassRecord, ServedRun

#: (metric, op, percentile) for every latency metric the benchmark reports.
LATENCY_METRICS = (
    ("update_p50_ms", "update", 50),
    ("update_p99_ms", "update", 99),
    ("query_p50_ms", "query", 50),
    ("query_p99_ms", "query", 99),
    ("undo_p50_ms", "undo", 50),
    ("explain_p50_ms", "explain", 50),
)

#: Tail metrics: printed by every run, but outside the bounded end-to-end
#: set, since on a shared host their run-to-run spread comes near the
#: largest bound allowed, 0.25 (IQR/median 0.11-0.19 over five seeds,
#: where the p50s stay under 0.1).  The traced run records them among
#: its unbounded metrics.
TAIL_METRICS = ("update_p99_ms", "query_p99_ms")

#: A percentile is only meaningful with this many samples beyond it.
MIN_BEYOND = 10


def percentile(ordered: list[float], pct: float) -> tuple[float, int]:
    """Nearest-rank percentile of sorted samples, and the count beyond it."""
    if not ordered:
        raise ValueError("no samples")
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def steady_passes(run: ServedRun) -> list[PassRecord]:
    """The fastest quarter of a run's passes, by unscaled wall time.

    Only the traced run's ``service.overhead_us`` uses these: it sets a
    served latency against unscaled in-process replays.
    """
    ordered = sorted(run.passes, key=lambda record: record.wall_s)
    return ordered[: math.ceil(len(ordered) / 4)]


def pass_factor(record: PassRecord) -> float:
    """What every time of a pass is multiplied by.

    A pass spends CPU time in the driver and in the service, each on its
    own CPU, so its factor comes from the geometric mean of the two
    CPUs' calibrations weighted by the pass's CPU time on each.  Each
    CPU's calibration is the mean of the ones before and after the pass.
    """
    server = statistics.fmean(record.calibration_s)
    driver = statistics.fmean(record.driver_calibration_s)
    weight = record.cpu_s / (record.cpu_s + record.driver_cpu_s)
    return factor(server ** weight * driver ** (1.0 - weight))


def end_to_end(run: ServedRun) -> tuple[dict[str, tuple[float, str]], list[str]]:
    """The untraced metrics of a served run, and notes on their samples.

    Every time is scaled to the reference speed pass by pass (see
    :func:`pass_factor` and :mod:`perfbench.calibrate`).  Percentiles
    are exact, from the sorted scaled latencies of all passes pooled;
    throughput and CPU per op are totals over all passes.  ``setup_s``
    is the median of the set-up times, each scaled by the mean of the
    service CPU's calibrations before and after it.
    """
    factors = [pass_factor(record) for record in run.passes]
    metrics: dict[str, tuple[float, str]] = {}
    calibrations = [c for record in run.passes for c in record.calibration_s]
    notes = [f"host speed: service CPU calibration {min(calibrations) * 1e3:.2f}-"
             f"{max(calibrations) * 1e3:.2f} ms over {len(run.passes)} passes, "
             f"{REFERENCE_S * 1e3:.2f} ms reference"]
    metrics["setup_s"] = (statistics.median(
        seconds * factor((before + record.calibration_s[0]) / 2)
        for seconds, before, record in zip(run.setup_s, run.setup_calibration_s, run.passes)
    ), "s")
    ops = sum(record.ops for record in run.passes)
    metrics["throughput_ops_s"] = (
        ops / sum(record.wall_s * scale for record, scale in zip(run.passes, factors)),
        "ops/s")
    for name, op, pct in LATENCY_METRICS:
        samples = sorted(v * scale for record, scale in zip(run.passes, factors)
                         for v in record.latencies_ns[op])
        value, beyond = percentile(samples, pct)
        notes.append(f"{name}: {len(samples)} samples, {beyond} beyond p{pct}")
        if beyond < MIN_BEYOND:
            notes.append(f"WARNING {name}: only {beyond} samples beyond p{pct}")
        metrics[name] = (value / 1e6, "ms")
    # Summed over passes: /proc counts CPU time in clock ticks, too coarse
    # to divide pass by pass.
    metrics["server_cpu_ms_per_op"] = (
        1e3 * sum(record.cpu_s * scale for record, scale in zip(run.passes, factors)) / ops,
        "ms")
    metrics["server_peak_rss_mb"] = (statistics.median(run.peak_rss_mb), "MiB")
    return metrics, notes


def render_metrics(title: str, metrics: dict[str, tuple[float, str]]) -> str:
    """Every metric by name, with its value and unit."""
    width = max(len(name) for name in metrics)
    lines = [title, f"{'metric':<{width}}  {'value':>14}  unit", "-" * (width + 24)]
    for name, (value, unit) in metrics.items():
        lines.append(f"{name:<{width}}  {value:>14.6g}  {unit}")
    return "\n".join(lines)


def result_line(
    correct: bool, attempted: int, failed: int, metrics: dict[str, tuple[float, str]]
) -> dict[str, Any]:
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
