"""Baseline store and regression comparator for ``BENCH_*.json`` records.

A *baseline* is just a promoted run record (same schema) kept at
``benchmarks/baselines/baseline.json``.  :func:`compare` classifies every
metric of a fresh run against it as improved / regressed / neutral with
noise-aware, per-class rules:

* **seconds** -- compared on the median of repeats, with a relative
  tolerance (wall clocks are noisy) and an absolute floor below which
  two timings are never distinguished;
* **counters** -- deterministic work counts (seeded workloads), so the
  gate is exact: any increase is a regression, any decrease an
  improvement, no tolerance either way;
* **fits** -- growth exponents drifting beyond an absolute tolerance in
  *either* direction are flagged (a slope falling from 1.0 to 0.4 is as
  suspicious as one rising to 1.6): they are shape claims, not speed.

The served path is not compared here: ``perfbench/run.py`` measures it,
and ``BENCHMARK.json`` declares its bounds.

``python -m repro.cli bench-diff run.json [--against baseline.json]``
renders the classification through the bench ``Report`` table renderer;
``benchmarks/run_experiments.py --check-regressions`` turns it into a CI
gate, and ``--update-baseline`` promotes a run.  Both read their
``--gate`` through :func:`parse_gate`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from repro.errors import MetricsError, MetricsVersionError
from repro.obs.metrics import (
    RunRecord,
    read_run_record,
    write_run_record,
)

__all__ = [
    "DEFAULT_BASELINE_RELPATH",
    "DEFAULT_GATE",
    "METRIC_KINDS",
    "SPREAD_SIGMAS",
    "Thresholds",
    "MetricDelta",
    "Comparison",
    "classify_seconds",
    "classify_counter",
    "classify_fit",
    "compare",
    "parse_gate",
    "load_baseline",
    "promote_baseline",
]

#: Where the committed baseline lives, relative to the repo root.
DEFAULT_BASELINE_RELPATH = Path("benchmarks") / "baselines" / "baseline.json"

#: Metric classes, and which of them gate CI by default.
METRIC_KINDS = ("seconds", "counter", "fit")
DEFAULT_GATE = frozenset(METRIC_KINDS)


def parse_gate(text: str) -> frozenset[str]:
    """The metric kinds a ``--gate`` value such as ``"counter,fit"`` names.

    Raises :class:`ValueError` on an unknown kind, and on a value that
    names no kind at all (``""`` or ``","``, say from an unset CI
    variable), which would otherwise turn the gate off.
    """
    gate = frozenset(kind.strip() for kind in text.split(",") if kind.strip())
    known = ", ".join(METRIC_KINDS)
    unknown = gate - set(METRIC_KINDS)
    if unknown:
        raise ValueError(f"unknown gate kind(s): {', '.join(sorted(unknown))} (known: {known})")
    if not gate:
        raise ValueError(f"gate {text!r} names no metric kind (known: {known})")
    return gate


@dataclass(frozen=True)
class Thresholds:
    """Noise model for the comparator.

    ``seconds_rtol`` is the relative tolerance on median seconds (0.5 =
    flag only a >50% swing); ``seconds_floor`` is the absolute floor in
    seconds below which timings are pure noise and never compared;
    ``fit_atol`` is the absolute tolerance on fitted exponents.
    Counters take no threshold -- they are exact by design.
    """

    seconds_rtol: float = 0.5
    seconds_floor: float = 0.005
    fit_atol: float = 0.35


#: How many standard deviations of recorded repeat spread widen the
#: noise band when a caller supplies one (``classify_seconds(spread=...)``).
#: The gate itself passes ``spread=0.0``, so supplying measured spread can
#: only make a verdict *more* conservative, never flag something the gate
#: would call neutral.
SPREAD_SIGMAS = 3.0


def classify_seconds(
    current: float,
    baseline: float,
    thresholds: Thresholds = Thresholds(),
    *,
    spread: float = 0.0,
) -> tuple[str, str]:
    """THE definition of a significant wall-time change: ``(status, detail)``.

    Shared by the baseline gate (:func:`compare`), the differential
    attributor (:mod:`repro.obs.attribution`), and the history
    changepoint detector (:mod:`repro.obs.history`) so the three can
    never disagree on what "significant" means.  ``status`` is
    ``regressed`` / ``improved`` / ``neutral``.

    The noise band is multiplicative (``seconds_rtol`` each way, with an
    absolute ``seconds_floor`` below which timings are never compared),
    optionally widened by ``spread`` -- a standard deviation of recorded
    repeat samples, scaled by :data:`SPREAD_SIGMAS`.  With ``spread=0``
    this is bit-identical to the historical gate rule.
    """
    floor = thresholds.seconds_floor
    if current < floor and baseline < floor:
        return "neutral", "below noise floor"
    tolerance = 1.0 + thresholds.seconds_rtol
    band = SPREAD_SIGMAS * max(0.0, spread)
    if current > baseline * tolerance + band:
        return "regressed", ""
    if current < baseline / tolerance - band:
        return "improved", ""
    return "neutral", ""


def classify_counter(current: float, baseline: float) -> tuple[str, str]:
    """The exact counter rule: any increase regresses, any decrease improves.

    Counters are deterministic work counts on seeded workloads, so there
    is no tolerance in either direction.
    """
    if current > baseline:
        return "regressed", "exact gate"
    if current < baseline:
        return "improved", "exact gate"
    return "neutral", ""


def classify_fit(
    current: float | None,
    baseline: float | None,
    thresholds: Thresholds = Thresholds(),
) -> tuple[str, str]:
    """The fit-exponent rule: drift beyond ``fit_atol`` either way flags.

    Fits are shape claims, not speed: a slope falling from 1.0 to 0.4 is
    as suspicious as one rising to 1.6, so both directions classify as
    ``regressed``.
    """
    if current is None or baseline is None:
        return "neutral", "fit unavailable"
    if abs(current - baseline) > thresholds.fit_atol:
        return "regressed", f"exponent drifted > {thresholds.fit_atol}"
    return "neutral", ""


@dataclass(frozen=True)
class MetricDelta:
    """One metric's classification against the baseline."""

    experiment: str
    metric: str  # "seconds", "counter:<name>", or "fit:<name>"
    kind: str  # one of METRIC_KINDS
    baseline: float | None
    current: float | None
    status: str  # improved | regressed | neutral | added | removed
    detail: str = ""

    @property
    def is_regression(self) -> bool:
        return self.status == "regressed"


@dataclass
class Comparison:
    """Every metric delta between a run and a baseline."""

    run: RunRecord
    baseline: RunRecord
    thresholds: Thresholds
    deltas: list[MetricDelta] = field(default_factory=list)

    def of_status(self, status: str) -> list[MetricDelta]:
        return [d for d in self.deltas if d.status == status]

    def regressions(self, gate: frozenset[str] = DEFAULT_GATE) -> list[MetricDelta]:
        """Regressed metrics whose kind is in the gate set."""
        return [d for d in self.deltas if d.is_regression and d.kind in gate]

    def improvements(self) -> list[MetricDelta]:
        return self.of_status("improved")

    def summary(self, gate: frozenset[str] = DEFAULT_GATE) -> str:
        counts = {
            status: len(self.of_status(status))
            for status in ("improved", "regressed", "neutral", "added", "removed")
        }
        gated = len(self.regressions(gate))
        parts = [f"{n} {status}" for status, n in counts.items() if n]
        head = ", ".join(parts) if parts else "no metrics compared"
        return f"{head}; {gated} gated regression(s)"

    def report(self, include_neutral: bool = False):
        """The comparison as a :class:`~repro.bench.harness.Report` table.

        Neutral counter/fit rows are suppressed by default (they dominate
        numerically and carry no information); seconds rows always show
        so the table reads as a per-experiment timing diff.
        """
        from repro.bench.harness import Report

        report = Report(
            ident="DIFF",
            title="run vs baseline",
            claim=(
                f"run {self.run.created} (git {self.run.git_sha or '?'}) vs "
                f"baseline {self.baseline.created} "
                f"(git {self.baseline.git_sha or '?'})"
            ),
            columns=("experiment", "metric", "baseline", "current", "change", "status"),
        )

        def fmt(value: float | None, kind: str) -> str:
            if value is None:
                return "-"
            if kind == "counter":
                return str(int(value))
            return f"{value:.4f}" if kind == "seconds" else f"{value:.3f}"

        for delta in self.deltas:
            if (
                not include_neutral
                and delta.status == "neutral"
                and delta.kind != "seconds"
            ):
                continue
            if delta.baseline not in (None, 0) and delta.current is not None:
                relative = (delta.current - delta.baseline) / abs(delta.baseline)
                change = f"{relative:+.0%}"
            elif delta.baseline is not None and delta.current is not None:
                change = f"{delta.current - delta.baseline:+g}"
            else:
                change = "-"
            report.add_row(
                delta.experiment,
                delta.metric,
                fmt(delta.baseline, delta.kind),
                fmt(delta.current, delta.kind),
                change,
                delta.status + (f" ({delta.detail})" if delta.detail else ""),
            )
        report.observed = self.summary()
        report.holds = not self.regressions()
        return report


def _compare_seconds(
    ident: str, current: float, baseline: float, thresholds: Thresholds
) -> MetricDelta:
    status, detail = classify_seconds(current, baseline, thresholds)
    return MetricDelta(
        ident, "seconds", "seconds", baseline, current, status, detail=detail
    )


def _compare_counters(
    ident: str, current: dict[str, int], baseline: dict[str, int]
) -> list[MetricDelta]:
    deltas = []
    for name in sorted(set(current) | set(baseline)):
        metric = f"counter:{name}"
        if name not in baseline:
            deltas.append(
                MetricDelta(ident, metric, "counter", None, current[name], "added")
            )
        elif name not in current:
            deltas.append(
                MetricDelta(ident, metric, "counter", baseline[name], None, "removed")
            )
        else:
            status, detail = classify_counter(current[name], baseline[name])
            deltas.append(
                MetricDelta(
                    ident, metric, "counter", baseline[name], current[name],
                    status, detail=detail,
                )
            )
    return deltas


def _compare_fits(
    ident: str,
    current: dict[str, float | None],
    baseline: dict[str, float | None],
    thresholds: Thresholds,
) -> list[MetricDelta]:
    deltas = []
    for name in sorted(set(current) | set(baseline)):
        metric = f"fit:{name}"
        cur = current.get(name)
        base = baseline.get(name)
        if name not in baseline:
            deltas.append(MetricDelta(ident, metric, "fit", None, cur, "added"))
        elif name not in current:
            deltas.append(MetricDelta(ident, metric, "fit", base, None, "removed"))
        else:
            status, detail = classify_fit(cur, base, thresholds)
            deltas.append(
                MetricDelta(ident, metric, "fit", base, cur, status, detail=detail)
            )
    return deltas


def compare(
    run: RunRecord,
    baseline: RunRecord,
    thresholds: Thresholds = Thresholds(),
) -> Comparison:
    """Classify every metric of ``run`` against ``baseline``.

    Experiments present on only one side produce ``added`` / ``removed``
    deltas (neutral for gating: a ``--smoke`` subset run must not trip
    over the experiments it deliberately skipped).  Any pair of
    *supported* schema versions compares fine -- the fields the
    comparator reads (seconds, counters, fits) exist unchanged in every
    supported version, and demanding exact equality would force a
    baseline re-promotion on every additive schema bump.  A version
    outside :data:`~repro.obs.metrics.SUPPORTED_SCHEMA_VERSIONS` (a
    hand-edited record; loaders reject them) still raises
    :class:`~repro.errors.MetricsVersionError`.
    """
    from repro.obs.metrics import SUPPORTED_SCHEMA_VERSIONS

    for label, record in (("run", run), ("baseline", baseline)):
        if record.schema_version not in SUPPORTED_SCHEMA_VERSIONS:
            raise MetricsVersionError(
                f"cannot compare: {label} record has schema_version "
                f"{record.schema_version}; this build reads versions "
                f"{SUPPORTED_SCHEMA_VERSIONS}. Re-seed the baseline with "
                f"'python benchmarks/run_experiments.py --update-baseline'."
            )
    comparison = Comparison(run=run, baseline=baseline, thresholds=thresholds)
    for exp in run.experiments:
        base = baseline.experiment(exp.ident)
        if base is None:
            comparison.deltas.append(
                MetricDelta(
                    exp.ident, "seconds", "seconds", None, exp.median_seconds,
                    "added", detail="not in baseline",
                )
            )
            continue
        comparison.deltas.append(
            _compare_seconds(
                exp.ident, exp.median_seconds, base.median_seconds, thresholds
            )
        )
        comparison.deltas.extend(
            _compare_counters(exp.ident, exp.counters, base.counters)
        )
        comparison.deltas.extend(
            _compare_fits(exp.ident, exp.fits, base.fits, thresholds)
        )
    covered = {exp.ident for exp in run.experiments}
    for base_exp in baseline.experiments:
        if base_exp.ident not in covered:
            comparison.deltas.append(
                MetricDelta(
                    base_exp.ident, "seconds", "seconds",
                    base_exp.median_seconds, None, "removed",
                    detail="not in this run",
                )
            )
    return comparison


def load_baseline(path: str | Path) -> RunRecord:
    """Load a promoted baseline (a validated run record)."""
    source = Path(path)
    if not source.exists():
        raise MetricsError(
            f"no baseline at {source}; seed one with "
            f"'python benchmarks/run_experiments.py --update-baseline'"
        )
    return read_run_record(source)


def promote_baseline(record: RunRecord, path: str | Path) -> Path:
    """Promote a run record to be the baseline at ``path`` (atomic write)."""
    return write_run_record(record, path)
