"""Differential profiling: from "the gate tripped" to "this kernel, this much".

``repro.obs.baseline`` classifies *that* a run regressed; this module
answers *where*.  Given two BENCH run records -- and, when available,
the two recorded traces behind them -- :func:`attribute` aligns them per
experiment and produces a ranked suspect list:

* **span suspects** -- per-span-name *self-time* deltas between the two
  trace profiles (absolute seconds and share of the experiment's
  wall-time regression), computed on the per-experiment sub-forests
  under the ``experiment.<ident>`` root spans;
* **quantile suspects** -- per-call self-time distribution shifts read
  off the log-bucketed :class:`~repro.obs.core.Histogram`\\ s: a p50/p90/
  p99 that moved by at least one power-of-two bucket (ratio >= 2, twice
  the histogram's sqrt(2) error bound) is a real shape change even when
  call-count changes mask it in the totals;
* **counter suspects** -- per-kernel counter deltas
  (``logic.reduce.subset_tests``, ``cache.*`` hit-rate shifts,
  ``logic.resolution.resolvents_formed``, ...), exact by design.

Significance is decided by the *shared* gate rules
(:func:`repro.obs.baseline.classify_seconds` /
:func:`~repro.obs.baseline.classify_counter`), with the experiment-level
verdict widened by the recorded repeat spread -- so attribution can
never call something significant that the regression gate would wave
through as noise.  Span and quantile suspects are only hunted inside
experiments whose own wall time or counters moved: two clean
back-to-back runs (identical counters, wall times inside the noise
band) attribute to *nothing*, by construction.

Surfaced as ``python -m repro.cli bench-diff RUN --attribute
[--trace T --base-trace B]``, which prints the suspect table under the
regression table.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field

from repro.obs.baseline import (
    Thresholds,
    classify_counter,
    classify_seconds,
)
from repro.obs.core import Span
from repro.obs.metrics import ExperimentMetrics, RunRecord
from repro.obs.profile import Profile, experiment_forests, profile_spans

__all__ = [
    "QUANTILE_SHIFT_RATIO",
    "QUANTILES",
    "Suspect",
    "ExperimentAttribution",
    "Attribution",
    "diff_profiles",
    "diff_counters",
    "attribute",
]

#: A per-call quantile must move by at least one power-of-two histogram
#: bucket (x2) to count as a shift: the log-bucket estimate carries a
#: sqrt(2) error bound each way, so anything smaller is indistinguishable
#: from bucketing noise.
QUANTILE_SHIFT_RATIO = 2.0

#: Which per-call self-time quantiles the shift detector inspects.
QUANTILES = (0.5, 0.9, 0.99)

#: Pseudo-experiment ident for traces without ``experiment.*`` roots.
WHOLE_RUN = "(run)"


@dataclass(frozen=True)
class Suspect:
    """One ranked cause candidate for a regression."""

    experiment: str
    kind: str  # "span" | "quantile" | "counter"
    name: str
    baseline: float | None
    current: float | None
    delta: float
    #: For spans: fraction of the experiment's wall-time regression this
    #: self-time delta explains.  For counters and quantiles: relative
    #: change against the baseline value.
    share: float
    significant: bool
    detail: str = ""


@dataclass
class ExperimentAttribution:
    """One experiment's verdict plus its ranked suspects."""

    ident: str
    status: str  # regressed | improved | neutral (shared seconds rule)
    baseline_seconds: float | None
    current_seconds: float | None
    detail: str = ""
    suspects: list[Suspect] = field(default_factory=list)

    @property
    def regression(self) -> float:
        """Wall-time regression in seconds (0.0 when not regressed)."""
        if self.baseline_seconds is None or self.current_seconds is None:
            return 0.0
        return max(0.0, self.current_seconds - self.baseline_seconds)

    @property
    def top(self) -> Suspect | None:
        """The highest-ranked significant suspect, if any."""
        for suspect in self.suspects:
            if suspect.significant:
                return suspect
        return None


@dataclass
class Attribution:
    """The whole differential: per-experiment verdicts and suspects."""

    thresholds: Thresholds
    experiments: list[ExperimentAttribution] = field(default_factory=list)

    def regressed(self) -> list[ExperimentAttribution]:
        return [exp for exp in self.experiments if exp.status == "regressed"]

    def significant_suspects(self) -> list[Suspect]:
        return [
            suspect
            for exp in self.experiments
            for suspect in exp.suspects
            if suspect.significant
        ]

    @property
    def has_significant(self) -> bool:
        return bool(self.significant_suspects())

    def report(self, limit: int = 3):
        """The suspect table as a :class:`~repro.bench.harness.Report`.

        One row per suspect, top ``limit`` per experiment, regressed
        experiments first; the observed line names the top suspect of
        every regressed experiment.
        """
        from repro.bench.harness import Report  # local: harness imports obs.core

        report = Report(
            ident="ATTR",
            title="regression attribution (ranked suspects)",
            claim="which span / counter moved, per regressed experiment",
            columns=(
                "experiment", "suspect", "kind", "baseline", "current",
                "delta", "share", "verdict",
            ),
        )

        def fmt(value: float | None, kind: str) -> str:
            if value is None:
                return "-"
            if kind == "counter":
                return str(int(value))
            return f"{value * 1000:.3f}ms"

        ordered = sorted(
            self.experiments,
            key=lambda e: (e.status != "regressed", -e.regression, e.ident),
        )
        for exp in ordered:
            shown = [s for s in exp.suspects if s.significant][: max(0, limit)]
            for suspect in shown:
                report.add_row(
                    exp.ident,
                    suspect.name,
                    suspect.kind,
                    fmt(suspect.baseline, suspect.kind),
                    fmt(suspect.current, suspect.kind),
                    (
                        f"{suspect.delta:+d}"
                        if suspect.kind == "counter"
                        else f"{suspect.delta * 1000:+.3f}ms"
                    ),
                    f"{suspect.share:+.0%}",
                    "significant" + (f" ({suspect.detail})" if suspect.detail else ""),
                )
        tops = [
            f"{exp.ident} -> {exp.top.name} ({exp.top.kind})"
            for exp in ordered
            if exp.status == "regressed" and exp.top is not None
        ]
        regressed = len(self.regressed())
        observed = (
            f"{regressed} regressed experiment(s), "
            f"{len(self.significant_suspects())} significant suspect(s)"
        )
        if tops:
            observed += "; top: " + ", ".join(tops)
        report.observed = observed
        report.holds = not self.has_significant
        return report


def _rank(suspects: list[Suspect], seconds_regressed: bool) -> list[Suspect]:
    """Significant first; time evidence leads when wall time regressed."""
    if seconds_regressed:
        priority = {"span": 0, "quantile": 1, "counter": 2}
    else:
        priority = {"counter": 0, "span": 1, "quantile": 2}

    def key(suspect: Suspect):
        if suspect.kind == "counter":
            score = abs(suspect.share)
        else:
            score = abs(suspect.delta)
        return (not suspect.significant, priority[suspect.kind], -score, suspect.name)

    return sorted(suspects, key=key)


def diff_profiles(
    current: Profile,
    baseline: Profile,
    thresholds: Thresholds = Thresholds(),
    experiment: str = WHOLE_RUN,
    regression: float | None = None,
) -> list[Suspect]:
    """Span and quantile suspects between two aligned profiles.

    ``regression`` is the experiment's wall-time regression in seconds
    (denominator of the share-of-regression column); when ``None`` the
    total positive self-time delta stands in.
    """
    suspects: list[Suspect] = []
    names = set(current.entries) | set(baseline.entries)
    deltas: dict[str, tuple[float, float, float]] = {}
    for name in names:
        cur = current.entries.get(name)
        base = baseline.entries.get(name)
        cur_self = cur.self_time if cur is not None else 0.0
        base_self = base.self_time if base is not None else 0.0
        deltas[name] = (base_self, cur_self, cur_self - base_self)
    if regression is None or regression <= 0:
        regression = sum(max(0.0, d) for _, _, d in deltas.values())
    for name, (base_self, cur_self, delta) in sorted(deltas.items()):
        status, detail = classify_seconds(cur_self, base_self, thresholds)
        share = delta / regression if regression > 0 else 0.0
        if status == "improved":
            detail = detail or "self time fell"
        suspects.append(
            Suspect(
                experiment=experiment,
                kind="span",
                name=name,
                baseline=base_self,
                current=cur_self,
                delta=delta,
                share=share,
                significant=status != "neutral",
                detail=detail,
            )
        )
        # Quantile shift: the per-call distribution moved even if the
        # totals (possibly rebalanced by call counts) did not.
        cur = current.entries.get(name)
        base = baseline.entries.get(name)
        if cur is None or base is None:
            continue
        worst: tuple[float, float, float, float] | None = None  # ratio, q, b, c
        for q in QUANTILES:
            base_q = base.self_times.quantile(q)
            cur_q = cur.self_times.quantile(q)
            if not base_q or not cur_q or base_q <= 0 or cur_q <= 0:
                continue
            ratio = cur_q / base_q
            if max(ratio, 1 / ratio) < QUANTILE_SHIFT_RATIO:
                continue
            if worst is None or max(ratio, 1 / ratio) > max(worst[0], 1 / worst[0]):
                worst = (ratio, q, base_q, cur_q)
        floor = thresholds.seconds_floor
        if worst is not None and max(cur_self, base_self) >= floor:
            ratio, q, base_q, cur_q = worst
            suspects.append(
                Suspect(
                    experiment=experiment,
                    kind="quantile",
                    name=f"{name} p{int(q * 100)}",
                    baseline=base_q,
                    current=cur_q,
                    delta=cur_q - base_q,
                    share=ratio - 1.0,
                    significant=True,
                    detail=f"per-call x{ratio:.1f}",
                )
            )
    return suspects


def diff_counters(
    current: Mapping[str, int],
    baseline: Mapping[str, int],
    experiment: str = WHOLE_RUN,
) -> list[Suspect]:
    """Counter suspects: exact deltas, share = relative change."""
    suspects: list[Suspect] = []
    for name in sorted(set(current) | set(baseline)):
        cur = current.get(name)
        base = baseline.get(name)
        if cur is None or base is None:
            # Added/removed counters are structural, not regressions; the
            # baseline comparator already reports them as added/removed.
            continue
        status, detail = classify_counter(cur, base)
        if status == "neutral":
            continue
        relative = (cur - base) / abs(base) if base else float("inf")
        suspects.append(
            Suspect(
                experiment=experiment,
                kind="counter",
                name=name,
                baseline=float(base),
                current=float(cur),
                delta=cur - base,
                share=relative,
                significant=True,
                detail=detail,
            )
        )
    return suspects


def _experiment_profiles(
    spans: Iterable[Span] | None,
) -> dict[str, Profile]:
    if spans is None:
        return {}
    return {
        ident: profile_spans(forest)
        for ident, forest in experiment_forests(list(spans)).items()
    }


def _pooled_spread(run: ExperimentMetrics, base: ExperimentMetrics) -> float:
    return max(run.seconds_stddev, base.seconds_stddev)


def attribute(
    run: RunRecord,
    baseline: RunRecord,
    run_spans: Iterable[Span] | None = None,
    base_spans: Iterable[Span] | None = None,
    thresholds: Thresholds = Thresholds(),
) -> Attribution:
    """Align two runs (and optionally their traces) into ranked suspects.

    Experiments are aligned by ident (intersection only); per-experiment
    trace profiles come from the ``experiment.<ident>`` sub-forests of
    the supplied span lists.  Span/quantile hunting only happens inside
    experiments whose wall time left the (spread-widened) noise band or
    whose counters moved -- see the module docstring for why this makes
    clean-vs-clean attribution empty by construction.
    """
    attribution = Attribution(thresholds=thresholds)
    run_profiles = _experiment_profiles(run_spans)
    base_profiles = _experiment_profiles(base_spans)
    for exp in run.experiments:
        base = baseline.experiment(exp.ident)
        if base is None:
            continue
        status, detail = classify_seconds(
            exp.median_seconds,
            base.median_seconds,
            thresholds,
            spread=_pooled_spread(exp, base),
        )
        record = ExperimentAttribution(
            ident=exp.ident,
            status=status,
            baseline_seconds=base.median_seconds,
            current_seconds=exp.median_seconds,
            detail=detail,
        )
        suspects = diff_counters(exp.counters, base.counters, experiment=exp.ident)
        counters_moved = any(s.significant for s in suspects)
        if status != "neutral" or counters_moved:
            run_profile = run_profiles.get(exp.ident)
            base_profile = base_profiles.get(exp.ident)
            if run_profile is not None and base_profile is not None:
                suspects.extend(
                    diff_profiles(
                        run_profile,
                        base_profile,
                        thresholds,
                        experiment=exp.ident,
                        regression=record.regression or None,
                    )
                )
        record.suspects = _rank(suspects, seconds_regressed=status == "regressed")
        attribution.experiments.append(record)
    # Traces without experiment.* roots (ad-hoc sessions): diff them as
    # one whole-run pseudo-experiment, gated on the forest wall time.
    if "" in run_profiles and "" in base_profiles:
        run_profile, base_profile = run_profiles[""], base_profiles[""]
        status, detail = classify_seconds(
            run_profile.wall, base_profile.wall, thresholds
        )
        record = ExperimentAttribution(
            ident=WHOLE_RUN,
            status=status,
            baseline_seconds=base_profile.wall,
            current_seconds=run_profile.wall,
            detail=detail,
        )
        if status != "neutral":
            record.suspects = _rank(
                diff_profiles(
                    run_profile,
                    base_profile,
                    thresholds,
                    experiment=WHOLE_RUN,
                    regression=record.regression or None,
                ),
                seconds_regressed=status == "regressed",
            )
        attribution.experiments.append(record)
    return attribution
