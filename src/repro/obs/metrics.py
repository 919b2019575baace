"""Persistent performance run records: the ``BENCH_*.json`` trajectory.

Every full experiment run can be captured as one schema-versioned JSON
document -- per-experiment wall times (raw repeat samples included),
kernel-counter totals from ``repro.obs``, fitted growth exponents, a
machine/environment fingerprint, and the git SHA -- written atomically at
the repo root as ``BENCH_<timestamp>.json``.  The sequence of those
files is the project's performance trajectory; ``repro.obs.baseline``
diffs any record against a promoted baseline so "made the hot path
faster" becomes a checkable claim instead of a commit-message one.

Schema (version 4)::

    {
      "schema_version": 4,
      "created": "2026-08-05T12:34:56Z",        # UTC, ISO-8601
      "git_sha": "abc123..." | null,
      "fingerprint": {
        "platform": str, "python": str, "implementation": str,
        "machine": str, "cpu_count": int | null, "hostname": str
      },
      "cache": {                                # kernel memo-cache stats,
        "enabled": true | false,                # null when the run made
        "kernels": {                            # no cache decision at all
          "logic.rclosure": {"hits": int, "misses": int, "evictions": int,
                             "entries": int, "capacity": int},
          ...
        }
      } | null,
      "experiments": [
        {
          "ident": "E1", "title": str, "holds": true | false | null,
          "seconds": {"best": float, "median": float, "mean": float,
                      "min": float, "max": float, "stddev": float,
                      "repeats": int, "samples": [float, ...]},
          "counters": {str: int, ...},
          "fits": {str: float | null, ...},     # non-finite -> null
          "memory": {"current_bytes": int,      # tracemalloc totals, only
                     "peak_bytes": int} | null  # when run with --mem
        },
        ...
      ]
    }

Version 2 added the opt-in per-experiment ``memory`` block
(``run_experiments.py --mem``); version 3 added the top-level ``cache``
block (``run_experiments.py --cache``; see ``repro.cache``).  Version
4's top-level ``throughput`` block of service load runs is no longer
written, and a reader ignores it like any other key it does not read.
Older records still load -- a missing block reads as ``null`` -- while
records from *newer* schemas raise
:class:`~repro.errors.MetricsVersionError` instead of being misread.

Counters are exact, deterministic work counts (seeded workloads), so the
regression gate holds them to exact equality; seconds and fit exponents
get noise-aware tolerances (see ``repro.obs.baseline``); memory is
recorded for trend reading but never gated (allocator behaviour is too
environment-dependent for an exact gate).
"""

from __future__ import annotations

import json
import math
import os
import platform
import socket
import subprocess
import tempfile
import time
import warnings
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, field
from pathlib import Path

from repro.errors import MetricsError, MetricsVersionError

__all__ = [
    "SCHEMA_VERSION",
    "SUPPORTED_SCHEMA_VERSIONS",
    "BENCH_PREFIX",
    "ExperimentMetrics",
    "RunRecord",
    "machine_fingerprint",
    "current_git_sha",
    "record_from_reports",
    "run_record_to_json",
    "run_record_from_json",
    "write_run_record",
    "read_run_record",
    "bench_filename",
    "find_bench_files",
    "latest_bench_file",
    "summary_report",
]

SCHEMA_VERSION = 4

#: Versions this build can read.  Version 1 predates the ``memory``
#: block and version 2 the ``cache`` block; loading an older record
#: just leaves the corresponding field as ``None``.
SUPPORTED_SCHEMA_VERSIONS = (1, 2, 3, 4)

#: Run-record files are ``BENCH_<UTC timestamp>.json`` at the repo root.
BENCH_PREFIX = "BENCH_"

_MEMORY_KEYS = frozenset({"current_bytes", "peak_bytes"})

_TIMING_KEY_ORDER = (
    "best",
    "median",
    "mean",
    "min",
    "max",
    "stddev",
    "repeats",
    "samples",
)
_TIMING_KEYS = frozenset(_TIMING_KEY_ORDER)


@dataclass
class ExperimentMetrics:
    """One experiment's slice of a run record."""

    ident: str
    title: str
    holds: bool | None
    seconds: dict[str, object]
    counters: dict[str, int] = field(default_factory=dict)
    fits: dict[str, float | None] = field(default_factory=dict)
    #: ``{"current_bytes": int, "peak_bytes": int}`` when the run tracked
    #: memory (``--mem``); ``None`` otherwise and for schema-1 records.
    memory: dict[str, int] | None = None

    @property
    def median_seconds(self) -> float:
        return float(self.seconds["median"])

    @property
    def best_seconds(self) -> float:
        return float(self.seconds["best"])

    @property
    def seconds_stddev(self) -> float:
        """Population stddev of the recorded repeat samples (0.0 for one)."""
        return float(self.seconds.get("stddev", 0.0) or 0.0)

    @property
    def seconds_samples(self) -> list[float]:
        """The raw repeat samples behind :attr:`median_seconds`."""
        samples = self.seconds.get("samples") or []
        return [float(s) for s in samples]


@dataclass
class RunRecord:
    """A whole run: environment identity plus every experiment's metrics."""

    schema_version: int
    created: str
    git_sha: str | None
    fingerprint: dict[str, object]
    experiments: list[ExperimentMetrics]
    #: ``{"enabled": bool, "kernels": {kernel: {hits, misses, ...}}}``
    #: when the run recorded a kernel-cache decision (schema >= 3);
    #: ``None`` for older records.
    cache: dict[str, object] | None = None

    def experiment(self, ident: str) -> ExperimentMetrics | None:
        for exp in self.experiments:
            if exp.ident == ident:
                return exp
        return None

    @property
    def idents(self) -> list[str]:
        return [exp.ident for exp in self.experiments]


# ---------------------------------------------------------------------------
# Environment identity
# ---------------------------------------------------------------------------


def machine_fingerprint() -> dict[str, object]:
    """Where this run happened: enough to judge cross-machine comparisons."""
    return {
        "platform": platform.platform(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "hostname": socket.gethostname(),
    }


def current_git_sha(root: str | Path | None = None) -> str | None:
    """The repo's HEAD SHA, or ``None`` outside a usable git checkout."""
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=str(root) if root is not None else None,
            capture_output=True,
            text=True,
            timeout=5,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    if completed.returncode != 0:
        return None
    sha = completed.stdout.strip()
    return sha or None


# ---------------------------------------------------------------------------
# Building records from experiment reports
# ---------------------------------------------------------------------------


def _timing_json(seconds: object) -> dict[str, object]:
    """Normalise a harness Timing / float / samples-dict to timing JSON."""
    from repro.bench.harness import Timing  # local: harness imports obs.core

    if isinstance(seconds, Timing):
        return seconds.to_json()
    if isinstance(seconds, Mapping):
        missing = _TIMING_KEYS - set(seconds)
        if missing:
            raise MetricsError(
                f"timing record is missing keys {sorted(missing)}: {seconds!r}"
            )
        return {key: seconds[key] for key in _TIMING_KEY_ORDER}
    if isinstance(seconds, (int, float)):
        return Timing([float(seconds)]).to_json()
    raise MetricsError(f"cannot interpret {seconds!r} as a timing")


def record_from_reports(
    reports_with_seconds: Iterable[tuple[object, object]],
    *,
    git_sha: str | None | object = ...,
    root: str | Path | None = None,
    cache: Mapping[str, object] | None = None,
) -> RunRecord:
    """Build a :class:`RunRecord` from ``(Report, seconds)`` pairs.

    ``seconds`` may be a harness :class:`~repro.bench.harness.Timing`, a
    plain float (one sample), or an already-serialised timing dict.  The
    report's ``counters`` and ``metrics`` channels become the record's
    counter totals and fit exponents.  ``cache`` is the optional
    kernel-cache block (``{"enabled": bool, "kernels": cache_stats()}``).
    """
    experiments = []
    for report, seconds in reports_with_seconds:
        memory = getattr(report, "memory", None)
        experiments.append(
            ExperimentMetrics(
                ident=report.ident,
                title=report.title,
                holds=report.holds,
                seconds=_timing_json(seconds),
                counters=dict(report.counters),
                fits={str(k): v for k, v in report.metrics.items()},
                memory=dict(memory) if memory is not None else None,
            )
        )
    return RunRecord(
        schema_version=SCHEMA_VERSION,
        created=time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        git_sha=current_git_sha(root) if git_sha is ... else git_sha,
        fingerprint=machine_fingerprint(),
        experiments=experiments,
        cache=dict(cache) if cache is not None else None,
    )


# ---------------------------------------------------------------------------
# JSON (de)serialisation
# ---------------------------------------------------------------------------


def _clean_fit(ident: str, name: str, value: object) -> float | None:
    if value is None:
        return None
    number = float(value)
    if not math.isfinite(number):
        warnings.warn(
            f"run record {ident}: fit {name!r} is non-finite ({number}); "
            f"serialising as null",
            stacklevel=3,
        )
        return None
    return number


def _cache_json(cache: Mapping[str, object] | None) -> dict[str, object] | None:
    if cache is None:
        return None
    kernels = cache.get("kernels") or {}
    return {
        "enabled": bool(cache.get("enabled")),
        "kernels": {
            str(kernel): {str(k): int(v) for k, v in sorted(dict(stats).items())}
            for kernel, stats in sorted(dict(kernels).items())
        },
    }


def run_record_to_json(record: RunRecord) -> dict[str, object]:
    """The record as a plain JSON-ready dict (non-finite fits -> null)."""
    return {
        "schema_version": record.schema_version,
        "created": record.created,
        "git_sha": record.git_sha,
        "fingerprint": dict(record.fingerprint),
        "cache": _cache_json(record.cache),
        "experiments": [
            {
                "ident": exp.ident,
                "title": exp.title,
                "holds": exp.holds,
                "seconds": _timing_json(exp.seconds),
                "counters": {k: int(v) for k, v in sorted(exp.counters.items())},
                "fits": {
                    k: _clean_fit(exp.ident, k, v)
                    for k, v in sorted(exp.fits.items())
                },
                "memory": (
                    {k: int(exp.memory[k]) for k in sorted(_MEMORY_KEYS)}
                    if exp.memory is not None
                    else None
                ),
            }
            for exp in record.experiments
        ],
    }


def _require(mapping: Mapping, key: str, kinds, where: str):
    if key not in mapping:
        raise MetricsError(f"{where}: missing required key {key!r}")
    value = mapping[key]
    if not isinstance(value, kinds):
        raise MetricsError(
            f"{where}: key {key!r} has type {type(value).__name__}, "
            f"expected {kinds!r}"
        )
    return value


def run_record_from_json(data: object) -> RunRecord:
    """Parse and validate a run-record JSON document.

    Raises :class:`~repro.errors.MetricsError` with a pointed message on
    any structural problem; an unknown ``schema_version`` is rejected
    here so downstream code only ever sees version-:data:`SCHEMA_VERSION`
    records.
    """
    if not isinstance(data, Mapping):
        raise MetricsError(
            f"run record must be a JSON object, got {type(data).__name__}"
        )
    version = _require(data, "schema_version", int, "run record")
    if version not in SUPPORTED_SCHEMA_VERSIONS:
        raise MetricsVersionError(
            f"run record has schema_version {version}; this build reads "
            f"versions {SUPPORTED_SCHEMA_VERSIONS} -- regenerate the record "
            f"with benchmarks/run_experiments.py"
        )
    created = _require(data, "created", str, "run record")
    git_sha = data.get("git_sha")
    if git_sha is not None and not isinstance(git_sha, str):
        raise MetricsError("run record: git_sha must be a string or null")
    fingerprint = _require(data, "fingerprint", Mapping, "run record")
    # Absent before schema 3; null when the run recorded no cache block.
    raw_cache = data.get("cache")
    cache: dict[str, object] | None = None
    if raw_cache is not None:
        if not isinstance(raw_cache, Mapping) or "enabled" not in raw_cache:
            raise MetricsError(
                "run record: cache must be null or an object with an "
                f"'enabled' key (got {raw_cache!r})"
            )
        enabled = raw_cache["enabled"]
        if not isinstance(enabled, bool):
            raise MetricsError("run record: cache.enabled must be a boolean")
        raw_kernels = raw_cache.get("kernels") or {}
        if not isinstance(raw_kernels, Mapping):
            raise MetricsError("run record: cache.kernels must be an object")
        kernels: dict[str, dict[str, int]] = {}
        for kernel, stats in raw_kernels.items():
            if not isinstance(stats, Mapping):
                raise MetricsError(
                    f"run record: cache.kernels[{kernel!r}] must be an object"
                )
            for name, value in stats.items():
                if isinstance(value, bool) or not isinstance(value, int):
                    raise MetricsError(
                        f"run record: cache.kernels[{kernel!r}].{name} must "
                        f"be an int (got {value!r})"
                    )
            kernels[str(kernel)] = {str(k): int(v) for k, v in stats.items()}
        cache = {"enabled": enabled, "kernels": kernels}
    raw_experiments = _require(data, "experiments", Sequence, "run record")
    if isinstance(raw_experiments, (str, bytes)):
        raise MetricsError("run record: experiments must be a list")
    experiments = []
    seen: set[str] = set()
    for position, raw in enumerate(raw_experiments):
        where = f"experiments[{position}]"
        if not isinstance(raw, Mapping):
            raise MetricsError(f"{where}: must be an object")
        ident = _require(raw, "ident", str, where)
        if ident in seen:
            raise MetricsError(f"{where}: duplicate experiment ident {ident!r}")
        seen.add(ident)
        title = _require(raw, "title", str, where)
        holds = raw.get("holds")
        if holds is not None and not isinstance(holds, bool):
            raise MetricsError(f"{where}: holds must be true, false, or null")
        seconds = _require(raw, "seconds", Mapping, where)
        missing = _TIMING_KEYS - set(seconds)
        if missing:
            raise MetricsError(
                f"{where}: seconds is missing keys {sorted(missing)}"
            )
        counters = _require(raw, "counters", Mapping, where)
        for name, value in counters.items():
            if not isinstance(name, str) or isinstance(value, bool) or not isinstance(value, int):
                raise MetricsError(
                    f"{where}: counters must map str -> int "
                    f"(offending entry {name!r}: {value!r})"
                )
        fits = _require(raw, "fits", Mapping, where)
        parsed_fits: dict[str, float | None] = {}
        for name, value in fits.items():
            if value is None:
                parsed_fits[str(name)] = None
            elif isinstance(value, (int, float)) and not isinstance(value, bool):
                parsed_fits[str(name)] = float(value)
            else:
                raise MetricsError(
                    f"{where}: fits must map str -> number or null "
                    f"(offending entry {name!r}: {value!r})"
                )
        # Absent entirely in schema-1 records; null when the run did not
        # track memory.  Both read back as None.
        raw_memory = raw.get("memory")
        memory: dict[str, int] | None = None
        if raw_memory is not None:
            if not isinstance(raw_memory, Mapping) or set(raw_memory) != _MEMORY_KEYS:
                raise MetricsError(
                    f"{where}: memory must be null or an object with keys "
                    f"{sorted(_MEMORY_KEYS)} (got {raw_memory!r})"
                )
            for name, value in raw_memory.items():
                if isinstance(value, bool) or not isinstance(value, int):
                    raise MetricsError(
                        f"{where}: memory {name} must be an int byte count "
                        f"(got {value!r})"
                    )
            memory = {k: int(raw_memory[k]) for k in sorted(_MEMORY_KEYS)}
        experiments.append(
            ExperimentMetrics(
                ident=ident,
                title=title,
                holds=holds,
                seconds=dict(seconds),
                counters={str(k): int(v) for k, v in counters.items()},
                fits=parsed_fits,
                memory=memory,
            )
        )
    return RunRecord(
        schema_version=version,
        created=created,
        git_sha=git_sha,
        fingerprint=dict(fingerprint),
        experiments=experiments,
        cache=cache,
    )


# ---------------------------------------------------------------------------
# Files
# ---------------------------------------------------------------------------


def write_run_record(record: RunRecord, path: str | Path) -> Path:
    """Serialise ``record`` to ``path`` atomically (tmp file + rename).

    A crashed or concurrent run can never leave a half-written
    ``BENCH_*.json`` behind: the document is written to a temporary file
    in the destination directory and moved into place with
    :func:`os.replace`.
    """
    destination = Path(path)
    payload = json.dumps(run_record_to_json(record), indent=2, sort_keys=False)
    destination.parent.mkdir(parents=True, exist_ok=True)
    handle, tmp_name = tempfile.mkstemp(
        prefix=destination.name + ".", suffix=".tmp", dir=destination.parent
    )
    try:
        with os.fdopen(handle, "w") as tmp:
            tmp.write(payload + "\n")
        os.replace(tmp_name, destination)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    return destination


def read_run_record(path: str | Path) -> RunRecord:
    """Load and validate a run record from disk."""
    source = Path(path)
    try:
        text = source.read_text()
    except OSError as exc:
        raise MetricsError(f"cannot read run record {source}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise MetricsError(
            f"run record {source} is not UTF-8 text: {exc}"
        ) from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MetricsError(f"run record {source} is not valid JSON: {exc}") from exc
    return run_record_from_json(data)


def bench_filename(created: str | None = None) -> str:
    """``BENCH_<timestamp>.json`` for now (or a record's ``created`` time)."""
    if created is None:
        stamp = time.strftime("%Y%m%d_%H%M%S", time.gmtime())
    else:
        stamp = created.replace("-", "").replace(":", "").replace("T", "_")
        stamp = stamp.rstrip("Z")
    return f"{BENCH_PREFIX}{stamp}.json"


def find_bench_files(directory: str | Path = ".") -> list[Path]:
    """All ``BENCH_*.json`` files in ``directory``, oldest first.

    Sorted by filename (the embedded UTC timestamp), so the order is the
    trajectory order regardless of filesystem mtimes.
    """
    root = Path(directory)
    if not root.is_dir():
        return []
    return sorted(root.glob(f"{BENCH_PREFIX}*.json"), key=lambda p: p.name)


def latest_bench_file(directory: str | Path = ".") -> Path | None:
    """The most recent ``BENCH_*.json`` in ``directory``, if any."""
    found = find_bench_files(directory)
    return found[-1] if found else None


# ---------------------------------------------------------------------------
# Human-readable summary (REPL ``:bench last``)
# ---------------------------------------------------------------------------


def summary_report(record: RunRecord, source: str = ""):
    """The record as a :class:`~repro.bench.harness.Report` table."""
    from repro.bench.harness import Report  # local: harness imports obs.core

    title = "benchmark run record"
    if source:
        title += f" ({source})"
    report = Report(
        ident="BENCH",
        title=title,
        claim=(
            f"recorded {record.created}, git {record.git_sha or 'unknown'}, "
            f"{record.fingerprint.get('platform', '?')}"
        ),
        columns=("experiment", "median s", "counters", "fits", "peak mem", "verdict"),
    )
    for exp in record.experiments:
        fits = (
            ", ".join(
                f"{name}={value:.2f}" if value is not None else f"{name}=null"
                for name, value in sorted(exp.fits.items())
            )
            or "-"
        )
        verdict = {True: "holds", False: "DIVERGES", None: "-"}[exp.holds]
        if exp.memory is None:
            peak = "-"
        else:
            peak = f"{exp.memory['peak_bytes'] / (1024 * 1024):.1f}MB"
        report.add_row(
            exp.ident,
            f"{exp.median_seconds:.4f}",
            sum(exp.counters.values()),
            fits,
            peak,
            verdict,
        )
    report.observed = (
        f"{len(record.experiments)} experiment(s); "
        f"{sum(1 for e in record.experiments if e.holds is False)} diverging"
    )
    return report
