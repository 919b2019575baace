"""The concurrent update service: a long-lived server over HLU sessions.

The paper specifies update programs against a single session; the
ROADMAP's north star is a production-scale system serving heavy
concurrent traffic.  This package is the bridge: a long-lived asyncio
front end around :class:`repro.hlu.session.IncompleteDatabase` that
accepts concurrent BLU/HLU update, query, undo, and explain sessions
over a newline-delimited-JSON socket protocol.

* :mod:`repro.server.protocol` -- the schema-versioned wire protocol
  (request validation, response shapes, error codes);
* :mod:`repro.server.sessions` -- the per-connection session registry
  (connection-scoped names, idle eviction, live-session gauge);
* :mod:`repro.server.service` -- the asyncio service itself (TCP or
  Unix socket, graceful drain on SIGTERM, live telemetry and audit
  wiring, ``python -m repro.cli serve``).

The served path is measured, and every answer checked against an
offline replay, by the benchmark in ``perfbench/`` (``python3
perfbench/run.py``; workloads in ``BENCHMARK.json``).
"""

from __future__ import annotations

__all__ = ["protocol", "sessions", "service"]
