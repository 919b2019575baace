"""The service's session registry: named sessions and idle eviction.

Sessions are keyed by *scoped* names -- the service prefixes every
client-supplied name with a per-connection scope (``c7/main``), so two
connections using the same name address two different databases.  That
makes client isolation structural: there is no configuration in which
one client can observe another's uncommitted updates, because there is
no shared key to collide on.

Operations on a session need no lock.  Every operation runs to
completion on the event loop without yielding (the kernels are
synchronous), and each connection handles its lines in order, so two
operations on one session can never interleave: a client pipelining
``update`` then ``query`` always queries the updated state.

The registry also owns lifecycle policy: a bound on live sessions, an
idle-eviction sweep (sessions untouched for longer than the timeout are
closed, exactly what a long-lived server needs to survive abandoned
connections), and the ``srv.sessions`` gauge the telemetry feed reports.
"""

from __future__ import annotations

import time
from collections.abc import Callable
from dataclasses import dataclass

from repro.errors import EvaluationError
from repro.hlu.session import IncompleteDatabase
from repro.obs import core as obs

__all__ = [
    "DEFAULT_IDLE_TIMEOUT",
    "DEFAULT_MAX_SESSIONS",
    "SessionEntry",
    "SessionRegistry",
]

#: Sessions idle for longer than this (seconds) are evicted by the sweep.
DEFAULT_IDLE_TIMEOUT = 300.0

#: Hard bound on concurrently live sessions (a memory guard: each session
#: holds a clause set and its undo snapshots).
DEFAULT_MAX_SESSIONS = 1024


@dataclass
class SessionEntry:
    """One live session: the database and when it was last used."""

    name: str
    db: IncompleteDatabase
    last_used: float = 0.0


class SessionRegistry:
    """Scoped-name -> :class:`SessionEntry`, with lifecycle policy.

    Single-threaded by design: everything runs on the service's event
    loop, and no operation yields mid-way, so neither the mapping nor
    its entries need a lock.
    """

    def __init__(
        self,
        idle_timeout: float = DEFAULT_IDLE_TIMEOUT,
        max_sessions: int = DEFAULT_MAX_SESSIONS,
        clock: Callable[[], float] = time.monotonic,
    ):
        if idle_timeout <= 0:
            raise ValueError(f"idle_timeout must be > 0, got {idle_timeout}")
        if max_sessions < 1:
            raise ValueError(f"max_sessions must be >= 1, got {max_sessions}")
        self.idle_timeout = idle_timeout
        self.max_sessions = max_sessions
        self._clock = clock
        self._entries: dict[str, SessionEntry] = {}
        self.evicted_total = 0

    # --- mapping ---------------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    def names(self) -> list[str]:
        return sorted(self._entries)

    def get(self, name: str) -> SessionEntry | None:
        return self._entries.get(name)

    def open(self, name: str, db: IncompleteDatabase) -> SessionEntry:
        """Register a fresh session under ``name``.

        Raises :class:`~repro.errors.EvaluationError` when the name is
        taken or the registry is full -- the service maps both onto
        protocol error responses.
        """
        if name in self._entries:
            raise EvaluationError(f"session {name!r} already exists")
        if len(self._entries) >= self.max_sessions:
            raise EvaluationError(
                f"session limit reached ({self.max_sessions} live sessions)"
            )
        now = self._clock()
        entry = SessionEntry(name=name, db=db, last_used=now)
        self._entries[name] = entry
        self._update_gauge()
        return entry

    def close(self, name: str) -> bool:
        """Drop a session; True when it existed."""
        existed = self._entries.pop(name, None) is not None
        if existed:
            self._update_gauge()
        return existed

    def touch(self, entry: SessionEntry) -> None:
        """Record use (idle eviction measures from the last touch)."""
        entry.last_used = self._clock()

    # --- lifecycle -------------------------------------------------------

    def evict_idle(self, now: float | None = None) -> list[str]:
        """Close every session idle past the timeout; returns the names.

        The sweep runs on the event loop between operations, so no
        session it sees is mid-request.
        """
        now = self._clock() if now is None else now
        stale = [
            name
            for name, entry in self._entries.items()
            if now - entry.last_used > self.idle_timeout
        ]
        for name in stale:
            del self._entries[name]
        if stale:
            self.evicted_total += len(stale)
            obs.inc("srv.sessions_evicted", len(stale))
            self._update_gauge()
        return stale

    def close_scope(self, scope_prefix: str) -> list[str]:
        """Drop every session whose name lives under a connection scope."""
        doomed = [
            name for name in self._entries if name.startswith(scope_prefix)
        ]
        for name in doomed:
            del self._entries[name]
        if doomed:
            self._update_gauge()
        return doomed

    def _update_gauge(self) -> None:
        obs.set_gauge("srv.sessions", float(len(self._entries)))
