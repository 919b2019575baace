"""``IncompleteDatabase``: the user-facing session API over HLU.

This is the adoptable surface of the library: a mutable handle on an
incomplete-information database state, updated through the HLU operations
and queried for certain / possible truth.  Two interchangeable backends:

* ``"clausal"`` -- the scalable resolution-based ``BLU--C`` (default);
* ``"instance"`` -- exact possible-worlds ``BLU--I`` (small vocabularies;
  the reference semantics).

Integrity constraints (from a :class:`~repro.db.schema.DbSchema`) are, as
in the paper, *not* part of update semantics; with
``enforce_constraints=True`` the session applies the paper's suggested
policy for the incomplete-information case -- "update each possible world
individually, and then those which are not legal are eliminated" -- by
asserting the constraint clauses after every update.
"""

from __future__ import annotations

import logging as _logging
from collections.abc import Iterable
from typing import Any

from repro.obs import core as obs
from repro.obs.logging import get_logger
from repro.blu.clausal_impl import ClausalImplementation
from repro.blu.implementation import Implementation
from repro.blu.syntax import Sort
from repro.blu.instance_impl import InstanceImplementation
from repro.db.instances import WorldSet
from repro.db.schema import DbSchema
from repro.errors import EvaluationError, ReproError
from repro.hlu import audit as audit_mod
from repro.hlu import language
from repro.hlu.interpreter import run_update
from repro.logic.clauses import ClauseSet
from repro.logic.cnf import formula_to_clauses
from repro.logic.formula import Formula
from repro.logic.parser import parse_formula
from repro.logic.propositions import Vocabulary
from repro.logic.sat import entails_clauses, is_satisfiable

__all__ = ["IncompleteDatabase", "BACKENDS"]

#: The valid session backends (public so persistence and error messages
#: can enumerate them without reaching into private state).
BACKENDS = ("clausal", "instance")
_BACKENDS = BACKENDS

#: Structured (JSON-lines) logger for session operations; silent until
#: ``repro.obs.logging.configure`` attaches a handler.  Records emitted
#: inside an open span carry its name and sid for trace correlation.
_LOG = get_logger("repro.hlu.session")


class IncompleteDatabase:
    """A session over an incomplete-information database.

    >>> db = IncompleteDatabase.over(5)
    >>> _ = db.assert_("~A1 | A3", "A1 | A4", "A4 | A5", "~A1 | ~A2 | ~A5")
    >>> _ = db.insert("A1 | A2")             # Example 3.1.5
    >>> db.is_certain("A1 | A2")
    True
    >>> print(db.state)
    {A1 | A2, A3 | A4, A4 | A5}
    """

    def __init__(
        self,
        schema: DbSchema,
        backend: str = "clausal",
        initial: Any | None = None,
        enforce_constraints: bool = False,
    ):
        if backend not in _BACKENDS:
            raise EvaluationError(f"backend must be one of {_BACKENDS}, got {backend!r}")
        self._schema = schema
        self._backend_name = backend
        if backend == "clausal":
            self._implementation: Implementation = ClausalImplementation(
                schema.vocabulary
            )
        else:
            self._implementation = InstanceImplementation(schema.vocabulary)
        if initial is None:
            initial = self._total_state()
        self._implementation.check_sorted(initial, Sort.S)
        self._state = initial
        self._enforce_constraints = enforce_constraints
        self._history: list[language.Update] = []
        self._snapshots: list[Any] = []
        if enforce_constraints:
            self._state = self._apply_constraints(self._state)
        self._audit: audit_mod.SessionAudit | None = None
        if audit_mod._ENABLED:
            self._audit = audit_mod.register_session(self)

    # --- constructors ------------------------------------------------------------

    @classmethod
    def over(
        cls,
        letters: int | Iterable[str],
        constraints: Iterable[Formula | str] = (),
        backend: str = "clausal",
        enforce_constraints: bool = False,
    ) -> "IncompleteDatabase":
        """Start from total ignorance over a fresh schema."""
        return cls(
            DbSchema.of(letters, constraints),
            backend=backend,
            enforce_constraints=enforce_constraints,
        )

    # --- accessors -----------------------------------------------------------------

    @property
    def schema(self) -> DbSchema:
        """The database schema."""
        return self._schema

    @property
    def vocabulary(self) -> Vocabulary:
        """``Prop[D]``."""
        return self._schema.vocabulary

    @property
    def backend(self) -> str:
        """``"clausal"`` or ``"instance"``."""
        return self._backend_name

    @property
    def implementation(self) -> Implementation:
        """The underlying BLU implementation."""
        return self._implementation

    @property
    def state(self) -> Any:
        """The current backend state (a ClauseSet or WorldSet)."""
        return self._state

    @property
    def history(self) -> tuple[language.Update, ...]:
        """Every update applied so far, in order."""
        return tuple(self._history)

    # --- the HLU operations -----------------------------------------------------------

    def apply(self, update: language.Update) -> "IncompleteDatabase":
        """Apply any :class:`~repro.hlu.language.Update`; returns self.

        When the audit trail is enabled the operation is recorded with
        pre/post fingerprints; a rejected update (any :class:`ReproError`
        out of the interpreter) is recorded with outcome ``"rejected"``,
        logged with the offending operation echoed, and re-raised.
        """
        entry = None
        if audit_mod._ENABLED and self._audit is not None:
            entry = self._audit.begin("apply", str(update), self._fingerprint())
        with obs.op(
            "hlu.apply",
            update=type(update).__name__.lower(),
            backend=self._backend_name,
        ) as current:
            obs.inc("hlu.updates")
            if entry is not None:
                entry.span_sid = getattr(current, "sid", 0)
            try:
                new_state = run_update(self._implementation, self._state, update)
                if self._enforce_constraints:
                    new_state = self._apply_constraints(new_state)
            except ReproError as error:
                if _LOG.isEnabledFor(_logging.WARNING):
                    _LOG.warning(
                        "update rejected",
                        extra={
                            "op": str(update),
                            "backend": self._backend_name,
                            "error": str(error),
                        },
                    )
                if entry is not None:
                    self._audit.commit(entry, "rejected", error=str(error))
                raise
            if _LOG.isEnabledFor(_logging.INFO):
                _LOG.info(
                    "update applied",
                    extra={"op": str(update), "backend": self._backend_name},
                )
        old_state = self._state
        self._snapshots.append(self._state)
        self._state = new_state
        self._history.append(update)
        self._after_transition(old_state, new_state)
        if entry is not None:
            self._audit.commit(
                entry, self._outcome(), post=self._fingerprint()
            )
        return self

    def undo(self) -> "IncompleteDatabase":
        """Revert the most recent update (states are immutable values, so
        snapshots are free).  Raises if there is nothing to undo.

        Updates are *not* invertible operations -- insert genuinely
        destroys information -- so undo is only possible through
        snapshots; this is the session-level counterpart of Section 1.5's
        observation that a morphism's preimage is an equivalence class,
        not a point.  The audit trail records the undo like any other
        operation, so a replay traverses the same state trajectory.
        """
        entry = None
        if audit_mod._ENABLED and self._audit is not None:
            entry = self._audit.begin("undo", "", self._fingerprint())
        if not self._snapshots:
            if entry is not None:
                self._audit.commit(entry, "rejected", error="nothing to undo")
            if _LOG.isEnabledFor(_logging.WARNING):
                _LOG.warning(
                    "undo rejected",
                    extra={"backend": self._backend_name, "error": "nothing to undo"},
                )
            raise EvaluationError("nothing to undo")
        old_state = self._state
        self._state = self._snapshots.pop()
        self._history.pop()
        self._after_transition(old_state, self._state)
        if _LOG.isEnabledFor(_logging.INFO):
            _LOG.info("undo applied", extra={"backend": self._backend_name})
        if entry is not None:
            self._audit.commit(
                entry, self._outcome(), post=self._fingerprint()
            )
        return self

    def restore_history(
        self, updates: Iterable[language.Update]
    ) -> "IncompleteDatabase":
        """Replace the recorded update history (persistence restore).

        The state is untouched: the restored history is documentary --
        it reports how the current state came to be, it is not replayed.
        Undo snapshots are cleared (they pair with the live history, and
        a restored history has none), matching the save-format contract
        that snapshots are not persisted.  The operation is recorded in
        the audit trail as ``restore_history`` (state fingerprints
        unchanged), so loading a session never silently diverges a trail
        from the session's reported history -- the reason callers must
        use this API instead of poking ``_history`` directly.
        """
        update_list = list(updates)
        for update in update_list:
            if not isinstance(update, language.Update):
                raise EvaluationError(
                    f"history entries must be HLU updates, got {update!r}"
                )
        entry = None
        if audit_mod._ENABLED and self._audit is not None:
            entry = self._audit.begin(
                "restore_history",
                " ".join(str(update) for update in update_list),
                self._fingerprint(),
            )
        self._history = update_list
        self._snapshots.clear()
        if entry is not None:
            self._audit.commit(entry, "ok", post=self._fingerprint())
        return self

    def attach_audit(self) -> audit_mod.SessionAudit:
        """Start auditing this session (audit must be enabled).

        Sessions created while :func:`repro.hlu.audit.enable` is active
        register automatically; this is the late-attachment hook for
        sessions that predate the enable (e.g. the REPL's ``:audit on``).
        The session record captures the *current* state as the initial
        one, so replay still converges.
        """
        if not audit_mod.is_enabled():
            raise EvaluationError("audit recording is not enabled")
        self._audit = audit_mod.register_session(self)
        return self._audit

    def assert_(self, *formulas: Formula | str) -> "IncompleteDatabase":
        """``(assert W)``: monotonically add the information ``W``."""
        return self.apply(language.assert_(*formulas))

    def clear(self, *names: str) -> "IncompleteDatabase":
        """``(mask M)``: forget everything about the named letters."""
        return self.apply(language.clear(*names))

    def insert(self, *formulas: Formula | str) -> "IncompleteDatabase":
        """``(insert W)``: make ``W`` true, forgetting what it overrides."""
        return self.apply(language.insert(*formulas))

    def delete(self, *formulas: Formula | str) -> "IncompleteDatabase":
        """``(delete W)``: make ``W`` false, forgetting what it overrides."""
        return self.apply(language.delete(*formulas))

    def modify(self, old_formulas, new_formulas) -> "IncompleteDatabase":
        """``(modify W V)``: where ``W`` holds, replace it by ``V``."""
        return self.apply(language.modify(old_formulas, new_formulas))

    def where(
        self,
        condition,
        then: language.Update,
        otherwise: language.Update | None = None,
    ) -> "IncompleteDatabase":
        """``(where W P [Q])``: conditional update via macro expansion."""
        return self.apply(language.where(condition, then, otherwise))

    def run(self, text: str) -> "IncompleteDatabase":
        """Apply HLU programs written in the paper's surface syntax.

        >>> db = IncompleteDatabase.over(5)
        >>> _ = db.run("(assert {A4 | A5}) (where {A5} (insert {A1 | A2}))")
        >>> db.is_certain("A5 -> (A1 | A2)")
        True
        """
        from repro.hlu.surface import parse_updates

        for update in parse_updates(text):
            self.apply(update)
        return self

    # --- queries ------------------------------------------------------------------------

    def is_certain(self, formula: Formula | str) -> bool:
        """Does the formula hold in *every* possible world?"""
        formula = self._parse(formula)
        entry = None
        if audit_mod._ENABLED and self._audit is not None:
            entry = self._audit.begin(
                "query_certain", str(formula), self._fingerprint()
            )
        with obs.op("hlu.is_certain", backend=self._backend_name) as current:
            obs.inc("hlu.queries")
            if entry is not None:
                entry.span_sid = getattr(current, "sid", 0)
            if isinstance(self._state, WorldSet):
                result = self._state.satisfies_everywhere(formula)
            else:
                query = formula_to_clauses(formula, self.vocabulary)
                result = entails_clauses(self._state, query)
            if _LOG.isEnabledFor(_logging.INFO):
                _LOG.info(
                    "query",
                    extra={
                        "kind": "certain",
                        "formula": str(formula),
                        "backend": self._backend_name,
                        "result": result,
                    },
                )
        if entry is not None:
            self._audit.commit(entry, "true" if result else "false")
        return result

    def is_possible(self, formula: Formula | str) -> bool:
        """Does the formula hold in *some* possible world?"""
        formula = self._parse(formula)
        entry = None
        if audit_mod._ENABLED and self._audit is not None:
            entry = self._audit.begin(
                "query_possible", str(formula), self._fingerprint()
            )
        with obs.op("hlu.is_possible", backend=self._backend_name) as current:
            obs.inc("hlu.queries")
            if entry is not None:
                entry.span_sid = getattr(current, "sid", 0)
            if isinstance(self._state, WorldSet):
                result = self._state.satisfies_somewhere(formula)
            else:
                query = formula_to_clauses(formula, self.vocabulary)
                result = is_satisfiable(self._state.union(query))
            if _LOG.isEnabledFor(_logging.INFO):
                _LOG.info(
                    "query",
                    extra={
                        "kind": "possible",
                        "formula": str(formula),
                        "backend": self._backend_name,
                        "result": result,
                    },
                )
        if entry is not None:
            self._audit.commit(entry, "true" if result else "false")
        return result

    def is_consistent(self) -> bool:
        """Is there at least one possible world?"""
        if isinstance(self._state, WorldSet):
            return bool(self._state)
        return is_satisfiable(self._state)

    def world_count(self) -> int:
        """How many possible worlds the state has.

        Exact #SAT on the clausal backend (no enumeration), a plain
        ``len`` on the instance backend.
        """
        if isinstance(self._state, ClauseSet):
            from repro.logic.sat import count_models_exact

            return count_models_exact(self._state)
        return len(self._state)

    def certain_literals(self) -> frozenset[str]:
        """The literals holding in every possible world.

        On the clausal backend this is the SAT backbone -- no world
        enumeration, so it works at any vocabulary size.
        """
        if isinstance(self._state, ClauseSet):
            from repro.logic.clauses import literal_to_str
            from repro.logic.sat import backbone_literals

            return frozenset(
                literal_to_str(self.vocabulary, literal)
                for literal in backbone_literals(self._state)
            )
        return self.worlds().certain_literals()

    # --- representation changes ------------------------------------------------------------

    def worlds(self) -> WorldSet:
        """The state as an explicit world set (small vocabularies only)."""
        if isinstance(self._state, WorldSet):
            return self._state
        return WorldSet.from_clause_set(self._state)

    def clauses(self) -> ClauseSet:
        """The state as a clause set."""
        if isinstance(self._state, ClauseSet):
            return self._state
        return self._state.to_clause_set()

    def canonical_clauses(self, max_clauses: int = 100_000) -> ClauseSet:
        """The state's prime implicates: a presentation-independent
        canonical clausal form (two sessions hold the same information iff
        this is equal).  Exponential in the worst case -- display and
        comparison only."""
        from repro.logic.implicates import prime_implicates

        return prime_implicates(self.clauses(), max_clauses=max_clauses)

    def with_backend(self, backend: str) -> "IncompleteDatabase":
        """A copy of this session running on the other backend.

        The update history carries over; undo snapshots do not (they are
        representation-level values of the original backend).
        """
        if backend == self._backend_name:
            initial = self._state
        elif backend == "instance":
            initial = self.worlds()
        else:
            initial = self.clauses()
        clone = IncompleteDatabase(
            self._schema,
            backend=backend,
            initial=initial,
            enforce_constraints=self._enforce_constraints,
        )
        clone._history = list(self._history)
        return clone

    # --- internals -------------------------------------------------------------------------

    def _total_state(self) -> Any:
        if self._backend_name == "clausal":
            return ClauseSet.tautology(self.vocabulary)
        return WorldSet.total(self.vocabulary)

    def _apply_constraints(self, state: Any) -> Any:
        if not self._schema.constraints:
            return state
        if isinstance(state, WorldSet):
            return state.legal(self._schema)
        return state.merge(self._schema.constraint_clauses())

    def _after_transition(self, old_state: Any, new_state: Any) -> None:
        """Post-transition hook: record the clausal delta size while
        tracing (live telemetry alone does not pay for the clause diff).

        Only clausal states over one vocabulary have a clause delta
        (``WorldSet`` transitions are not measured this way).
        """
        if (obs._MODE & obs.TRACE and isinstance(old_state, ClauseSet)
                and isinstance(new_state, ClauseSet)
                and old_state.vocabulary == new_state.vocabulary):
            from repro.db.updates import clause_delta

            inserts, deletes = clause_delta(old_state, new_state)
            obs.observe("hlu.update.delta_size", len(inserts) + len(deletes))

    def _fingerprint(self) -> tuple[int, int, bytes]:
        """The audit fingerprint of the current state, computed with
        :mod:`repro.obs` suspended.  On the instance backend it converts
        the world set to clauses (CNF plus a reduce): work of the audit,
        which must not count towards the operation it records."""
        with obs.suspended():
            return self.clauses().fingerprint

    def _outcome(self) -> str:
        """The audit outcome of the current state: ``"inconsistent"`` when
        inconsistency is representationally evident (an explicit empty
        clause, or an empty world set), else ``"ok"``.  A deliberately
        cheap check -- the semantic question is ``is_consistent()`` and,
        for an explanation, ``repro.obs.provenance.explain_inconsistency``.
        """
        if isinstance(self._state, ClauseSet):
            return "inconsistent" if self._state.has_empty_clause else "ok"
        return "ok" if self._state else "inconsistent"

    def _parse(self, formula: Formula | str) -> Formula:
        return parse_formula(formula) if isinstance(formula, str) else formula

    def __repr__(self) -> str:
        return (
            f"IncompleteDatabase(backend={self._backend_name!r}, "
            f"{len(self.vocabulary)} letters, {len(self._history)} update(s))"
        )

