"""A small DPLL satisfiability solver over :class:`ClauseSet`.

The instance-level semantics enumerates worlds and cannot scale past ~20
letters; the Wilkins baseline (Section 3.3.1) deliberately *grows* the
vocabulary with every update, so measuring its query-time degradation
(experiment E11) needs a solver that handles a few hundred letters.  This
is a classic DPLL with unit propagation, pure-literal elimination, and a
most-frequent-literal branching heuristic -- entirely adequate for the
workloads in this repository.

The search is **iterative** (explicit decision stack + assignment trail),
not recursive: the seed's recursive formulation blew Python's default
1000-frame limit on deep propagation/decision chains (a few hundred
letters suffice on E11-style Wilkins instances; see
``tests/logic/test_sat_deepchain.py``).  Unit propagation is driven by a
literal-occurrence index with per-clause satisfied/unassigned counters,
so assigning a literal touches only the clauses containing it -- the seed
rebuilt the entire simplified clause list on every propagation step.  The
decision search also counts, per literal, the open clauses containing it,
so its pure literals and its branching literal come from the counts
instead of a pass over every open clause.
"""

from __future__ import annotations

from collections import deque

from repro.cache import core as cache
from repro.obs import core as obs
from repro.obs import provenance
from repro.logic.clauses import Clause, ClauseSet, Literal, clause_sort_key

__all__ = [
    "is_satisfiable",
    "solve",
    "entails_clause",
    "entails_clauses",
    "count_models",
    "count_models_exact",
    "backbone_literals",
]


class _SolverState:
    """Occurrence-indexed CNF working state with an undo trail.

    Tracks, per clause, how many of its literals are currently true
    (``n_true``) and how many are unassigned (``n_free``); a clause is
    *open* while no literal in it is true.  Assigning a variable updates
    only the clauses its two literals occur in (via the occurrence
    lists), queueing clauses that become unit and detecting the ones that
    become falsified.  ``undo_to`` rewinds the trail for backtracking.
    """

    __slots__ = (
        "clauses",
        "occ",
        "assignment",
        "trail",
        "n_true",
        "n_free",
        "open_clauses",
        "unit_queue",
        "root_conflict",
        "conflict_cid",
        "prov",
        "prov_active",
        "clause_ids",
        "reasons",
    )

    def __init__(
        self,
        clauses: list[Clause],
        assignment: dict[int, bool],
        record_provenance: bool = False,
    ):
        self.clauses = clauses
        occ: dict[Literal, list[int]] = {}
        for cid, clause in enumerate(clauses):
            for literal in clause:
                bucket = occ.get(literal)
                if bucket is None:
                    occ[literal] = [cid]
                else:
                    bucket.append(cid)
        self.occ = occ
        self.assignment = assignment
        self.trail: list[int] = []
        self.n_true = [0] * len(clauses)
        self.n_free = [len(clause) for clause in clauses]
        self.open_clauses = len(clauses)
        self.unit_queue: deque[int] = deque()
        self.root_conflict = False
        self.conflict_cid = -1
        # Provenance (opt-in, sound only at decision level 0): input
        # clauses are recorded as "input", the caller's assumptions as
        # "assumption" units, and each root unit propagation as a
        # "unitprop" node whose id becomes the assigned variable's
        # *reason*.  prov_active is switched off at the first decision or
        # pure-literal assignment -- consequences under either are not
        # consequences of the clause set.
        self.prov: provenance.DerivationRecorder | None = None
        self.prov_active = False
        self.clause_ids: list[int] = []
        self.reasons: dict[int, int] = {}
        if record_provenance and provenance._ENABLED:
            rec = provenance.recorder()
            self.prov = rec
            self.prov_active = True
            for input_clause in sorted(clauses, key=clause_sort_key):
                rec.ensure(input_clause)
            self.clause_ids = [rec.ensure(clause) for clause in clauses]
            for index, value in assignment.items():
                literal = index + 1 if value else -(index + 1)
                self.reasons[index] = rec.record(
                    frozenset((literal,)), "assumption"
                )
        self._fold(assignment)

    def _fold(self, assignment: dict[int, bool]) -> None:
        """Fold a pre-existing assignment (the caller's assumptions) into
        the counters, then pick up the clauses that start unit or empty."""
        for index, value in assignment.items():
            if not self._apply(index, value):
                self.root_conflict = True
        for cid in range(len(self.clauses)):
            if self.n_true[cid] == 0:
                if self.n_free[cid] == 0:
                    self.root_conflict = True
                    self.conflict_cid = cid
                elif self.n_free[cid] == 1:
                    self.unit_queue.append(cid)

    def _apply(self, index: int, value: bool) -> bool:
        """Update clause counters for ``index := value``.

        Queues clauses that become unit; returns False when some clause
        is falsified (all literals assigned, none true).
        """
        literal = index + 1 if value else -(index + 1)
        n_true = self.n_true
        n_free = self.n_free
        for cid in self.occ.get(literal, ()):
            if n_true[cid] == 0:
                self.open_clauses -= 1
            n_true[cid] += 1
        ok = True
        for cid in self.occ.get(-literal, ()):
            n_free[cid] -= 1
            if n_true[cid] == 0:
                if n_free[cid] == 0:
                    ok = False
                    self.conflict_cid = cid
                elif n_free[cid] == 1:
                    self.unit_queue.append(cid)
        return ok

    def assign(self, index: int, value: bool) -> bool:
        """Assign on the trail; returns False on an immediate conflict."""
        self.assignment[index] = value
        self.trail.append(index)
        return self._apply(index, value)

    def propagate(self) -> bool:
        """Drain the unit queue to fixpoint; False (queue cleared) on conflict."""
        if self.root_conflict:
            obs.inc("logic.sat.conflicts")
            self._record_conflict()
            return False
        ok = True
        propagations = 0
        queue = self.unit_queue
        while ok and queue:
            cid = queue.popleft()
            if self.n_true[cid] > 0:
                continue  # became satisfied since it was queued
            if self.n_free[cid] == 0:
                ok = False
                self.conflict_cid = cid
                break
            unit: Literal = 0
            for literal in self.clauses[cid]:
                if (abs(literal) - 1) not in self.assignment:
                    unit = literal
                    break
            if self.prov_active:
                self._record_unit(cid, unit)
            propagations += 1
            ok = self.assign(abs(unit) - 1, unit > 0)
        if propagations:
            obs.inc("logic.sat.unit_propagations", propagations)
        if not ok:
            obs.inc("logic.sat.conflicts")
            self._record_conflict()
            queue.clear()
        return ok

    def _record_unit(self, cid: int, unit: Literal) -> None:
        """Record one level-0 unit propagation: clause ``cid`` forces
        ``unit`` because its other literals are all falsified; the forcing
        node becomes the variable's reason."""
        rec = self.prov
        if rec is None:
            return
        parents = [self.clause_ids[cid]]
        for literal in self.clauses[cid]:
            if literal != unit:
                parents.append(self.reasons[abs(literal) - 1])
        self.reasons[abs(unit) - 1] = rec.record(
            frozenset((unit,)), "unitprop", tuple(parents)
        )

    def _record_conflict(self) -> None:
        """Record the empty clause from a level-0 conflict: the falsified
        clause plus the unit reasons of every literal in it."""
        rec = self.prov
        cid = self.conflict_cid
        if rec is None or not self.prov_active or cid < 0:
            return
        parents = [self.clause_ids[cid]]
        for literal in self.clauses[cid]:
            reason = self.reasons.get(abs(literal) - 1)
            if reason is None:
                return  # a literal with no recorded reason: not level 0
            parents.append(reason)
        rec.record(frozenset(), "unitprop", tuple(parents))

    def undo_to(self, mark: int) -> None:
        """Rewind the trail (and all clause counters) to length ``mark``."""
        n_true = self.n_true
        n_free = self.n_free
        while len(self.trail) > mark:
            index = self.trail.pop()
            value = self.assignment.pop(index)
            literal = index + 1 if value else -(index + 1)
            for cid in self.occ.get(literal, ()):
                n_true[cid] -= 1
                if n_true[cid] == 0:
                    self.open_clauses += 1
            for cid in self.occ.get(-literal, ()):
                n_free[cid] += 1
        self.unit_queue.clear()


class _DecisionState(_SolverState):
    """The decision search's state: open-clause counts per literal on top.

    ``open_count[literal]`` is the number of open clauses containing
    ``literal``.  It changes only when a clause's ``n_true`` crosses zero
    (closing in ``_apply``, reopening in ``undo_to``), so one assignment
    costs time linear in the clauses it closes.  From the counts the
    search reads its pure literals and its branching literal without
    rescanning the clauses.  Model counting keeps the plain
    :class:`_SolverState`: it uses neither, and the bookkeeping would
    only slow it down.
    """

    __slots__ = ("open_count", "pure_queue")

    def _fold(self, assignment: dict[int, bool]) -> None:
        """Start the open counts from the occurrence lists, before the
        assumptions close any clause.  Every literal is a candidate for
        the first pure-literal round; ``_apply`` queues the later ones."""
        self.open_count = {literal: len(cids) for literal, cids in self.occ.items()}
        self.pure_queue = list(self.open_count)
        super()._fold(assignment)

    def _apply(self, index: int, value: bool) -> bool:
        """:meth:`_SolverState._apply`, plus the open counts of every
        clause the literal closes.  A literal whose last open occurrence
        goes queues its complement as a possible pure literal."""
        literal = index + 1 if value else -(index + 1)
        clauses = self.clauses
        n_true = self.n_true
        n_free = self.n_free
        open_count = self.open_count
        for cid in self.occ.get(literal, ()):
            if n_true[cid] == 0:
                self.open_clauses -= 1
                for other in clauses[cid]:
                    left = open_count[other] - 1
                    open_count[other] = left
                    if not left:
                        self.pure_queue.append(-other)
            n_true[cid] += 1
        ok = True
        for cid in self.occ.get(-literal, ()):
            n_free[cid] -= 1
            if n_true[cid] == 0:
                if n_free[cid] == 0:
                    ok = False
                    self.conflict_cid = cid
                elif n_free[cid] == 1:
                    self.unit_queue.append(cid)
        return ok

    def undo_to(self, mark: int) -> None:
        """:meth:`_SolverState.undo_to`, plus the open counts of every
        clause that reopens.  The state at a decision's mark has no pure
        literal (the cascade ran to fixpoint first), so the pure queue
        empties too."""
        clauses = self.clauses
        n_true = self.n_true
        n_free = self.n_free
        open_count = self.open_count
        while len(self.trail) > mark:
            index = self.trail.pop()
            value = self.assignment.pop(index)
            literal = index + 1 if value else -(index + 1)
            for cid in self.occ.get(literal, ()):
                n_true[cid] -= 1
                if n_true[cid] == 0:
                    self.open_clauses += 1
                    for other in clauses[cid]:
                        open_count[other] += 1
            for cid in self.occ.get(-literal, ()):
                n_free[cid] += 1
        self.unit_queue.clear()
        self.pure_queue.clear()

    def take_pures(self) -> list[Literal]:
        """One round of pure-literal elimination: the queued literals that
        are pure now (unassigned, in some open clause, complement in
        none), each once.  Empties the queue; assigning the round queues
        the next."""
        queued = self.pure_queue
        if not queued:
            return queued
        self.pure_queue = []
        open_count = self.open_count
        assignment = self.assignment
        return [
            literal
            for literal in dict.fromkeys(queued)
            if open_count.get(literal)
            and not open_count.get(-literal)
            and (abs(literal) - 1) not in assignment
        ]

    def branch_literal(self) -> Literal:
        """The most frequent literal among open clauses of unassigned
        letters; of several, the one a clause-order scan meets first (its
        first open clause, then its place in that clause)."""
        assignment = self.assignment
        best = 0
        tied: list[Literal] = []
        for literal, count in self.open_count.items():
            if count >= best and count and (abs(literal) - 1) not in assignment:
                if count > best:
                    best = count
                    tied = [literal]
                else:
                    tied.append(literal)
        if len(tied) == 1:
            return tied[0]
        n_true = self.n_true
        first = len(self.clauses)
        for literal in tied:
            for cid in self.occ[literal]:
                if n_true[cid] == 0:
                    if cid < first:
                        first = cid
                    break
        candidates = set(tied)
        return next(literal for literal in self.clauses[first] if literal in candidates)


def _search(state: _DecisionState) -> dict[int, bool] | None:
    """Iterative DPLL over a prepared solver state."""
    # Each frame is (variable index, first value tried, trail mark, flipped).
    frames: list[tuple[int, bool, int, bool]] = []
    while True:
        if state.propagate():
            if state.open_clauses == 0:
                return dict(state.assignment)
            # Past this point every assignment sits under a pure-literal
            # choice or a decision, neither of which is a consequence of
            # the clause set -- stop recording provenance.
            state.prov_active = False
            # Cascading pure-literal elimination, in rounds: a round
            # assigns every letter pure at its start.  Assigning a pure
            # literal can only satisfy open clauses (its negation occurs
            # in none of them), so no propagation or conflict can result;
            # satisfied clauses may expose new pure letters, hence the
            # loop.
            while True:
                pures = state.take_pures()
                if not pures:
                    break
                for literal in pures:
                    state.assign(abs(literal) - 1, literal > 0)
                if state.open_clauses == 0:
                    return dict(state.assignment)
            literal = state.branch_literal()
            index = abs(literal) - 1
            first = literal > 0
            obs.inc("logic.sat.decisions")
            frames.append((index, first, len(state.trail), False))
            state.assign(index, first)
        else:
            while frames:
                index, first, mark, flipped = frames.pop()
                state.undo_to(mark)
                if not flipped:
                    obs.inc("logic.sat.backtracks")
                    obs.inc("logic.sat.decisions")
                    frames.append((index, first, mark, True))
                    state.assign(index, not first)
                    break
            else:
                return None


def solve(clause_set: ClauseSet, assumptions: tuple[Literal, ...] = ()) -> dict[int, bool] | None:
    """A satisfying (partial) assignment, or ``None`` if unsatisfiable.

    The returned dict maps vocabulary indices to booleans; letters that
    never mattered may be absent (any value works for them).
    """
    assignment: dict[int, bool] = {}
    for literal in assumptions:
        index = abs(literal) - 1
        value = literal > 0
        if assignment.get(index, value) != value:
            if provenance._ENABLED:
                # Complementary assumptions refute themselves; record the
                # two units and their empty resolvent so the derivation
                # DAG still explains the failure.
                rec = provenance.recorder()
                pos = rec.record(frozenset((index + 1,)), "assumption")
                neg = rec.record(frozenset((-(index + 1),)), "assumption")
                rec.record(frozenset(), "resolve", (pos, neg), pivot=index)
            return None
        assignment[index] = value
    with obs.op(
        "logic.sat.solve", clauses=len(clause_set), assumptions=len(assumptions)
    ):
        obs.inc("logic.sat.solve_calls")
        return _search(
            _DecisionState(
                list(clause_set.clauses),
                assignment,
                record_provenance=provenance._ENABLED,
            )
        )


def is_satisfiable(clause_set: ClauseSet, assumptions: tuple[Literal, ...] = ()) -> bool:
    """Satisfiability of the clause set (under optional assumptions)."""
    return solve(clause_set, assumptions) is not None


def entails_clause(clause_set: ClauseSet, clause: Clause) -> bool:
    """``Phi |= clause`` by refutation: ``Phi`` plus the negated clause is UNSAT."""
    negated = tuple(-literal for literal in clause)
    return not is_satisfiable(clause_set, negated)


def entails_clauses(clause_set: ClauseSet, other: ClauseSet) -> bool:
    """``Phi |= Psi``: every clause of ``Psi`` is entailed."""
    return all(entails_clause(clause_set, clause) for clause in other.clauses)


def count_models_exact(clause_set: ClauseSet) -> int:
    """Exact model count (#SAT) by counting DPLL.

    Unlike :func:`count_models` this never enumerates worlds: unit
    propagation plus branching, with each fully-satisfied residue
    contributing ``2^(free letters)``.  Pure-literal elimination is
    deliberately absent -- it is satisfiability-preserving but not
    count-preserving.  Worst case exponential (#SAT is #P-complete), but
    comfortable far beyond the 24-letter enumeration limit on the states
    this library produces.  Iterative like :func:`solve`, so deep
    propagation chains cannot exhaust the Python stack.

    Used by :meth:`repro.hlu.session.IncompleteDatabase.world_count`.

    Memoised by the opt-in kernel cache on the clause set's content
    fingerprint (the count also depends on the vocabulary size, which
    the vocabulary component of the key pins down).
    """
    if cache._ENABLED:
        key = (clause_set.vocabulary, clause_set.fingerprint)
        hit = cache.lookup("logic.count_models_exact", key)
        if hit is not cache.MISS:
            return hit
    result = _count_models_exact_uncached(clause_set)
    if cache._ENABLED:
        cache.store("logic.count_models_exact", key, result)
    return result


def _count_models_exact_uncached(clause_set: ClauseSet) -> int:
    total_letters = len(clause_set.vocabulary)
    state = _SolverState(list(clause_set.clauses), {})
    # Each frame is [variable index, trail mark, tried_false, subtotal].
    frames: list[list] = []
    entering = True
    result = 0
    while True:
        if entering:
            if not state.propagate():
                result = 0
                entering = False
            elif state.open_clauses == 0:
                result = 1 << (total_letters - len(state.assignment))
                entering = False
            else:
                # Branch on a variable of an open clause with the fewest
                # unassigned literals (the seed's shortest-clause rule).
                best = -1
                best_free = 0
                for cid in range(len(state.clauses)):
                    if state.n_true[cid] > 0:
                        continue
                    free = state.n_free[cid]
                    if best < 0 or free < best_free:
                        best, best_free = cid, free
                index = -1
                for literal in state.clauses[best]:
                    candidate = abs(literal) - 1
                    if candidate not in state.assignment:
                        index = candidate
                        break
                obs.inc("logic.sat.decisions")
                frames.append([index, len(state.trail), False, 0])
                state.assign(index, True)
        else:
            if not frames:
                return result
            frame = frames[-1]
            frame[3] += result
            state.undo_to(frame[1])
            if not frame[2]:
                frame[2] = True
                state.assign(frame[0], False)
                entering = True
            else:
                result = frame[3]
                frames.pop()


def backbone_literals(clause_set: ClauseSet) -> frozenset[Literal]:
    """The backbone: literals true in *every* model of the clause set.

    This is the clause-level route to a state's certain literals (the
    readable ``Sat`` fragment) without enumerating worlds, so it scales
    to vocabularies the instance semantics cannot touch.  Classic
    SAT-probing with model reuse: a literal is in the backbone iff the
    set is satisfiable and forcing its negation is not; any model found
    along the way rules out half the remaining candidates.

    An unsatisfiable set vacuously forces every literal; all of
    ``{A, ~A : A in vocabulary}`` is returned in that case, matching
    :func:`repro.logic.semantics.sat_literals` on the empty world set.
    """
    n = len(clause_set.vocabulary)
    first_model = solve(clause_set)
    if first_model is None:
        return frozenset(
            literal for index in range(n) for literal in (index + 1, -(index + 1))
        )
    # Candidates: one polarity per letter, as witnessed by the model
    # (letters it leaves unassigned are unconstrained, hence not backbone).
    candidates: set[Literal] = set()
    for index in range(n):
        if index in first_model:
            candidates.add(index + 1 if first_model[index] else -(index + 1))
    confirmed: set[Literal] = set()
    while candidates:
        literal = candidates.pop()
        model = solve(clause_set, assumptions=(-literal,))
        if model is None:
            confirmed.add(literal)
            continue
        # The counter-model eliminates every candidate it falsifies.
        candidates = {
            c
            for c in candidates
            if (abs(c) - 1) in model and model[abs(c) - 1] == (c > 0)
        }
    return frozenset(confirmed)


def count_models(clause_set: ClauseSet, over_indices: frozenset[int] | None = None) -> int:
    """Count models projected to ``over_indices`` (default: full vocabulary).

    On the model set's truth table -- only for vocabularies of at most 24
    letters; used by tests and by the expressiveness experiment E14.  The
    projection masks the other letters: each distinct restriction of a
    model becomes a block of ``2^hidden`` worlds.
    """
    from repro.logic import truthtable
    from repro.logic.semantics import clause_set_table

    table = clause_set_table(clause_set)
    if over_indices is None:
        return table.bit_count()
    letters = len(clause_set.vocabulary)
    hidden = [index for index in range(letters) if index not in over_indices]
    return truthtable.saturate(table, hidden, letters).bit_count() >> len(hidden)
