"""Literals, clauses, and clause sets -- ``Lit[L]`` and ``CF[D]``.

Representation choices (performance-critical: the clausal implementation
``BLU--C`` manipulates nothing else):

* a **literal** is a non-zero ``int``: ``+(i+1)`` for the letter at
  vocabulary index ``i``, ``-(i+1)`` for its negation (DIMACS style);
* a **clause** is a ``frozenset`` of literals (the paper's clauses are sets
  of *distinct* literals -- length counts distinct literals);
* a **clause set** (:class:`ClauseSet`) pairs a vocabulary with a frozenset
  of clauses.

Distinguished elements (Section 1.1): the empty clause (``frozenset()``) is
the always-false 0 / box; a *tautologous* clause (containing ``l`` and
``-l``) is the always-true 1.  :class:`ClauseSet` normalises tautologous
clauses away on construction, so the always-true clause set is the empty
set of clauses and an always-false one contains the empty clause.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

from repro.cache import core as cache
from repro.errors import InconsistentLiteralsError, ParseError, VocabularyError
from repro.logic.formula import Formula, Not, Var
from repro.logic.propositions import Vocabulary
from repro.obs import core as obs

__all__ = [
    "Literal",
    "Clause",
    "EMPTY_CLAUSE",
    "make_literal",
    "literal_index",
    "literal_is_positive",
    "negate_literal",
    "literal_from_str",
    "literal_to_str",
    "literal_to_formula",
    "clause_of",
    "clause_props",
    "clause_signature",
    "clause_is_tautologous",
    "clause_sort_key",
    "clause_to_str",
    "clause_to_formula",
    "clause_satisfied_by",
    "literals_consistent",
    "literals_to_world_constraint",
    "ClauseSet",
]

Literal = int
"""Type alias: a literal is a non-zero ``int`` (sign = polarity)."""

Clause = frozenset[int]
"""Type alias: a clause is a frozenset of literals."""

EMPTY_CLAUSE: Clause = frozenset()
"""The empty clause (the paper's box / 0): satisfied by no world."""


# --------------------------------------------------------------------------
# literals
# --------------------------------------------------------------------------

def make_literal(index: int, positive: bool = True) -> Literal:
    """Literal for the letter at 0-based vocabulary ``index``."""
    if index < 0:
        raise VocabularyError(f"negative proposition index {index}")
    return index + 1 if positive else -(index + 1)


def literal_index(literal: Literal) -> int:
    """0-based vocabulary index of the literal's letter."""
    return abs(literal) - 1


def literal_is_positive(literal: Literal) -> bool:
    """True for ``A``, false for ``~A``."""
    return literal > 0


def negate_literal(literal: Literal) -> Literal:
    """``A`` <-> ``~A``."""
    return -literal


def literal_from_str(vocabulary: Vocabulary, text: str) -> Literal:
    """Parse ``"A3"`` or ``"~A3"`` (also ``"!A3"``) into a literal."""
    stripped = text.strip()
    positive = True
    while stripped[:1] in ("~", "!"):
        positive = not positive
        stripped = stripped[1:].strip()
    if not stripped:
        raise ParseError(f"no proposition name in literal {text!r}", text)
    return make_literal(vocabulary.index_of(stripped), positive)


def literal_to_str(vocabulary: Vocabulary, literal: Literal) -> str:
    """Render a literal with its proposition name."""
    name = vocabulary.name_of(literal_index(literal))
    return name if literal > 0 else f"~{name}"


def literal_to_formula(vocabulary: Vocabulary, literal: Literal) -> Formula:
    """The literal as a :class:`Formula` (``Var`` or ``Not(Var)``)."""
    variable = Var(vocabulary.name_of(literal_index(literal)))
    return variable if literal > 0 else Not(variable)


def literals_consistent(literals: Iterable[Literal]) -> bool:
    """A literal set is consistent iff it never contains both ``l`` and ``-l``."""
    seen = set(literals)
    return all(-literal not in seen for literal in seen)


def literals_to_world_constraint(literals: Iterable[Literal]) -> tuple[int, int]:
    """Compile a consistent literal set to ``(care_mask, value_mask)`` bits.

    A world ``w`` satisfies the set iff ``w & care_mask == value_mask``.
    Raises :class:`InconsistentLiteralsError` on ``{A, ~A}``.
    """
    care = 0
    value = 0
    for literal in literals:
        bit = 1 << literal_index(literal)
        if care & bit:
            expected = bool(value & bit)
            if expected != (literal > 0):
                raise InconsistentLiteralsError(
                    "literal set contains a complementary pair"
                )
            continue
        care |= bit
        if literal > 0:
            value |= bit
    return care, value


# --------------------------------------------------------------------------
# clauses
# --------------------------------------------------------------------------

def clause_of(literals: Iterable[Literal]) -> Clause:
    """Build a clause from literals (a plain frozenset)."""
    return frozenset(literals)


def clause_props(clause: Clause) -> frozenset[int]:
    """Vocabulary indices of the letters occurring in the clause."""
    return frozenset(literal_index(literal) for literal in clause)


def clause_signature(clause: Clause) -> int:
    """Letter bitmask of the clause: bit ``i`` set iff letter ``i`` occurs.

    A cheap necessary condition for subsumption: ``c1 <= c2`` implies
    ``clause_signature(c1) & clause_signature(c2) == clause_signature(c1)``,
    so the (frozenset) subset test only needs to run on signature-compatible
    pairs.  Ignores polarity -- it is a filter, not a decision procedure.
    """
    signature = 0
    for literal in clause:
        signature |= 1 << (abs(literal) - 1)
    return signature


def clause_is_tautologous(clause: Clause) -> bool:
    """True iff the clause contains a complementary literal pair (the 1)."""
    return any(-literal in clause for literal in clause)


def clause_sort_key(clause: Clause) -> tuple[tuple[int, bool], ...]:
    """A canonical total order on clauses: sorted ``(letter index, negated)``
    pairs.  Distinct clauses always get distinct keys (the pairs determine
    the literals), so sorting by this key is deterministic across runs and
    hash seeds -- the order every rendered clause listing (``__str__``,
    explain output, audit records, session dumps) uses.  Numeric, not
    lexicographic: ``A2`` sorts before ``A10``.
    """
    return tuple(sorted((literal_index(lit), lit < 0) for lit in clause))


def clause_to_str(vocabulary: Vocabulary, clause: Clause) -> str:
    """Render a clause, e.g. ``"A1 | ~A2"``; the empty clause prints as 0."""
    if not clause:
        return "0"
    ordered = sorted(clause, key=lambda lit: (literal_index(lit), lit < 0))
    return " | ".join(literal_to_str(vocabulary, lit) for lit in ordered)


def clause_to_formula(vocabulary: Vocabulary, clause: Clause) -> Formula:
    """The clause as a disjunction :class:`Formula`."""
    from repro.logic.formula import disj

    ordered = sorted(clause, key=lambda lit: (literal_index(lit), lit < 0))
    return disj(literal_to_formula(vocabulary, lit) for lit in ordered)


def clause_satisfied_by(clause: Clause, world: int) -> bool:
    """Does the bit-packed ``world`` satisfy the clause?"""
    for literal in clause:
        bit = world >> (abs(literal) - 1) & 1
        if (literal > 0) == bool(bit):
            return True
    return False


# --------------------------------------------------------------------------
# clause sets
# --------------------------------------------------------------------------

def _check_clause_literals(clause: Clause, max_index: int, vocab_size: int) -> None:
    for literal in clause:
        if literal == 0:
            raise VocabularyError("0 is not a valid literal")
        if literal_index(literal) > max_index:
            raise VocabularyError(
                f"literal {literal} exceeds vocabulary size {vocab_size}"
            )


#: ``ClauseSet.merge`` scans when it adds at most this many new clauses
#: and builds its literal index for more.  A scan costs one C-level pass
#: over the base per new clause; the index costs a Python-level filing
#: pass and a lookup pass over the base however few clauses are new.
#: Timed on stream_large's merges, the two tie at 13-16 new clauses and
#: the index is the cheaper from 17 on; on random reduced bases, from
#: about 12 (DESIGN §1.9 has the figures).  Neither alone serves both
#: stream_large, whose merges mostly add 1-4 clauses, and E16, whose
#: largest add thousands.
_MERGE_SCAN_MAX = 16


def _filed_subset(clause: Clause, filed: dict[Literal, list[Clause]]) -> tuple[bool, int]:
    """Is a proper subset of ``clause`` filed in ``filed`` (clauses filed
    under one literal each)?  Also returns how many filed clauses were
    handed to the test."""
    compared = 0
    for literal in clause:
        bucket = filed.get(literal)
        if bucket:
            compared += len(bucket)
            if any(map(clause.__gt__, bucket)):
                return True, compared
    return False, compared


class ClauseSet:
    """A finite set of clauses over a vocabulary -- an element of ``CF[D]``.

    Immutable and hashable.  Tautologous clauses are removed on
    construction (they denote 1 and are redundant in a conjunction), which
    keeps the distinguished representations canonical:

    * the always-true clause set is ``ClauseSet.tautology(vocab)`` (no
      clauses);
    * any clause set containing the empty clause is unsatisfiable.

    >>> vocab = Vocabulary.standard(3)
    >>> cs = ClauseSet.from_strs(vocab, ["A1 | ~A2", "A3"])
    >>> cs.length
    3

    A set also carries a *reduced mark* (:attr:`known_reduced`), saying
    it is known to be subsumption-free: ``reduce()``, ``merge()``,
    ``tautology()`` and ``contradiction()`` set it on the sets they
    return.  The mark is not part of the value (equality and hashing
    ignore it); it only lets ``reduce()`` return at once and ``merge()``
    subsume incrementally.  Sets from the public constructor are
    unmarked.
    """

    __slots__ = ("_vocabulary", "_clauses", "_hash", "_sigs", "_fp", "_reduced")

    def __init__(self, vocabulary: Vocabulary, clauses: Iterable[Clause]):
        max_index = len(vocabulary) - 1
        kept: set[Clause] = set()
        for clause in clauses:
            clause = frozenset(clause)
            _check_clause_literals(clause, max_index, len(vocabulary))
            if not clause_is_tautologous(clause):
                kept.add(clause)
        self._vocabulary = vocabulary
        self._clauses = frozenset(kept)
        self._hash = hash((vocabulary, self._clauses))
        self._sigs = None
        self._fp = None
        self._reduced = False

    # --- constructors -------------------------------------------------------

    @classmethod
    def _trusted(
        cls, vocabulary: Vocabulary, clauses: frozenset[Clause], reduced: bool = False
    ) -> "ClauseSet":
        """Build a ClauseSet from already-validated clauses, skipping checks.

        Private fast path for operations whose outputs are made purely of
        (subsets/unions of) clauses drawn from existing ClauseSets:
        ``reduce``, ``union``, ``without_letters`` and the resolution
        kernels.  Callers must guarantee every clause is a frozenset of
        in-vocabulary literals with no complementary pair -- the public
        constructor re-validates everything and was a measurable cost on
        every intermediate clause set of the fixpoint kernels.  Pass
        ``reduced=True`` only for clauses known to be subsumption-free.
        """
        self = object.__new__(cls)
        self._vocabulary = vocabulary
        self._clauses = clauses
        self._hash = hash((vocabulary, clauses))
        self._sigs = None
        self._fp = None
        self._reduced = reduced
        return self

    @classmethod
    def tautology(cls, vocabulary: Vocabulary) -> "ClauseSet":
        """The empty clause set: true in every world (and marked reduced)."""
        return cls._trusted(vocabulary, frozenset(), reduced=True)

    @classmethod
    def contradiction(cls, vocabulary: Vocabulary) -> "ClauseSet":
        """``{box}``: true in no world (and marked reduced)."""
        return cls._trusted(vocabulary, frozenset((EMPTY_CLAUSE,)), reduced=True)

    @classmethod
    def from_strs(cls, vocabulary: Vocabulary, clause_texts: Iterable[str]) -> "ClauseSet":
        """Parse clause strings such as ``"A1 | ~A2"`` (literals joined by |).

        Each string must be a flat disjunction of literals; for arbitrary
        formulas use :func:`repro.logic.cnf.formula_to_clauses`.
        """
        clauses: list[Clause] = []
        for text in clause_texts:
            stripped = text.strip()
            if stripped in ("0", "[]"):
                clauses.append(EMPTY_CLAUSE)
                continue
            parts = [p for p in stripped.replace("\\/", "|").split("|")]
            clauses.append(
                frozenset(literal_from_str(vocabulary, part) for part in parts)
            )
        return cls(vocabulary, clauses)

    @classmethod
    def from_literal_set(cls, vocabulary: Vocabulary, literals: Iterable[Literal]) -> "ClauseSet":
        """The clause set ``{{l} : l in literals}`` (a conjunction of units)."""
        return cls(vocabulary, (frozenset((lit,)) for lit in literals))

    # --- accessors ----------------------------------------------------------

    @property
    def vocabulary(self) -> Vocabulary:
        """The vocabulary the clause set is defined over."""
        return self._vocabulary

    @property
    def clauses(self) -> frozenset[Clause]:
        """The underlying frozenset of clauses."""
        return self._clauses

    @property
    def length(self) -> int:
        """``Length[Phi]``: total number of distinct literals over all clauses."""
        return sum(len(clause) for clause in self._clauses)

    @property
    def prop_indices(self) -> frozenset[int]:
        """Vocabulary indices of all letters occurring in some clause."""
        out: set[int] = set()
        for clause in self._clauses:
            for literal in clause:
                out.add(literal_index(literal))
        return frozenset(out)

    @property
    def prop_names(self) -> frozenset[str]:
        """``Prop[Phi]``: names of all letters occurring in some clause."""
        return frozenset(self._vocabulary.name_of(i) for i in self.prop_indices)

    @property
    def known_reduced(self) -> bool:
        """The reduced mark: true when the set is known to be
        subsumption-free.  False means unknown, not "has subsumed
        clauses"."""
        return self._reduced

    @property
    def has_empty_clause(self) -> bool:
        """True iff the set contains the (unsatisfiable) empty clause."""
        return EMPTY_CLAUSE in self._clauses

    def __len__(self) -> int:
        return len(self._clauses)

    def __iter__(self) -> Iterator[Clause]:
        return iter(self._clauses)

    def __contains__(self, clause: object) -> bool:
        return clause in self._clauses

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ClauseSet):
            return NotImplemented
        return self._vocabulary == other._vocabulary and self._clauses == other._clauses

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"ClauseSet({self})"

    def __str__(self) -> str:
        if not self._clauses:
            return "{1}"
        return "{" + ", ".join(
            clause_to_str(self._vocabulary, c) for c in self.sorted_clauses()
        ) + "}"

    # --- operations ---------------------------------------------------------

    @property
    def signatures(self) -> dict[Clause, int]:
        """Per-clause letter-bitmask signatures (lazily computed, cached)."""
        if self._sigs is None:
            self._sigs = {c: clause_signature(c) for c in self._clauses}
        return self._sigs

    @property
    def fingerprint(self) -> tuple[int, int, bytes]:
        """Canonical content fingerprint: ``(count, signature mask, digest)``.

        Computed lazily and cached on the (immutable) instance; see
        :mod:`repro.cache.fingerprint`.  Two clause sets have equal
        fingerprints iff they hold the same clauses (up to the 128-bit
        digest's collision bound), regardless of construction order.
        The kernel memo-cache keys on ``(vocabulary, fingerprint, ...)``.
        """
        if self._fp is None:
            from repro.cache.fingerprint import clause_set_fingerprint

            self._fp = clause_set_fingerprint(self)
        return self._fp

    def union(self, other: "ClauseSet") -> "ClauseSet":
        """Set union of the clauses (conjunction of the theories).

        The result is unmarked; :meth:`merge` gives the reduced union."""
        self._check_vocabulary(other)
        return ClauseSet._trusted(self._vocabulary, self._clauses | other._clauses)

    def with_clause(self, clause: Clause) -> "ClauseSet":
        """This clause set plus one extra clause."""
        clause = frozenset(clause)
        _check_clause_literals(clause, len(self._vocabulary) - 1, len(self._vocabulary))
        if clause_is_tautologous(clause) or clause in self._clauses:
            return self
        return ClauseSet._trusted(self._vocabulary, self._clauses | {clause})

    def without_letters(self, indices: Iterable[int]) -> "ClauseSet":
        """Clauses that do not mention any of the given letters (``drop``).

        Raises :class:`VocabularyError` on a negative or out-of-range
        letter index: a negative index used to surface as a bare
        ``ValueError`` from the mask shift and an overlarge one silently
        matched nothing, both of which hid caller bugs.
        """
        forbidden_mask = 0
        size = len(self._vocabulary)
        for index in indices:
            if not 0 <= index < size:
                raise VocabularyError(
                    f"letter index {index} is outside the vocabulary "
                    f"(size {size})"
                )
            forbidden_mask |= 1 << index
        sigs = self.signatures
        # A subset of a subsumption-free set is subsumption-free.
        return ClauseSet._trusted(
            self._vocabulary,
            frozenset(c for c in self._clauses if not (sigs[c] & forbidden_mask)),
            reduced=self._reduced,
        )

    def satisfied_by(self, world: int) -> bool:
        """Does ``world`` (bit-packed) satisfy every clause?"""
        return all(clause_satisfied_by(clause, world) for clause in self._clauses)

    def reduce(self) -> "ClauseSet":
        """Remove subsumed clauses (keep only subset-minimal ones).

        The paper's algorithms are stated modulo logical equivalence; this
        is the standard tidy-up that keeps intermediate results small.
        The subset test ``kept <= clause`` is only attempted on pairs whose
        letter-bitmask signatures are compatible (``sig(kept)`` a submask
        of ``sig(clause)``), which prunes the quadratic pair scan to the
        few genuinely comparable clauses.

        Memoised by the opt-in kernel cache (``repro.cache``) on the
        clause set's content fingerprint: reduce is a pure function of
        an immutable input, so a hit returns the previously computed
        (immutable) result unchanged.  The result carries the reduced
        mark, and a marked set is returned at once, before the cache.
        """
        if self._reduced:
            return self
        if cache._ENABLED:
            key = (self._vocabulary, self.fingerprint)
            hit = cache.lookup("logic.reduce", key)
            if hit is not cache.MISS:
                return hit
        result = self._reduce_uncached()
        if cache._ENABLED:
            cache.store("logic.reduce", key, result)
        return result

    def _reduce_uncached(self) -> "ClauseSet":
        with obs.span("logic.reduce", clauses_in=len(self._clauses)) as current:
            sigs = self.signatures
            by_size = sorted(self._clauses, key=len)
            kept: list[Clause] = []
            kept_sigs: list[int] = []
            subset_tests = 0
            sig_skips = 0
            for clause in by_size:
                signature = sigs[clause]
                subsumed = False
                for kept_clause, kept_sig in zip(kept, kept_sigs):
                    if kept_sig & signature != kept_sig:
                        sig_skips += 1
                        continue
                    subset_tests += 1
                    if kept_clause <= clause:
                        subsumed = True
                        break
                if not subsumed:
                    kept.append(clause)
                    kept_sigs.append(signature)
            if subset_tests:
                obs.inc("logic.reduce.subset_tests", subset_tests)
            if sig_skips:
                obs.inc("logic.reduce.sig_skips", sig_skips)
            current.set(clauses_out=len(kept), subset_tests=subset_tests)
            if len(kept) == len(self._clauses):
                self._reduced = True
                return self
            return ClauseSet._trusted(self._vocabulary, frozenset(kept), reduced=True)

    def merge(self, extra: "ClauseSet") -> "ClauseSet":
        """``self.union(extra).reduce()``, subsuming incrementally.

        On a set carrying the reduced mark, the new clauses are taken
        shortest first, and each one that a clause of this set or an
        earlier kept new clause subsumes is dropped (forward subsumption,
        which also reduces the new clauses among themselves); then each
        clause of this set that a kept new clause subsumes is dropped
        (backward subsumption).  The result is the same set as the full
        pass's: the reduced form is the unique set of subset-minimal
        clauses, and a clause of an already subsumption-free set can only
        be subsumed by a new one.  An unmarked set is reduced first (the
        full pass), then merged into.

        A few new clauses are tested against every clause,
        ``O(|self| x |new|)`` frozenset subset tests.  Many are checked
        through a literal index instead, which files each clause under
        one literal it contains, so a subset of a clause is found under
        one of that clause's literals; building it costs ``O(|self|)``.
        The forward pass looks each new clause up among the base and the
        kept new clauses; the backward pass looks each base clause up
        among the kept new clauses alone.
        ``logic.reduce.merge_tests`` counts the clauses each check is
        handed (a check that stops at its first hit counts in full).
        """
        self._check_vocabulary(extra)
        if not self._reduced:
            return self.reduce().merge(extra)
        base = self._clauses
        fresh = extra._clauses - base
        if not fresh or EMPTY_CLAUSE in base:
            return self
        if EMPTY_CLAUSE in fresh:
            return ClauseSet.contradiction(self._vocabulary)
        survivors: list[Clause] = []
        tests = 0
        # Between distinct clauses, subsumption is a proper subset.
        if len(fresh) <= _MERGE_SCAN_MAX:
            for clause in sorted(fresh, key=len):
                tests += len(base) + len(survivors)
                if not (any(map(clause.__gt__, base))
                        or any(map(clause.__gt__, survivors))):
                    survivors.append(clause)
            subsumed = {b for clause in survivors for b in filter(clause.__lt__, base)}
            tests += len(base) * len(survivors)
        else:
            filed: dict[Literal, list[Clause]] = {}
            for clause in base:
                filed.setdefault(min(clause), []).append(clause)
            for clause in sorted(fresh, key=len):
                found, compared = _filed_subset(clause, filed)
                tests += compared
                if not found:
                    survivors.append(clause)
                    filed.setdefault(min(clause), []).append(clause)
            # No clause of this set subsumes another, so only a survivor
            # can: the backward pass looks up the survivors alone.
            filed = {}
            for clause in survivors:
                filed.setdefault(min(clause), []).append(clause)
            subsumed = set()
            for clause in base:
                found, compared = _filed_subset(clause, filed)
                tests += compared
                if found:
                    subsumed.add(clause)
        if tests:
            obs.inc("logic.reduce.merge_tests", tests)
        if not survivors:
            return self
        return ClauseSet._trusted(
            self._vocabulary, base.difference(subsumed).union(survivors), reduced=True
        )

    def sorted_clauses(self) -> tuple[Clause, ...]:
        """The clauses in the canonical :func:`clause_sort_key` order.

        The deterministic iteration every rendered listing uses (``str``,
        explain output, audit records, session dumps): independent of
        set-iteration order and hash seed, so derivations and audit diffs
        are stable across runs.
        """
        return tuple(sorted(self._clauses, key=clause_sort_key))

    def to_formulas(self) -> tuple[Formula, ...]:
        """Each clause as a disjunction formula, in a deterministic order."""
        return tuple(
            clause_to_formula(self._vocabulary, c) for c in self.sorted_clauses()
        )

    def _check_vocabulary(self, other: "ClauseSet") -> None:
        if self._vocabulary != other._vocabulary:
            from repro.errors import VocabularyMismatchError

            raise VocabularyMismatchError(
                "clause sets are over different vocabularies"
            )
