"""Incomplete information databases as explicit world sets -- ``IDB[D]``.

A :class:`WorldSet` is an element of ``IDB[D]`` (Definition 1.2.2): a set
of possible worlds over a vocabulary.  It is the concrete domain of the
**S** sort in the instance-level implementation ``BLU--I`` (Definition
2.2.2), so it carries exactly the operations that implementation needs --
the Boolean algebra (union / intersection / complement), saturation under
a letter set (masking), and the dependency set (genmask) -- plus the
``eta`` embeddings of complete databases (Definition 1.2.4).
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping

from repro.errors import VocabularyError, VocabularyMismatchError
from repro.logic import truthtable
from repro.logic.clauses import ClauseSet
from repro.logic.formula import Formula
from repro.logic.parser import parse_formula
from repro.logic.propositions import Vocabulary
from repro.logic.semantics import (
    clause_set_table,
    formulas_table,
    table_dependency_indices,
    table_sat_literals,
)
from repro.logic.structures import (
    World,
    enumerable_letters,
    world_from_dict,
    world_from_true_set,
    world_str,
    world_to_dict,
)

__all__ = ["WorldSet"]


class WorldSet:
    """An immutable set of possible worlds over a vocabulary.

    >>> vocab = Vocabulary.standard(2)
    >>> ws = WorldSet.from_texts(vocab, ["A1 | A2"])
    >>> len(ws)
    3

    The set is held as one truth table (:mod:`repro.logic.truthtable`):
    a ``2^n``-bit integer whose bit ``w`` says whether world ``w`` is
    possible, so the vocabulary has at most 24 letters.
    """

    __slots__ = ("_vocabulary", "_table", "_hash")

    def __init__(self, vocabulary: Vocabulary, worlds: Iterable[World]):
        table = truthtable.table_of_worlds(worlds, enumerable_letters(vocabulary))
        self._vocabulary = vocabulary
        self._table = table
        self._hash = hash((vocabulary, table))

    @classmethod
    def _of_table(cls, vocabulary: Vocabulary, table: int) -> "WorldSet":
        self = object.__new__(cls)
        self._vocabulary = vocabulary
        self._table = table
        self._hash = hash((vocabulary, table))
        return self

    # --- constructors (including the eta embeddings of 1.2.4) ---------------

    @classmethod
    def from_table(cls, vocabulary: Vocabulary, table: int) -> "WorldSet":
        """The worlds whose bits are set in ``table`` (bit ``w`` for world
        ``w``); raises :class:`ValueError` on a bit beyond ``2^n``."""
        if not 0 <= table <= truthtable.full(enumerable_letters(vocabulary)):
            raise ValueError(
                f"table {table} out of range for a {len(vocabulary)}-letter vocabulary"
            )
        return cls._of_table(vocabulary, table)

    @classmethod
    def empty(cls, vocabulary: Vocabulary) -> "WorldSet":
        """The empty collection of possible worlds (inconsistent state)."""
        return cls.from_table(vocabulary, 0)

    @classmethod
    def total(cls, vocabulary: Vocabulary) -> "WorldSet":
        """All of ``DB[D]`` -- the state of complete ignorance."""
        return cls._of_table(vocabulary, truthtable.full(enumerable_letters(vocabulary)))

    @classmethod
    def singleton(cls, vocabulary: Vocabulary, world: World) -> "WorldSet":
        """``eta``: embed a complete database as a one-world set."""
        return cls(vocabulary, (world,))

    @classmethod
    def from_assignment(cls, vocabulary: Vocabulary, assignment: Mapping[str, bool]) -> "WorldSet":
        """Singleton from an explicit truth assignment."""
        return cls.singleton(vocabulary, world_from_dict(vocabulary, assignment))

    @classmethod
    def from_true_set(cls, vocabulary: Vocabulary, true_names: Iterable[str]) -> "WorldSet":
        """Singleton in which exactly ``true_names`` hold (closed-world reading)."""
        return cls.singleton(vocabulary, world_from_true_set(vocabulary, true_names))

    @classmethod
    def from_formulas(cls, vocabulary: Vocabulary, formulas: Iterable[Formula]) -> "WorldSet":
        """``Mod[Phi]`` as a world set."""
        return cls._of_table(vocabulary, formulas_table(vocabulary, formulas))

    @classmethod
    def from_texts(cls, vocabulary: Vocabulary, texts: Iterable[str]) -> "WorldSet":
        """``Mod`` of parsed formula strings."""
        return cls.from_formulas(vocabulary, (parse_formula(t) for t in texts))

    @classmethod
    def from_clause_set(cls, clause_set: ClauseSet) -> "WorldSet":
        """``Mod[Phi]`` -- the canonical emulation map ``e_CI[S]``."""
        return cls._of_table(clause_set.vocabulary, clause_set_table(clause_set))

    # --- accessors -----------------------------------------------------------

    @property
    def vocabulary(self) -> Vocabulary:
        """The vocabulary the worlds range over."""
        return self._vocabulary

    @property
    def worlds(self) -> frozenset[World]:
        """The worlds as a frozenset of bit-packed ints."""
        return frozenset(truthtable.worlds_of(self._table))

    def __len__(self) -> int:
        return self._table.bit_count()

    def __iter__(self) -> Iterator[World]:
        """The worlds in ascending order."""
        return iter(truthtable.worlds_of(self._table))

    def __contains__(self, world: object) -> bool:
        return (
            isinstance(world, int)
            and 0 <= world < 1 << len(self._vocabulary)
            and bool(self._table >> world & 1)
        )

    def __bool__(self) -> bool:
        return bool(self._table)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WorldSet):
            return NotImplemented
        return self._vocabulary == other._vocabulary and self._table == other._table

    def __hash__(self) -> int:
        return self._hash

    def __le__(self, other: "WorldSet") -> bool:
        self._check(other)
        return self._table | other._table == other._table

    def __repr__(self) -> str:
        return f"WorldSet({len(self)} worlds over {len(self._vocabulary)} letters)"

    def describe(self, limit: int = 8) -> str:
        """Readable listing of (up to ``limit``) worlds."""
        worlds = truthtable.worlds_of(self._table)
        lines = [world_str(self._vocabulary, w) for w in worlds[:limit]]
        if len(worlds) > limit:
            lines.append(f"... and {len(worlds) - limit} more")
        return "\n".join(lines) if lines else "(no possible worlds)"

    # --- Boolean algebra (combine / assert / complement of BLU--I) ----------

    def union(self, other: "WorldSet") -> "WorldSet":
        """``combine``: set union (Definition 2.2.2(b.i))."""
        self._check(other)
        return WorldSet._of_table(self._vocabulary, self._table | other._table)

    def intersection(self, other: "WorldSet") -> "WorldSet":
        """``assert``: set intersection (Definition 2.2.2(b.ii))."""
        self._check(other)
        return WorldSet._of_table(self._vocabulary, self._table & other._table)

    def complement(self) -> "WorldSet":
        """``complement``: relative to all of ``DB[D]`` (Definition 2.2.2(b.iii))."""
        whole = truthtable.full(len(self._vocabulary))
        return WorldSet._of_table(self._vocabulary, whole ^ self._table)

    def difference(self, other: "WorldSet") -> "WorldSet":
        """``S \\ T`` (used by the ``where`` construct, Section 0)."""
        self._check(other)
        return WorldSet._of_table(self._vocabulary, self._table & ~other._table)

    # --- masking and dependency (mask / genmask of BLU--I) -------------------

    def saturate(self, indices: Iterable[int]) -> "WorldSet":
        """Close under re-assignment of the given letters (simple-mask action)."""
        letters = len(self._vocabulary)
        positions = frozenset(indices)
        for index in positions:
            if not 0 <= index < letters:
                raise VocabularyError(
                    f"letter index {index} is outside the vocabulary (size {letters})"
                )
        return WorldSet._of_table(
            self._vocabulary, truthtable.saturate(self._table, positions, letters)
        )

    def saturate_names(self, names: Iterable[str]) -> "WorldSet":
        """As :meth:`saturate`, addressing letters by name."""
        return self.saturate(self._vocabulary.index_of(n) for n in names)

    def dependency_indices(self) -> frozenset[int]:
        """``Dep[S]`` as vocabulary indices."""
        return table_dependency_indices(self._vocabulary, self._table)

    def dependency_names(self) -> frozenset[str]:
        """``Dep[S]`` as proposition names."""
        return frozenset(self._vocabulary.name_of(i) for i in self.dependency_indices())

    # --- queries --------------------------------------------------------------

    def satisfies_everywhere(self, formula: Formula) -> bool:
        """Certain truth: does every possible world satisfy ``formula``?"""
        return self._table & formulas_table(self._vocabulary, (formula,)) == self._table

    def satisfies_somewhere(self, formula: Formula) -> bool:
        """Possible truth: does some possible world satisfy ``formula``?"""
        return bool(self._table & formulas_table(self._vocabulary, (formula,)))

    def certain_literals(self) -> frozenset[str]:
        """Literals true in every possible world (readable ``Sat`` fragment)."""
        return table_sat_literals(self._vocabulary, self._table)

    def restricted_to(self, formula: Formula) -> "WorldSet":
        """Worlds satisfying ``formula`` (``S`` intersect ``Mod[{formula}]``)."""
        return WorldSet._of_table(
            self._vocabulary, self._table & formulas_table(self._vocabulary, (formula,))
        )

    def legal(self, schema) -> "WorldSet":
        """Filter to legal worlds of a :class:`repro.db.schema.DbSchema`.

        This is the paper's post-update integrity enforcement: "update each
        possible world individually, and then those which are not legal are
        eliminated" (discussion after Definition 1.3.3).
        """
        if schema.vocabulary != self._vocabulary:
            raise VocabularyMismatchError("schema vocabulary differs from world set")
        legal = formulas_table(self._vocabulary, schema.constraints)
        return WorldSet._of_table(self._vocabulary, self._table & legal)

    def assignments(self) -> Iterator[dict[str, bool]]:
        """Iterate the worlds as explicit truth assignments."""
        for world in truthtable.worlds_of(self._table):
            yield world_to_dict(self._vocabulary, world)

    def to_clause_set(self) -> ClauseSet:
        """A clause set whose models are exactly these worlds: their prime
        implicates, read off the truth table
        (:func:`repro.logic.truthtable.prime_implicates`).

        (The canonical inverse of ``e_CI[S]`` is not unique; the prime
        implicates are the representative that CNF-converting the DNF "one
        conjunct per world" and removing subsumed clauses also gives.)
        """
        clauses = truthtable.prime_implicates(self._table, len(self._vocabulary))
        return ClauseSet._trusted(self._vocabulary, clauses, reduced=True)

    def _check(self, other: "WorldSet") -> None:
        if self._vocabulary != other._vocabulary:
            raise VocabularyMismatchError("world sets are over different vocabularies")
