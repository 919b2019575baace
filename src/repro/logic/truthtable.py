"""Truth tables: a set of worlds over ``k`` letters as one ``2^k``-bit int.

Bit ``w`` of a table is set iff world ``w`` is in the set, where bit ``p``
of ``w`` is the value of the letter at position ``p`` -- the bit-packing of
:mod:`repro.logic.structures`.  Each letter has a *pattern*, the table of
the worlds in which it is true.  With the patterns, the possible-worlds
notions of Section 1.1 become a few big-integer operations that run at C
speed instead of Python loops over worlds:

* a clause's models are the OR of its literals' tables and a clause
  set's the AND of its clauses' (:class:`ClauseTable`); a formula's are
  its connectives applied to tables (:func:`formula_table`);
* ``mask[P]`` (Definition 1.5.3) saturates a table by one shift-and-OR per
  letter of ``P`` (:func:`saturate`);
* a letter is in ``Dep[S]`` iff the table's half where the letter is true,
  shifted onto the half where it is false, differs from that half
  (:func:`depends`): one shift-compare;
* :func:`worlds_of` lists a table's worlds and :func:`prime_implicates`
  reads the prime implicates off a table.

Patterns are cached per letter count up to :data:`TABLE_LETTERS`, and no
operation works on more than ``2**TABLE_LETTERS`` worlds at once.  A wider
table is handled in *slices* (:class:`Table`), one per assignment of the
letters at positions ``TABLE_LETTERS`` and up: slice ``h`` gives letter
``TABLE_LETTERS + j`` the value of bit ``j`` of ``h``, and a world set
over a vocabulary that wide is its slices concatenated (:func:`join`).
"""

from __future__ import annotations

import itertools
from collections.abc import Callable, Iterable, Sequence

from repro.logic.clauses import Clause, Literal
from repro.logic.formula import And, Const, Formula, Iff, Implies, Not, Or, Var

__all__ = [
    "TABLE_LETTERS",
    "full",
    "literal_tables",
    "Table",
    "ClauseTable",
    "formula_table",
    "split",
    "join",
    "saturate",
    "depends",
    "worlds_of",
    "table_of_worlds",
    "prime_implicates",
]

#: The widest table one operation handles, in letters: ``2**16`` bits are
#: 8 KiB, and the patterns of every letter count up to it take ~0.5 MiB.
#: Measured on genmask over 17-23 letters (DESIGN §1.1): 16 was within
#: 2.5x of 14 either way and 3-20x faster than 20, whose wider slices
#: cost more on letters that a first slice shows dependent.
TABLE_LETTERS = 16

_SLICE_BYTES = 1 << (TABLE_LETTERS - 3)

#: One byte of the patterns of the three lowest letters.
_LOW_PATTERN_BYTES = (0xAA, 0xCC, 0xF0)

_BIT_VALUES = bytes.maketrans(b"01", b"\x00\x01")

_LITERAL_TABLES: dict[int, tuple[int, tuple[int, ...], tuple[int, ...]]] = {}

#: A :class:`ClauseTable` keeps at most this many slices, holding at most
#: this many bits (2 MiB), so a scan that revisits a slice finds it
#: computed; empty slices, which cost no bits, are the common case.
_KEPT_SLICES = 1 << 16
_KEPT_BITS = 1 << 24


def full(k: int) -> int:
    """The table of every world over ``k`` letters."""
    return (1 << (1 << k)) - 1


def _build_pattern(p: int, k: int) -> int:
    if k < 3:
        return sum(1 << w for w in range(1 << k) if w >> p & 1)
    if p < 3:
        return int.from_bytes(bytes((_LOW_PATTERN_BYTES[p],)) * (1 << (k - 3)), "little")
    half = 1 << (p - 3)
    return int.from_bytes((bytes(half) + b"\xff" * half) * (1 << (k - p - 1)), "little")


def literal_tables(k: int) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
    """``(full, positive, negative)`` over ``k <= TABLE_LETTERS`` letters:
    ``positive[p]`` is the pattern of the letter at ``p`` and
    ``negative[p]`` that of its negation.  Cached per letter count."""
    hit = _LITERAL_TABLES.get(k)
    if hit is None:
        if not 0 <= k <= TABLE_LETTERS:
            raise ValueError(f"a table has 0 to {TABLE_LETTERS} letters, not {k}")
        whole = full(k)
        positive = tuple(_build_pattern(p, k) for p in range(k))
        hit = (whole, positive, tuple(whole ^ table for table in positive))
        _LITERAL_TABLES[k] = hit
    return hit


def split(table: int, k: int) -> list[int]:
    """The slices of a table over ``k`` letters, slice 0 first (the table
    itself up to :data:`TABLE_LETTERS` letters)."""
    if k <= TABLE_LETTERS:
        return [table]
    data = table.to_bytes(_SLICE_BYTES << (k - TABLE_LETTERS), "little")
    return [
        int.from_bytes(data[start:start + _SLICE_BYTES], "little")
        for start in range(0, len(data), _SLICE_BYTES)
    ]


def join(slices: Iterable[int]) -> int:
    """Concatenate :data:`TABLE_LETTERS`-letter slices, slice 0 lowest."""
    return int.from_bytes(
        b"".join(table.to_bytes(_SLICE_BYTES, "little") for table in slices), "little"
    )


class Table:
    """A truth table over ``k`` letters, read a slice at a time.

    :meth:`dependent` and :meth:`values` answer for every letter while
    handling at most ``2**TABLE_LETTERS`` worlds at once; up to that many
    letters there is one slice, the table itself.  This base class holds
    an existing table's slices; :class:`ClauseTable` computes a clause
    set's on demand.
    """

    __slots__ = ("letters", "width", "evaluated", "_positive", "_kept")

    def __init__(self, table: int, k: int):
        self.letters = k
        self.width = min(k, TABLE_LETTERS)
        self._positive = literal_tables(self.width)[1]
        self._kept = dict(enumerate(split(table, k)))
        self.evaluated = 0

    @property
    def slices(self) -> int:
        """How many slices the table has (1 up to TABLE_LETTERS letters)."""
        return 1 << (self.letters - self.width)

    def slice(self, high: int) -> int:
        """The table over the low letters where the high ones are ``high``."""
        return self._kept[high]

    def whole(self) -> int:
        """All the slices joined into one table."""
        if self.letters <= TABLE_LETTERS:
            return self.slice(0)
        return join(self.slice(high) for high in range(self.slices))

    def dependent(self) -> list[int]:
        """The positions of the letters the table depends on, ascending.

        The low letters are tested together on one slice after another,
        each only until a slice shows it dependent; each high letter scans
        its own pairs of slices (:meth:`depends`)."""
        width, positive = self.width, self._positive
        undecided = range(width)
        out = []
        for high in range(self.slices):
            if not undecided:
                break
            table = self.slice(high)
            still = []
            for p in undecided:
                true_half = table & positive[p]
                if true_half >> (1 << p) != table ^ true_half:
                    out.append(p)
                else:
                    still.append(p)
            undecided = still
        out.sort()
        out.extend(p for p in range(width, self.letters) if self.depends(p))
        return out

    def depends(self, p: int) -> bool:
        """Does the table depend on the letter at ``p``?  Stops at the
        first slice (or pair of slices) that shows it does."""
        if p < self.width:
            return any(
                depends(self.slice(high), p, self.width) for high in range(self.slices)
            )
        bit = 1 << (p - self.width)
        return any(
            self.slice(high) != self.slice(high | bit)
            for high in range(self.slices)
            if not high & bit
        )

    def values(self, p: int) -> tuple[bool, bool]:
        """Is the letter at ``p`` true in some world, and false in some?"""
        if p < self.width:
            letter = self._positive[p]
            tables = [self.slice(high) for high in range(self.slices)]
            return (
                any(table & letter for table in tables),
                any(table & letter != table for table in tables),
            )
        bit = 1 << (p - self.width)
        return (
            any(self.slice(high) for high in range(self.slices) if high & bit),
            any(self.slice(high) for high in range(self.slices) if not high & bit),
        )


class ClauseTable(Table):
    """The truth table of a clause set over the letters ``letters``.

    Position ``p`` of the table holds the letter at vocabulary index
    ``letters[p]``; every letter of a clause must be listed.  Up to
    :data:`TABLE_LETTERS` letters the table is computed at once.  Beyond,
    each clause keeps the table of its low literals and which high letters
    it holds positively and negatively; slice ``h`` ANDs the low tables of
    the clauses the high assignment ``h`` leaves unsatisfied, and computed
    slices are kept within a bound.  :attr:`evaluated` counts the slices
    computed.
    """

    __slots__ = ("_rows", "_kept_bits")

    def __init__(self, clauses: Iterable[Clause], letters: Sequence[int]):
        self.letters = k = len(letters)
        self.width = width = min(k, TABLE_LETTERS)
        whole, positive, negative = literal_tables(width)
        self._positive = positive
        low: dict[Literal, int] = {}
        for index, true, false in zip(letters, positive, negative):
            low[index + 1] = true
            low[-index - 1] = false
        if k <= TABLE_LETTERS:
            table = whole
            for clause in clauses:
                row = 0
                for literal in clause:
                    row |= low[literal]
                table &= row
            self._kept = {0: table}
            self.evaluated = 1
            return
        high = {index + 1: 1 << j for j, index in enumerate(letters[width:])}
        self._rows = rows = []
        for clause in clauses:
            row = ones = zeros = 0
            for literal in clause:
                table = low.get(literal)
                if table is not None:
                    row |= table
                elif literal > 0:
                    ones |= high[literal]
                else:
                    zeros |= high[-literal]
            rows.append((row, ones, zeros))
        # Clauses of high letters only empty a slice they do not satisfy.
        rows.sort(key=lambda entry: entry[0] != 0)
        self._kept = {}
        self._kept_bits = 0
        self.evaluated = 0

    def slice(self, high: int) -> int:
        table = self._kept.get(high)
        if table is None:
            table = full(self.width)
            for low, ones, zeros in self._rows:
                if not (high & ones or ~high & zeros):
                    table &= low
                    if not table:
                        break
            kept = self._kept
            kept[high] = table
            self._kept_bits += table.bit_length()
            while self._kept_bits > _KEPT_BITS or len(kept) > _KEPT_SLICES:
                self._kept_bits -= kept.pop(next(iter(kept))).bit_length()
            self.evaluated += 1
        return table


def formula_table(formula: Formula, index_of: Callable[[str], int], k: int, high: int = 0) -> int:
    """Slice ``high`` of the table of ``formula`` over ``k`` letters, where
    letter ``name`` sits at ``index_of(name)``."""
    width = min(k, TABLE_LETTERS)
    whole, positive, _ = literal_tables(width)

    def table(node: Formula) -> int:
        kind = type(node)
        if kind is Var:
            p = index_of(node.name)
            if p < width:
                return positive[p]
            return whole if high >> (p - width) & 1 else 0
        if kind is Not:
            return whole ^ table(node.operand)
        if kind is And:
            result = whole
            for operand in node.operands:
                result &= table(operand)
            return result
        if kind is Or:
            result = 0
            for operand in node.operands:
                result |= table(operand)
            return result
        if kind is Implies:
            return (whole ^ table(node.left)) | table(node.right)
        if kind is Iff:
            return whole ^ table(node.left) ^ table(node.right)
        if kind is Const:
            return whole if node.value else 0
        raise TypeError(f"unknown formula node {kind.__name__}")

    return table(formula)


def saturate(table: int, positions: Iterable[int], k: int) -> int:
    """Close the table under re-assigning the letters at ``positions``
    (the instance-level action of ``mask[P]``): a shift-and-OR per low
    letter, an OR of paired slices per high one."""
    positions = list(positions)
    width = min(k, TABLE_LETTERS)
    slices = split(table, k)
    patterns = literal_tables(width)[1]
    for p in positions:
        if p < width:
            shift = 1 << p
            for high, table in enumerate(slices):
                true_half = table & patterns[p]
                slices[high] = table | (true_half >> shift) | ((table ^ true_half) << shift)
    for p in positions:
        if p >= width:
            bit = 1 << (p - width)
            for high in range(len(slices)):
                if high & bit:
                    slices[high] = slices[high ^ bit] = slices[high] | slices[high ^ bit]
    return slices[0] if k <= TABLE_LETTERS else join(slices)


def depends(table: int, p: int, k: int) -> bool:
    """Is the set over ``k <= TABLE_LETTERS`` letters not closed under
    flipping the letter at ``p``?"""
    true_half = table & literal_tables(k)[1][p]
    return true_half >> (1 << p) != table ^ true_half


def worlds_of(table: int) -> list[int]:
    """The table's worlds, ascending."""
    bits = bin(table)[:1:-1].encode("ascii").translate(_BIT_VALUES)
    return list(itertools.compress(range(len(bits)), bits))


def table_of_worlds(worlds: Iterable[int], k: int) -> int:
    """The table of a collection of worlds over ``k`` letters.

    Raises :class:`ValueError` on a world outside ``0 .. 2**k - 1``.
    """
    limit = 1 << k
    buffer = bytearray((limit + 7) >> 3)
    for world in worlds:
        if not 0 <= world < limit:
            raise ValueError(f"world {world} out of range for a {k}-letter vocabulary")
        buffer[world >> 3] |= 1 << (world & 7)
    return int.from_bytes(buffer, "little")


def prime_implicates(table: int, k: int) -> frozenset[Clause]:
    """The prime implicates of the table, as clauses over letter numbers
    ``position + 1``.

    Shannon recursion on the top letter ``x``, memoised on the table:
    with ``f0``/``f1`` the halves where ``x`` is false/true and ``g`` their
    OR, ``PI(f) = PI(g) | {x | c : c in PI(f0) - PI(g)} |
    {~x | c : c in PI(f1) - PI(g)}``.  A clause without ``x`` is an
    implicate of ``f`` iff it is one of ``g``, and a prime implicate of
    ``f0`` is an implicate of ``g`` iff it is prime for ``g``.  An empty
    table has the single prime implicate 0, a full one none.
    """
    memo: dict[tuple[int, int], frozenset[Clause]] = {}

    def implicates(f: int, k: int) -> frozenset[Clause]:
        if not f:
            return frozenset((frozenset(),))
        if f == full(k):
            return frozenset()
        hit = memo.get((k, f))
        if hit is not None:
            return hit
        half = 1 << (k - 1)
        f0 = f & ((1 << half) - 1)
        f1 = f >> half
        if f0 == f1:
            result = implicates(f0, k - 1)
        else:
            common = implicates(f0 | f1, k - 1)
            x: Literal = k
            result = common.union(
                [clause | {x} for clause in implicates(f0, k - 1) - common],
                [clause | {-x} for clause in implicates(f1, k - 1) - common],
            )
        memo[(k, f)] = result
        return result

    return implicates(table, k)
