"""``BLU--I``: the instance-level (possible worlds) implementation of BLU
(Definition 2.2.2).

Concrete domains:

* sort **S** = ``IDB[D]`` -- :class:`repro.db.instances.WorldSet`;
* sort **M** = ``s--mask[D]`` -- :class:`repro.db.masks.SimpleMask` (general
  :class:`~repro.db.masks.Mask` values are accepted by ``mask``, since the
  instance operator is defined for any equivalence relation, but
  ``genmask`` always produces simple masks, as in the paper).

Operators:

* ``combine`` = set union, ``assert`` = set intersection;
* ``complement`` = complement relative to ``DB[D]`` (see module note);
* ``mask`` = saturation: ``{y | exists x in X with R(x, y)}``;
* ``genmask`` = ``s--mask[Dep[X]]``.

Note on ``complement``: Definition 2.2.2 writes ``ILDB[D] \\ X``.  With the
paper's default of no integrity constraints, ``ILDB`` coincides with the
full world set, which is also what the clausal algorithm of 2.3.3
computes; constraint filtering is available separately via
:meth:`WorldSet.legal`.  This is the reading that makes the canonical
emulation (Definition 2.3.2(b)) exact, and it is the one implemented.
"""

from __future__ import annotations

from typing import Any

from repro.obs import core as obs
from repro.blu.implementation import Implementation
from repro.db.instances import WorldSet
from repro.db.masks import Mask, SimpleMask
from repro.errors import VocabularyMismatchError
from repro.logic.propositions import Vocabulary

__all__ = ["InstanceImplementation"]


class InstanceImplementation(Implementation):
    """The possible-worlds algebra ``BLU--I`` over a fixed vocabulary.

    >>> from repro.logic import Vocabulary
    >>> from repro.blu.parser import parse_program
    >>> vocab = Vocabulary.standard(2)
    >>> impl = InstanceImplementation(vocab)
    >>> prog = parse_program("(lambda (s0 s1) (assert s0 s1))")
    >>> out = impl.run(prog, WorldSet.total(vocab), WorldSet.from_texts(vocab, ["A1"]))
    >>> len(out)
    2
    """

    def __init__(self, vocabulary: Vocabulary):
        self._vocabulary = vocabulary

    @property
    def vocabulary(self) -> Vocabulary:
        """The reference schema's vocabulary."""
        return self._vocabulary

    # --- domains ---------------------------------------------------------------

    def is_state(self, value: Any) -> bool:
        return isinstance(value, WorldSet) and value.vocabulary == self._vocabulary

    def is_mask(self, value: Any) -> bool:
        return isinstance(value, Mask) and value.vocabulary == self._vocabulary

    # --- operators (Definition 2.2.2(b)) -----------------------------------------

    def op_assert(self, state: WorldSet, other: WorldSet) -> WorldSet:
        """Intersection: keep the worlds common to both."""
        self._check_state(state)
        self._check_state(other)
        with obs.op("blu.i.assert", left=len(state), right=len(other)):
            result = state.intersection(other)
            obs.inc("blu.i.assert.calls")
            obs.observe("blu.i.state_worlds", len(result))
            return result

    def op_combine(self, state: WorldSet, other: WorldSet) -> WorldSet:
        """Union: either alternative is possible."""
        self._check_state(state)
        self._check_state(other)
        with obs.span("blu.i.combine", left=len(state), right=len(other)):
            result = state.union(other)
            obs.inc("blu.i.combine.calls")
            obs.observe("blu.i.state_worlds", len(result))
            return result

    def op_complement(self, state: WorldSet) -> WorldSet:
        """All worlds not in the state."""
        self._check_state(state)
        with obs.span("blu.i.complement", worlds_in=len(state)):
            result = state.complement()
            obs.inc("blu.i.complement.calls")
            obs.observe("blu.i.state_worlds", len(result))
            return result

    def op_mask(self, state: WorldSet, mask: Mask) -> WorldSet:
        """Saturation under the mask's equivalence relation."""
        self._check_state(state)
        if not self.is_mask(mask):
            raise VocabularyMismatchError("mask is not over this vocabulary")
        with obs.op("blu.i.mask", worlds_in=len(state)):
            result = mask.saturate(state)
            obs.inc("blu.i.mask.calls")
            obs.inc("blu.i.mask.worlds_added", len(result) - len(state))
            obs.observe("blu.i.state_worlds", len(result))
            return result

    def op_genmask(self, state: WorldSet) -> SimpleMask:
        """``s--mask[Dep[X]]``: the simple mask on the dependency letters."""
        self._check_state(state)
        with obs.span("blu.i.genmask", worlds_in=len(state)):
            obs.inc("blu.i.genmask.calls")
            return SimpleMask(self._vocabulary, state.dependency_indices())

    # --- conversions from user-level update parameters ---------------------------

    def state_from_formulas(self, formulas) -> WorldSet:
        """Sort-S value denoting ``Mod[formulas]`` (HLU argument conversion)."""
        return WorldSet.from_formulas(self._vocabulary, formulas)

    def mask_from_names(self, names) -> SimpleMask:
        """Sort-M value masking the named letters."""
        return SimpleMask.of_names(self._vocabulary, names)

    def _check_state(self, state: Any) -> None:
        if not self.is_state(state):
            raise VocabularyMismatchError(
                "state is not a WorldSet over this implementation's vocabulary"
            )

    def __repr__(self) -> str:
        return f"InstanceImplementation({self._vocabulary!r})"
