"""BLU -- the Basic Language for Updates (Section 2 of the paper).

Five primitives (``assert``, ``combine``, ``complement``, ``mask``,
``genmask``) over two sorts (states and masks), with two implementations:

* :class:`InstanceImplementation` (``BLU--I``) -- exact possible-worlds
  semantics over :class:`~repro.db.instances.WorldSet`;
* :class:`ClausalImplementation` (``BLU--C``) -- resolution-based
  algorithms over :class:`~repro.logic.clauses.ClauseSet`.

The canonical emulation (:func:`canonical_emulation`) relates the two.
"""

from repro.blu.definitions import (
    SIMPLE_HLU_SOURCE,
    ProgramEnvironment,
    default_environment,
)
from repro.blu.clausal_genmask import clausal_genmask, depends_on
from repro.blu.clausal_impl import (
    ClausalImplementation,
    clausal_combine,
    clausal_complement,
)
from repro.blu.clausal_mask import clausal_mask
from repro.blu.emulation import Emulation, canonical_emulation
from repro.blu.implementation import Implementation, evaluate_term
from repro.blu.instance_impl import InstanceImplementation
from repro.blu.parser import (
    parse_program,
    parse_term,
    program_from_sexpr,
    term_from_sexpr,
)
from repro.blu.sexpr import read_sexpr, read_sexprs, sexpr_atoms, write_sexpr
from repro.blu.syntax import SIGNATURE, Apply, BluProgram, Sort, Term, Variable

__all__ = [
    "Sort",
    "SIGNATURE",
    "Term",
    "Variable",
    "Apply",
    "BluProgram",
    "read_sexpr",
    "read_sexprs",
    "write_sexpr",
    "sexpr_atoms",
    "parse_term",
    "parse_program",
    "term_from_sexpr",
    "program_from_sexpr",
    "Implementation",
    "evaluate_term",
    "InstanceImplementation",
    "ClausalImplementation",
    "clausal_combine",
    "clausal_complement",
    "clausal_mask",
    "clausal_genmask",
    "depends_on",
    "Emulation",
    "canonical_emulation",
    "ProgramEnvironment",
    "SIMPLE_HLU_SOURCE",
    "default_environment",
]
