"""Exact computational homological algebra for Lie-Rinehart presentations.

Presentations over polynomial rings, their enveloping algebras with exact
normal ordering, the graded Poisson algebra of symbols with its multivector
cohomology and form homology, quasi-module structures with their nonlinear
cochains, and the extended symbol-to-operator lift with its identity tower.
"""

from .lie_rinehart import (
    Connection,
    LElement,
    LieRinehartAlgebra,
    PresentationError,
    bracket_extend,
    check_axioms,
    from_action,
)
from .poly import Polynomial, PolyDerivation, parse_poly
from .presets import arrangement, builtin, lie, semidirect, weyl
from .quasimod import ruth_check

__all__ = [
    "Connection",
    "LElement",
    "LieRinehartAlgebra",
    "Polynomial",
    "PolyDerivation",
    "PresentationError",
    "arrangement",
    "bracket_extend",
    "builtin",
    "check_axioms",
    "from_action",
    "lie",
    "parse_poly",
    "ruth_check",
    "semidirect",
    "weyl",
]
