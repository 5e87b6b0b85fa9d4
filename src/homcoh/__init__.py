"""Exact-arithmetic cohomology of compact homogeneous spaces.

Computes real cohomology of compact homogeneous spaces through Cartan-type
differential graded algebras, with an exact rational Groebner/linear-algebra
kernel, and runs topological obstruction checks against compact
Clifford-Klein forms of the bundled case list.
"""

from .cdga import FreeCDGA, GeneratorSpec
from .groebner import MonomialOrder, buchberger, ideal_member, normal_form, quotient_poincare
from .linalg import RatMatrix, Rational, kernel_dim, rank
from .poly import (
    LinearSubstitution,
    Polynomial,
    VariableContext,
    parse_polynomial,
    substitute_linear,
    weyl_invariant_generators,
)

__version__ = "0.1.0"

__all__ = [
    "FreeCDGA",
    "GeneratorSpec",
    "LinearSubstitution",
    "MonomialOrder",
    "Polynomial",
    "RatMatrix",
    "Rational",
    "VariableContext",
    "buchberger",
    "ideal_member",
    "kernel_dim",
    "normal_form",
    "parse_polynomial",
    "quotient_poincare",
    "rank",
    "substitute_linear",
    "weyl_invariant_generators",
]
