"""Free graded-commutative differential algebras and their cohomology.

The algebras handled here are of Cartan type: a polynomial part on even
generators (all closed) tensored with an exterior part on odd generators,
where each odd generator maps to a polynomial in the even generators.  The
cohomology dimensions per degree are computed by exact linear algebra on the
graded pieces.  The entries of each differential matrix are copied from the
signed terms of the transgressions, stored once per odd generator, with no
arithmetic; `FreeCDGA.differential` is the reference they agree with.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import add

from . import linalg
from .catalog import read_sections
from .linalg import RatMatrix
from .poly import Polynomial, VariableContext, parse_polynomial, weighted_exponents


@dataclass(frozen=True)
class GeneratorSpec:
    """Algebra generator: even degree = polynomial, odd degree = exterior."""

    name: str
    degree: int

    def __post_init__(self):
        if self.degree <= 0:
            raise ValueError("generator degree must be positive")

    @property
    def parity(self):
        return self.degree % 2


def _checked_transgression(gen, df):
    """df, if it is zero or homogeneous of degree deg(gen) + 1."""
    degrees = sorted({df.monomial_degree(m) for m in df.terms})
    if degrees and degrees != [gen.degree + 1]:
        got = ", ".join(map(str, degrees))
        raise ValueError(
            f"d({gen.name}) must be homogeneous of degree {gen.degree + 1}, "
            f"got degree{'s' if len(degrees) > 1 else ''} {got}"
        )
    return df


class FreeCDGA:
    """Free CDGA with closed even generators and prescribed transgressions.

    Elements of each graded piece are spanned by monomials
    (even exponent vector, odd subset); the differential extends the
    generator data by the graded Leibniz rule.
    """

    def __init__(self, even_gens, odd_gens, transgressions):
        self.even_gens = tuple(even_gens)
        self.odd_gens = tuple(odd_gens)
        names = [g.name for g in self.even_gens] + [g.name for g in self.odd_gens]
        if len(names) != len(set(names)):
            raise ValueError("generator names must be unique")
        for g in self.even_gens:
            if g.parity != 0:
                raise ValueError(f"even generator {g.name} has odd degree")
        for g in self.odd_gens:
            if g.parity != 1:
                raise ValueError(f"odd generator {g.name} has even degree")
        self.even_ctx = VariableContext(
            tuple(g.name for g in self.even_gens),
            tuple(g.degree for g in self.even_gens),
        )
        if len(transgressions) != len(self.odd_gens):
            raise ValueError("one transgression per odd generator")
        self.transgressions = []
        for gen, df in zip(self.odd_gens, transgressions):
            if df.ctx != self.even_ctx:
                raise ValueError(f"transgression of {gen.name} lives in the wrong ring")
            self.transgressions.append(_checked_transgression(gen, df))
        self.transgressions = tuple(self.transgressions)
        # (+terms, -terms) of each transgression, indexed by the sign parity
        self._signed_terms = []
        for df in self.transgressions:
            plus = [(m, c.numerator if c.denominator == 1 else c) for m, c in df.terms.items()]
            self._signed_terms.append((plus, [(m, -c) for m, c in plus]))

    # ---- elements -----------------------------------------------------
    # An element is a dict {(even_exponents, odd_mask): Fraction}; bit i of
    # the mask selects odd generator i.

    def generator_element(self, name):
        if name in self.even_ctx.names:
            i = self.even_ctx.index(name)
            exp = tuple(1 if j == i else 0 for j in range(self.even_ctx.nvars))
            return {(exp, 0): Fraction(1)}
        for i, g in enumerate(self.odd_gens):
            if g.name == name:
                return {((0,) * self.even_ctx.nvars, 1 << i): Fraction(1)}
        raise KeyError(name)

    def multiply(self, a, b):
        out = {}
        for (e1, m1), c1 in a.items():
            for (e2, m2), c2 in b.items():
                if m1 & m2:
                    continue  # odd generators square to zero
                sign = 1
                # count transpositions moving the odd factors of b past those of a
                for i in range(len(self.odd_gens)):
                    if m2 >> i & 1:
                        higher = m1 >> (i + 1)
                        sign *= -1 if bin(higher).count("1") % 2 else 1
                key = (tuple(x + y for x, y in zip(e1, e2)), m1 | m2)
                out[key] = out.get(key, Fraction(0)) + sign * c1 * c2
        return {k: v for k, v in out.items() if v}

    def differential(self, elt):
        """Graded Leibniz extension of the generator differentials."""
        out = {}
        for (exp, mask), coeff in elt.items():
            sign = 1
            for i, gen in enumerate(self.odd_gens):
                if not (mask >> i & 1):
                    continue
                df = self.transgressions[i]
                rest_mask = mask & ~(1 << i)
                for mono, c in df.terms.items():
                    key = (tuple(a + b for a, b in zip(exp, mono)), rest_mask)
                    out[key] = out.get(key, Fraction(0)) + sign * coeff * c
                sign = -sign
        return {k: v for k, v in out.items() if v}

    # ---- graded pieces ------------------------------------------------

    def graded_basis(self, degree):
        """Deterministically ordered monomial basis of the given degree."""
        # (mask, degree) of each odd subset that fits, grown one generator at a
        # time so that no subset of too high a degree is ever formed
        subsets = [(0, 0)]
        for i, g in enumerate(self.odd_gens):
            subsets += [(m | 1 << i, d + g.degree) for m, d in subsets if d + g.degree <= degree]
        subsets.sort()
        even_degrees = self.even_ctx.degrees
        return [
            (exp, mask)
            for mask, odd_deg in subsets
            for exp in weighted_exponents(even_degrees, degree - odd_deg)
        ]

    def differential_matrix(self, degree, src=None, dst=None):
        """Matrix of d from the degree piece to the degree+1 piece.

        `src` and `dst` are the graded bases of degree and degree+1, if the
        caller has them already.
        """
        if src is None:
            src = self.graded_basis(degree)
        if dst is None:
            dst = self.graded_basis(degree + 1)
        index = {m: i for i, m in enumerate(dst)}
        entries = {}
        signed_terms = self._signed_terms
        for col, (exp, mask) in enumerate(src):
            odd = 0  # parity of the odd generators passed so far
            for i, terms in enumerate(signed_terms):
                if mask >> i & 1:
                    rest = mask ^ (1 << i)
                    for mono, c in terms[odd]:
                        entries[(index[(tuple(map(add, exp, mono)), rest)], col)] = c
                    odd ^= 1
        return RatMatrix(len(dst), len(src), entries)

    # ---- cohomology ---------------------------------------------------

    def cohomology_dims(self, cutoff):
        """dim H^k for k = 0..cutoff, by kernel/image ranks per degree."""
        bases = [self.graded_basis(k) for k in range(cutoff + 2)]
        ranks = [
            linalg.rank(self.differential_matrix(k, bases[k], bases[k + 1]))
            for k in range(cutoff + 1)
        ]
        dims = []
        for k in range(cutoff + 1):
            prev_rank = ranks[k - 1] if k > 0 else 0
            dims.append(len(bases[k]) - ranks[k] - prev_rank)
        return dims


def poincare_string(coeffs):
    """Render a coefficient list as a polynomial in t."""
    parts = []
    for k, c in enumerate(coeffs):
        if c == 0:
            continue
        if k == 0:
            parts.append(str(c))
        else:
            term = f"t^{k}" if k > 1 else "t"
            parts.append(term if c == 1 else f"{c}*{term}")
    return " + ".join(parts) if parts else "0"


# ---- serialization -----------------------------------------------------


def cdga_to_text(algebra: FreeCDGA) -> str:
    lines = ["[generators]"]
    for g in algebra.even_gens + algebra.odd_gens:
        lines.append(f"{g.name} = {g.degree}")
    lines.append("")
    lines.append("[differential]")
    for g, df in zip(algebra.odd_gens, algebra.transgressions):
        lines.append(f"{g.name} = {df}")
    return "\n".join(lines) + "\n"


def cdga_from_text(text: str, path="<cdga>") -> FreeCDGA:
    """Parse the structured text form produced by `cdga_to_text`."""
    parts = {}
    for section in read_sections(text, path):
        if section.header not in ("generators", "differential"):
            raise section.error(f"unknown section [{section.header}]")
        if section.header in parts:
            raise section.error(f"duplicate section [{section.header}]")
        parts[section.header] = section
    generators = parts.get("generators", {})
    diffs = parts.get("differential", {})
    gens = [
        generators.convert(name, lambda value: GeneratorSpec(name, int(value)))
        for name in generators
    ]
    even = [g for g in gens if g.parity == 0]
    odd = [g for g in gens if g.parity == 1]
    for name in diffs:
        if name not in {g.name for g in odd}:
            raise diffs.error(f"differential given for unknown generator {name!r}", name)
    ctx = VariableContext(tuple(g.name for g in even), tuple(g.degree for g in even))
    transgressions = [
        diffs.convert(g.name, lambda v: _checked_transgression(g, parse_polynomial(v, ctx)))
        if g.name in diffs
        else Polynomial.zero(ctx)
        for g in odd
    ]
    return FreeCDGA(even, odd, transgressions)
