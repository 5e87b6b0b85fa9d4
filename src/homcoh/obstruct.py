"""Obstruction pipeline for compact Clifford-Klein forms.

Each check takes a CaseSpec from the catalog and returns a structured result;
`run_case` aggregates them into an ObstructionReport with a verdict and a
narrative.  Checks:

  rank       -- equal ranks force a nonzero Euler characteristic on the
                compact dual pair, incompatible with a solvable quotient.
  dimension  -- Kobayashi's criterion fixes the dimension d_B of any
                connected cocompact properly-acting subgroup, hence the
                degree n = dim G - d_B where a fundamental class must live.
  primitive  -- the degree-n coefficient of the exterior algebra on the
                primitive degrees of the compact dual; a zero coefficient
                rules out solvable forms.
  tncz       -- the fiber inclusion H_u/K_H -> G_u/K_H must hit a nonzero
                class in degree d = dim H_u/K_H; the degree-d cohomology of
                G_u/K_H is computed exactly from a Cartan-type algebra.

Solvable-only obstructions upgrade to amenable ones through the Tits
alternative (a finitely generated amenable linear group is virtually
solvable); the narrative records that step whenever it is used.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd

from . import linalg
from .catalog import CaseSpec, EmbeddingDatum, GroupDatum
from .cdga import FreeCDGA, GeneratorSpec
from .groebner import GREVLEX, buchberger, normal_form
from .linalg import RatMatrix
from .poly import Polynomial, VariableContext, power_products, substitute_linear, weighted_exponents

TITS_NOTE = (
    "By the Tits alternative a finitely generated amenable linear group is "
    "virtually solvable, so excluding solvable forms excludes amenable ones."
)


@dataclass
class CheckResult:
    name: str
    fired: bool
    data: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)


@dataclass
class ObstructionReport:
    case_name: str
    checks: list
    verdict: str
    narrative: list

    def to_dict(self):
        return {
            "case": self.case_name,
            "checks": [
                {
                    "name": c.name,
                    "fired": c.fired,
                    "data": c.data,
                    "notes": list(c.notes),
                }
                for c in self.checks
            ],
            "verdict": self.verdict,
            "narrative": list(self.narrative),
        }

    def render_text(self):
        lines = [f"case: {self.case_name}", f"verdict: {self.verdict}"]
        for c in self.checks:
            lines.append(f"  [{'FIRED' if c.fired else ' ok  '}] {c.name}")
            for k in sorted(c.data):
                lines.append(f"      {k} = {c.data[k]}")
            for note in c.notes:
                lines.append(f"      note: {note}")
        for sentence in self.narrative:
            lines.append(f"  - {sentence}")
        return "\n".join(lines)


# ---- individual checks -------------------------------------------------


def check_dimension(case: CaseSpec) -> CheckResult:
    """d_B = d(G) - d(H) and n = dim G - d_B, from Kobayashi's criterion."""
    dg, dh = case.g.d_value, case.h.d_value
    if dg < dh:
        raise ValueError(
            f"{case.name}: d(G) = {dg} < d(H) = {dh}; no proper cocompact action exists"
        )
    d_b = dg - dh
    n = case.g.dimension - d_b
    result = CheckResult("dimension", False, {"d_G": dg, "d_H": dh, "d_B": d_b, "n": n})
    if d_b == 0:
        result.notes.append(
            "d(G) = d(H): any cocompact properly-acting connected subgroup is "
            "compact; the case is not of reductive interest"
        )
    return result


def check_equal_rank(case: CaseSpec) -> CheckResult:
    fired = case.g_u.rank == case.h_u.rank
    result = CheckResult(
        "rank",
        fired,
        {"rank_g": case.g_u.rank, "rank_h": case.h_u.rank},
    )
    if fired:
        result.notes.append(
            "equal ranks make the Euler characteristic of the compact dual pair "
            "nonzero; it transports to any compact quotient, but a solvable "
            "quotient is homotopy equivalent to a compact solvmanifold, whose "
            "Euler characteristic vanishes"
        )
    return result


def primitive_coefficients(g_u: GroupDatum, cutoff: int):
    """Coefficients of the product of (1 + t^p) over the primitive degrees."""
    return _convolve_exterior([1], g_u.primitive_degrees, cutoff)


def check_primitive_degree(g_u: GroupDatum, n: int) -> CheckResult:
    coeffs = primitive_coefficients(g_u, n)
    coeff = coeffs[n]
    result = CheckResult(
        "primitive",
        coeff == 0,
        {
            "degree": n,
            "coefficient": coeff,
            "primitive_degrees": list(g_u.primitive_degrees),
        },
    )
    if result.fired:
        result.notes.append(
            f"the Lie algebra cohomology of the ambient group vanishes in degree "
            f"{n}, so the volume class of the quotient by a syndetic hull cannot "
            f"exist; no solvable form"
        )
    return result


# ---- invariant presentation for the tncz check -------------------------


def _normalize_integral(p: Polynomial) -> Polynomial:
    """Scale to integer coefficients with content 1 and positive leading term."""
    if not p:
        return p
    denom = 1
    for c in p.terms.values():
        denom = denom * c.denominator // gcd(denom, c.denominator)
    scaled = p.scale(denom)
    content = 0
    for c in scaled.terms.values():
        content = gcd(content, abs(c.numerator))
    scaled = scaled.scale(Fraction(1, content))
    lead = scaled.terms[max(scaled.terms)]
    return scaled if lead > 0 else -scaled


def express_in_generators(p: Polynomial, gens, gen_degrees, gen_ctx):
    """Write homogeneous p as a polynomial in the given generators.

    Returns the expression as a Polynomial over `gen_ctx` (one variable per
    generator), or None if p is not in the subring they span in its degree.
    """
    if not p:
        return Polynomial.zero(gen_ctx)
    degree = p.cohom_degree()
    exps = weighted_exponents(gen_degrees, degree)
    product = power_products(gens, p.ctx)
    monomials, matrix = _column_matrix([product(exp) for exp in exps])
    if not p.terms.keys() <= set(monomials):  # a monomial of p is in no product
        return None
    solution = linalg.solve(matrix, [p.terms.get(m, Fraction(0)) for m in monomials])
    if solution is None:
        return None
    return Polynomial(gen_ctx, {exp: c for exp, c in zip(exps, solution) if c})


def _column_matrix(polys):
    """The sorted monomials of polys, and the RatMatrix with polys as columns."""
    monomials = sorted({m for f in polys for m in f.terms})
    index = {m: i for i, m in enumerate(monomials)}
    entries = {(index[m], j): c for j, f in enumerate(polys) for m, c in f.terms.items()}
    return monomials, RatMatrix(len(monomials), len(polys), entries)


@dataclass
class InvariantPresentation:
    """Even-generator presentation of the restricted invariant ring."""

    generators: tuple  # polynomials in the restricted coordinates
    degrees: tuple  # cohomological degrees
    ctx: VariableContext  # abstract context, one variable per generator
    expressed_images: tuple  # restricted invariants written in the generators
    literal: bool  # True if the claimed (literal) generators worked


def invariant_presentation(images, literal_gens, target_ctx):
    """Choose even generators for the restricted invariant ring.

    First tries the literal generator pair recorded in the catalog; if some
    restricted invariant is not a polynomial in those, falls back to a basis
    derived from the restriction image: the normalized lowest-degree nonzero
    image completed by a monomial that makes every image expressible.
    """
    nonzero = [p for p in images if p]

    def attempt(gens, literal):
        degrees = tuple(g.cohom_degree() for g in gens)
        ctx = VariableContext(
            tuple(f"u{i+1}" for i in range(len(gens))), degrees
        )
        expressed = []
        for p in images:
            expr = express_in_generators(p, gens, degrees, ctx)
            if expr is None:
                return None
            expressed.append(expr)
        return InvariantPresentation(tuple(gens), degrees, ctx, tuple(expressed), literal)

    if literal_gens:
        result = attempt(list(literal_gens), True)
        if result is not None:
            return result
    base = _normalize_integral(min(nonzero, key=lambda p: p.cohom_degree()))
    base_degree = base.cohom_degree()
    candidates = []
    for exp in weighted_exponents(target_ctx.degrees, base_degree):
        candidates.append(Polynomial(target_ctx, {exp: Fraction(1)}))
    for candidate in candidates:
        result = attempt([base, candidate], False)
        if result is not None:
            return result
    raise ValueError("no degree-matched generator pair expresses all restricted invariants")


# ---- tncz check --------------------------------------------------------


def restricted_invariants(embedding: EmbeddingDatum, ambient: GroupDatum):
    """Weyl invariants of the ambient group restricted through the embedding."""
    from .poly import weyl_invariant_generators

    ((letter, rank),) = ambient.family  # a case's ambient group is simple
    gens = weyl_invariant_generators(letter, rank)
    out = []
    for f, degree in gens:
        out.append((substitute_linear(f, embedding.restriction), degree))
    return out


def _odd_generators(invariant_degrees):
    """Exterior generators transgressing to the listed invariants."""
    seen = {}
    specs = []
    for degree in invariant_degrees:
        odd = degree - 1
        seen[odd] = seen.get(odd, 0) + 1
        name = f"y{odd}" + "'" * (seen[odd] - 1)
        specs.append(GeneratorSpec(name, odd))
    return specs


def build_quotient_algebra(pres: InvariantPresentation, invariant_degrees):
    odd = _odd_generators(invariant_degrees)
    even = [
        GeneratorSpec(name, degree)
        for name, degree in zip(pres.ctx.names, pres.degrees)
    ]
    return FreeCDGA(even, odd, list(pres.expressed_images))


def literal_quotient_dims(images, literal_gens, n_literal, cutoff):
    """Degree dimensions of the literal subring modulo the ideal contraction.

    The ideal is generated (in the full coordinate ring) by the first
    `n_literal` restricted invariants; each graded piece of the subring
    spanned by the literal generators is reduced to normal form and its rank
    counted.  This is the computable reading of the claimed closed-form
    quotient when the literal generators do not actually contain the
    restricted invariants.
    """
    ctx = images[0].ctx
    ideal_gens = [p for p in images[:n_literal] if p]
    gb = buchberger(ideal_gens, GREVLEX, degree_cutoff=cutoff)
    literal_degrees = [g.cohom_degree() for g in literal_gens]
    product = power_products(literal_gens, ctx)
    dims = [1]
    for degree in range(1, cutoff + 1):
        residues = [
            normal_form(product(exp), gb, GREVLEX)
            for exp in weighted_exponents(literal_degrees, degree)
        ]
        dims.append(linalg.rank(_column_matrix(residues)[1]))
    return dims


def _convolve_exterior(dims, odd_degrees, cutoff):
    out = list(dims[: cutoff + 1]) + [0] * max(0, cutoff + 1 - len(dims))
    for p in odd_degrees:
        for k in range(cutoff, p - 1, -1):
            out[k] += out[k - p]
    return out


def check_tncz_degree(case: CaseSpec, cutoff=None) -> CheckResult:
    """Degree-d cohomology of G_u/K_H, d = dim H_u/K_H, via the Cartan model."""
    if case.embedding is None or case.k_h is None:
        raise ValueError(f"{case.name}: tncz check needs embedding data")
    d = case.h_u.dimension - case.k_h.dimension
    cutoff = d if cutoff is None else max(cutoff, d)
    restricted = restricted_invariants(case.embedding, case.g_u)
    images = [p for p, _ in restricted]
    invariant_degrees = [deg for _, deg in restricted]
    pres = invariant_presentation(
        images, case.embedding.literal_invariants, case.embedding.restriction.target
    )
    algebra = build_quotient_algebra(pres, invariant_degrees)
    dims = algebra.cohomology_dims(cutoff)
    coeff = dims[d]
    n_literal = len(case.embedding.literal_invariants) or case.k_h.rank
    literal_dims = literal_quotient_dims(
        images, case.embedding.literal_invariants, n_literal, cutoff
    )
    survivors = [deg - 1 for deg in invariant_degrees[n_literal:]]
    literal_poincare = _convolve_exterior(literal_dims, survivors, cutoff)
    result = CheckResult(
        "tncz",
        coeff == 0,
        {
            "d": d,
            "coefficient": coeff,
            "poincare": dims,
            "literal_poincare": literal_poincare,
            "literal_coefficient": literal_poincare[d],
            "presentation": [str(g) for g in pres.generators],
            "presentation_is_literal": pres.literal,
            "restricted_invariants": [str(p) for p in images],
        },
    )
    if not pres.literal:
        result.notes.append(
            "the recorded literal invariant generators do not contain the "
            "restricted invariants; a generator basis derived from the "
            "restriction image is used, and the literal quotient is reported "
            "alongside for comparison"
        )
    if result.fired:
        result.notes.append(
            f"the fundamental class of the {d}-dimensional fiber would have to "
            f"map to a nonzero class in degree {d}, but that cohomology group "
            f"vanishes; no compact form of any kind"
        )
    return result


# ---- aggregation -------------------------------------------------------

ALL_CHECKS = ("rank", "dimension", "primitive", "tncz")


def run_case(case: CaseSpec, checks=None, cutoff=None) -> ObstructionReport:
    """Run the selected checks and aggregate a verdict.

    All selected checks run even after one fires, so the report is complete.
    """
    selected = tuple(checks) if checks else ALL_CHECKS
    for c in selected:
        if c not in ALL_CHECKS:
            raise ValueError(f"unknown check {c!r}")
    results = []
    narrative = []
    if case.h_compact:
        narrative.append(
            "the subgroup is compact, so proper cocompact actions of amenable "
            "discrete groups are excluded for trivial reasons; no obstruction "
            "run is required"
        )
        return ObstructionReport(case.name, results, "vacuous-h-compact", narrative)

    solvable_fired = False
    all_forms_fired = False

    if "rank" in selected:
        rank_result = check_equal_rank(case)
        results.append(rank_result)
        solvable_fired = solvable_fired or rank_result.fired

    dim_result = None
    if "dimension" in selected or "primitive" in selected:
        dim_result = check_dimension(case)
        if "dimension" in selected:
            results.append(dim_result)

    if "primitive" in selected and dim_result is not None:
        prim_result = check_primitive_degree(case.g_u, dim_result.data["n"])
        results.append(prim_result)
        solvable_fired = solvable_fired or prim_result.fired

    if "tncz" in selected and case.embedding is not None:
        tncz_result = check_tncz_degree(case, cutoff=cutoff)
        results.append(tncz_result)
        all_forms_fired = all_forms_fired or tncz_result.fired

    if all_forms_fired:
        verdict = "no-amenable-form"
        narrative.append(
            "a totally-non-cohomologous-to-zero obstruction fired: it excludes "
            "all compact forms, amenable ones in particular"
        )
    elif solvable_fired:
        verdict = "no-amenable-form"
        narrative.append("a solvable-form obstruction fired")
        narrative.append(TITS_NOTE)
    else:
        verdict = "inconclusive"
        narrative.append("no obstruction fired; the selected checks are inconclusive")
    for r in results:
        narrative.extend(r.notes)
    return ObstructionReport(case.name, results, verdict, narrative)
