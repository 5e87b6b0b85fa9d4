"""Unit tests for the obstruction checks, asserting computed behavior.

The bundled third case is the interesting one: the recorded literal
invariant presentation is inconsistent with the restricted invariants, the
restricted degree-12 invariant is not in the ideal of the lower two, and the
degree-8 cohomology of the quotient model comes out 1-dimensional under
every consistent presentation, so the tncz check does not fire and the case
is reported inconclusive.  (The acceptance suite asserts the same values
and records the originally claimed ones that computation refuted.)
"""

from math import prod

import pytest
from hypothesis import given, settings, strategies as st

from homcoh import linalg
from homcoh.catalog import bundled_cases, load_catalog
from homcoh.groebner import quotient_poincare
from homcoh.linalg import RatMatrix
from homcoh.obstruct import (
    check_dimension,
    check_equal_rank,
    check_primitive_degree,
    check_tncz_degree,
    express_in_generators,
    invariant_presentation,
    literal_quotient_dims,
    primitive_coefficients,
    restricted_invariants,
    run_case,
)
from homcoh.poly import Polynomial, VariableContext, parse_polynomial, weighted_exponents


@pytest.fixture(scope="module")
def catalog():
    return load_catalog()


@pytest.fixture(scope="module")
def cases(catalog):
    return {c.name: c for c in bundled_cases(catalog)}


# ---- dimension check ---------------------------------------------------


def test_dimension_so44_g22(cases):
    r = check_dimension(cases["so(4,4)/g2(2)"])
    assert r.data["d_B"] == 8
    assert r.data["n"] == 20


def test_dimension_so44_su12(cases):
    r = check_dimension(cases["so(4,4)/su(1,2)"])
    assert r.data["d_B"] == 12
    assert r.data["n"] == 16


def test_dimension_degenerate_case(cases):
    case = cases["so(4,4)/g2(2)"]
    degenerate = type(case)(
        "g/g", case.g, case.g, case.g_u, case.g_u, None, None, False
    )
    r = check_dimension(degenerate)
    assert r.data["d_B"] == 0
    assert r.data["n"] == case.g.dimension
    assert r.notes  # flagged as not of reductive interest


def test_dimension_invalid_case_rejected(cases):
    case = cases["so(4,4)/g2(2)"]
    swapped = type(case)("h/g", case.h, case.g, case.h_u, case.g_u, None, None, False)
    with pytest.raises(ValueError):
        check_dimension(swapped)


# ---- rank check --------------------------------------------------------


def test_equal_rank_fires_on_synthetic_case(cases):
    case = cases["so(4,4)/g2(2)"]
    synthetic = type(case)(
        "g/g'", case.g, case.g, case.g_u, case.g_u, None, None, False
    )
    assert check_equal_rank(synthetic).fired


def test_equal_rank_does_not_fire_on_rank_gap(cases):
    assert not check_equal_rank(cases["so(4,4)/g2(2)"]).fired
    assert not check_equal_rank(cases["so(3,5)/g2(2)"]).fired


# ---- primitive degree check -------------------------------------------


def test_primitive_coefficients_so8(catalog):
    so8 = catalog.lookup_group("so(8)")
    coeffs = primitive_coefficients(so8, 28)
    assert coeffs[0] == 1
    assert coeffs[10] == 2  # {3,7} with either degree-7 generator
    assert coeffs[16] == 0
    assert coeffs[20] == 0
    assert sum(coeffs) == 2**so8.rank


@pytest.mark.parametrize("n,fired", [(16, True), (20, True), (0, False), (10, False)])
def test_primitive_check_fires(catalog, n, fired):
    so8 = catalog.lookup_group("so(8)")
    assert check_primitive_degree(so8, n).fired is fired


# ---- tncz check --------------------------------------------------------


def test_restricted_invariants_match_display(cases):
    case = cases["so(3,5)/g2(2)"]
    restricted = restricted_invariants(case.embedding, case.g_u)
    tgt = case.embedding.restriction.target
    g4 = parse_polynomial("2*x2^2 + 2*x2*x3 + 2*x3^2", tgt)
    assert restricted[0][0] == g4
    assert restricted[3][0].is_zero()


def test_literal_presentation_is_inconsistent(cases):
    """The claimed generator pair x2^2, x3^2 cannot express the restrictions."""
    case = cases["so(3,5)/g2(2)"]
    restricted = restricted_invariants(case.embedding, case.g_u)
    images = [p for p, _ in restricted]
    pres = invariant_presentation(
        images, case.embedding.literal_invariants, case.embedding.restriction.target
    )
    assert not pres.literal
    # the fallback expresses every restriction exactly
    tgt = case.embedding.restriction.target
    for image, expr in zip(images, pres.expressed_images):
        rebuilt = parse_polynomial("0", tgt)
        for exp, c in expr.terms.items():
            term = parse_polynomial("1", tgt) * c
            for g, e in zip(pres.generators, exp):
                term = term * g**e
            rebuilt = rebuilt + term
        assert rebuilt == image


def test_express_in_generators_roundtrip():
    tgt = VariableContext.standard(("x2", "x3"))
    q1 = parse_polynomial("x2^2 + x2*x3 + x3^2", tgt)
    q2 = parse_polynomial("x2*x3", tgt)
    gen_ctx = VariableContext(("u1", "u2"), (4, 4))
    g12 = parse_polynomial("x2^4*x3^2 + 2*x2^3*x3^3 + x2^2*x3^4", tgt)
    expr = express_in_generators(g12, [q1, q2], (4, 4), gen_ctx)
    assert expr == parse_polynomial("u1*u2^2 + u2^3", gen_ctx)


def test_express_in_generators_detects_failure():
    tgt = VariableContext.standard(("x2", "x3"))
    gens = [parse_polynomial("x2^2", tgt), parse_polynomial("x3^2", tgt)]
    gen_ctx = VariableContext(("u1", "u2"), (4, 4))
    g4 = parse_polynomial("2*x2^2 + 2*x2*x3 + 2*x3^2", tgt)
    assert express_in_generators(g4, gens, (4, 4), gen_ctx) is None


UV = VariableContext.standard(("u", "v"))


@st.composite
def homogeneous(draw):
    exps = weighted_exponents((1, 1), draw(st.integers(1, 3)))
    chosen = draw(st.lists(st.sampled_from(exps), min_size=1, unique=True))
    return Polynomial(UV, {e: draw(st.integers(-3, 3).filter(bool)) for e in chosen})


def column_rank(polys):
    monomials = sorted({m for f in polys for m in f.terms})
    row = {m: i for i, m in enumerate(monomials)}
    entries = {(row[m], j): c for j, f in enumerate(polys) for m, c in f.terms.items()}
    return linalg.rank(RatMatrix(len(monomials), len(polys), entries))


@settings(max_examples=60, deadline=None)
@given(
    st.lists(homogeneous(), min_size=1, max_size=3),
    st.lists(homogeneous(), max_size=2),
    st.integers(1, 3),
    st.integers(0, 10),
)
def test_literal_quotient_dims_match_a_groebner_free_count(images, literal, n_literal, cutoff):
    """dim = rank(literal products and ideal multiples) - rank(ideal multiples)."""
    n_literal = min(n_literal, len(images))
    dims = literal_quotient_dims(images, literal, n_literal, cutoff)
    one = Polynomial.constant(UV, 1)
    degrees = [g.cohom_degree() for g in literal]
    for k in range(cutoff + 1):
        products = [
            prod((g**e for g, e in zip(literal, exp)), start=one)
            for exp in weighted_exponents(degrees, k)
        ]
        multiples = [
            Polynomial(UV, {m: 1}) * g
            for g in images[:n_literal]
            for m in weighted_exponents(UV.degrees, k - g.cohom_degree())
        ]
        assert dims[k] == column_rank(products + multiples) - column_rank(multiples)


def test_tncz_check_so35(cases):
    r = check_tncz_degree(cases["so(3,5)/g2(2)"])
    assert r.data["d"] == 8
    assert r.data["coefficient"] == 1
    assert not r.fired
    # both readings are reported side by side
    assert r.data["literal_coefficient"] == 2
    assert len(r.data["poincare"]) == 9
    assert not r.data["presentation_is_literal"]


def test_tncz_poincare_prefix(cases):
    r = check_tncz_degree(cases["so(3,5)/g2(2)"], cutoff=22)
    dims = r.data["poincare"]
    # (1 + t^4 + t^8)(1 + t^7)^2, the product model of the two factors
    expected = [0] * 23
    for i in (0, 4, 8):
        expected[i] += 1
        expected[i + 7] += 2
        expected[i + 14] += 1
    assert dims == expected
    assert sum((-1) ** k * c for k, c in enumerate(dims)) == 0


def test_tncz_requires_embedding(cases):
    with pytest.raises(ValueError):
        check_tncz_degree(cases["so(4,4)/g2(2)"])


# ---- full pipeline -----------------------------------------------------


def test_run_case_so44_su12(cases):
    r = run_case(cases["so(4,4)/su(1,2)"])
    assert r.verdict == "no-amenable-form"
    fired = {c.name for c in r.checks if c.fired}
    assert fired == {"primitive"}
    assert any("Tits" in s for s in r.narrative)


def test_run_case_so44_g22(cases):
    r = run_case(cases["so(4,4)/g2(2)"])
    assert r.verdict == "no-amenable-form"
    assert {c.name for c in r.checks if c.fired} == {"primitive"}


def test_run_case_so35_g22_is_inconclusive(cases):
    r = run_case(cases["so(3,5)/g2(2)"])
    assert r.verdict == "inconclusive"
    assert not any(c.fired for c in r.checks)


def test_run_case_spin17_vacuous(cases):
    r = run_case(cases["spin(1,7)/g2"])
    assert r.verdict == "vacuous-h-compact"
    assert r.checks == []


def test_run_case_checks_filter(cases):
    r = run_case(cases["so(4,4)/g2(2)"], checks=("rank",))
    assert [c.name for c in r.checks] == ["rank"]
    assert r.verdict == "inconclusive"


def test_all_checks_run_even_after_one_fires(cases):
    r = run_case(cases["so(4,4)/su(1,2)"])
    assert [c.name for c in r.checks] == ["rank", "dimension", "primitive"]
