import gc
import time
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from conftest import quotient_dims_by_linear_algebra, random_homogeneous, two_leads_divide_a_term
from homcoh import groebner
from homcoh.catalog import _FAMILY
from homcoh.groebner import (
    GREVLEX,
    MonomialOrder,
    _divisor,
    _interreduce,
    buchberger,
    ideal_member,
    leading_term,
    normal_form,
    quotient_poincare,
    s_polynomial,
)
from homcoh.poly import (
    LinearSubstitution,
    Polynomial,
    VariableContext,
    parse_polynomial,
    substitute_linear,
    weighted_exponents,
    weyl_invariant_generators,
)

XY = VariableContext.standard(("x", "y"))


def P(text, ctx=XY):
    return parse_polynomial(text, ctx)


def restricted_d4():
    """g4, g8, g12: the D4 invariants restricted to x1 = 0, x4 = x2 + x3."""
    gens = weyl_invariant_generators("D", 4)
    src = gens[0][0].ctx
    tgt = VariableContext.standard(("x2", "x3"))
    sub = LinearSubstitution(
        src, tgt, tuple(parse_polynomial(s, tgt) for s in ("0", "x2", "x3", "x2+x3"))
    )
    return tgt, [substitute_linear(f, sub) for f, _ in gens]


# ---- buchberger --------------------------------------------------------


def test_monomial_ideal_already_a_basis():
    gb = buchberger([P("x^2"), P("y^2")])
    assert {str(g) for g in gb} == {"x^2", "y^2"}


def test_zero_ideal():
    assert len(buchberger([])) == 0
    assert len(buchberger([P("0")])) == 0


def test_basis_is_monic_and_reduced():
    gb = buchberger([P("2*x^2 + 2*y"), P("3*y^2 - 3*x")])
    leads = [leading_term(g, GREVLEX)[0] for g in gb]
    for i, g in enumerate(gb):
        assert leading_term(g, GREVLEX)[1] == 1
        for j, le in enumerate(leads):
            if i == j:
                continue
            for exp in g.terms:
                assert not all(a <= b for a, b in zip(le, exp))


def test_s_pair_reductions_vanish_on_basis():
    gb = buchberger([P("x^3 - 2*x*y"), P("x^2*y - 2*y^2 + x")])
    gens = list(gb)
    for i in range(len(gens)):
        for j in range(i + 1, len(gens)):
            s = s_polynomial(gens[i], gens[j], GREVLEX)
            assert not normal_form(s, gb)


# ---- normal form and membership ---------------------------------------


def test_normal_form_of_zero():
    gb = buchberger([P("x^2")])
    assert not normal_form(P("0"), gb)


def test_normal_form_below_staircase():
    gb = buchberger([P("x^2")])
    assert normal_form(P("x"), gb) == P("x")


def test_member_trivial_cases():
    assert ideal_member(P("0"), [P("x^2")])
    assert not ideal_member(P("x"), [P("x^2")])
    assert ideal_member(P("x^2*y"), [P("x^2")])


def test_restricted_d4_identities():
    """The exact algebra of the restricted invariants.

    The degree-8 restriction is the square of half the degree-4 one, so the
    ideal they generate is principal; the degree-12 restriction is *not* a
    member (its normal form is a nonzero pure power).
    """
    tgt, (g4, g8, g12, g8_tilde) = restricted_d4()
    assert g8_tilde.is_zero()
    q1 = g4.scale(Fraction(1, 2))
    assert g8 == q1 * q1
    assert ideal_member(g8, [g4])
    gb = buchberger([g4, g8])
    assert len(gb) == 1
    nf = normal_form(g12, gb)
    assert nf
    assert not ideal_member(g12, [g4, g8])


def test_membership_invariant_under_rescaling():
    tgt, (g4, g8, g12, _) = restricted_d4()
    for scale in (Fraction(3), Fraction(-1, 7)):
        assert ideal_member(g8.scale(scale), [g4.scale(Fraction(5, 2)), g8])
        assert not ideal_member(g12.scale(scale), [g4, g8.scale(scale)])


def test_membership_independent_of_order():
    tgt, (g4, g8, g12, _) = restricted_d4()
    for kind in ("grevlex", "grlex", "lex"):
        order = MonomialOrder(kind)
        assert ideal_member(g8, [g4, g8], order)
        assert not ideal_member(g12, [g4, g8], order)


def test_confluence_under_randomized_reduction(rng):
    """The remainder by a reduced basis does not depend on the basis order."""
    gb = buchberger([f for f, _ in weyl_invariant_generators("A", 3)])
    assert len(gb) >= 2
    shared = 0
    for _ in range(30):
        f = random_homogeneous(rng, gb[0].ctx, rng.randint(2, 5))
        shared += two_leads_divide_a_term(f, gb)
        assert normal_form(f, rng.sample(gb, len(gb))) == normal_form(f, gb)
    assert shared


# ---- quotient Poincare series -----------------------------------------


def test_quotient_single_relation():
    ctx = VariableContext.standard(("u",))
    dims = quotient_poincare([parse_polynomial("u^2", ctx)], ctx, 6)
    assert dims == [1, 0, 1, 0, 0, 0, 0]


def test_quotient_free_ring():
    ctx = VariableContext.standard(("u",))
    assert quotient_poincare([], ctx, 6) == [1, 0, 1, 0, 1, 0, 1]


def test_quotient_complete_intersection_4_8():
    gens = [P("x^2 + y^2"), P("x^4 + x*y^3")]
    dims = quotient_poincare(gens, XY, 8)
    # (1 - t^4)(1 - t^8) / (1 - t^2)^2
    assert dims == [1, 0, 2, 0, 2, 0, 2, 0, 1]
    assert dims == quotient_dims_by_linear_algebra(gens, XY, 8)


def test_quotient_of_the_whole_ring_and_of_no_variables():
    assert quotient_poincare([P("x + 2*y"), P("1")], XY, 4) == [0] * 5
    point = VariableContext((), ())
    assert quotient_poincare([], point, 3) == [1, 0, 0, 0]
    assert quotient_poincare([Polynomial.constant(point, 5)], point, 3) == [0] * 4


def test_quotient_rejects_inhomogeneous():
    with pytest.raises(ValueError):
        quotient_poincare([P("x^2 + y")], XY, 4)


def _expected_ci_series(gen_degrees, var_degrees, cutoff):
    coeffs = [0] * (cutoff + 1)
    coeffs[0] = 1
    for e in var_degrees:  # multiply by 1/(1 - t^e)
        for k in range(e, cutoff + 1):
            coeffs[k] += coeffs[k - e]
    for d in gen_degrees:  # multiply by (1 - t^d)
        for k in range(cutoff, d - 1, -1):
            coeffs[k] -= coeffs[k - d]
    return coeffs


def test_quotient_matches_linear_algebra_on_random_sequences(rng):
    """Series from the lead ideal's numerator agree with rank counts on random regular sequences."""
    checked = 0
    while checked < 20:
        d1, d2 = rng.choice([(1, 2), (2, 2), (2, 3), (1, 3), (3, 3)])
        gens = [random_homogeneous(rng, XY, d1), random_homogeneous(rng, XY, d2)]
        cutoff = 2 * (d1 + d2)
        dims = quotient_poincare(gens, XY, cutoff)
        assert dims == quotient_dims_by_linear_algebra(gens, XY, cutoff)
        if dims == _expected_ci_series((2 * d1, 2 * d2), (2, 2), cutoff):
            checked += 1


# ---- Buchberger on random small ideals ---------------------------------

NAMES = ("x", "y", "z")


@st.composite
def small_ideals(draw, homogeneous):
    """(ctx, generators): 1-3 polynomials of degree <= 3 in 2-3 variables."""
    n = draw(st.integers(2, 3))
    ctx = VariableContext.standard(NAMES[:n])
    gens = []
    for _ in range(draw(st.integers(1, 3))):
        if homogeneous:
            exps = weighted_exponents((1,) * n, draw(st.integers(1, 3)))
        else:
            exps = [e for d in range(4) for e in weighted_exponents((1,) * n, d)]
        chosen = draw(st.lists(st.sampled_from(exps), min_size=1, max_size=4, unique=True))
        coeffs = st.integers(-3, 3).filter(bool)
        gens.append(Polynomial(ctx, {e: draw(coeffs) for e in chosen}))
    return ctx, gens


orders = st.sampled_from(["grevlex", "grlex", "lex"]).map(MonomialOrder)


def assert_reduced_basis_of(gb, gens, order):
    leads = [leading_term(g, order) for g in gb]
    for (lead, lc), g in zip(leads, gb):
        assert lc == 1
        for other, _ in leads:
            if other != lead:
                assert not any(all(a <= b for a, b in zip(other, e)) for e in g.terms)
    for i, f in enumerate(gb):
        for g in list(gb)[i + 1 :]:
            assert not normal_form(s_polynomial(f, g, order), gb, order)
    for f in gens:
        assert not normal_form(f, gb, order)


def sympy_basis(gens, order):
    """The reduced basis from sympy, made monic under `order`."""
    sympy = pytest.importorskip("sympy")
    ctx = gens[0].ctx
    symbols = sympy.symbols(ctx.names)
    exprs = [
        sum(sympy.Rational(c.numerator, c.denominator) * sympy.Mul(*(s**k for s, k in zip(symbols, e)))
            for e, c in g.terms.items())
        for g in gens
    ]
    basis = set()
    for expr in sympy.groebner(exprs, *symbols, order=order.kind, domain="QQ").exprs:
        terms = {e: Fraction(int(c.p), int(c.q)) for e, c in sympy.Poly(expr, *symbols).terms()}
        g = Polynomial(ctx, terms)
        basis.add(g.scale(1 / leading_term(g, order)[1]))
    return basis


@settings(max_examples=60, deadline=None)
@given(st.data(), st.booleans())
def test_buchberger_gives_the_reduced_basis(data, homogeneous):
    ctx, gens = data.draw(small_ideals(homogeneous))
    order = data.draw(orders)
    gb = buchberger(gens, order)
    assert_reduced_basis_of(gb, gens, order)
    assert set(gb) == sympy_basis(gens, order)


def test_a4_basis_does_not_depend_on_the_presentation():
    """f_k plus products of lower generators span the same ideal."""
    (e2, _), (e3, _), (e4, _), (e5, _) = weyl_invariant_generators("A", 4)
    mixed = [e2.scale(-2), e3 * 3, e4 - e2 * e2.scale(5), e5.scale(2) + e2 * e3]
    assert buchberger(mixed) == buchberger([e2, e3, e4, e5])


def test_interreduce_keeps_the_first_of_equal_leads():
    g = P("x^2 + y^2")
    entries = [_divisor(g, GREVLEX), _divisor(g.scale(3), GREVLEX)]
    assert _interreduce(entries, 0, GREVLEX) == [_divisor(g, GREVLEX)]


def test_a_later_lead_reduces_an_earlier_tail_again():
    """y*z^2 - z^3, added last, has a lead dividing a tail term of y^2*z - y*z^2.

    The first two generators' reduced basis has y^2*z - y*z^2; the third's
    lead y*z^2 divides its tail, which must be reduced again to -z^3.
    """
    xyz = VariableContext.standard(("x", "y", "z"))
    gens = [P(t, xyz) for t in ("x*z + y*z", "x^2 + x*z", "y*z^2 - z^3")]
    assert P("y^2*z - y*z^2", xyz) in buchberger(gens[:2])
    gb = buchberger(gens)
    assert gb == tuple(P(t, xyz) for t in ("x*z + y*z", "x^2 - y*z", "y*z^2 - z^3", "y^2*z - z^3"))
    assert_reduced_basis_of(gb, gens, GREVLEX)
    assert set(gb) == sympy_basis(gens, GREVLEX)


@settings(max_examples=60, deadline=None)
@given(st.data(), st.booleans())
def test_buchberger_does_not_depend_on_the_order_of_the_generators(data, homogeneous):
    ctx, gens = data.draw(small_ideals(homogeneous))
    order = data.draw(orders)
    assert buchberger(data.draw(st.permutations(gens)), order) == buchberger(gens, order)


# ---- signature criteria ------------------------------------------------

REGULAR_FAMILIES = [("A", 3), ("A", 4), ("A", 5), ("B", 5), ("D", 4), ("D", 5), ("G2", 2)]


def perturbed_presentation(rng, pairs):
    """f_k -> s*f_k plus up to two multiples c*(product of lower generators).

    `pairs` is (generator, degree) sorted by degree.  The ideal generated by
    the first k generators does not change, so the sequence stays regular.
    """
    out = []
    for k, (f, degree) in enumerate(pairs):
        g = f.scale(rng.choice((1, -1, 2, -2)))
        lower = pairs[:k]
        products = weighted_exponents([d for _, d in lower], degree) if lower else []
        for exps in rng.sample(products, min(2, len(products))):
            term = Polynomial.constant(f.ctx, rng.choice((1, -1, 2, -2)))
            for (p, _), e in zip(lower, exps):
                for _ in range(e):
                    term = term * p
            g = g + term
        out.append(g)
    return out


def count_reductions(monkeypatch, gens):
    """(basis, S-pairs, zero remainders) of buchberger(gens).

    Counted as the benchmark tracer counts them: buchberger passes each
    s_polynomial result straight to normal_form.
    """
    s_polynomial, normal_form = groebner.s_polynomial, groebner.normal_form
    counts, last = [0, 0], [None]

    def counting_s_polynomial(*args):
        last[0] = s_polynomial(*args)
        counts[0] += 1
        return last[0]

    def counting_normal_form(f, *args, **kwargs):
        r = normal_form(f, *args, **kwargs)
        if f is last[0]:
            last[0] = None
            counts[1] += not r
        return r

    with monkeypatch.context() as m:
        m.setattr(groebner, "s_polynomial", counting_s_polynomial)
        m.setattr(groebner, "normal_form", counting_normal_form)
        gb = groebner.buchberger(gens)
    return gb, *counts


def test_no_s_pair_reduces_to_zero_on_a_regular_sequence(monkeypatch, rng):
    """Weyl invariants form a regular sequence, so the F5 criteria leave no zero reduction."""
    spairs = 0
    for family, rank in REGULAR_FAMILIES:
        pairs = sorted(weyl_invariant_generators(family, rank), key=lambda p: p[1])
        gb, n, zero = count_reductions(monkeypatch, [f for f, _ in pairs])
        assert zero == 0, (family, rank)
        mixed_gb, mixed_n, mixed_zero = count_reductions(monkeypatch, perturbed_presentation(rng, pairs))
        assert mixed_zero == 0, (family, rank, "perturbed")
        assert mixed_gb == gb
        spairs += n + mixed_n
    assert spairs > 0


# ---- series of monomial ideals -----------------------------------------

# Exponents up to 12 put many leads above every cutoff; (0, 0, 0) is the unit ideal.
LEADS = st.lists(
    st.just((0, 0, 0)) | st.tuples(*[st.integers(0, 4)] * 3) | st.tuples(*[st.integers(0, 12)] * 3),
    max_size=5,
)


@settings(max_examples=60, deadline=None)
@given(LEADS, st.permutations((2, 4, 6)), st.integers(0, 30))
def test_standard_monomials_match_a_brute_force_filter(leads, weights, cutoff):
    """Per-degree counts of the monomials no lead divides, the leads being the generators."""
    ctx = VariableContext(("u", "v", "w"), tuple(weights))
    expected = [
        sum(not any(all(a <= b for a, b in zip(le, e)) for le in leads) for e in weighted_exponents(weights, d))
        for d in range(cutoff + 1)
    ]
    assert quotient_poincare([Polynomial(ctx, {le: 1}) for le in leads], ctx, cutoff) == expected


@pytest.mark.parametrize(
    "family, rank, order",
    [("A", 3, 24), ("A", 4, 120), ("A", 5, 720), ("C", 4, 384), ("B", 5, 3840), ("D", 4, 192), ("D", 5, 1920),
     ("G2", 2, 12)],
)
def test_coinvariant_algebra_has_the_weyl_order_as_dimension(family, rank, order):
    """Chevalley: the coinvariant algebra is a complete intersection of dimension |W|.

    Its series is prod(1 - t^d) / (1 - t^2)^n over the invariant degrees d,
    with top degree sum(d - 2) and top coefficient 1.  The A and G2
    coordinates span rank + 1 dimensions, so x_1 + ... + x_n, of degree 2,
    joins the invariants.
    """
    assert _FAMILY[family]["weyl"](rank) == order
    pairs = weyl_invariant_generators(family, rank)
    ctx = pairs[0][0].ctx
    if family in ("A", "G2"):  # the monomials of degree 2 are the variables
        pairs.append((Polynomial(ctx, {e: 1 for e in weighted_exponents(ctx.degrees, 2)}), 2))
    degrees = [d for _, d in pairs]
    top = sum(d - 2 for d in degrees)
    dims = quotient_poincare([f for f, _ in pairs], ctx, top + 4)
    assert sum(dims) == order
    assert dims[top] == 1 and dims[top + 1 :] == [0] * 4
    assert dims == _expected_ci_series(degrees, ctx.degrees, top + 4)


def test_a_staircase_too_big_to_list():
    """Degree 200 in 8 variables of degree 2: C(107, 7) monomials, none listed."""
    ctx = VariableContext.standard([f"x{i}" for i in range(1, 9)])
    start = time.perf_counter()
    assert quotient_poincare([], ctx, 200)[200] == comb(107, 7) == 26_075_972_546
    # x1^3, x2^5, x3^7: monomials x1^a x2^b x3^c m with a < 3, b < 5, c < 7 and
    # m of degree 100 - a - b - c in the other 5 variables.
    powers = {0: 3, 1: 5, 2: 7}
    gens = [Polynomial(ctx, {tuple(k if i == j else 0 for i in range(8)): 1}) for j, k in powers.items()]
    dims = quotient_poincare(gens, ctx, 200)
    assert dims[200] == sum(comb(104 - a - b - c, 4) for a in range(3) for b in range(5) for c in range(7))
    assert dims == _expected_ci_series([2 * k for k in powers.values()], ctx.degrees, 200)
    assert time.perf_counter() - start < 1


def test_a_negative_cutoff_gives_no_degrees():
    assert quotient_poincare([P("x^2")], XY, -1) == []
    assert quotient_poincare([], XY, -1) == []
    assert quotient_poincare([P("1")], XY, -1) == []


def test_quotient_poincare_leaves_no_cyclic_garbage():
    """Every object of a call is freed with its last reference, not by the cyclic collector."""
    gens = [f for f, _ in weyl_invariant_generators("D", 4)]
    gc.collect()
    gc.disable()
    try:
        for _ in range(2):
            assert sum(quotient_poincare(gens, gens[0].ctx, 24)) == 192
        assert gc.collect() == 0
    finally:
        gc.enable()


WEIGHTED = VariableContext(("u", "v", "w"), (2, 4, 6))


@st.composite
def homogeneous_ideals(draw):
    ctx = draw(st.sampled_from([XY, VariableContext.standard(NAMES), WEIGHTED]))
    gens = []
    for _ in range(draw(st.integers(1, 3))):
        exps = weighted_exponents(ctx.degrees, 2 * draw(st.integers(1, 4)))
        chosen = draw(st.lists(st.sampled_from(exps), min_size=1, max_size=4, unique=True))
        gens.append(Polynomial(ctx, {e: draw(st.integers(-3, 3).filter(bool)) for e in chosen}))
    return ctx, gens


@settings(max_examples=40, deadline=None)
@given(homogeneous_ideals(), st.integers(0, 14))
def test_quotient_matches_linear_algebra_on_random_ideals(ideal, cutoff):
    ctx, gens = ideal
    assert quotient_poincare(gens, ctx, cutoff) == quotient_dims_by_linear_algebra(gens, ctx, cutoff)


@settings(max_examples=100, deadline=None)
@given(homogeneous_ideals(), orders, st.integers(0, 8).map(lambda k: 2 * k))
def test_truncated_basis_is_the_low_part_of_the_reduced_basis(ideal, order, cutoff):
    ctx, gens = ideal

    def low(gb):
        return [g for g in gb if g.cohom_degree() <= cutoff]

    assert low(buchberger(gens, order, degree_cutoff=cutoff)) == low(buchberger(gens, order))
