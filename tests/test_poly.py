import gc
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import LONG_SUM, WIDE_SQUARE
from homcoh.poly import (
    LinearSubstitution,
    Polynomial,
    VariableContext,
    apply_signed_permutation,
    parse_polynomial,
    signed_permutation_group,
    substitute_linear,
    weighted_exponents,
    weyl_invariant_generators,
)

XY = VariableContext.standard(("x", "y"))


def P(text, ctx=XY):
    return parse_polynomial(text, ctx)


# ---- arithmetic --------------------------------------------------------


def test_product_difference_of_squares():
    assert P("x+y") * P("x-y") == P("x^2 - y^2")


def test_multiplicative_identity():
    f = P("3*x^2*y - 7/2*y + 1")
    assert f * P("1") == f


def test_square_of_sum():
    ctx = VariableContext.standard(("x2", "x3"))
    f = P("x2+x3", ctx)
    assert f * f == P("x2^2 + 2*x2*x3 + x3^2", ctx)


def test_ring_mismatch_rejected():
    other = VariableContext.standard(("a", "b"))
    with pytest.raises(ValueError):
        P("x") * P("a", other)


def _stored_as_nonzero_fractions(f):
    return all(type(c) is Fraction and c != 0 for c in f.terms.values())


coefficients = st.one_of(st.integers(-3, 3), st.fractions(-3, 3, max_denominator=4))
term_dicts = st.dictionaries(st.tuples(*[st.integers(0, 3)] * 2), coefficients, max_size=5)


@settings(max_examples=150, deadline=None)
@given(term_dicts, term_dicts, st.integers(-2, 2), st.integers(0, 3))
def test_no_zero_coefficients_stored(f_terms, g_terms, k, e):
    """Every result stores only nonzero Fractions, also from int inputs and cancellation."""
    f, g = Polynomial(XY, f_terms), Polynomial(XY, g_terms)
    sub = LinearSubstitution(XY, XY, (P("x - y"), Polynomial(XY, {(1, 0): 2, (0, 1): k})))
    results = [
        f, f + g, f - g, f - f, f + k, f - k, -f, f * g, f * k, k * f, f**e,
        f.scale(k), parse_polynomial(str(f), XY), substitute_linear(f, sub),
    ]
    for h in results:
        assert _stored_as_nonzero_fractions(h)
    assert not f - f
    assert P("x + y") - P("y") == P("x") and len((P("x + y") - P("y")).terms) == 1


# ---- parser / printer --------------------------------------------------


@pytest.mark.parametrize(
    "text",
    [
        "0",
        "x",
        "2*x^2 + 2*x*y + 2*y^2",
        "1/2*x - 3/4",
        "x^3 - y^3",
        "-x + 5",
    ],
)
def test_parse_print_roundtrip(text):
    f = P(text)
    assert parse_polynomial(str(f), XY) == f


def test_parse_parentheses():
    assert P("(x+y)*(x-y)") == P("x^2-y^2")


def test_parse_cancelling_sums():
    assert P("x - x").is_zero() and P("x - x") == Polynomial.zero(XY)
    assert P("x + 2*x - 3*x + y") == P("y")
    assert P("-(x+y)^2") == P("-x^2 - 2*x*y - y^2")
    assert P("-(x - y) + 2*y") == P("3*y - x")
    assert P("- (x+y)*(x-y)") == P("y^2 - x^2")


def test_parse_unknown_variable():
    with pytest.raises(ValueError):
        P("z + 1")


XYZ = VariableContext.standard(("x", "y", "z"))
nonneg = st.fractions(min_value=0, max_value=20, max_denominator=7)


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(st.tuples(*[st.integers(0, 4)] * 3), st.fractions(max_denominator=9), max_size=8))
def test_parse_inverts_str(terms):
    f = Polynomial(XYZ, terms)
    assert parse_polynomial(str(f), XYZ) == f


V5 = VariableContext.standard(tuple(f"x{i}" for i in range(1, 6)))


@st.composite
def _exponent_of_degree_at_most_10(draw):
    left, exp = draw(st.integers(0, 10)), []
    for _ in range(V5.nvars - 1):
        exp.append(draw(st.integers(0, left)))
        left -= exp[-1]
    return tuple(draw(st.permutations(exp + [left])))


_coefficient_64 = st.builds(Fraction, st.integers(-(2**64) + 1, 2**64 - 1), st.integers(1, 2**64 - 1))


@settings(max_examples=100, deadline=None)
@given(st.dictionaries(_exponent_of_degree_at_most_10(), _coefficient_64, max_size=60))
def test_parse_inverts_str_on_benchmark_shaped_polynomials(terms):
    """5 variables, degree <= 10, up to 60 terms, p/q coefficients of up to 64 bits."""
    f = Polynomial(V5, terms)
    assert parse_polynomial(str(f), V5) == f


@pytest.mark.parametrize(
    "text, expected",
    [
        ("0*x^200*y^100", "0"),  # a zero factor first: degree 0 from there on
        ("x^200*0*y^100", "0"),  # so is a zero factor in the middle
        ("0^0", "1"),
        ("x y^2 3", "3*x*y^2"),
        ("3/4*x*1/3", "1/4*x"),
    ],
)
def test_products_of_atoms_fold_into_one_term(text, expected):
    assert str(P(text)) == expected


@pytest.mark.parametrize(
    "text, message",
    [
        # (2^256)^15 has 3842 bits and 2^253 has 255: the check of the
        # product with the parenthesised factor sees their sum
        ("(2^256)^15*2^253*x", "coefficients of up to 4097 bits exceed the limit of 4096 bits"),
        ("x^2^2", r"trailing input in polynomial: '\^'"),
    ],
)
def test_fold_boundary_errors(text, message):
    with pytest.raises(ValueError, match=message):
        P(text)


POWER_BASES = {
    "x": Polynomial.variable(XYZ, "x"),
    "z": Polynomial.variable(XYZ, "z"),
    "0": Polynomial.zero(XYZ),
    "2": Polynomial.constant(XYZ, 2),
    "3/2": Polynomial.constant(XYZ, Fraction(3, 2)),
    "(-2*y)": Polynomial(XYZ, {(0, 1, 0): -2}),
}


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(sorted(POWER_BASES)), st.integers(0, 256)), min_size=1,
                max_size=4))
def test_powers_up_to_the_limit_agree_with_polynomial_arithmetic(factors):
    """The product of powers, or the degree of the first partial product over the limit."""
    text = "*".join(f"{base}^{e}" for base, e in factors)
    value, refused = Polynomial.constant(XYZ, 1), None
    for i, (base, e) in enumerate(factors):
        power = POWER_BASES[base] ** e
        degree = max(map(sum, value.terms), default=0) + max(map(sum, power.terms), default=0)
        if i and degree > 256:
            refused = degree
            break
        value = value * power
    if refused is None:
        assert P(text, XYZ) == value
    else:
        with pytest.raises(ValueError, match=f"polynomial degree {refused} exceeds the limit 256"):
            P(text, XYZ)


# An expression is (text, value, kind): its text, the Polynomial it stands for
# (built by Polynomial arithmetic), and whether it is an atom, a power, a
# product or a sum, which decides where it needs parentheses.
def _number(c):
    return str(c), Polynomial.constant(XYZ, c), "atom"


def _variable(name):
    return name, Polynomial.variable(XYZ, name), "atom"


def _paren(expr, kinds):
    text, value, kind = expr
    return (text, value) if kind in kinds else (f"({text})", value)


@st.composite
def _power(draw, base):
    text, value = _paren(base, ("atom",))
    e = draw(st.integers(0, 3))
    return f"{text}^{e}", value**e, "power"


@st.composite
def _product(draw, factors):
    parts = [_paren(f, ("atom", "power")) for f in factors]
    text, value = parts[0]
    for t, v in parts[1:]:
        text += draw(st.sampled_from(("*", " * ", " ")))
        text, value = text + t, value * v
    return text, value, "product"


@st.composite
def _sum(draw, summands):
    parts = [_paren(f, ("atom", "power", "product")) for f in summands]
    text, value = parts[0]
    if draw(st.booleans()):
        text, value = "-" + text, -value
    for t, v in parts[1:]:
        if draw(st.booleans()):
            text, value = f"{text} + {t}", value + v
        else:
            text, value = f"{text} - {t}", value - v
    return text, value, "sum"


expressions = st.recursive(
    st.one_of(nonneg.map(_number), st.sampled_from(XYZ.names).map(_variable)),
    lambda inner: st.one_of(
        inner.flatmap(_power),
        st.lists(inner, min_size=2, max_size=3).flatmap(_product),
        st.lists(inner, min_size=2, max_size=3).flatmap(_sum),
    ),
    max_leaves=10,
)


@settings(max_examples=300, deadline=None)
@given(expressions)
def test_parse_agrees_with_polynomial_arithmetic(expr):
    text, value, _ = expr
    assert parse_polynomial(text, XYZ) == value


# 2^4093 has 4094 bits of numerator and 1 of denominator: 4095 in all.  The
# coefficient 1 of x, or of x^0, has 2.
BITS_4095 = str(2**4093)
BITS_4097 = "coefficients of up to 4097 bits exceed the limit of 4096 bits"


@pytest.mark.parametrize(
    "text, message",
    [
        pytest.param(f"{BITS_4095}*x", BITS_4097, id="4095-bits-times-x"),
        pytest.param(f"{BITS_4095}*x^0", BITS_4097, id="4095-bits-times-x^0"),
        pytest.param(f"x*{BITS_4095}", BITS_4097, id="x-times-4095-bits"),
        ("x^3*x^254", "polynomial degree 257 exceeds the limit 256"),
        ("x^3*y^253*x*y", "polynomial degree 257 exceeds the limit 256"),
        pytest.param("(" * 101 + "x" + ")" * 101, "parentheses nested more than 100 deep",
                     id="nested-101-deep"),
        ("x^257", "exponent 257 exceeds the limit 256"),
        ("2^300", "exponent 300 exceeds the limit 256"),
        ("(x*y)^129", "polynomial degree 258 exceeds the limit 256"),
        ("x^200*y^57", "polynomial degree 257 exceeds the limit 256"),
        ("(x+y)^100*(x+y)^157", "polynomial degree 257 exceeds the limit 256"),
        ("(x+y+z)^25*(x+y+z)^25", "product of 351 and 351 terms exceeds the limit of 100000 term pairs"),
        # (x+y+z+1)^10, 286 terms, times (x+y+z+1)^16, 969 terms, on the way
        ("(x+y+z+1)^90", "product of 286 and 969 terms exceeds the limit of 100000 term pairs"),
        # a result of 33,153 terms, but the square of (x+y+z)^32 is too large
        ("(x+y+z)^256", "product of 561 and 561 terms exceeds the limit of 100000 term pairs"),
        # 2^2048 squared, on the way to a coefficient of about a million bits
        ("((2^256)^256)^16*x", "coefficients of up to 4100 bits exceed the limit of 4096 bits"),
        # factors of 64-bit coefficients whose product has far longer ones
        pytest.param(
            WIDE_SQUARE, r"coefficients of up to \d+ bits exceed the limit of 4096 bits",
            id="wide-square",
        ),
        # summands of 64-bit coefficients whose sum outgrows the limit
        pytest.param(
            LONG_SUM, "coefficients of up to 4101 bits exceed the limit of 4096 bits", id="long-sum"
        ),
    ],
)
def test_parser_limits(text, message):
    with pytest.raises(ValueError, match=message):
        P(text, XYZ)


def test_parser_limits_are_inclusive():
    assert P("x^256") == Polynomial(XY, {(256, 0): 1})
    assert P("x^256*y^0") == Polynomial(XY, {(256, 0): 1})
    assert P("x^007*y^0249") == Polynomial(XY, {(7, 249): 1})  # leading zeros
    assert P(BITS_4095) == Polynomial.constant(XY, 2**4093)  # a lone number: no product
    assert P("(" * 100 + "x" + ")" * 100) == P("x")
    assert P("(x*y)^128*1^256") == Polynomial(XY, {(128, 128): 1})
    assert P("(2^128)^31*x") == Polynomial(XY, {(1, 0): 2**3968})


# ---- weighted exponents ------------------------------------------------


def test_weighted_exponents_leave_no_cyclic_garbage():
    """The returned list is freed with its last reference, not by the cyclic collector."""
    gc.collect()
    gc.disable()
    try:
        for _ in range(2):
            assert len(weighted_exponents((2,) * 5, 20)) == 1001
        assert gc.collect() == 0
    finally:
        gc.enable()


# ---- substitution ------------------------------------------------------


def d4_restriction():
    src = VariableContext.standard(("x1", "x2", "x3", "x4"))
    tgt = VariableContext.standard(("x2", "x3"))
    images = tuple(parse_polynomial(s, tgt) for s in ("0", "x2", "x3", "x2+x3"))
    return LinearSubstitution(src, tgt, images)


def test_restriction_of_sum_of_squares():
    sub = d4_restriction()
    f1 = parse_polynomial("x1^2+x2^2+x3^2+x4^2", sub.source)
    expected = parse_polynomial("x2^2 + x3^2 + (x2+x3)^2", sub.target)
    assert substitute_linear(f1, sub) == expected


def test_restriction_kills_pfaffian():
    sub = d4_restriction()
    f4 = parse_polynomial("x1*x2*x3*x4", sub.source)
    assert substitute_linear(f4, sub).is_zero()


def test_identity_substitution():
    f = P("x^2*y - 2*x + 7")
    assert substitute_linear(f, LinearSubstitution.identity(XY)) == f


def substitute_term_by_term(f, sub):
    """The sum over the terms c*x^e of f of c times the product of img_i**e_i."""
    result = Polynomial.zero(sub.target)
    for exp, c in f.terms.items():
        term = Polynomial.constant(sub.target, c)
        for img, e in zip(sub.images, exp):
            term = term * img**e
        result = result + term
    return result


def test_substitution_is_ring_homomorphism(rng):
    from conftest import random_polynomial

    sub = d4_restriction()  # its image of x1 is zero
    constant = Polynomial.constant(sub.source, Fraction(-7, 3))
    assert substitute_linear(constant, sub) == Polynomial.constant(sub.target, Fraction(-7, 3))
    for _ in range(25):
        f = random_polynomial(rng, sub.source)
        g = random_polynomial(rng, sub.source)
        for h in (f, g, f * g, f + constant):
            assert substitute_linear(h, sub) == substitute_term_by_term(h, sub)
        assert substitute_linear(f * g, sub) == substitute_linear(
            f, sub
        ) * substitute_linear(g, sub)
        assert substitute_linear(f + g, sub) == substitute_linear(
            f, sub
        ) + substitute_linear(g, sub)


# ---- Weyl invariants ---------------------------------------------------


def test_d4_generator_degrees():
    gens = weyl_invariant_generators("D", 4)
    assert [d for _, d in gens] == [4, 8, 12, 8]
    ctx = gens[0][0].ctx
    assert gens[3][0] == parse_polynomial("x1*x2*x3*x4", ctx)


def test_b1_generator():
    gens = weyl_invariant_generators("B", 1)
    assert len(gens) == 1
    poly, degree = gens[0]
    assert degree == 4
    assert poly == parse_polynomial("x1^2", poly.ctx)


def test_a1_generator():
    gens = weyl_invariant_generators("A", 1)
    assert len(gens) == 1
    assert gens[0][1] == 4


def test_g2_generator_degrees():
    gens = weyl_invariant_generators("G2", 2)
    assert [d for _, d in gens] == [4, 12]


def test_unsupported_family_rejected():
    with pytest.raises(ValueError):
        weyl_invariant_generators("E", 8)
    with pytest.raises(ValueError):
        weyl_invariant_generators("D", 1)


def test_generators_homogeneous():
    for family, rank in [("A", 2), ("B", 3), ("C", 2), ("D", 4), ("G2", 2)]:
        for poly, degree in weyl_invariant_generators(family, rank):
            assert poly.is_homogeneous()
            assert poly.cohom_degree() == degree


def test_d4_invariance_under_all_192_elements():
    gens = weyl_invariant_generators("D", 4)
    group = list(signed_permutation_group(4, even_signs_only=True))
    assert len(group) == 192
    for poly, _ in gens:
        for action in group:
            assert apply_signed_permutation(poly, action) == poly
