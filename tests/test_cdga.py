from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from homcoh import linalg
from homcoh.cdga import (
    FreeCDGA,
    GeneratorSpec,
    cdga_from_text,
    cdga_to_text,
    poincare_string,
)
from homcoh.poly import Polynomial, VariableContext, parse_polynomial, weighted_exponents


def cp1_algebra():
    u = GeneratorSpec("u", 2)
    y3 = GeneratorSpec("y3", 3)
    ctx = VariableContext(("u",), (2,))
    return FreeCDGA([u], [y3], [parse_polynomial("u^2", ctx)])


def exterior(degrees):
    odd = []
    seen = {}
    for d in degrees:
        seen[d] = seen.get(d, 0) + 1
        odd.append(GeneratorSpec(f"y{d}" + "'" * (seen[d] - 1), d))
    ctx = VariableContext((), ())
    return FreeCDGA([], odd, [Polynomial.zero(ctx)] * len(odd))


def so8_quotient_algebra():
    """The bundled rank-2 quotient model: Q[u1,u2] x Lambda(y3,y7,y7',y11)."""
    even = [GeneratorSpec("u1", 4), GeneratorSpec("u2", 4)]
    ctx = VariableContext(("u1", "u2"), (4, 4))
    odd = [
        GeneratorSpec("y3", 3),
        GeneratorSpec("y7", 7),
        GeneratorSpec("y7'", 7),
        GeneratorSpec("y11", 11),
    ]
    transgressions = [
        parse_polynomial("2*u1", ctx),
        parse_polynomial("u1^2", ctx),
        Polynomial.zero(ctx),
        parse_polynomial("u1*u2^2 + u2^3", ctx),
    ]
    return FreeCDGA(even, odd, transgressions)


# ---- construction and validation --------------------------------------


def test_transgression_degree_mismatch_rejected():
    ctx = VariableContext(("u",), (2,))
    with pytest.raises(ValueError):
        FreeCDGA(
            [GeneratorSpec("u", 2)],
            [GeneratorSpec("y3", 3)],
            [parse_polynomial("u", ctx)],
        )


def test_odd_even_parity_enforced():
    with pytest.raises(ValueError):
        FreeCDGA([GeneratorSpec("u", 3)], [], [])
    ctx = VariableContext((), ())
    with pytest.raises(ValueError):
        FreeCDGA([], [GeneratorSpec("y", 2)], [Polynomial.zero(ctx)])


def test_d_squared_zero_on_generators():
    a = so8_quotient_algebra()
    for gen in a.odd_gens:
        elt = a.generator_element(gen.name)
        assert not a.differential(a.differential(elt))


# ---- graded bases ------------------------------------------------------


def test_graded_basis_exterior_degree_3():
    a = exterior([3])
    assert a.graded_basis(3) == [((), 1)]
    assert a.graded_basis(2) == []


def test_graded_basis_cp1():
    a = cp1_algebra()
    assert a.graded_basis(4) == [((2,), 0)]
    assert a.graded_basis(5) == [((1,), 1)]


def test_graded_basis_deterministic():
    a = so8_quotient_algebra()
    assert a.graded_basis(8) == a.graded_basis(8)
    assert len(a.graded_basis(8)) == 3  # u1^2, u1*u2, u2^2


# ---- cohomology --------------------------------------------------------


def test_sphere3_cohomology():
    assert exterior([3]).cohomology_dims(3) == [1, 0, 0, 1]


def test_cp1_cohomology():
    assert cp1_algebra().cohomology_dims(2) == [1, 0, 1]


def test_exterior_poincare_is_product():
    a = exterior([3, 7, 7, 11])
    dims = a.cohomology_dims(28)
    expected = [0] * 29
    expected[0] = 1
    for p in (3, 7, 7, 11):
        for k in range(28, p - 1, -1):
            expected[k] += expected[k - p]
    assert dims == expected


def test_su3_flag_poincare():
    ctx = VariableContext(("z1", "z2", "z3"), (2, 2, 2))
    even = [GeneratorSpec(n, 2) for n in ctx.names]
    odd = [GeneratorSpec("y1", 1), GeneratorSpec("y3", 3), GeneratorSpec("y5", 5)]
    transgressions = [
        parse_polynomial("z1 + z2 + z3", ctx),
        parse_polynomial("z1*z2 + z1*z3 + z2*z3", ctx),
        parse_polynomial("z1*z2*z3", ctx),
    ]
    a = FreeCDGA(even, odd, transgressions)
    dims = a.cohomology_dims(6)
    assert dims == [1, 0, 2, 0, 2, 0, 1]
    assert sum(dims) == 6  # equal rank: total dimension is the Weyl order


def test_u5_flag_full_poincare_is_palindromic():
    """U(5)/T^5 with d y_{2k-1} = e_k(z): the whole Poincare polynomial.

    Cohomology of the full flag manifold is the coinvariant algebra, with
    Poincare series prod_{k<=5} (1 - t^{2k}) / (1 - t^2); degree 20 is the top.
    """
    names = tuple(f"z{i}" for i in range(1, 6))
    ctx = VariableContext(names, (2,) * 5)
    even = [GeneratorSpec(n, 2) for n in names]
    odd = [GeneratorSpec(f"y{2 * k - 1}", 2 * k - 1) for k in range(1, 6)]
    transgressions = [
        parse_polynomial(" + ".join("*".join(c) for c in combinations(names, k)), ctx)
        for k in range(1, 6)
    ]
    dims = FreeCDGA(even, odd, transgressions).cohomology_dims(20)
    expected = [1] + [0] * 20
    for k in range(2, 6):  # multiply by 1 + t^2 + ... + t^{2k-2}
        expected = [
            sum(expected[i - 2 * j] for j in range(k) if i >= 2 * j) for i in range(21)
        ]
    assert dims == expected
    assert dims == dims[::-1]
    assert sum(dims) == 120  # equal rank: total dimension is the Weyl order 5!


def test_so8_quotient_degree_8():
    """Exact degree-8 cohomology of the bundled rank-2 quotient model.

    The cochain piece in degree 8 is spanned by u1^2, u1*u2, u2^2 and the
    image of d from degree 7 is spanned by u1^2 and u1*u2, leaving a
    1-dimensional quotient.
    """
    a = so8_quotient_algebra()
    dims = a.cohomology_dims(8)
    assert dims[8] == 1


def test_so8_quotient_full_poincare_and_euler():
    a = so8_quotient_algebra()
    dims = a.cohomology_dims(22)
    # (1 + t^4 + t^8)(1 + t^7)^2
    expected = [0] * 23
    for i in (0, 4, 8):
        for j in (0, 7, 14):
            if i + j <= 22:
                expected[i + j] += {0: 1, 7: 2, 14: 1}[j]
    assert dims == expected
    assert sum((-1) ** k * c for k, c in enumerate(dims)) == 0


def test_euler_characteristic_consistency():
    # per degree: dim C^k = dim Z^k + rank d_k
    a = cp1_algebra()
    for k in range(5):
        cochains = len(a.graded_basis(k))
        mat = a.differential_matrix(k)
        assert cochains == linalg.kernel_dim(mat) + linalg.rank(mat)


# ---- matrix of d against the reference differential -------------------

# mostly non-integral: the matrix stores an integral coefficient as an int and
# any other as a Fraction, and both kinds must match differential()
coefficients = st.fractions(min_value=-5, max_value=5, max_denominator=6).filter(bool)


@st.composite
def cartan_algebras(draw):
    """Up to 3 even and 4 odd generators, random rational transgressions."""
    even_degrees = draw(st.lists(st.sampled_from((2, 4)), max_size=3))
    odd_degrees = draw(st.lists(st.sampled_from((1, 3, 5, 7)), min_size=1, max_size=4))
    ctx = VariableContext(tuple(f"x{i}" for i in range(len(even_degrees))), tuple(even_degrees))
    transgressions = []
    for degree in odd_degrees:
        monomials = weighted_exponents(ctx.degrees, degree + 1)
        chosen = draw(st.lists(st.sampled_from(monomials), unique=True)) if monomials else []
        transgressions.append(Polynomial(ctx, {m: draw(coefficients) for m in chosen}))
    return FreeCDGA(
        [GeneratorSpec(n, d) for n, d in zip(ctx.names, ctx.degrees)],
        [GeneratorSpec(f"y{j}", d) for j, d in enumerate(odd_degrees)],
        transgressions,
    )


@settings(max_examples=60, deadline=None)
@given(cartan_algebras())
def test_matrix_columns_are_images_under_differential(a):
    cutoff = 12
    mats = []
    for k in range(cutoff + 1):
        src, dst = a.graded_basis(k), a.graded_basis(k + 1)
        m = a.differential_matrix(k)
        assert (m.rows, m.cols) == (len(dst), len(src))
        for col, mono in enumerate(src):
            image = a.differential({mono: Fraction(1)})
            column = {dst[i]: v for (i, j), v in m.entries.items() if j == col}
            assert column == image
        mats.append(m)
    dims = a.cohomology_dims(cutoff)
    for k, m in enumerate(mats):
        assert m.cols == linalg.kernel_dim(m) + linalg.rank(m)
        below = linalg.rank(mats[k - 1]) if k else 0
        assert dims[k] == linalg.kernel_dim(m) - below


# ---- Leibniz rule ------------------------------------------------------


def test_graded_leibniz_on_random_pairs(rng):
    a = so8_quotient_algebra()
    basis_pool = [(deg, m) for deg in range(1, 12) for m in a.graded_basis(deg)]
    for _ in range(40):
        da, ma = rng.choice(basis_pool)
        db, mb = rng.choice(basis_pool)
        x = {ma: Fraction(rng.randint(1, 5))}
        y = {mb: Fraction(rng.randint(1, 5))}
        lhs = a.differential(a.multiply(x, y))
        sign = -1 if da % 2 else 1
        rhs = a.multiply(a.differential(x), y)
        for key, c in a.multiply(x, a.differential(y)).items():
            rhs[key] = rhs.get(key, Fraction(0)) + sign * c
        rhs = {k: v for k, v in rhs.items() if v}
        assert lhs == rhs


# ---- serialization -----------------------------------------------------


def test_cdga_text_roundtrip():
    a = so8_quotient_algebra()
    b = cdga_from_text(cdga_to_text(a))
    assert b.even_gens == a.even_gens
    assert b.odd_gens == a.odd_gens
    assert b.transgressions == a.transgressions


def test_cdga_parse_rejects_unknown_differential():
    text = "[generators]\nu = 2\n[differential]\nw = u\n"
    with pytest.raises(ValueError):
        cdga_from_text(text)


def test_poincare_string():
    assert poincare_string([1, 0, 1]) == "1 + t^2"
    assert poincare_string([0, 0]) == "0"
    assert poincare_string([1, 2]) == "1 + 2*t"
