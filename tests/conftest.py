import os
import random
from fractions import Fraction
from operator import le
from pathlib import Path

import pytest

import homcoh
from homcoh import linalg
from homcoh.groebner import GREVLEX, leading_term
from homcoh.linalg import RatMatrix
from homcoh.poly import Polynomial, VariableContext, weighted_exponents

# CLI tests start `python -m homcoh.cli`; the child imports the homcoh under test.
_SRC = str(Path(homcoh.__file__).resolve().parents[1])
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (_SRC, os.environ.get("PYTHONPATH"))))


def random_rational(rng, bound=20):
    return Fraction(rng.randint(-bound, bound), rng.randint(1, bound))


def random_polynomial(rng, ctx, max_degree=3, n_terms=4):
    terms = {}
    for _ in range(n_terms):
        exp = tuple(rng.randint(0, max_degree) for _ in range(ctx.nvars))
        terms[exp] = random_rational(rng)
    return Polynomial(ctx, terms)


def random_homogeneous(rng, ctx, poly_degree):
    """Random homogeneous polynomial of the given polynomial degree."""
    exps = weighted_exponents((1,) * ctx.nvars, poly_degree)
    terms = {e: random_rational(rng) for e in exps if rng.random() < 0.8}
    if not terms:
        terms = {exps[0]: Fraction(1)}
    return Polynomial(ctx, terms)


def two_leads_divide_a_term(f, gb):
    """True if some term of f is divisible by the leads of two elements of gb.

    Only then can the order of the basis change which element reduces it.
    """
    leads = [leading_term(g, GREVLEX)[0] for g in gb]
    return any(sum(all(map(le, lead, e)) for lead in leads) > 1 for e in f.terms)


def quotient_dims_by_linear_algebra(gens, ctx, cutoff):
    """Per-degree quotient dimensions without any Groebner machinery.

    In each degree d, the quotient dimension is the number of monomials of
    degree d minus the rank of the span of all products m*g with g a
    generator and m a monomial of complementary degree.
    """
    dims = []
    for d in range(cutoff + 1):
        monos = weighted_exponents(ctx.degrees, d)
        index = {m: i for i, m in enumerate(monos)}
        columns = []
        for g in gens:
            gd = g.cohom_degree()
            if gd > d:
                continue
            for m in weighted_exponents(ctx.degrees, d - gd):
                col = {}
                for exp, c in g.terms.items():
                    key = tuple(a + b for a, b in zip(exp, m))
                    col[index[key]] = c
                columns.append(col)
        entries = {}
        for j, col in enumerate(columns):
            for i, c in col.items():
                entries[(i, j)] = c
        dims.append(len(monos) - linalg.rank(RatMatrix(len(monos), len(columns), entries)))
    return dims


def _is_prime(n):
    """Miller-Rabin with the first 12 prime bases, which decides every n < 2**64."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if n < 2 or any(n % p == 0 for p in bases):
        return n in bases
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _primes_below_2_63(count):
    primes, n = [], 2**63 - 1
    while len(primes) < count:
        if _is_prime(n):
            primes.append(n)
        n -= 2
    return primes


# Texts in x whose factors and summands have coefficients of 64 bits but whose
# coefficients outgrow MAX_COEFFICIENT_BITS: in a product's result (a square
# of 128 terms with distinct 63-bit prime denominators) and in a sum (128
# such terms in x alone).
_PRIMES = _primes_below_2_63(128)
WIDE_SQUARE = "(" + " + ".join(f"1/{p}*x^{i}" for i, p in enumerate(_PRIMES)) + ")^2"
LONG_SUM = " + ".join(f"1/{p}*x" for p in _PRIMES)


@pytest.fixture
def rng():
    return random.Random(20240817)
