"""Multivariate polynomials over the rationals with a cohomological grading.

A VariableContext fixes the variables and their (even) cohomological degrees;
the usual convention is that a coordinate on a maximal torus sits in degree 2,
so a polynomial of polynomial degree k is cohomologically homogeneous of
degree 2k.  Linear substitutions implement restriction maps between tori, and
`weyl_invariant_generators` returns the classical generating invariants of the
Weyl groups of the simple families.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations, product
from operator import add, mul


@dataclass(frozen=True)
class VariableContext:
    """Ordered variables with even positive cohomological degrees."""

    names: tuple
    degrees: tuple

    def __post_init__(self):
        if len(self.names) != len(set(self.names)):
            raise ValueError("variable names must be unique")
        if len(self.names) != len(self.degrees):
            raise ValueError("one degree per variable")
        for d in self.degrees:
            if d <= 0 or d % 2 != 0:
                raise ValueError("variable degrees must be even and positive")

    @classmethod
    def standard(cls, names, degree=2):
        return cls(tuple(names), tuple(degree for _ in names))

    @property
    def nvars(self):
        return len(self.names)

    def index(self, name):
        return self.names.index(name)


def weighted_exponents(degrees, target):
    """Exponent tuples e with sum(e_i * degrees_i) == target, ascending.

    The degrees must be positive.  The last exponent is solved for rather
    than searched: the others run like an odometer, rightmost fastest.
    """
    if not degrees:
        return [()] if target == 0 else []
    if target < 0:
        return []
    *head, last = degrees
    exp = [0] * len(head)
    remaining = target  # target minus the weighted sum of exp
    out = []
    while True:
        if remaining % last == 0:
            out.append((*exp, remaining // last))
        i = len(head) - 1
        while i >= 0 and remaining < head[i]:
            remaining += exp[i] * head[i]
            exp[i] = 0
            i -= 1
        if i < 0:
            return out
        exp[i] += 1
        remaining -= head[i]


class Polynomial:
    """Exact polynomial: map from exponent tuples to nonzero rationals."""

    __slots__ = ("ctx", "terms")

    def __init__(self, ctx, terms=None):
        self.ctx = ctx
        cleaned = {}
        for exp, c in (terms or {}).items():
            if len(exp) != ctx.nvars:
                raise ValueError("exponent length does not match context")
            if type(c) is not Fraction:
                c = Fraction(c)
            if c:
                cleaned[tuple(exp)] = c
        self.terms = cleaned

    # ---- constructors -------------------------------------------------

    @classmethod
    def zero(cls, ctx):
        return cls(ctx)

    @classmethod
    def constant(cls, ctx, c):
        return cls(ctx, {(0,) * ctx.nvars: Fraction(c)})

    @classmethod
    def variable(cls, ctx, name):
        i = ctx.index(name)
        exp = tuple(1 if j == i else 0 for j in range(ctx.nvars))
        return cls(ctx, {exp: Fraction(1)})

    # ---- structure ----------------------------------------------------

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return (
            isinstance(other, Polynomial)
            and self.ctx == other.ctx
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.ctx, frozenset(self.terms.items())))

    def monomial_degree(self, exp):
        return sum(e * d for e, d in zip(exp, self.ctx.degrees))

    def cohom_degree(self):
        """Cohomological degree of a homogeneous polynomial (0 if zero)."""
        degs = {self.monomial_degree(e) for e in self.terms}
        if not degs:
            return 0
        if len(degs) > 1:
            raise ValueError("polynomial is not homogeneous")
        return degs.pop()

    def is_homogeneous(self):
        return len({self.monomial_degree(e) for e in self.terms}) <= 1

    # ---- arithmetic ---------------------------------------------------

    def _check_ctx(self, other):
        if self.ctx != other.ctx:
            raise ValueError("polynomials live in different variable contexts")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(self.ctx, other)
        self._check_ctx(other)
        terms = dict(self.terms)
        for exp, c in other.terms.items():
            old = terms.get(exp)
            terms[exp] = c if old is None else old + c
        return Polynomial(self.ctx, terms)

    def __neg__(self):
        return Polynomial(self.ctx, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(self.ctx, other)
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        self._check_ctx(other)
        terms = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(map(add, e1, e2))
                c = c1 * c2
                old = terms.get(e)
                terms[e] = c if old is None else old + c
        return Polynomial(self.ctx, terms)

    __rmul__ = __mul__

    def scale(self, c):
        c = Fraction(c)
        return Polynomial(self.ctx, {e: c * v for e, v in self.terms.items()})

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative power")
        return _power(self, n, mul, Polynomial.constant(self.ctx, 1))

    # ---- printing -----------------------------------------------------

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for exp in sorted(self.terms, key=lambda e: (-sum(e), tuple(-x for x in e))):
            c = self.terms[exp]
            factors = []
            for name, e in zip(self.ctx.names, exp):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            coeff = str(c) if (abs(c) != 1 or not factors) else ("-" if c == -1 else "")
            body = "*".join(factors)
            if coeff and body:
                parts.append(f"{coeff}*{body}" if coeff not in ("", "-") else f"{coeff}{body}")
            else:
                parts.append(coeff or body)
        out = parts[0]
        for p in parts[1:]:
            out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return out

    __repr__ = __str__


def _power(base, n, times, one):
    """base**n by repeated squaring through times(a, b); `one` is base**0, and
    no product with it is formed."""
    result = None
    while n:
        if n & 1:
            result = base if result is None else times(result, base)
        n >>= 1
        if n:
            base = times(base, base)
    return one if result is None else result


@dataclass(frozen=True)
class LinearSubstitution:
    """Map sending each source variable to a polynomial in the target ring."""

    source: VariableContext
    target: VariableContext
    images: tuple  # one Polynomial in `target` per source variable

    def __post_init__(self):
        if len(self.images) != self.source.nvars:
            raise ValueError("one image per source variable")
        for img in self.images:
            if img.ctx != self.target:
                raise ValueError("image not in target context")

    @classmethod
    def identity(cls, ctx):
        return cls(ctx, ctx, tuple(Polynomial.variable(ctx, n) for n in ctx.names))


def power_products(gens, ctx):
    """Memoised lookup: exponent tuple e -> the product of gens[i]**e[i] in ctx.

    A new entry is a stored entry with one exponent lowered by 1, times that
    generator, so a table filled degree by degree costs one product per entry.
    """
    table = {(0,) * len(gens): Polynomial.constant(ctx, 1)}

    def product(exp):
        missing = []
        while exp not in table:
            i = max(j for j, e in enumerate(exp) if e)
            missing.append((exp, i))
            exp = exp[:i] + (exp[i] - 1,) + exp[i + 1 :]
        value = table[exp]
        for exp, i in reversed(missing):
            value = table[exp] = value * gens[i]
        return value

    return product


def substitute_linear(f: Polynomial, s: LinearSubstitution) -> Polynomial:
    """Apply the substitution to f; a ring homomorphism into the target."""
    if f.ctx != s.source:
        raise ValueError("polynomial does not live in the substitution source")
    product = power_products(s.images, s.target)
    terms = {}
    for exp, c in f.terms.items():
        for m, v in product(exp).terms.items():
            v = c * v
            old = terms.get(m)
            terms[m] = v if old is None else old + v
    return Polynomial(s.target, terms)


# ---- parser ------------------------------------------------------------

# A token, or else (second group) the rest of the text from the end of the
# last token, so `findall` covers the text in one pass.
_TOKEN = re.compile(r"\s*(\d+/\d+|\d+|[A-Za-z_][A-Za-z_0-9']*|[\^*+\-()])|(.+)", re.S)


def _tokenize(text):
    found = _TOKEN.findall(text)
    if found and found[-1][1]:
        rest = found[-1][1]
        pos = len(text) - len(rest)
        raise ValueError(f"cannot parse polynomial at position {pos}: {rest[:10]!r}")
    return [tok for tok, _ in found]


# Limits that keep parsing bounded.  Every multiplication the parser does,
# each one inside a power included, is refused before it is done if the
# product's polynomial degree would exceed MAX_DEGREE, if it multiplies more
# than MAX_TERMS pairs of terms, or if a product of two of its coefficients
# could need more than MAX_COEFFICIENT_BITS bits (numerator and denominator
# together); an exponent above MAX_DEGREE is refused too.  A product of
# atoms (numbers, variables and their powers) is folded into one monomial
# with the same checks: the sum of the two factors' degrees, and of their
# coefficient sizes, where a zero monomial has degree 0 and 0 bits.  A sum
# checks each coefficient against MAX_COEFFICIENT_BITS as a summand is added
# to it.  So the limit holds for every coefficient of every product's result
# as well: the result meets that check, or the next multiplication's, before
# any further work uses it.
MAX_DEGREE = 256
MAX_TERMS = 100_000
MAX_COEFFICIENT_BITS = 4096


def _bits(c):
    """Size of a coefficient, numerator and denominator together; 0 for zero."""
    return c.numerator.bit_length() + c.denominator.bit_length() if c else 0


def _degree(f):
    return max(map(sum, f.terms), default=0)


def _coefficient_bits(f):
    return max(map(_bits, f.terms.values()), default=0)


def _check_degree(degree):
    if degree > MAX_DEGREE:
        raise ValueError(f"polynomial degree {degree} exceeds the limit {MAX_DEGREE}")


def _check_coefficient_bits(bits):
    if bits > MAX_COEFFICIENT_BITS:
        raise ValueError(
            f"coefficients of up to {bits} bits exceed the limit of {MAX_COEFFICIENT_BITS} bits"
        )


def _bounded_product(a, b):
    _check_degree(_degree(a) + _degree(b))
    if len(a.terms) * len(b.terms) > MAX_TERMS:
        raise ValueError(
            f"product of {len(a.terms)} and {len(b.terms)} terms exceeds "
            f"the limit of {MAX_TERMS} term pairs"
        )
    _check_coefficient_bits(_coefficient_bits(a) + _coefficient_bits(b))
    return a * b


def _monomial_product(a, b):
    """Product of monomials (exp, c), checked as `_bounded_product` checks
    the product of their one-term Polynomials.  A zero monomial keeps the
    zero exponent."""
    (e1, c1), (e2, c2) = a, b
    _check_degree(sum(e1) + sum(e2))
    _check_coefficient_bits(_bits(c1) + _bits(c2))
    if not c1:
        return a
    if not c2:
        return b
    return tuple(map(add, e1, e2)), c1 * c2


class _Parser:
    """Recursive descent.  A product of atoms (numbers, variables and their
    powers) is folded into one monomial, a pair (exponent tuple, coefficient),
    by `_monomial_product`, with no Polynomial in between; an integer
    coefficient stays an int until a Polynomial is built.  Only a
    parenthesised factor goes through Polynomial multiplication in
    `_bounded_product`, and the rest of its product does too, one factor at
    a time.  So every limit fires at the same step, with the same message,
    as if each factor were a Polynomial.  A sum adds each summand's signed
    terms into one dict and builds one Polynomial at the end, so it never
    copies a running sum."""

    def __init__(self, tokens, ctx):
        # None marks the end; every path that takes it raises at once.
        self.tokens = tokens + [None]
        self.pos = 0
        self.ctx = ctx
        self.one = ((0,) * ctx.nvars, 1)
        self.variables = {}  # name -> monomial, built at its first use

    def peek(self):
        return self.tokens[self.pos]

    def take(self):
        self.pos += 1
        return self.tokens[self.pos - 1]

    def polynomial(self, factor):
        return Polynomial(self.ctx, dict((factor,))) if type(factor) is tuple else factor

    def parse_sum(self):
        terms = {}
        op = self.take() if self.peek() == "-" else "+"
        while True:
            product = self.parse_product()
            for exp, c in (product,) if type(product) is tuple else product.terms.items():
                if op == "-":
                    c = -c
                old = terms.get(exp)
                if old is not None:
                    c += old
                _check_coefficient_bits(_bits(c))
                terms[exp] = c
            if self.peek() not in ("+", "-"):
                return Polynomial(self.ctx, terms)
            op = self.take()

    def parse_product(self):
        """A monomial if every factor is an atom, else a Polynomial."""
        result = self.parse_power()
        while True:
            nxt = self.peek()
            if nxt == "*":
                self.take()
            elif nxt is None or nxt in ("+", "-", ")", "^"):
                return result
            # else an implicit product, e.g. "2x" or "x y"
            factor = self.parse_power()
            if type(result) is tuple and type(factor) is tuple:
                result = _monomial_product(result, factor)
            else:
                result = _bounded_product(self.polynomial(result), self.polynomial(factor))

    def parse_power(self):
        tok = self.take()
        if tok == "(":
            base = self.parse_sum()
            if self.take() != ")":
                raise ValueError("unbalanced parenthesis")
        else:
            base = self.parse_atom(tok)
        if self.peek() != "^":
            return base
        self.take()
        exp_tok = self.take()
        if exp_tok is None or not exp_tok.isdigit():
            raise ValueError("exponent must be a natural number")
        e = int(exp_tok)
        if e > MAX_DEGREE:
            raise ValueError(f"exponent {e} exceeds the limit {MAX_DEGREE}")
        if type(base) is tuple:
            return _power(base, e, _monomial_product, self.one)
        return _power(base, e, _bounded_product, Polynomial.constant(self.ctx, 1))

    def parse_atom(self, tok):
        """The monomial of a number or variable token."""
        if tok is None:
            raise ValueError("unexpected end of polynomial")
        if tok[0].isdecimal():
            try:
                return self.one[0], Fraction(tok) if "/" in tok else int(tok)
            except ZeroDivisionError:
                raise ValueError(f"zero denominator in {tok!r}") from None
        monomial = self.variables.get(tok)
        if monomial is None:
            if tok not in self.ctx.names:
                raise ValueError(f"unknown variable {tok!r}")
            exp = tuple(int(name == tok) for name in self.ctx.names)
            monomial = self.variables[tok] = exp, 1
        return monomial


def parse_polynomial(text: str, ctx: VariableContext) -> Polynomial:
    """Parse ASCII polynomial text like `2*x2^2 + 2*x2*x3 + 2*x3^2`."""
    tokens = _tokenize(text)
    if not tokens:
        return Polynomial.zero(ctx)
    parser = _Parser(tokens, ctx)
    result = parser.parse_sum()
    if parser.peek() is not None:
        raise ValueError(f"trailing input in polynomial: {parser.peek()!r}")
    return result


# ---- Weyl invariant generators -----------------------------------------


def _elementary_symmetric(polys, k):
    """e_k of the given polynomials, computed via the generating product."""
    ctx = polys[0].ctx
    # coefficients of prod (1 + t*p_i) up to t^k
    coeffs = [Polynomial.constant(ctx, 1)] + [Polynomial.zero(ctx)] * k
    for p in polys:
        for j in range(min(k, len(coeffs) - 1), 0, -1):
            coeffs[j] = coeffs[j] + coeffs[j - 1] * p
    return coeffs[k]


def weyl_invariant_generators(family: str, rank: int):
    """Generating invariants of the Weyl group, with cohomological degrees.

    Families: A (rank >= 1, in rank+1 trace-zero coordinates), B and C
    (rank >= 1), D (rank >= 2), G2.  Returns a list of (polynomial, degree)
    pairs; all variables sit in cohomological degree 2.
    """
    family = family.upper()
    if family == "G2":
        if rank not in (0, 2):
            raise ValueError("G2 has rank 2")
        ctx = VariableContext.standard(("x1", "x2", "x3"))
        xs = [Polynomial.variable(ctx, n) for n in ctx.names]
        e2 = _elementary_symmetric(xs, 2)
        e3 = _elementary_symmetric(xs, 3)
        return [(e2, 4), (e3 * e3, 12)]
    if rank < 1:
        raise ValueError("rank must be at least 1")
    if family == "A":
        ctx = VariableContext.standard(tuple(f"x{i+1}" for i in range(rank + 1)))
        xs = [Polynomial.variable(ctx, n) for n in ctx.names]
        return [(_elementary_symmetric(xs, k), 2 * k) for k in range(2, rank + 2)]
    if family in ("B", "C"):
        ctx = VariableContext.standard(tuple(f"x{i+1}" for i in range(rank)))
        sq = [Polynomial.variable(ctx, n) ** 2 for n in ctx.names]
        return [(_elementary_symmetric(sq, k), 4 * k) for k in range(1, rank + 1)]
    if family == "D":
        if rank < 2:
            raise ValueError("family D needs rank >= 2")
        ctx = VariableContext.standard(tuple(f"x{i+1}" for i in range(rank)))
        xs = [Polynomial.variable(ctx, n) for n in ctx.names]
        sq = [x**2 for x in xs]
        gens = [(_elementary_symmetric(sq, k), 4 * k) for k in range(1, rank)]
        pfaffian = xs[0]
        for x in xs[1:]:
            pfaffian = pfaffian * x
        gens.append((pfaffian, 2 * rank))
        return gens
    raise ValueError(f"unsupported family {family!r}")


def signed_permutation_group(n, even_signs_only=False):
    """All signed permutations of n coordinates, as substitution images.

    Yields lists of (sign, index) meaning x_i maps to sign * x_{index}.
    """
    for perm in permutations(range(n)):
        for signs in product((1, -1), repeat=n):
            if even_signs_only and signs.count(-1) % 2 != 0:
                continue
            yield list(zip(signs, perm))


def apply_signed_permutation(f: Polynomial, action) -> Polynomial:
    ctx = f.ctx
    images = []
    for sign, idx in action:
        images.append(Polynomial.variable(ctx, ctx.names[idx]).scale(sign))
    sub = LinearSubstitution(ctx, ctx, tuple(images))
    return substitute_linear(f, sub)
