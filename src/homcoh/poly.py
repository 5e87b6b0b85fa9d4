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

# A token.  Digits are ASCII: `\d` would match every Unicode decimal digit.
_TOKEN = re.compile(r"[\^*+\-()]|[A-Za-z_][A-Za-z_0-9']*|[0-9]+(?:/[0-9]+)?")


def _tokenize(text):
    """The tokens of the text, where every other character is white space before a token."""
    tokens = _TOKEN.findall(text)
    if len("".join(tokens)) != len("".join(text.split())) or text[-1:].isspace():
        pos = 0  # the end of the last token with only white space before it
        for match in _TOKEN.finditer(text):
            if text[pos : match.start()].strip():
                break
            pos = match.end()
        raise ValueError(f"cannot parse polynomial at position {pos}: {text[pos : pos + 10]!r}")
    return tokens


# Limits that keep parsing bounded.  Every multiplication the parser does,
# each step of a power included, is refused before it is done if its
# polynomial degree would exceed MAX_DEGREE, if it multiplies more than
# MAX_TERMS pairs of terms, or if the largest coefficient sizes (`_bits`) of
# its factors add up to more than MAX_COEFFICIENT_BITS.  A sum checks each
# coefficient as a summand is added to it, so every result meets that limit
# before further work uses it.  An exponent above MAX_DEGREE is refused, and
# so is nesting deeper than MAX_DEPTH: the recursion takes two calls a level.
MAX_DEGREE = 256
MAX_TERMS = 100_000
MAX_COEFFICIENT_BITS = 4096
MAX_DEPTH = 100


def _bits(c):
    """Size of a coefficient, numerator and denominator together; 0 for zero."""
    return c.numerator.bit_length() + c.denominator.bit_length() if c else 0


def _degree_error(degree):
    return ValueError(f"polynomial degree {degree} exceeds the limit {MAX_DEGREE}")


def _bits_error(bits):
    limit = MAX_COEFFICIENT_BITS
    return ValueError(f"coefficients of up to {bits} bits exceed the limit of {limit} bits")


def _bounded_product(a, b):
    degree = sum(max(map(sum, f.terms), default=0) for f in (a, b))
    if degree > MAX_DEGREE:
        raise _degree_error(degree)
    na, nb = len(a.terms), len(b.terms)
    if na * nb > MAX_TERMS:
        raise ValueError(
            f"product of {na} and {nb} terms exceeds the limit of {MAX_TERMS} term pairs"
        )
    bits = sum(max(map(_bits, f.terms.values()), default=0) for f in (a, b))
    if bits > MAX_COEFFICIENT_BITS:
        raise _bits_error(bits)
    return a * b


_EXPONENTS = {str(e): e for e in range(MAX_DEGREE + 1)}  # the allowed ones, by their text
_PRODUCT_END = frozenset((None, "+", "-", ")", "^"))  # the tokens that end a product


class _Parser:
    """Recursive descent, one level per parenthesis.  One loop reads a
    product of atoms (numbers, variables and their powers) into a monomial:
    an exponent list updated in place, an int or Fraction coefficient, and
    its degree and coefficient size as ints, so each limit check is one
    comparison.  From its first parenthesised factor or number power on, a
    product takes `_bounded_product` one factor at a time.  Both ways check
    the same numbers, so a limit fires at the same step and with the same
    message either way.  A sum adds each summand's signed terms into one dict."""

    def __init__(self, tokens, ctx):
        # None marks the end; every path that reads it as a factor raises.
        self.tokens = tokens + [None]
        self.pos = self.depth = 0
        self.ctx = ctx
        # The names a token can stand for: "(" opens a group, a digit a number.
        self.slots = {x: i for i, x in enumerate(ctx.names) if x != "(" and not x[:1].isdigit()}

    def parse_sum(self):
        tokens, terms = self.tokens, {}
        negate = tokens[self.pos] == "-"
        self.pos += negate
        while True:
            product = self.parse_product()
            for exp, c in (product,) if type(product) is tuple else product.terms.items():
                c = terms.get(exp, 0) + (-c if negate else c)
                if _bits(c) > MAX_COEFFICIENT_BITS:
                    raise _bits_error(_bits(c))
                terms[exp] = c
            tok = tokens[self.pos]
            if tok != "+" and tok != "-":
                return Polynomial(self.ctx, terms)
            negate = tok == "-"
            self.pos += 1

    def parse_product(self):
        """A monomial (exponent tuple, coefficient), or a Polynomial."""
        tokens, slots, ctx = self.tokens, self.slots, self.ctx
        start = pos = self.pos
        exp, coeff, degree, bits = [0] * ctx.nvars, 1, 0, 2  # the monomial 1: _bits(1) is 2
        product = None
        while True:
            at, tok = pos, tokens[pos]
            slot = slots.get(tok)
            if slot is None:
                if tok == "(":
                    self.depth += 1
                    if self.depth > MAX_DEPTH:
                        raise ValueError(f"parentheses nested more than {MAX_DEPTH} deep")
                    self.pos = pos + 1
                    value = self.parse_sum()
                    self.depth -= 1
                    pos = self.pos
                    if tokens[pos] != ")":
                        raise ValueError("unbalanced parenthesis")
                elif tok is None:
                    raise ValueError("unexpected end of polynomial")
                elif tok[0].isdigit():
                    try:
                        value = Fraction(tok) if "/" in tok else int(tok)
                    except ZeroDivisionError:
                        raise ValueError(f"zero denominator in {tok!r}") from None
                else:
                    raise ValueError(f"unknown variable {tok!r}")
            pos += 1
            e = 1
            if tokens[pos] == "^":
                e = _EXPONENTS.get(tokens[pos + 1])
                if e is None:
                    e = tokens[pos + 1]
                    if e is None or not e.isdigit():
                        raise ValueError("exponent must be a natural number")
                    e = int(e)  # above MAX_DEGREE, or written with leading zeros
                    if e > MAX_DEGREE:
                        raise ValueError(f"exponent {e} exceeds the limit {MAX_DEGREE}")
                pos += 2

            if product is None and slot is not None:  # x^e: its coefficient 1 has 2 bits
                if coeff:  # a zero monomial stays zero, of degree 0 and 0 bits
                    if degree + e > MAX_DEGREE:
                        raise _degree_error(degree + e)
                    if bits > MAX_COEFFICIENT_BITS - 2:
                        raise _bits_error(bits + 2)
                    degree += e
                    exp[slot] += e
            elif product is None and e == 1 and type(value) is not Polynomial:  # a number
                if at > start and bits + _bits(value) > MAX_COEFFICIENT_BITS:
                    raise _bits_error(bits + _bits(value))
                if not value:
                    exp, coeff, degree, bits = [0] * ctx.nvars, 0, 0, 0
                elif coeff:
                    coeff *= value
                    bits = _bits(coeff)
            else:
                if slot is not None:
                    value = Polynomial.variable(ctx, tok)
                elif type(value) is not Polynomial:
                    value = Polynomial.constant(ctx, value)
                if e != 1:
                    value = _power(value, e, _bounded_product, Polynomial.constant(ctx, 1))
                if at > start and product is None:
                    product = Polynomial(ctx, {tuple(exp): coeff})
                product = value if at == start else _bounded_product(product, value)

            tok = tokens[pos]
            if tok == "*":
                pos += 1
            elif tok in _PRODUCT_END:
                self.pos = pos
                return (tuple(exp), coeff) if product is None else product
            # else an implicit product, e.g. "2x" or "x y"


def parse_polynomial(text: str, ctx: VariableContext) -> Polynomial:
    """Parse ASCII polynomial text like `2*x2^2 + 2*x2*x3 + 2*x3^2`."""
    tokens = _tokenize(text)
    if not tokens:
        return Polynomial.zero(ctx)
    parser = _Parser(tokens, ctx)
    result = parser.parse_sum()
    if parser.tokens[parser.pos] is not None:
        raise ValueError(f"trailing input in polynomial: {parser.tokens[parser.pos]!r}")
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
