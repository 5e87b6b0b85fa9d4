"""Buchberger's algorithm, normal forms, ideal membership, quotient series.

Coefficients are exact rationals throughout.  The default order is grevlex;
all quantities consumed elsewhere in the package (membership verdicts,
quotient dimensions) are independent of the order.

Reduction works in place on a `{exponent: Fraction}` dict and takes the next
leading monomial from a heap.  Buchberger keeps its S-pairs in a heap by
lcm (the normal selection strategy) and prunes them with the Gebauer-Moller
criteria (J. Symbolic Comput. 6, 1988).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from heapq import heapify, heappop, heappush
from operator import add, le, mul, sub

from .poly import Polynomial, VariableContext


@dataclass(frozen=True)
class MonomialOrder:
    """Graded or lexicographic monomial order; the first variable is highest."""

    kind: str = "grevlex"  # grevlex | grlex | lex

    def __post_init__(self):
        if self.kind not in ("grevlex", "grlex", "lex"):
            raise ValueError(f"unknown monomial order {self.kind!r}")

    def key(self, exp):
        if self.kind == "lex":
            return exp
        if self.kind == "grlex":
            return (sum(exp), exp)
        return (sum(exp), tuple(-x for x in reversed(exp)))

    def _heap_key(self, exp):
        """Flat tuple that sorts larger monomials first: `key` negated."""
        if self.kind == "lex":
            return tuple(-x for x in exp)
        if self.kind == "grlex":
            return (-sum(exp), *(-x for x in exp))
        return (-sum(exp), *reversed(exp))


GREVLEX = MonomialOrder("grevlex")


def leading_term(f: Polynomial, order: MonomialOrder):
    """(exponent, coefficient) of the leading monomial of a nonzero f."""
    exp = max(f.terms, key=order.key)
    return exp, f.terms[exp]


def _divides(a, b):
    return all(map(le, a, b))


def _divisor(g, order):
    """(lead exponent, lead coefficient, other terms) of a nonzero g."""
    lead, lc = leading_term(g, order)
    return lead, lc, [(e, c) for e, c in g.terms.items() if e != lead]


def s_polynomial(f, g, order):
    ef, cf = leading_term(f, order)
    eg, cg = leading_term(g, order)
    lcm = tuple(map(max, ef, eg))
    terms = {}
    for p, lead, scale in ((f, ef, 1 / cf), (g, eg, -1 / cg)):
        shift = tuple(map(sub, lcm, lead))
        for e, c in p.terms.items():
            e = tuple(map(add, e, shift))
            c = scale * c
            old = terms.get(e)
            terms[e] = c if old is None else old + c
    return Polynomial(f.ctx, terms)


class _Reducers:
    """Divisors for `normal_form` whose leading terms are already known."""

    __slots__ = ("order", "generators", "table")

    def __init__(self, order, generators, table):
        self.order = order
        self.generators = generators
        self.table = table  # one `_divisor` entry per generator


def _division_table(basis, order):
    if isinstance(basis, _Reducers) and basis.order == order:
        return basis.table
    if hasattr(basis, "generators"):
        basis = basis.generators
    return [_divisor(g, order) for g in basis if g]


def normal_form(f: Polynomial, basis, order: MonomialOrder = GREVLEX, chooser=None):
    """Remainder of full multivariate division of f by the given basis.

    `chooser(candidates)` may pick among the reducers whose leading term
    divides the current one; the default takes the first.  For a Groebner
    basis the result does not depend on this choice.
    """
    table = _division_table(basis, order)
    heap_key = order._heap_key
    work = dict(f.terms)
    # Lazy deletion: a heap entry whose exponent has left `work` is skipped.
    heap = [(heap_key(e), e) for e in work]
    heapify(heap)
    remainder = {}
    while heap:
        exp = heappop(heap)[1]
        coeff = work.pop(exp, None)
        if coeff is None:
            continue
        if chooser is None:
            hit = next((d for d in table if all(map(le, d[0], exp))), None)
        else:
            candidates = [i for i, d in enumerate(table) if all(map(le, d[0], exp))]
            hit = table[chooser(candidates)] if candidates else None
        if hit is None:
            remainder[exp] = coeff
            continue
        lead, lc, tail = hit
        q = coeff / lc
        shift = tuple(map(sub, exp, lead))
        for e, c in tail:
            e = tuple(map(add, e, shift))
            v = work.get(e)
            if v is None:
                work[e] = -q * c
                heappush(heap, (heap_key(e), e))
            else:
                v -= q * c
                if v:
                    work[e] = v
                else:
                    del work[e]
    return Polynomial(f.ctx, remainder)


@dataclass(frozen=True)
class GroebnerBasis:
    """Reduced Groebner basis: monic, auto-reduced generators."""

    order: MonomialOrder
    generators: tuple

    def __iter__(self):
        return iter(self.generators)

    def __len__(self):
        return len(self.generators)


def _interreduce(basis, order):
    """Reduced basis from a Groebner basis with distinct leads, sorted by lead.

    Elements whose lead is divisible by another lead are dropped; each
    survivor's tail is then reduced once by the survivors.  No tail term can
    be divisible by its own lead, so the survivor itself may stay among the
    reducers.
    """
    entries = [_divisor(g, order) for g in basis]
    leads = [d[0] for d in entries]
    keep = [
        i
        for i, lead in enumerate(leads)
        if not any(_divides(other, lead) for j, other in enumerate(leads) if j != i)
    ]
    reducers = _Reducers(order, [basis[i] for i in keep], [entries[i] for i in keep])
    reduced = []
    for i in keep:
        lead, lc, tail = entries[i]
        r = normal_form(Polynomial(basis[i].ctx, dict(tail)), reducers, order)
        terms = {lead: Fraction(1)}
        terms.update((e, c / lc) for e, c in r.terms.items())
        reduced.append(Polynomial(basis[i].ctx, terms))
    reduced.sort(key=lambda g: order.key(leading_term(g, order)[0]))
    return reduced


def buchberger(gens, order: MonomialOrder = GREVLEX, degree_cutoff=None):
    """Reduced Groebner basis of the ideal generated by gens.

    S-pairs are taken by smallest lcm first.  Each new element h enters
    through the Gebauer-Moller update.  Of the new pairs (g, h), those whose
    lcm is a multiple of another new pair's lcm (keeping one of equal lcms)
    and then those with coprime leads are dropped: criteria M and F, and
    Buchberger's first criterion.  An old pair (f, g) is dropped when lt(h)
    divides L = lcm(f, g) while lcm(f, h) != L and lcm(g, h) != L: criterion
    B, the chain criterion.  Elements whose lead lt(h) divides leave the set
    that S-polynomials are reduced by.

    With `degree_cutoff` set, S-pairs whose lcm has cohomological degree
    above the cutoff are skipped.  For homogeneous input the elements of
    degree <= cutoff are then exactly the elements of degree <= cutoff of
    the reduced Groebner basis, the unique truncated reduced basis; elements
    above the cutoff are not guaranteed to be reduced, or to be in the
    reduced basis at all.
    """
    polys = [g for g in gens if g]
    if not polys:
        return GroebnerBasis(order, ())
    ctx = polys[0].ctx
    for g in polys:
        if g.ctx != ctx:
            raise ValueError("generators live in different variable contexts")
    key = order.key
    elements, entries = [], []  # every element ever added, and its divisor entry
    active = []  # indices of the elements S-polynomials are reduced by
    pairs = []  # heap of (key(lcm), i, j, lcm)

    def too_high(lcm):
        return degree_cutoff is not None and sum(map(mul, lcm, ctx.degrees)) > degree_cutoff

    def update(h):
        nonlocal pairs, active
        k = len(elements)
        elements.append(h)
        entries.append(_divisor(h, order))
        eh = entries[k][0]
        new = [(i, tuple(map(max, entries[i][0], eh))) for i in active]
        kept = []
        for n, (i, lcm) in enumerate(new):
            coprime = lcm == tuple(map(add, entries[i][0], eh))
            if coprime or not (
                any(_divides(other, lcm) for _, other in new[n + 1 :])
                or any(_divides(other, lcm) for _, other, _ in kept)
            ):
                kept.append((i, lcm, coprime))
        pairs = [
            p
            for p in pairs
            if not (
                _divides(eh, p[3])
                and tuple(map(max, entries[p[1]][0], eh)) != p[3]
                and tuple(map(max, entries[p[2]][0], eh)) != p[3]
            )
        ]
        pairs += [(key(lcm), i, k, lcm) for i, lcm, coprime in kept if not (coprime or too_high(lcm))]
        heapify(pairs)
        active = [i for i in active if not _divides(eh, entries[i][0])] + [k]
        return _Reducers(order, [elements[i] for i in active], [entries[i] for i in active])

    for g in polys:
        reducers = update(g)
    while pairs:
        _, i, j, _ = heappop(pairs)
        r = normal_form(s_polynomial(elements[i], elements[j], order), reducers, order)
        if r:
            reducers = update(r)
    return GroebnerBasis(order, tuple(_interreduce(reducers.generators, order)))


def ideal_member(f: Polynomial, gens, order: MonomialOrder = GREVLEX) -> bool:
    """True iff f lies in the ideal generated by gens."""
    if not f:
        return True
    gb = buchberger(list(gens), order)
    return not normal_form(f, gb, order)


def _standard_monomials(leads, weights, cutoff):
    """(exponent, weighted degree) of each monomial outside the staircase.

    Lists every monomial of weighted degree <= cutoff that no lead divides,
    in ascending exponent order.  Coordinate i is raised over a zero-padded
    prefix only until the prefix lies in the staircase, since every larger
    exponent does too.  A lead whose last nonzero coordinate is i is tested
    only at depth i: the prefixes above passed every lead that ends earlier.
    """
    n = len(weights)
    last = [max((i for i, e in enumerate(lead) if e), default=-1) for lead in leads]
    if -1 in last:  # the ideal is the whole ring
        return []
    tests = [[lead[: i + 1] for lead, end in zip(leads, last) if end == i] for i in range(n)]
    exp = [0] * n
    found = []

    def rec(i, degree):
        if i == n:
            found.append((tuple(exp), degree))
            return
        tested, weight = tests[i], weights[i]
        while degree <= cutoff:
            if any(all(map(le, lead, exp)) for lead in tested):
                break
            rec(i + 1, degree)
            exp[i] += 1
            degree += weight
        exp[i] = 0

    rec(0, 0)
    return found


def quotient_poincare(gens, ctx: VariableContext, cutoff: int):
    """Dimensions by cohomological degree of the graded quotient ring.

    Counts standard monomials outside the leading-term staircase of a
    (degree-truncated) Groebner basis; entries indexed 0..cutoff.
    """
    gens = [g for g in gens if g]
    for g in gens:
        if g.ctx != ctx:
            raise ValueError("generator outside the given context")
        if not g.is_homogeneous():
            raise ValueError(f"non-homogeneous generator: {g}")
    gb = buchberger(gens, GREVLEX, degree_cutoff=cutoff)
    leads = [leading_term(g, GREVLEX)[0] for g in gb]
    dims = [0] * (cutoff + 1)
    for _, degree in _standard_monomials(leads, ctx.degrees, cutoff):
        dims[degree] += 1
    return dims
