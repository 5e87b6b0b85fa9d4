"""Buchberger's algorithm, normal forms, ideal membership, quotient series.

Coefficients are exact rationals throughout.  The default order is grevlex;
all quantities consumed elsewhere in the package (membership verdicts,
quotient dimensions) are independent of the order.

Reduction has one rule: the largest remaining term is divided by the first
basis element whose lead divides it and, under a signature bound, keeps the
signature below the bound.  It works in place on a `{exponent: Fraction}`
dict, taking terms from a heap keyed by `MonomialOrder.key`.  Buchberger is
signature-based and incremental (F5: J.-C. Faugere, ISSAC 2002; survey:
C. Eder and J.-C. Faugere, J. Symbolic Comput. 80, 2017): the generators
enter one at a time, and the S-pairs of each are taken by increasing
signature and pruned by the syzygy and rewrite criteria.  On a regular
sequence, such as the Weyl invariant ideals the Cartan models are built
from, no S-pair reduces to zero.
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
        """Flat tuple that sorts larger monomials first."""
        if self.kind == "lex":
            return tuple(-x for x in exp)
        if self.kind == "grlex":
            return (-sum(exp), *(-x for x in exp))
        return (-sum(exp), *reversed(exp))


GREVLEX = MonomialOrder("grevlex")


def leading_term(f: Polynomial, order: MonomialOrder):
    """(exponent, coefficient) of the leading monomial of a nonzero f."""
    exp = min(f.terms, key=order.key)
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
    """Divisors for `normal_form` whose leading terms are already known.

    With `bound` set, reduction is regular: an entry whose signature is t
    may reduce a term x^e only if t * x^(e - lead) lies below `bound` in the
    monomial order.  Entries whose signature is None reduce freely.
    """

    __slots__ = ("generators", "table", "signatures", "bound")

    def __init__(self, generators, table, signatures=None, bound=None):
        self.generators = generators
        self.table = table  # one `_divisor` entry per generator
        self.signatures = signatures
        self.bound = bound


def normal_form(f: Polynomial, basis, order: MonomialOrder = GREVLEX):
    """Remainder of full multivariate division of f by the given basis.

    Each term, largest first, is reduced by the first basis element whose
    leading term divides it.  For a Groebner basis the remainder does not
    depend on the order of the basis.  A `_Reducers` basis with a signature
    `bound` offers only the reducers that keep the signature below it (see
    `_Reducers`).
    """
    if isinstance(basis, _Reducers):
        table, bound = basis.table, basis.bound
    else:
        table, bound = [_divisor(g, order) for g in basis if g], None
    key = order.key
    if bound is not None:
        top, signatures = key(bound), basis.signatures

        def regular(i, exp):
            sig = signatures[i]
            return sig is None or key(tuple(map(sub, map(add, sig, exp), table[i][0]))) > top

    work = dict(f.terms)
    # Lazy deletion: a heap entry whose exponent has left `work` is skipped.
    heap = [(key(e), e) for e in work]
    heapify(heap)
    remainder = {}
    while heap:
        exp = heappop(heap)[1]
        coeff = work.pop(exp, None)
        if coeff is None:
            continue
        if bound is None:
            hit = next((d for d in table if all(map(le, d[0], exp))), None)
        else:
            hit = next(
                (d for i, d in enumerate(table) if all(map(le, d[0], exp)) and regular(i, exp)), None
            )
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
                heappush(heap, (key(e), e))
            else:
                v -= q * c
                if v:
                    work[e] = v
                else:
                    del work[e]
    return Polynomial(f.ctx, remainder)


def _interreduce(basis, order):
    """Reduced basis from a Groebner basis, sorted by lead.

    Elements whose lead is divisible by another lead are dropped, except the
    first of equal leads; each survivor's tail is then reduced once by the
    survivors.  No tail term can be divisible by its own lead, so the
    survivor itself may stay among the reducers.
    """
    entries = [_divisor(g, order) for g in basis]
    leads = [d[0] for d in entries]
    keep = [
        i
        for i, lead in enumerate(leads)
        if not any(
            _divides(other, lead) and (other != lead or j < i)
            for j, other in enumerate(leads)
            if j != i
        )
    ]
    reducers = _Reducers([basis[i] for i in keep], [entries[i] for i in keep])
    reduced = []
    for i in keep:
        lead, lc, tail = entries[i]
        r = normal_form(Polynomial(basis[i].ctx, dict(tail)), reducers, order)
        terms = {lead: Fraction(1)}
        terms.update((e, c / lc) for e, c in r.terms.items())
        reduced.append(Polynomial(basis[i].ctx, terms))
    reduced.sort(key=lambda g: order.key(leading_term(g, order)[0]), reverse=True)
    return reduced


def _extend(lower, f, order, too_high):
    """Groebner basis of the ideal of lower + [f]; `lower` is a Groebner basis.

    Each new element h carries a signature t: h = a*f + b, where b lies in
    the ideal of `lower` and a has leading monomial t, so signatures order
    like the multiples t*f.  The S-pair of h and g has the larger of their
    signatures times the cofactors; a pair whose signatures are equal is
    singular and skipped.  Pairs are taken in increasing signature order,
    and one is skipped when its signature s is divisible by a lead of
    `lower` or by a signature that reduced to zero (syzygy criterion), when
    an element added after its larger-signature member has a signature
    dividing s (rewrite criterion), or when a pair of signature s was
    reduced already.  An S-polynomial is reduced freely by `lower` and
    regularly, below s, by the new elements; a remainder whose lead is
    reducible at signature exactly s adds nothing and is dropped.
    """
    key = order.key
    first = len(lower)
    reducers = _Reducers(list(lower), [_divisor(g, order) for g in lower], [None] * first)
    h = normal_form(f, reducers, order)
    if not h:
        return reducers.generators
    syzygies = [lead for lead, _, _ in reducers.table]
    pairs = []  # heap of (-key(s), i, j, s): S(i, j) of signature s, i's the larger

    def insert(h, entry, sig):
        k, lead = len(reducers.table), entry[0]
        for i, (other, _, _) in enumerate(reducers.table):
            lcm = tuple(map(max, lead, other))
            if too_high(lcm):
                continue
            big, small, s = k, i, tuple(map(add, sig, map(sub, lcm, lead)))
            if i >= first:
                t = tuple(map(add, reducers.signatures[i], map(sub, lcm, other)))
                if t == s:
                    continue
                if key(t) < key(s):
                    big, small, s = i, k, t
            if not any(_divides(z, s) for z in syzygies):
                heappush(pairs, (tuple(-x for x in key(s)), big, small, s))
        reducers.generators.append(h)
        reducers.table.append(entry)
        reducers.signatures.append(sig)

    insert(h, _divisor(h, order), (0,) * f.ctx.nvars)
    done = None
    while pairs:
        _, i, j, s = heappop(pairs)
        if (
            s == done
            or any(_divides(z, s) for z in syzygies)
            or any(_divides(t, s) for t in reducers.signatures[i + 1 :])
        ):
            continue
        done = reducers.bound = s
        h = normal_form(s_polynomial(reducers.generators[i], reducers.generators[j], order), reducers, order)
        reducers.bound = None
        if not h:
            syzygies.append(s)
            continue
        entry = _divisor(h, order)
        lead = entry[0]
        if not any(
            _divides(other, lead) and tuple(map(add, sig, map(sub, lead, other))) == s
            for (other, _, _), sig in zip(reducers.table[first:], reducers.signatures[first:])
        ):
            insert(h, entry, s)
    return reducers.generators


def buchberger(gens, order: MonomialOrder = GREVLEX, degree_cutoff=None):
    """Reduced Groebner basis of the ideal generated by gens, as a tuple.

    The basis is monic and sorted by lead, smallest first.  The generators
    are added one at a time, smallest lead first; after each,
    `_interreduce` gives the reduced basis so far.  The next
    generator's signature-based loop (`_extend`, F5) reduces by that basis
    freely, and its leads serve the syzygy criterion.  On a regular
    sequence no S-pair reduces to zero.

    With `degree_cutoff` set, S-pairs whose lcm has cohomological degree
    above the cutoff are skipped.  For homogeneous input the elements of
    degree <= cutoff are then exactly the elements of degree <= cutoff of
    the reduced Groebner basis, the unique truncated reduced basis; elements
    above the cutoff are not guaranteed to be reduced, or to be in the
    reduced basis at all.
    """
    polys = [g for g in gens if g]
    if not polys:
        return ()
    ctx = polys[0].ctx
    for g in polys:
        if g.ctx != ctx:
            raise ValueError("generators live in different variable contexts")

    def too_high(lcm):
        return degree_cutoff is not None and sum(map(mul, lcm, ctx.degrees)) > degree_cutoff

    basis = []
    for f in sorted(polys, key=lambda g: order.key(leading_term(g, order)[0]), reverse=True):
        basis = _interreduce(_extend(basis, f, order, too_high), order)
    return tuple(basis)


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
    # rec reaches itself through its closure; emptying that cell frees
    # `found` with the caller's last reference, not at the next cyclic GC.
    del rec
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
