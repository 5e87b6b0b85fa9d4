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
from, no S-pair reduces to zero.  From one generator to the next the
reduced basis is kept as (lead, coefficient, tail) entries, and after each
generator only the tails in which a new lead divides a term are reduced
again; polynomials are built only for S-polynomials and for the result.

Quotient series take the Hilbert numerator of the lead ideal by the
colon-ideal recursion (D. Bayer and M. Stillman, J. Symbolic Comput. 14,
1992; A. M. Bigatti, J. Pure Appl. Algebra 119, 1997), so their cost
depends on the leads, not on the number of standard monomials.
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

    __slots__ = ("table", "signatures", "bound")

    def __init__(self, table, signatures=None, bound=None):
        self.table = table  # `_divisor` entries
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
    regular = None
    if bound is not None:
        key, top, signatures = order.key, order.key(bound), basis.signatures

        def regular(i, exp):
            sig = signatures[i]
            return sig is None or key(tuple(map(sub, map(add, sig, exp), table[i][0]))) > top

    return Polynomial(f.ctx, _reduce(f.terms, table, order, regular))


def _reduce(terms, table, order, regular=None):
    """Remainder of `terms` by the `_divisor` entries of `table`, as a dict.

    `terms` maps exponents to coefficients, as a dict or as pairs; the
    remainder lists its terms in decreasing order.  `regular(i, exp)`, when
    given, says whether entry i may reduce x^exp.
    """
    key = order.key
    work = dict(terms)
    # Lazy deletion: a heap entry whose exponent has left `work` is skipped.
    heap = [(key(e), e) for e in work]
    heapify(heap)
    remainder = {}
    while heap:
        exp = heappop(heap)[1]
        coeff = work.pop(exp, None)
        if coeff is None:
            continue
        if regular is None:
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
    return remainder


def _interreduce(entries, first, order):
    """Reduced basis, as monic `_divisor` entries sorted by lead.

    `entries` is a Groebner basis whose first `first` entries are a reduced
    basis, and no term of a later entry is divisible by one of their leads.
    Elements whose lead is divisible by another lead are dropped, except the
    first of equal leads; only a later lead can divide another.  A survivor
    keeps its tail, already reduced by the earlier leads, unless a later
    survivor's lead divides one of its terms; then the tail is reduced once
    by the survivors.  No tail term can be divisible by its own lead, so the
    survivor itself may stay among the reducers.
    """
    leads = [d[0] for d in entries]
    keep = [
        i
        for i, lead in enumerate(leads)
        if not any(
            _divides(other, lead) and (other != lead or j < i)
            for j, other in enumerate(leads[first:], first)
            if j != i
        )
    ]
    table = [entries[i] for i in keep]
    new = [leads[i] for i in keep if i >= first]
    reduced = []
    for lead, lc, tail in table:
        if any(_divides(n, e) for e, _ in tail for n in new):
            tail = list(_reduce(tail, table, order).items())
        if lc != 1:
            tail = [(e, c / lc) for e, c in tail]
        reduced.append((lead, Fraction(1), tail))
    reduced.sort(key=lambda d: order.key(d[0]), reverse=True)
    return reduced


def _extend(lower, f, order, too_high):
    """Groebner basis of the ideal of lower + [f], as `_divisor` entries.

    `lower` is a Groebner basis given as `_divisor` entries, and they come
    first in the result; every later element is reduced by them.  Each new
    element h carries a signature t: h = a*f + b, where b lies in the ideal
    of `lower` and a has leading monomial t, so signatures order like the
    multiples t*f.  The S-pair of h and g has the larger of their signatures
    times the cofactors; a pair whose signatures are equal is singular and
    skipped.  Pairs are taken in increasing signature order, and one is
    skipped when its signature s is divisible by a lead of `lower` or by a
    signature that reduced to zero (syzygy criterion), when an element added
    after its larger-signature member has a signature dividing s (rewrite
    criterion), or when a pair of signature s was reduced already.  An
    S-polynomial is reduced freely by `lower` and regularly, below s, by the
    new elements; a remainder whose lead is reducible at signature exactly s
    adds nothing and is dropped.
    """
    key = order.key
    first = len(lower)
    reducers = _Reducers(list(lower), [None] * first)
    table, signatures = reducers.table, reducers.signatures
    h = normal_form(f, reducers, order)
    if not h:
        return table
    syzygies = [lead for lead, _, _ in lower]
    polys = [None] * first  # the Polynomial of an entry, once s_polynomial needs it
    pairs = []  # heap of (-key(s), i, j, s): S(i, j) of signature s, i's the larger

    def poly(i):
        if polys[i] is None:
            lead, lc, tail = table[i]
            polys[i] = Polynomial(f.ctx, dict([(lead, lc), *tail]))
        return polys[i]

    def insert(h, entry, sig):
        k, lead = len(table), entry[0]
        for i, (other, _, _) in enumerate(table):
            lcm = tuple(map(max, lead, other))
            if too_high(lcm):
                continue
            big, small, s = k, i, tuple(map(add, sig, map(sub, lcm, lead)))
            if i >= first:
                t = tuple(map(add, signatures[i], map(sub, lcm, other)))
                if t == s:
                    continue
                if key(t) < key(s):
                    big, small, s = i, k, t
            if not any(_divides(z, s) for z in syzygies):
                heappush(pairs, (tuple(-x for x in key(s)), big, small, s))
        polys.append(h)
        table.append(entry)
        signatures.append(sig)

    insert(h, _divisor(h, order), (0,) * f.ctx.nvars)
    done = None
    while pairs:
        _, i, j, s = heappop(pairs)
        if (
            s == done
            or any(_divides(z, s) for z in syzygies)
            or any(_divides(t, s) for t in signatures[i + 1 :])
        ):
            continue
        done = reducers.bound = s
        h = normal_form(s_polynomial(poly(i), poly(j), order), reducers, order)
        reducers.bound = None
        if not h:
            syzygies.append(s)
            continue
        entry = _divisor(h, order)
        lead = entry[0]
        if not any(
            _divides(other, lead) and tuple(map(add, sig, map(sub, lead, other))) == s
            for (other, _, _), sig in zip(table[first:], signatures[first:])
        ):
            insert(h, entry, s)
    return table


def buchberger(gens, order: MonomialOrder = GREVLEX, degree_cutoff=None):
    """Reduced Groebner basis of the ideal generated by gens, as a tuple.

    The basis is monic and sorted by lead, smallest first.  The generators
    are added one at a time, smallest lead first.  The reduced basis so far
    is kept as `_divisor` entries (lead, coefficient, tail): the next
    generator's signature-based loop (`_extend`, F5) reduces by them freely,
    their leads serve the syzygy criterion, and `_interreduce` makes the
    result reduced again, reducing only the tails that a new lead divides a
    term of.  On a regular sequence no S-pair reduces to zero.

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
        basis = _interreduce(_extend(basis, f, order, too_high), len(basis), order)
    return tuple(Polynomial(ctx, dict([(lead, lc), *tail])) for lead, lc, tail in basis)


def ideal_member(f: Polynomial, gens, order: MonomialOrder = GREVLEX) -> bool:
    """True iff f lies in the ideal generated by gens."""
    if not f:
        return True
    gb = buchberger(list(gens), order)
    return not normal_form(f, gb, order)


def _hilbert_numerator(leads, weights, cutoff):
    """Coefficients 0..cutoff of the Hilbert numerator N(t) of (leads).

    The quotient of the polynomial ring by the monomial ideal (m_1..m_s) has
    series N(t) / prod(1 - t^w), and N(m_1..m_s) = 1 - sum over k of
    t^deg(m_k) * N((m_1..m_(k-1)) : m_k), where the colon ideal is generated
    by the m_i / gcd(m_i, m_k).  Only minimal generators of degree <= cutoff
    are kept, so a branch shifted past the cutoff is never entered.  A zero
    lead (the unit ideal) cancels the constant term.
    """
    gens = []
    for m in sorted(leads, key=sum):  # a divisor of m comes before m
        degree = sum(map(mul, m, weights))
        if degree <= cutoff and not any(_divides(g, m) for g, _ in gens):
            gens.append((m, degree))
    numerator = [int(d == 0) for d in range(cutoff + 1)]
    for k, (m, degree) in enumerate(gens):
        colon = [tuple(map(sub, map(max, g, m), m)) for g, _ in gens[:k]]
        for i, c in enumerate(_hilbert_numerator(colon, weights, cutoff - degree), degree):
            numerator[i] -= c
    return numerator


def quotient_poincare(gens, ctx: VariableContext, cutoff: int):
    """Dimensions by cohomological degree of the graded quotient ring.

    The quotient has the Hilbert series of the ideal of the leading terms
    of a (degree-truncated) Groebner basis.  Its numerator comes from the
    leads alone (`_hilbert_numerator`) and is divided by prod(1 - t^w) over
    the variable degrees w, by prefix sums; entries indexed 0..cutoff.
    """
    gens = [g for g in gens if g]
    for g in gens:
        if g.ctx != ctx:
            raise ValueError("generator outside the given context")
        if not g.is_homogeneous():
            raise ValueError(f"non-homogeneous generator: {g}")
    gb = buchberger(gens, GREVLEX, degree_cutoff=cutoff)
    leads = [leading_term(g, GREVLEX)[0] for g in gb]
    dims = _hilbert_numerator(leads, ctx.degrees, cutoff)
    for w in ctx.degrees:  # divide by 1 - t^w
        for k in range(w, cutoff + 1):
            dims[k] += dims[k - w]
    return dims
