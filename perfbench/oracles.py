"""Reference values and output checks computed apart from homcoh.

Nothing here imports homcoh.  Series are integer coefficient lists indexed by
degree; polynomials are dicts {exponent tuple: Fraction}.  Every `check_*`
function raises CheckError with a message when an answer is wrong.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import combinations


class CheckError(AssertionError):
    pass


def require(condition, message):
    if not condition:
        raise CheckError(message)


# ---- power series in t ---------------------------------------------------


def pad(series, cutoff):
    """The series truncated or zero-padded to degrees 0..cutoff."""
    return (list(series) + [0] * (cutoff + 1))[: cutoff + 1]


def series_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def geometric_sum(step, count):
    """1 + t^step + ... + t^(step*(count-1))."""
    return [1 if k % step == 0 else 0 for k in range(step * (count - 1) + 1)]


def t2_factorial(n):
    """Poincare polynomial of the full flag U(n)/T^n: prod_k (1-t^2k)/(1-t^2)."""
    out = [1]
    for k in range(1, n + 1):
        out = series_mul(out, geometric_sum(2, k))
    return out


def gaussian_binomial_t2(n, k):
    """Gaussian binomial [n choose k] in q = t^2, by the q-Pascal rule."""
    if k < 0 or k > n:
        return [0]
    if k == 0 or k == n:
        return [1]
    left = gaussian_binomial_t2(n - 1, k - 1)
    right = [0] * (2 * k) + gaussian_binomial_t2(n - 1, k)
    size = max(len(left), len(right))
    return [x + y for x, y in zip(pad(left, size - 1), pad(right, size - 1))]


def regular_sequence_series(gen_degrees, var_degrees, cutoff):
    """Hilbert series prod(1 - t^deg f_i) / prod(1 - t^w_j) up to the cutoff."""
    out = pad([1], cutoff)
    for d in gen_degrees:
        out = [c - (out[k - d] if k >= d else 0) for k, c in enumerate(out)]
    for w in var_degrees:
        for k in range(w, cutoff + 1):
            out[k] += out[k - w]
    return out


def exterior_series(odd_degrees):
    """prod (1 + t^p)."""
    out = [1]
    for p in odd_degrees:
        out = series_mul(out, [1] + [0] * (p - 1) + [1])
    return out


def formal_dimension(even_degrees, odd_degrees):
    """Top degree of a pure Sullivan model with finite cohomology."""
    return sum(odd_degrees) - sum(d - 1 for d in even_degrees)


# so(8)/(so(3) x so(3)) through the catalog's rank-2 embedding: the
# restricted invariants of degree 4 and 8 form a regular sequence on two
# degree-4 generators, and y7', y11 survive, giving (1+t^4+t^8)(1+t^7)^2.
SO8_SO3SO3 = series_mul(geometric_sum(4, 3), exterior_series((7, 7)))


# ---- checks on cohomology ------------------------------------------------


def check_series(got, expected, cutoff, what):
    want = pad(expected, cutoff)
    require(list(got) == want, f"{what}: got {list(got)}, expected {want}")


def check_poincare_duality(dims, top, what):
    """dims[k] == dims[top - k]; only meaningful when dims reaches top."""
    require(len(dims) > top, f"{what}: cutoff below the top degree {top}")
    require(dims[top] == 1, f"{what}: top class has dimension {dims[top]}")
    for k in range(top + 1):
        require(
            dims[k] == dims[top - k],
            f"{what}: Poincare duality fails in degree {k} (top {top})",
        )


def check_zero_above(dims, top, what):
    bad = [k for k in range(top + 1, len(dims)) if dims[k]]
    require(not bad, f"{what}: nonzero cohomology above the top degree {top}: {bad}")


# ---- polynomials: a small independent implementation --------------------


def poly_add(a, b, scale=1):
    out = dict(a)
    for e, c in b.items():
        v = out.get(e, 0) + scale * c
        if v:
            out[e] = v
        else:
            out.pop(e, None)
    return out


def poly_mul(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def elementary_symmetric(polys, k, nvars):
    """e_k of the given polynomials, by summing products over k-subsets."""
    out = {}
    for subset in combinations(polys, k):
        term = {(0,) * nvars: 1}
        for p in subset:
            term = poly_mul(term, p)
        out = poly_add(out, term)
    return out


def poly_to_text(poly, names):
    """Render as text that homcoh's polynomial parser reads."""
    if not poly:
        return "0"
    parts = []
    for exp in sorted(poly, reverse=True):
        c = Fraction(poly[exp])
        factors = [n if e == 1 else f"{n}^{e}" for n, e in zip(names, exp) if e]
        mag = abs(c)
        body = "*".join(([str(mag)] if mag != 1 or not factors else []) + factors)
        parts.append(("-" if c < 0 else "+", body))
    text = ("-" if parts[0][0] == "-" else "") + parts[0][1]
    for sign, body in parts[1:]:
        text += f" {sign} {body}"
    return text


_FACTOR = re.compile(r"^([A-Za-z_][A-Za-z_0-9']*)(?:\^(\d+))?$")


def parse_poly_text(text, names):
    """Parse the `c*x^a*y^b + ...` form that homcoh prints for polynomials."""
    text = text.strip()
    poly = {}
    if text == "0":
        return poly
    sign = 1
    if text.startswith("-"):
        sign, text = -1, text[1:].lstrip()
    tokens = re.split(r" ([+-]) ", text)
    signs = [sign] + [1 if t == "+" else -1 for t in tokens[1::2]]
    index = {n: i for i, n in enumerate(names)}
    for s, term in zip(signs, tokens[0::2]):
        coeff = Fraction(s)
        exp = [0] * len(names)
        for factor in term.split("*"):
            if re.fullmatch(r"\d+(/\d+)?", factor):
                coeff *= Fraction(factor)
                continue
            m = _FACTOR.match(factor)
            require(m is not None and m.group(1) in index, f"unreadable term {term!r}")
            exp[index[m.group(1)]] += int(m.group(2) or 1)
        exp = tuple(exp)
        require(exp not in poly, f"repeated monomial in {text!r}")
        poly[exp] = coeff
    return poly


def grevlex_key(exp):
    """Graded reverse lexicographic order, first variable highest."""
    return (sum(exp), [-x for x in reversed(exp)])


def leading_monomial(poly):
    return max(poly, key=grevlex_key)


def _divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def check_reduced_basis(basis, what):
    """Monic, and no term of any element is divisible by another's leading term."""
    require(basis and all(basis), f"{what}: empty basis or zero element")
    leads = [leading_monomial(g) for g in basis]
    for i, g in enumerate(basis):
        require(g[leads[i]] == 1, f"{what}: element {i} is not monic")
        for j, lead in enumerate(leads):
            if j != i:
                for exp in g:
                    require(
                        not _divides(lead, exp),
                        f"{what}: a term of element {i} is divisible by the "
                        f"leading term of element {j}",
                    )


def sympy_reduced_basis(generator_texts, names, order="grevlex"):
    """Reduced Groebner basis from sympy as monomial dicts, or None without sympy."""
    try:
        import sympy
    except ImportError:
        return None
    symbols = sympy.symbols(names)
    local = dict(zip(names, symbols))
    polys = [sympy.sympify(t.replace("^", "**"), locals=local) for t in generator_texts]
    gb = sympy.groebner(polys, *symbols, order=order, domain="QQ")
    out = []
    for p in gb.exprs:
        poly = sympy.Poly(p, *symbols, domain="QQ").monic()
        out.append({exp: Fraction(int(c.p), int(c.q)) for exp, c in poly.terms()})
    return out


def check_same_basis(got, expected, what):
    require(
        sorted(sorted(g.items()) for g in got) == sorted(sorted(g.items()) for g in expected),
        f"{what}: reduced basis differs from the reference basis",
    )


# ---- obstruction verdicts from the catalog's own numbers -----------------


def parse_sections(text):
    """[kind name] sections of `key = value` lines, as (kind, name, fields)."""
    sections = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            kind, _, name = line.strip("[]").partition(" ")
            sections.append((kind, name.strip(), {}))
        elif "=" in line and sections:
            key, _, value = line.partition("=")
            sections[-1][2][key.strip()] = value.strip()
    return sections


def expected_reports(catalog_text, case_texts, cutoff):
    """Verdict and check data of each case, recomputed from catalog degrees.

    Returns (reports, exit_code).  Each report holds the case name, verdict
    and the per-check numbers {check: {key: value}} that the obstruction
    pipeline must print.
    """
    groups, real_forms = {}, {}
    for kind, name, fields in parse_sections(catalog_text):
        if kind == "group":
            groups[name] = {
                "dimension": int(fields["dimension"]),
                "rank": int(fields["rank"]),
                "primitive": [int(x) for x in fields["primitive_degrees"].split(",")],
            }
        elif kind == "realform":
            real_forms[name] = {
                "dual": fields["compact_dual"],
                "dimension": int(fields["dimension"]),
                "d": int(fields["d_value"]),
            }
    reports = []
    for case_text in case_texts:
        for _, name, fields in parse_sections(case_text):
            g, h = real_forms[fields["g"]], real_forms[fields["h"]]
            g_u, h_u = groups[g["dual"]], groups[h["dual"]]
            compact = fields.get("h_compact", "false").lower() in ("true", "yes", "1")
            if compact or h["d"] == 0:
                reports.append({"case": name, "verdict": "vacuous-h-compact", "checks": {}})
                continue
            d_b = g["d"] - h["d"]
            n = g["dimension"] - d_b
            prim = pad(exterior_series(g_u["primitive"]), n)[n]
            checks = {
                "rank": {"rank_g": g_u["rank"], "rank_h": h_u["rank"]},
                "dimension": {"d_G": g["d"], "d_H": h["d"], "d_B": d_b, "n": n},
                "primitive": {"degree": n, "coefficient": prim},
            }
            solvable = g_u["rank"] == h_u["rank"] or prim == 0
            all_forms = False
            if "embedding" in fields:
                d = h_u["dimension"] - groups[fields["k_h"]]["dimension"]
                top = max(d, cutoff if cutoff is not None else d)
                series = pad(SO8_SO3SO3, top)
                checks["tncz"] = {"d": d, "coefficient": series[d], "poincare": series}
                all_forms = series[d] == 0
            verdict = "no-amenable-form" if all_forms or solvable else "inconclusive"
            reports.append({"case": name, "verdict": verdict, "checks": checks})
    exit_code = 2 if any(r["verdict"] == "inconclusive" for r in reports) else 0
    return reports, exit_code


def check_reports(payload, exit_code, expected, expected_code, what):
    """The printed `check` reports agree with `expected_reports`."""
    require(exit_code == expected_code, f"{what}: exit code {exit_code}, expected {expected_code}")
    got = payload["reports"]
    require(len(got) == len(expected), f"{what}: {len(got)} reports for {len(expected)} cases")
    for report, want in zip(got, expected):
        case = want["case"]
        require(report["case"] == case, f"{what}: case {report['case']!r}, expected {case!r}")
        require(
            report["verdict"] == want["verdict"],
            f"{what}: {case} verdict {report['verdict']!r}, expected {want['verdict']!r}",
        )
        data = {c["name"]: c["data"] for c in report["checks"]}
        require(set(data) == set(want["checks"]), f"{what}: {case} ran checks {sorted(data)}")
        for check, values in want["checks"].items():
            for key, value in values.items():
                require(
                    data[check].get(key) == value,
                    f"{what}: {case} {check}.{key} = {data[check].get(key)!r}, expected {value!r}",
                )
