"""The benchmark's three workloads: seeded inputs, jobs and output checks.

`build(workload, seed, workdir, hc, size)` writes the inputs a workload needs
under `workdir` and returns its jobs.  A job's `run(hc)` calls into homcoh
through the module namespace `hc` (attributes looked up at call time, so the
tracer's wrappers are seen), and `check(output)` compares the output with a
value from `oracles`, which never imports homcoh.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

from oracles import (
    SO8_SO3SO3,
    check_poincare_duality,
    check_reduced_basis,
    check_reports,
    check_same_basis,
    check_series,
    check_zero_above,
    elementary_symmetric,
    expected_reports,
    formal_dimension,
    gaussian_binomial_t2,
    parse_poly_text,
    parse_sections,
    poly_add,
    poly_mul,
    poly_to_text,
    regular_sequence_series,
    require,
    sympy_reduced_basis,
    t2_factorial,
)

WORKLOADS = ("cartan-cohomology", "coinvariant-groebner", "obstruction-cli")


@dataclass
class Job:
    name: str
    run: Callable  # run(hc) -> output
    check: Callable  # check(output) raises CheckError
    sympy_check: bool = False  # check compares with sympy when it imports


def call_cli(hc, argv):
    """homcoh.cli.main(argv) in this process: (exit code, standard output)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = hc.cli.main(argv)
    return code, out.getvalue()


def unit(i, n):
    return tuple(1 if j == i else 0 for j in range(n))


def random_unimodular(rng, n):
    """L*U with unit triangular L, U and off-diagonal entries +-1: dense, det 1."""
    lower = [[1 if i == j else (rng.choice((-1, 1)) if j < i else 0) for j in range(n)] for i in range(n)]
    upper = [[1 if i == j else (rng.choice((-1, 1)) if j > i else 0) for j in range(n)] for i in range(n)]
    return [[sum(lower[i][k] * upper[k][j] for k in range(n)) for j in range(n)] for i in range(n)]


def model_text(even, odd, differentials, names):
    """.cdga text; even and odd are (name, degree) lists."""
    lines = ["[generators]"] + [f"{n} = {d}" for n, d in even + odd] + ["", "[differential]"]
    lines += [f"{n} = {poly_to_text(p, names)}" for (n, _), p in zip(odd, differentials)]
    return "\n".join(lines) + "\n"


def flag_model(n, matrix=None):
    """U(n)/T^n: d y_(2k-1) = e_k(L_1..L_n) with L_i = sum_j matrix[i][j] z_j."""
    names = [f"z{i + 1}" for i in range(n)]
    matrix = matrix or [[int(i == j) for j in range(n)] for i in range(n)]
    forms = [{unit(j, n): a for j, a in enumerate(row) if a} for row in matrix]
    odd = [(f"y{2 * k - 1}", 2 * k - 1) for k in range(1, n + 1)]
    diffs = [elementary_symmetric(forms, k, n) for k in range(1, n + 1)]
    return model_text([(z, 2) for z in names], odd, diffs, names)


def grassmannian_model(k, n):
    """U(n)/U(k)xU(n-k): Chern classes a_i, b_j; d y_(2m-1) = (c(a) c(b))_m."""
    even = [(f"a{i}", 2 * i) for i in range(1, k + 1)] + [(f"b{j}", 2 * j) for j in range(1, n - k + 1)]
    names = [g for g, _ in even]
    nv = len(names)
    a = [{(0,) * nv: 1}] + [{unit(i, nv): 1} for i in range(k)]
    b = [{(0,) * nv: 1}] + [{unit(k + j, nv): 1} for j in range(n - k)]
    diffs = []
    for m in range(1, n + 1):
        total = {}
        for i in range(max(0, m - (n - k)), min(k, m) + 1):
            total = poly_add(total, poly_mul(a[i], b[m - i]))
        diffs.append(total)
    return model_text(even, [(f"y{2 * m - 1}", 2 * m - 1) for m in range(1, n + 1)], diffs, names)


# ---- cartan-cohomology -----------------------------------------------------


def cohomology_job(name, path, cutoff, expected, even_degrees, odd_degrees):
    top = formal_dimension(even_degrees, odd_degrees)
    require(len(expected) - 1 == top, f"{name}: reference top degree {len(expected) - 1} != {top}")
    argv = ["--format", "json", "cohomology", str(path), "--cutoff", str(cutoff)]

    def check(output):
        code, text = output
        require(code == 0, f"{name}: exit code {code}")
        dims = json.loads(text)["dims"]
        check_series(dims, expected, cutoff, name)
        if cutoff >= top:
            check_poincare_duality(dims, top, name)
            check_zero_above(dims, top, name)

    return Job(name, lambda hc: call_cli(hc, argv), check)


CARTAN_SIZES = {
    # (flag n, cutoff, random bases), (Grassmannian k, n, cutoff), su3_flag cutoff
    "full": {"flags": [(4, 12, 3), (5, 10, 1)], "grassmannians": [(2, 5, 14), (2, 6, 16)], "su3": 18, "bundled": 26},
    "small": {"flags": [(3, 8, 1)], "grassmannians": [(2, 4, 8)], "su3": 8, "bundled": 24},
}


def cartan_jobs(rng, workdir, data, size):
    spec = CARTAN_SIZES[size]
    jobs = []

    def add(name, text, cutoff, expected, even_degrees, odd_degrees):
        path = workdir / f"{name}.cdga"
        path.write_text(text)
        jobs.append(cohomology_job(name, path, cutoff, expected, even_degrees, odd_degrees))

    for n, cutoff, n_random in spec["flags"]:
        odd = [2 * k - 1 for k in range(1, n + 1)]
        add(f"flag{n}-c{cutoff}", flag_model(n), cutoff, t2_factorial(n), [2] * n, odd)
        for r in range(n_random):
            text = flag_model(n, random_unimodular(rng, n))
            add(f"flag{n}-c{cutoff}-basis{r}", text, cutoff, t2_factorial(n), [2] * n, odd)
    for k, n, cutoff in spec["grassmannians"]:
        even = [2 * i for i in range(1, k + 1)] + [2 * j for j in range(1, n - k + 1)]
        odd = [2 * m - 1 for m in range(1, n + 1)]
        add(f"gr{k}-{n}-c{cutoff}", grassmannian_model(k, n), cutoff, gaussian_binomial_t2(n, k), even, odd)
    bundled = [
        ("su3_flag", spec["su3"], t2_factorial(3), [2, 2, 2], [1, 3, 5]),
        ("so8_so3so3", spec["bundled"], SO8_SO3SO3, [4, 4], [3, 7, 7, 11]),
        ("cp1", spec["bundled"], [1, 0, 1], [2], [3]),
        ("sphere3", spec["bundled"], [1, 0, 0, 1], [], [3]),
    ]
    for name, cutoff, expected, even, odd in bundled:
        path = data / "cdga" / f"{name}.cdga"
        jobs.append(cohomology_job(f"{name}-c{cutoff}", path, cutoff, expected, even, odd))
    return jobs


# ---- coinvariant-groebner --------------------------------------------------


def weighted_monomials(degrees, target):
    """Exponent tuples e with sum(e_i * degrees_i) == target."""
    if not degrees:
        return [()] if target == 0 else []
    out = []
    for e in range(target // degrees[0] + 1):
        out += [(e,) + rest for rest in weighted_monomials(degrees[1:], target - e * degrees[0])]
    return out


def perturbed_generators(rng, gens, mix):
    """Same ideal, other generators: f_k -> s f_k (+ sum c * product of f_i, i < k).

    `gens` is a list of (poly dict, degree) sorted by degree; s is a nonzero
    integer, so the ideal, its reduced Groebner basis and its Hilbert series
    do not depend on the seed.  The products are added only with `mix`.
    """
    out = []
    for k, (f, degree) in enumerate(gens):
        lower = gens[:k]
        scale = rng.choice((1, -1, 2, -2))
        g = {e: scale * c for e, c in f.items()}
        products = weighted_monomials([d for _, d in lower], degree) if mix else []
        for exps in rng.sample(products, min(2, len(products))):
            term = {(0,) * len(next(iter(f))): 1}
            for (p, _), e in zip(lower, exps):
                for _ in range(e):
                    term = poly_mul(term, p)
            g = poly_add(g, term, rng.choice((1, -1, 2, -2)))
        out.append((g, degree))
    return out


def invariant_ideal(hc, rng, family, rank, mix):
    """Seeded generators of a Weyl invariant ideal: (names, texts, degrees)."""
    gens = hc.poly.weyl_invariant_generators(family, rank)
    names = list(gens[0][0].ctx.names)
    pairs = sorted(((dict(f.terms), d) for f, d in gens), key=lambda p: p[1])
    pairs = perturbed_generators(rng, pairs, mix)
    return names, [poly_to_text(f, names) for f, _ in pairs], [d for _, d in pairs]


def parse_generators(hc, names, texts):
    ctx = hc.poly.VariableContext.standard(names)
    return ctx, [hc.poly.parse_polynomial(t, ctx) for t in texts]


def buchberger_job(hc, rng, family, rank):
    # With products of lower generators mixed in, A5 took 20 s instead of 4 s,
    # too long for a round, so the full Buchberger run only rescales.
    names, texts, _ = invariant_ideal(hc, rng, family, rank, mix=False)
    name = f"buchberger-{family}{rank}"

    def run(hc):
        _, gens = parse_generators(hc, names, texts)
        return [str(g) for g in hc.groebner.buchberger(gens)]

    def check(output):
        basis = [parse_poly_text(t, names) for t in output]
        check_reduced_basis(basis, name)
        reference = sympy_reduced_basis(texts, names)
        if reference is not None:
            check_same_basis(basis, reference, name)

    return Job(name, run, check, sympy_check=True)


def quotient_job(hc, rng, family, rank, cutoff):
    names, texts, degrees = invariant_ideal(hc, rng, family, rank, mix=True)
    name = f"quotient-{family}{rank}-c{cutoff}"

    def run(hc):
        ctx, gens = parse_generators(hc, names, texts)
        return hc.groebner.quotient_poincare(gens, ctx, cutoff)

    def check(dims):
        check_series(dims, regular_sequence_series(degrees, [2] * len(names), cutoff), cutoff, name)

    return Job(name, run, check)


COINVARIANT_SIZES = {
    # buchberger (family, rank); quotients (family, rank, cutoff): cutoff is
    # the sum of (degree - 2), the top degree of a finite coinvariant algebra.
    "full": {"buchberger": [("A", 5)], "quotients": [("A", 4, 20), ("B", 5, 50), ("D", 5, 40), ("G2", 2, 12)]},
    "small": {"buchberger": [("A", 3)], "quotients": [("A", 3, 12), ("B", 3, 18), ("D", 4, 24), ("G2", 2, 12)]},
}


def coinvariant_jobs(hc, rng, size):
    spec = COINVARIANT_SIZES[size]
    jobs = [buchberger_job(hc, rng, f, r) for f, r in spec["buchberger"]]
    jobs += [quotient_job(hc, rng, f, r, c) for f, r, c in spec["quotients"]]
    return jobs


# ---- obstruction-cli -------------------------------------------------------


def random_poly(rng, nvars, max_degree, n_terms, allow=lambda exp: True):
    poly = {}
    while len(poly) < n_terms:
        exp = tuple(rng.randint(0, max_degree) for _ in range(nvars))
        if sum(exp) <= max_degree and allow(exp):
            poly[exp] = Fraction(rng.choice((1, -1, 2, -3, 5)), rng.choice((1, 1, 2, 3)))
    return poly


def principal_ideal_file(path):
    """Read an ideal file whose generators are 2q and q^2; return (names, texts, q)."""
    names, texts = None, []
    for raw in path.read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if line.startswith("vars"):
            names = [tok.split(":")[0].strip() for tok in line.partition("=")[2].split(",")]
        elif line:
            texts.append(line)
    f1, f2 = (parse_poly_text(t, names) for t in texts)
    q = {e: c / 2 for e, c in f1.items()}
    require(poly_mul(q, q) == f2, f"{path.name}: generators are not 2q and q^2")
    return names, texts, q


def member_job(name, ideal, names, texts, q, rng, member):
    """A member a*f1 + b*f2, or that plus a remainder r with x2-degree < 2.

    The ideal is (q) and q is monic in x2^2, its leading term in both orders,
    so r is the normal form of the non-member.
    """
    f1, f2 = (parse_poly_text(t, names) for t in texts)
    poly = poly_add(poly_mul(random_poly(rng, 2, 4, 4), f1), poly_mul(random_poly(rng, 2, 2, 3), f2))
    remainder = {} if member else random_poly(rng, 2, 5, 3, allow=lambda e: e[0] < 2)
    poly = poly_add(poly, remainder)
    argv = ["--format", "json", "member", str(ideal), poly_to_text(poly, names)]

    def check(output):
        code, text = output
        require(code == 0, f"{name}: exit code {code}")
        payload = json.loads(text)
        require(payload["member"] is member, f"{name}: member = {payload['member']}, expected {member}")
        nf = parse_poly_text(payload["normal_form"], names)
        require(nf == remainder, f"{name}: normal form {payload['normal_form']!r} is wrong")

    return Job(name, lambda hc: call_cli(hc, argv), check)


def groebner_job(ideal, names, texts, q, order):
    name = f"groebner-{order}"
    argv = ["--format", "json", "groebner", str(ideal), "--order", order]
    lead = q[(2, 0)]

    def check(output):
        code, text = output
        require(code == 0, f"{name}: exit code {code}")
        basis = [parse_poly_text(t, names) for t in json.loads(text)["basis"]]
        check_same_basis(basis, [{e: c / lead for e, c in q.items()}], name)
        if order == "grevlex":
            check_reduced_basis(basis, name)
        reference = sympy_reduced_basis(texts, names, order)
        if reference is not None:
            check_same_basis(basis, reference, name)

    return Job(name, lambda hc: call_cli(hc, argv), check, sympy_check=True)


def check_job(catalog_path, case_paths, cutoff):
    name = f"check-{len(case_paths)}cases-c{cutoff if cutoff is not None else 'default'}"
    argv = ["--format", "json", "--catalog", str(catalog_path), "check", *map(str, case_paths)]
    if cutoff is not None:
        argv += ["--cutoff", str(cutoff)]

    def check(output):
        code, text = output
        expected, expected_code = expected_reports(
            catalog_path.read_text(), [p.read_text() for p in case_paths], cutoff
        )
        check_reports(json.loads(text), code, expected, expected_code, name)

    return Job(name, lambda hc: call_cli(hc, argv), check)


OBSTRUCTION_SIZES = {
    "full": {"cutoffs": [None, 12, 20, 28, 36, 44, 52, 60], "single_cases": 4, "members": 6, "orders": ["grevlex", "lex"]},
    "small": {"cutoffs": [None, 24], "single_cases": 1, "members": 2, "orders": ["grevlex"]},
}


def obstruction_jobs(rng, data, size):
    spec = OBSTRUCTION_SIZES[size]
    case_paths = sorted((data / "cases").glob("*.case"))
    require(
        [parse_sections(p.read_text())[0][0] for p in case_paths] == ["case"] * len(case_paths),
        "unexpected case file layout",
    )
    jobs = [check_job(data / "catalog.txt", case_paths, c) for c in spec["cutoffs"]]
    jobs += [check_job(data / "catalog.txt", [p], None) for p in case_paths[: spec["single_cases"]]]
    ideal = data / "ideals" / "restricted_d4.ideal"
    names, texts, q = principal_ideal_file(ideal)
    for i in range(spec["members"]):
        member = i % 2 == 0
        jobs.append(member_job(f"member-{i}", ideal, names, texts, q, rng, member))
    jobs += [groebner_job(ideal, names, texts, q, order) for order in spec["orders"]]
    rng.shuffle(jobs)
    return jobs


def build(workload, seed, workdir, hc, size="full"):
    """Write the workload's inputs under workdir and return its jobs."""
    rng = random.Random(f"{workload}/{seed}")
    data = Path(hc.cli.__file__).parent / "data"
    if workload == "cartan-cohomology":
        return cartan_jobs(rng, Path(workdir), data, size)
    if workload == "coinvariant-groebner":
        return coinvariant_jobs(hc, rng, size)
    if workload == "obstruction-cli":
        return obstruction_jobs(rng, data, size)
    raise ValueError(f"unknown workload {workload!r}")
