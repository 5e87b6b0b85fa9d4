"""Per-layer tracing by wrapping homcoh's public functions from outside.

Each function is wrapped at every name it is looked up by:

- `cli` and `obstruct` bind `buchberger` and `normal_form` (and `cli` binds
  `run_case` and `cdga_from_text`, `obstruct` binds `substitute_linear`) at
  import, so those module attributes are wrapped next to the originals;
- `cdga` and `obstruct` reach `rank` and `solve` through the `linalg`
  module, so wrapping `linalg.rank` and `linalg.solve` covers them;
- `FreeCDGA`, `Catalog` and `Polynomial` methods are wrapped on the class.

Spans nest through a stack.  A span's self time is its duration minus the
durations of its direct children.  Spans are folded into per-name totals as
they close, and the totals stay in memory until `metrics()` reports them: the
poly layer alone closes some 10^5 spans per round, too many to keep one by one.
"""

from __future__ import annotations

from collections import defaultdict
from time import perf_counter

SPAN_NAMES = (
    "linalg.rank", "linalg.solve",
    "cdga.graded_basis", "cdga.differential_matrix", "cdga.cohomology_dims", "cdga.parse",
    "groebner.buchberger", "groebner.normal_form", "groebner.quotient_poincare",
    "poly.arith", "poly.substitute",
    "catalog.load", "catalog.load_case_file",
    "obstruct.run_case", "obstruct.tncz", "obstruct.presentation", "obstruct.literal_quotient",
    "cli.main",
)
COUNTERS = (
    "linalg.rank.nnz", "linalg.rank.cells", "cdga.basis_elems", "cdga.matrix_nnz",
    "groebner.spairs", "groebner.spairs_nonzero", "groebner.basis_size", "poly.terms_out",
)
POLY_ARITH = ("__add__", "__sub__", "__neg__", "__mul__", "__rmul__", "__pow__", "scale")


class Tracer:
    def __init__(self):
        self.stack = []  # child time accumulated by each open span
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.last_spoly = None
        self._patches = []

    def span(self, name, fn, count=None):
        """fn wrapped in a span; count(tracer, args, result) runs after it closes."""
        stack, calls, self_s = self.stack, self.calls, self.self_s

        def wrapper(*args, **kwargs):
            children = [0.0]
            stack.append(children)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += duration
                calls[name] += 1
                self_s[name] += duration - children[0]
            if count is not None:
                count(self, args, result)
            return result

        return wrapper

    def exclude(self, seconds):
        """Count time spent outside the program as a child of the open span."""
        if self.stack:
            self.stack[-1][0] += seconds

    def _wrap(self, owner, attr, make):
        original = owner.__dict__[attr]
        self._patches.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def install(self, hc):
        """Wrap the functions of the homcoh modules in namespace hc."""
        linalg, cdga, groebner, poly = hc.linalg, hc.cdga, hc.groebner, hc.poly
        catalog, obstruct, cli = hc.catalog, hc.obstruct, hc.cli

        def spanned(name, count=None):
            return lambda fn: self.span(name, fn, count)

        def counted(tracer, args, result):
            tracer.counts["groebner.spairs"] += 1
            tracer.last_spoly = result
            return result

        self._wrap(linalg, "rank", spanned("linalg.rank", count_rank))
        self._wrap(linalg, "solve", spanned("linalg.solve"))
        self._wrap(cdga.FreeCDGA, "graded_basis", spanned("cdga.graded_basis", count_basis))
        self._wrap(cdga.FreeCDGA, "differential_matrix", spanned("cdga.differential_matrix", count_matrix))
        self._wrap(cdga.FreeCDGA, "cohomology_dims", spanned("cdga.cohomology_dims"))
        for module in (cdga, cli):
            self._wrap(module, "cdga_from_text", spanned("cdga.parse"))
        for module in (groebner, cli, obstruct):
            self._wrap(module, "buchberger", spanned("groebner.buchberger", count_basis_size))
            self._wrap(module, "normal_form", spanned("groebner.normal_form", count_reduction))
        self._wrap(groebner, "s_polynomial", lambda fn: lambda *a: counted(self, a, fn(*a)))
        self._wrap(groebner, "quotient_poincare", spanned("groebner.quotient_poincare"))
        for attr in POLY_ARITH:
            self._wrap(poly.Polynomial, attr, spanned("poly.arith", count_terms))
        for module in (poly, obstruct):
            self._wrap(module, "substitute_linear", spanned("poly.substitute"))
        self._wrap(catalog, "load_catalog", spanned("catalog.load"))
        self._wrap(catalog.Catalog, "load_case_file", spanned("catalog.load_case_file"))
        for module in (cli, obstruct):
            self._wrap(module, "run_case", spanned("obstruct.run_case"))
        self._wrap(obstruct, "check_tncz_degree", spanned("obstruct.tncz"))
        self._wrap(obstruct, "invariant_presentation", spanned("obstruct.presentation"))
        self._wrap(obstruct, "literal_quotient_dims", spanned("obstruct.literal_quotient"))
        self._wrap(cli, "main", spanned("cli.main"))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def metrics(self, rounds, overhead_s):
        """Per-round figures for every traced name, zero where nothing ran."""
        out = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = self.calls[name] / rounds
            out[f"{name}.self_s"] = self.self_s[name] / rounds
        for name in COUNTERS:
            out[name] = self.counts[name] / rounds
        spairs = self.counts["groebner.spairs"]
        out["groebner.spair_yield"] = self.counts["groebner.spairs_nonzero"] / spairs if spairs else 0.0
        out["trace.overhead_s"] = overhead_s
        return out


def count_rank(tracer, args, result):
    m = args[0]
    tracer.counts["linalg.rank.nnz"] += len(m.entries)
    tracer.counts["linalg.rank.cells"] += m.rows * m.cols


def count_basis(tracer, args, result):
    tracer.counts["cdga.basis_elems"] += len(result)


def count_matrix(tracer, args, result):
    tracer.counts["cdga.matrix_nnz"] += len(result.entries)


def count_basis_size(tracer, args, result):
    tracer.counts["groebner.basis_size"] += len(result)


def count_reduction(tracer, args, result):
    # buchberger passes s_polynomial's result straight to normal_form
    if args[0] is tracer.last_spoly:
        tracer.last_spoly = None
        tracer.counts["groebner.spairs_nonzero"] += bool(result)


def count_terms(tracer, args, result):
    tracer.counts["poly.terms_out"] += len(result.terms)
