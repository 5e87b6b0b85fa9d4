"""Command-line interface.

Subcommands:

  check       run the obstruction pipeline over case files
  cohomology  Poincare coefficients of a CDGA file
  groebner    reduced Groebner basis of an ideal file
  member      ideal membership of a polynomial
  catalog     print the catalog with validation status

Exit codes for `check`: 0 when every verdict is conclusive, 2 when any case
is inconclusive, 1 on input errors.  Machine output is deterministic
byte-for-byte for identical inputs.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import catalog as cat
from .cdga import cdga_from_text, poincare_string
from .groebner import GREVLEX, MonomialOrder, buchberger, normal_form
from .obstruct import ALL_CHECKS, invariant_presentation, restricted_invariants, run_case
from .poly import MAX_DEGREE, VariableContext, parse_polynomial


class InputError(Exception):
    pass


def _load_catalog(args):
    try:
        return cat.load_catalog(getattr(args, "catalog", None))
    except (OSError, cat.CatalogError) as exc:
        raise InputError(str(exc))


def _read_ideal_file(path):
    """Ideal file: a `vars = ...` line, then one generator polynomial per line."""
    try:
        raw_lines = cat.read_text(path).splitlines()
    except (OSError, cat.CatalogError) as exc:
        raise InputError(str(exc))
    ctx = None
    gens = []
    for lineno, raw in enumerate(raw_lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            if line.startswith("vars"):
                ctx = _variable_context(line.partition("=")[2])
            elif ctx is None:
                raise ValueError("generators before a 'vars =' line")
            else:
                gens.append(parse_polynomial(line, ctx))
        except ValueError as exc:
            raise InputError(f"{path}:{lineno}: {exc}")
    if ctx is None:
        raise InputError(f"{path}: missing 'vars =' line")
    return ctx, gens


def _variable_context(spec):
    """`x2, x3:4`: variable names, each with an optional degree (default 2)."""
    names, degrees = [], []
    for token in spec.split(","):
        if token.strip():
            name, _, deg = token.partition(":")
            names.append(name.strip())
            degrees.append(int(deg) if deg else 2)
    return VariableContext(tuple(names), tuple(degrees))


# The largest --cutoff accepted: twice the parser's degree limit, the
# cohomological degree of a degree-256 polynomial in degree-2 variables, and
# above the top degree of E8 x E8 (2 * 248).  `cohomology_dims` builds a
# basis in every degree up to the cutoff, so an unbounded one could take all
# the memory there is.
MAX_CUTOFF = 2 * MAX_DEGREE


def _check_cutoff(cutoff):
    if cutoff is not None and cutoff < 0:
        raise InputError(f"--cutoff must be non-negative, got {cutoff}")
    if cutoff is not None and cutoff > MAX_CUTOFF:
        raise InputError(f"--cutoff must be at most {MAX_CUTOFF}, got {cutoff}")


def cmd_check(args):
    if not args.case_files:
        raise InputError("no case files given")
    _check_cutoff(args.cutoff)
    catalog = _load_catalog(args)
    checks = None
    if args.checks:
        checks = tuple(tok.strip() for tok in args.checks.split(",") if tok.strip())
        for c in checks:
            if c not in ALL_CHECKS:
                raise InputError(f"unknown check {c!r} (choose from {', '.join(ALL_CHECKS)})")
    cases = []
    for path in args.case_files:
        try:
            cases.extend(catalog.load_case_file(path))
        except (OSError, cat.CatalogError) as exc:
            raise InputError(str(exc))
    try:
        reports = [run_case(case, checks=checks, cutoff=args.cutoff) for case in cases]
    except cat.CatalogError as exc:  # an embedding whose invariants fail their certificate
        raise InputError(str(exc))
    if args.format == "json":
        payload = {"reports": [r.to_dict() for r in reports]}
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for i, r in enumerate(reports):
            if i:
                print()
            print(r.render_text())
    return 2 if any(r.verdict == "inconclusive" for r in reports) else 0


def cmd_cohomology(args):
    try:
        algebra = cdga_from_text(cat.read_text(args.cdga_file), args.cdga_file)
    except (OSError, cat.CatalogError) as exc:
        raise InputError(str(exc))
    except ValueError as exc:  # a check of FreeCDGA that the line-by-line checks missed
        raise InputError(f"{args.cdga_file}: {exc}")
    if args.cutoff is None:
        raise InputError("--cutoff is required for cohomology")
    _check_cutoff(args.cutoff)
    dims = algebra.cohomology_dims(args.cutoff)
    if args.format == "json":
        print(json.dumps({"dims": dims, "poincare": poincare_string(dims)}, sort_keys=True))
    else:
        for k, dim in enumerate(dims):
            print(f"deg {k}: {dim}")
        print(poincare_string(dims))
    return 0


def cmd_groebner(args):
    ctx, gens = _read_ideal_file(args.ideal_file)
    order = MonomialOrder(args.order)
    gb = buchberger(gens, order)
    if args.format == "json":
        print(json.dumps({"basis": [str(g) for g in gb]}, sort_keys=True))
    else:
        if not len(gb):
            print("(zero ideal)")
        for g in gb:
            print(str(g))
    return 0


def cmd_member(args):
    ctx, gens = _read_ideal_file(args.ideal_file)
    try:
        f = parse_polynomial(args.polynomial, ctx)
    except ValueError as exc:
        raise InputError(f"polynomial {args.polynomial!r}: {exc}")
    gb = buchberger(gens, GREVLEX)
    nf = normal_form(f, gb, GREVLEX)
    member = not nf
    if args.format == "json":
        print(json.dumps({"member": member, "normal_form": str(nf)}, sort_keys=True))
    else:
        if member:
            print("member: true")
        else:
            print(f"member: false, normal form: {nf}")
    return 0


def _certificate_error(catalog, embedding):
    """The invariant certificate's error for a valid embedding, or None.

    It is the certificate `check` runs on a case's embedding.  A case's
    ambient group is simple; for another ambient group only the declared and
    the classical subgroup invariants are certified against each other.
    """
    ambient = catalog.groups[embedding.ambient]
    images = []
    if len(ambient.family) == 1:
        images = [p for p, _ in restricted_invariants(embedding, ambient)]
    try:
        invariant_presentation(images, embedding, catalog.groups[embedding.subgroup])
    except cat.CatalogError as exc:
        return str(exc)
    return None


def cmd_catalog(args):
    try:
        catalog = cat.load_catalog(getattr(args, "catalog", None), validate=False)
    except (OSError, cat.CatalogError) as exc:
        raise InputError(str(exc))
    report = catalog.validation_report()
    invalid = {(kind, name) for name, kind, err in report if err is not None}
    failures = []
    for name, kind, err in report:
        if kind == "embedding" and err is None:
            embedding = catalog.embeddings[name]
            # an invalid group's own row reports it, and its family may have no invariants
            if not {("group", embedding.ambient), ("group", embedding.subgroup)} & invalid:
                err = _certificate_error(catalog, embedding)
        if err is not None:
            failures.append((name, kind, err))
    if args.format == "json":
        payload = {
            "groups": {
                g.name: {
                    "dimension": g.dimension,
                    "rank": g.rank,
                    "weyl_order": g.weyl_order,
                    "primitive_degrees": list(g.primitive_degrees),
                    "invariant_degrees": list(g.invariant_degrees),
                }
                for g in catalog.groups.values()
            },
            "real_forms": {
                rf.name: {
                    "compact_dual": rf.compact_dual,
                    "dimension": rf.dimension,
                    "d_value": rf.d_value,
                    "maximal_compact": list(rf.maximal_compact),
                }
                for rf in catalog.real_forms.values()
            },
            "validation_failures": {name: err for name, _, err in failures},
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for g in catalog.groups.values():
            prim = ",".join(str(p) for p in g.primitive_degrees)
            print(
                f"group    {g.name:<14} dim {g.dimension:>3}  rank {g.rank}  "
                f"weyl {g.weyl_order:>4}  primitive {prim}"
            )
        for rf in catalog.real_forms.values():
            print(
                f"realform {rf.name:<14} dim {rf.dimension:>3}  d {rf.d_value:>3}  "
                f"dual {rf.compact_dual}  max compact {'+'.join(rf.maximal_compact)}"
            )
        for name, kind, err in failures:
            print(f"INVALID  {kind} {name}: {err}")
        if not failures:
            print("validation: all records consistent")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="homcoh",
        description=(
            "Exact cohomology of compact homogeneous spaces and obstruction "
            "checks for compact Clifford-Klein forms."
        ),
    )
    parser.add_argument("--format", choices=("text", "json"), default="text")
    parser.add_argument("--catalog", help="path to a catalog file (or set HOMCOH_CATALOG)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="run the obstruction pipeline on case files")
    p.add_argument("case_files", nargs="*")
    p.add_argument("--cutoff", type=int, default=None)
    p.add_argument("--checks", help="comma-separated subset of " + ",".join(ALL_CHECKS))
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("cohomology", help="Poincare coefficients of a CDGA file")
    p.add_argument("cdga_file")
    p.add_argument("--cutoff", type=int, default=None)
    p.set_defaults(func=cmd_cohomology)

    p = sub.add_parser("groebner", help="reduced Groebner basis of an ideal file")
    p.add_argument("ideal_file")
    p.add_argument("--order", choices=("grevlex", "grlex", "lex"), default="grevlex")
    p.set_defaults(func=cmd_groebner)

    p = sub.add_parser("member", help="ideal membership of a polynomial")
    p.add_argument("ideal_file")
    p.add_argument("polynomial")
    p.set_defaults(func=cmd_member)

    p = sub.add_parser("catalog", help="print the catalog with validation status")
    p.set_defaults(func=cmd_catalog)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
