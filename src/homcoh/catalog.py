"""Catalog of compact groups, real forms, and Cartan embeddings.

The catalog ships as a structured text file and every numeric entry is
re-validated at load time against root-system formulas (root counts, Weyl
orders, primitive-degree products), so a typo in the data surfaces as a load
failure rather than a wrong obstruction verdict.

Spin vs SO distinctions are ignored: every quantity used (dimension, rank,
d-value, primitive degrees) is isogeny-invariant.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from importlib import resources

from .poly import (
    LinearSubstitution,
    Polynomial,
    VariableContext,
    parse_polynomial,
)

# Root-system data per simple family, keyed by family letter.
# num_roots(rank), weyl_order(rank), primitive degrees(rank).


def _factorial(n):
    out = 1
    for i in range(2, n + 1):
        out *= i
    return out


_FAMILY = {
    "A": {
        "roots": lambda n: n * (n + 1),
        "weyl": lambda n: _factorial(n + 1),
        "primitive": lambda n: [2 * k + 1 for k in range(1, n + 1)],
    },
    "B": {
        "roots": lambda n: 2 * n * n,
        "weyl": lambda n: 2**n * _factorial(n),
        "primitive": lambda n: [4 * k - 1 for k in range(1, n + 1)],
    },
    "C": {
        "roots": lambda n: 2 * n * n,
        "weyl": lambda n: 2**n * _factorial(n),
        "primitive": lambda n: [4 * k - 1 for k in range(1, n + 1)],
    },
    "D": {
        "roots": lambda n: 2 * n * (n - 1),
        "weyl": lambda n: 2 ** (n - 1) * _factorial(n),
        "primitive": lambda n: sorted([4 * k - 1 for k in range(1, n)] + [2 * n - 1]),
    },
    "G2": {
        "roots": lambda n: 12,
        "weyl": lambda n: 12,
        "primitive": lambda n: [3, 11],
    },
}


class CatalogError(ValueError):
    """Raised when the catalog file is malformed or fails validation."""


@dataclass(frozen=True)
class GroupDatum:
    name: str
    family: tuple  # ((letter, rank), ...) — one entry per simple factor
    dimension: int
    rank: int
    weyl_order: int
    primitive_degrees: tuple
    invariant_degrees: tuple

    def validate(self):
        roots = rank = weyl = 0
        primitive = []
        weyl = 1
        for letter, n in self.family:
            info = _FAMILY.get(letter)
            if info is None:
                raise CatalogError(f"{self.name}: unknown family {letter!r}")
            roots += info["roots"](n)
            rank += 2 if letter == "G2" else n
            weyl *= info["weyl"](n)
            primitive.extend(info["primitive"](n))
        problems = []
        if self.rank != rank:
            problems.append(f"rank {self.rank} != root-system rank {rank}")
        if self.dimension != rank + roots:
            problems.append(
                f"dimension {self.dimension} != rank + roots = {rank + roots}"
            )
        if self.weyl_order != weyl:
            problems.append(f"weyl_order {self.weyl_order} != {weyl}")
        if sorted(self.primitive_degrees) != sorted(primitive):
            problems.append(
                f"primitive_degrees {sorted(self.primitive_degrees)} != "
                f"{sorted(primitive)}"
            )
        if sorted(self.invariant_degrees) != sorted(p + 1 for p in primitive):
            problems.append("invariant_degrees are not primitive degrees + 1")
        prod = 1
        for d in self.invariant_degrees:
            prod *= d // 2
        if prod != self.weyl_order:
            problems.append("product of half invariant degrees != weyl_order")
        if problems:
            raise CatalogError(f"{self.name}: " + "; ".join(problems))


@dataclass(frozen=True)
class RealFormDatum:
    name: str
    compact_dual: str
    dimension: int
    d_value: int
    maximal_compact: tuple  # names of compact factors ("u(1)" allowed)

    def validate(self, groups):
        kdim = 0
        for token in self.maximal_compact:
            if token == "u(1)":
                kdim += 1
            elif token in groups:
                kdim += groups[token].dimension
            else:
                raise CatalogError(
                    f"{self.name}: unknown maximal-compact factor {token!r}"
                )
        problems = []
        if self.d_value != self.dimension - kdim:
            problems.append(
                f"d_value {self.d_value} != dimension - dim(maximal compact) "
                f"= {self.dimension - kdim}"
            )
        if self.compact_dual not in groups:
            problems.append(f"unknown compact dual {self.compact_dual!r}")
        elif groups[self.compact_dual].dimension != self.dimension:
            problems.append("dimension differs from the compact dual")
        if problems:
            raise CatalogError(f"{self.name}: " + "; ".join(problems))


@dataclass(frozen=True)
class EmbeddingDatum:
    """Cartan-subalgebra restriction for a subgroup of a catalog group."""

    name: str
    ambient: str
    subgroup: str
    restriction: LinearSubstitution
    literal_invariants: tuple  # claimed invariant generators, in target coords


@dataclass(frozen=True)
class CaseSpec:
    """One homogeneous space to run through the obstruction pipeline."""

    name: str
    g: RealFormDatum
    h: RealFormDatum
    g_u: GroupDatum
    h_u: GroupDatum
    k_h: GroupDatum | None
    embedding: EmbeddingDatum | None
    h_compact: bool


# ---- structured text parsing -------------------------------------------


def _parse_sections(text, path="<catalog>"):
    sections = []
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        if line.lstrip().startswith("["):
            header = line.strip().strip("[]").strip()
            current = {"header": header, "lineno": lineno, "fields": []}
            sections.append(current)
            continue
        if current is None:
            raise CatalogError(f"{path}:{lineno}: content before any [section]")
        if "=" not in line:
            raise CatalogError(f"{path}:{lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        current["fields"].append((lineno, key, value))
    return sections


class _Fields(dict):
    """A section's `key = value` fields; reading a missing key is a CatalogError."""

    def __init__(self, section, path):
        super().__init__()
        self.where = f"{path}:{section['lineno']}: [{section['header']}]"

    def __missing__(self, key):
        raise CatalogError(f"{self.where} missing field {key!r}")


def _field_map(section, path):
    out = _Fields(section, path)
    for lineno, key, value in section["fields"]:
        if key in out:
            raise CatalogError(f"{path}:{lineno}: duplicate key {key!r}")
        out[key] = value
    return out


def _parse_family(value):
    factors = []
    for token in value.replace("x", " ").split():
        token = token.strip()
        if token.upper() == "G2":
            factors.append(("G2", 2))
        else:
            factors.append((token[0].upper(), int(token[1:])))
    return tuple(factors)


def _int_list(value):
    return tuple(int(tok) for tok in value.replace(",", " ").split())


def _parse_embedding(section, path):
    fields = _Fields(section, path)
    maps = []
    for lineno, key, value in section["fields"]:
        if key.startswith("map "):
            maps.append((key[4:].strip(), value))
        else:
            fields[key] = value
    header = section["header"]
    # header: "embedding NAME ambient > subgroup"
    parts = header.split(None, 1)
    name = parts[1].strip()
    ambient, _, subgroup = (tok.strip() for tok in name.partition(">"))
    source = VariableContext.standard(tuple(t.strip() for t in fields["source_vars"].split(",")))
    target = VariableContext.standard(tuple(t.strip() for t in fields["target_vars"].split(",")))
    images = {var: parse_polynomial(expr, target) for var, expr in maps}
    missing = [v for v in source.names if v not in images]
    if missing:
        raise CatalogError(f"{path}: embedding {name}: missing map for {missing}")
    restriction = LinearSubstitution(
        source, target, tuple(images[v] for v in source.names)
    )
    literal = tuple(
        parse_polynomial(tok.strip(), target)
        for tok in fields.get("literal_invariants", "").split(",")
        if tok.strip()
    )
    return EmbeddingDatum(name, ambient, subgroup, restriction, literal)


class Catalog:
    """Loaded and validated catalog of groups, real forms, and embeddings."""

    def __init__(self, groups, real_forms, embeddings):
        self.groups = groups
        self.real_forms = real_forms
        self.embeddings = embeddings

    @classmethod
    def from_text(cls, text, path="<catalog>", validate=True):
        groups, real_forms, embeddings = {}, {}, {}
        for section in _parse_sections(text, path):
            header = section["header"]
            kind, _, name = header.partition(" ")
            name = name.strip()
            if kind == "group":
                fields = _field_map(section, path)
                groups[name] = GroupDatum(
                    name=name,
                    family=_parse_family(fields["family"]),
                    dimension=int(fields["dimension"]),
                    rank=int(fields["rank"]),
                    weyl_order=int(fields["weyl_order"]),
                    primitive_degrees=_int_list(fields["primitive_degrees"]),
                    invariant_degrees=_int_list(fields["invariant_degrees"]),
                )
            elif kind == "realform":
                fields = _field_map(section, path)
                real_forms[name] = RealFormDatum(
                    name=name,
                    compact_dual=fields["compact_dual"].strip(),
                    dimension=int(fields["dimension"]),
                    d_value=int(fields["d_value"]),
                    maximal_compact=tuple(
                        tok.strip()
                        for tok in fields["maximal_compact"].split("+")
                        if tok.strip()
                    ),
                )
            elif kind == "embedding":
                emb = _parse_embedding(section, path)
                embeddings[emb.name] = emb
            else:
                raise CatalogError(f"{path}:{section['lineno']}: unknown section kind {kind!r}")
        catalog = cls(groups, real_forms, embeddings)
        if validate:
            catalog.validate()
        return catalog

    def validate(self):
        for g in self.groups.values():
            g.validate()
        for rf in self.real_forms.values():
            rf.validate(self.groups)
        for emb in self.embeddings.values():
            if emb.ambient not in self.groups:
                raise CatalogError(f"embedding {emb.name}: unknown ambient group")
            if emb.subgroup not in self.groups:
                raise CatalogError(f"embedding {emb.name}: unknown subgroup")
            if emb.restriction.source.nvars != self.groups[emb.ambient].rank:
                raise CatalogError(
                    f"embedding {emb.name}: source has "
                    f"{emb.restriction.source.nvars} coordinates, ambient rank is "
                    f"{self.groups[emb.ambient].rank}"
                )

    def validation_report(self):
        """(record name, kind, error-or-None) for every record."""
        report = []
        for g in self.groups.values():
            try:
                g.validate()
                report.append((g.name, "group", None))
            except CatalogError as exc:
                report.append((g.name, "group", str(exc)))
        for rf in self.real_forms.values():
            try:
                rf.validate(self.groups)
                report.append((rf.name, "realform", None))
            except CatalogError as exc:
                report.append((rf.name, "realform", str(exc)))
        return report

    def lookup_group(self, name) -> GroupDatum:
        if name not in self.groups:
            raise KeyError(f"unknown group {name!r}")
        return self.groups[name]

    def lookup_real_form(self, name) -> RealFormDatum:
        if name not in self.real_forms:
            raise KeyError(f"unknown real form {name!r}")
        return self.real_forms[name]

    def case_from_fields(self, name, fields, path="<case>"):
        g = self.lookup_real_form(fields["g"].strip())
        h = self.lookup_real_form(fields["h"].strip())
        g_u = self.lookup_group(g.compact_dual)
        h_u = self.lookup_group(h.compact_dual)
        k_h = None
        if "k_h" in fields:
            k_h = self.lookup_group(fields["k_h"].strip())
        embedding = None
        if "embedding" in fields:
            key = fields["embedding"].strip()
            if key not in self.embeddings:
                raise CatalogError(f"{path}: unknown embedding {key!r}")
            embedding = self.embeddings[key]
        h_compact = fields.get("h_compact", "false").strip().lower() in ("true", "yes", "1")
        if not h_compact and h.d_value == 0:
            h_compact = True
        return CaseSpec(name, g, h, g_u, h_u, k_h, embedding, h_compact)

    def load_case_file(self, path):
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        sections = _parse_sections(text, str(path))
        cases = []
        for section in sections:
            kind, _, name = section["header"].partition(" ")
            if kind != "case":
                raise CatalogError(f"{path}: expected [case ...] sections")
            cases.append(self.case_from_fields(name.strip(), _field_map(section, path), path))
        return cases


def default_catalog_path():
    override = os.environ.get("HOMCOH_CATALOG")
    if override:
        return override
    return str(resources.files("homcoh").joinpath("data/catalog.txt"))


def load_catalog(path=None, validate=True) -> Catalog:
    path = path or default_catalog_path()
    with open(path, "r", encoding="utf-8") as fh:
        return Catalog.from_text(fh.read(), path, validate=validate)


def bundled_case_paths():
    case_dir = resources.files("homcoh").joinpath("data/cases")
    return sorted(str(p) for p in case_dir.iterdir() if str(p).endswith(".case"))


def bundled_cases(catalog=None):
    """The four shipped fixture cases, in file order."""
    catalog = catalog or load_catalog()
    cases = []
    for path in bundled_case_paths():
        cases.extend(catalog.load_case_file(path))
    return cases
