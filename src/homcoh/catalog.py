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
from math import factorial, prod

from .poly import LinearSubstitution, VariableContext, parse_polynomial

# Root-system data per simple family, keyed by family letter.
# num_roots(rank), weyl_order(rank), primitive degrees(rank).


_FAMILY = {
    "A": {
        "roots": lambda n: n * (n + 1),
        "weyl": lambda n: factorial(n + 1),
        "primitive": lambda n: [2 * k + 1 for k in range(1, n + 1)],
    },
    "B": {
        "roots": lambda n: 2 * n * n,
        "weyl": lambda n: 2**n * factorial(n),
        "primitive": lambda n: [4 * k - 1 for k in range(1, n + 1)],
    },
    "C": {
        "roots": lambda n: 2 * n * n,
        "weyl": lambda n: 2**n * factorial(n),
        "primitive": lambda n: [4 * k - 1 for k in range(1, n + 1)],
    },
    "D": {
        "roots": lambda n: 2 * n * (n - 1),
        "weyl": lambda n: 2 ** (n - 1) * factorial(n),
        "primitive": lambda n: sorted([4 * k - 1 for k in range(1, n)] + [2 * n - 1]),
    },
    "G2": {
        "roots": lambda n: 12,
        "weyl": lambda n: 12,
        "primitive": lambda n: [3, 11],
    },
}


class CatalogError(ValueError):
    """A malformed or inconsistent catalog, case or `.cdga` file.

    Errors found while reading a file start with `path:line:`.
    """


@dataclass(frozen=True)
class _Record:
    """A catalog record; `where` is the `path:line` of its section header."""

    where: str = field(default="", compare=False, kw_only=True)


@dataclass(frozen=True)
class GroupDatum(_Record):
    name: str
    family: tuple  # ((letter, rank), ...) — one entry per simple factor
    dimension: int
    rank: int
    weyl_order: int
    primitive_degrees: tuple
    invariant_degrees: tuple

    def validate(self, groups):
        """Check the numbers against the root system; `groups` is not needed."""
        for letter, _ in self.family:
            if letter not in _FAMILY:
                raise CatalogError(f"{self.name}: unknown family {letter!r}")
        rank = sum(2 if letter == "G2" else n for letter, n in self.family)
        if self.rank != rank:
            # Reported alone: the Weyl order of a mistyped rank can take long to compute.
            raise CatalogError(f"{self.name}: rank {self.rank} != root-system rank {rank}")
        roots = sum(_FAMILY[letter]["roots"](n) for letter, n in self.family)
        weyl = prod(_FAMILY[letter]["weyl"](n) for letter, n in self.family)
        primitive = [p for letter, n in self.family for p in _FAMILY[letter]["primitive"](n)]
        problems = []
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
        if prod(d // 2 for d in self.invariant_degrees) != self.weyl_order:
            problems.append("product of half invariant degrees != weyl_order")
        if problems:
            raise CatalogError(f"{self.name}: " + "; ".join(problems))


@dataclass(frozen=True)
class RealFormDatum(_Record):
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
class EmbeddingDatum(_Record):
    """Cartan-subalgebra restriction for a subgroup of a catalog group."""

    name: str
    ambient: str
    subgroup: str
    restriction: LinearSubstitution
    literal_invariants: tuple  # claimed invariant generators, in target coords

    def validate(self, groups):
        for role in (self.ambient, self.subgroup):
            if role not in groups:
                raise CatalogError(f"embedding {self.name}: unknown group {role!r}")
        rank = groups[self.ambient].rank
        if self.restriction.source.nvars != rank:
            raise CatalogError(
                f"embedding {self.name}: source has "
                f"{self.restriction.source.nvars} coordinates, ambient rank is {rank}"
            )


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


class Section(dict):
    """The `key = value` fields of one `[header]` section of an input file.

    Reading a missing key raises a CatalogError at the header's line;
    `convert` reports a bad value at its own line.
    """

    def __init__(self, path, header, lineno):
        super().__init__()
        self.path = path
        self.header = header
        self.lineno = lineno
        self.lines = {}

    def __missing__(self, key):
        raise self.error(f"[{self.header}] missing field {key!r}")

    @property
    def where(self):
        return f"{self.path}:{self.lineno}"

    def error(self, message, key=None):
        lineno = self.lineno if key is None else self.lines[key]
        return CatalogError(f"{self.path}:{lineno}: {message}")

    def convert(self, key, parse):
        """parse(value of key); its ValueError or KeyError names the key's line."""
        value = self[key]
        try:
            return parse(value)
        except (KeyError, ValueError) as exc:
            reason = exc.args[0] if isinstance(exc, KeyError) else exc  # str() quotes a KeyError
            raise self.error(f"{key}: {reason}", key) from None


def read_sections(text, path):
    """Split `[header]` and `key = value` lines into Sections, in file order.

    `#` starts a comment.  A key may appear once per section.
    """
    sections = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            sections.append(Section(path, line.strip("[]").strip(), lineno))
            continue
        if not sections:
            raise CatalogError(f"{path}:{lineno}: content before any [section]")
        key, eq, value = line.partition("=")
        if not eq:
            raise CatalogError(f"{path}:{lineno}: expected 'key = value'")
        key = " ".join(key.split())
        section = sections[-1]
        if key in section:
            raise CatalogError(f"{path}:{lineno}: duplicate key {key!r}")
        section[key] = value.strip()
        section.lines[key] = lineno
    return sections


def read_text(path):
    """The contents of a UTF-8 input file."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = data.count(b"\n", 0, exc.start) + 1
        raise CatalogError(f"{path}:{lineno}: not UTF-8 text") from None


def _parse_family(value):
    factors = []
    for token in value.replace("x", " ").split():
        if token.upper() == "G2":
            factors.append(("G2", 2))
        else:
            rank = int(token[1:])
            if rank < 1:
                raise ValueError(f"rank {rank} of {token!r} is not positive")
            factors.append((token[0].upper(), rank))
    return tuple(factors)


def _int_list(value):
    return tuple(int(tok) for tok in value.replace(",", " ").split())


def _names(value, separator):
    return tuple(tok.strip() for tok in value.split(separator) if tok.strip())


def _variables(value):
    return VariableContext.standard(_names(value, ","))


def _parse_embedding(fields, name):
    """`[embedding AMBIENT > SUBGROUP]`: a `map v = ...` line per source variable."""
    ambient, _, subgroup = (tok.strip() for tok in name.partition(">"))
    source = fields.convert("source_vars", _variables)
    target = fields.convert("target_vars", _variables)
    images = tuple(
        fields.convert(f"map {v}", lambda text: parse_polynomial(text, target))
        for v in source.names
    )
    literal = ()
    if "literal_invariants" in fields:
        literal = fields.convert(
            "literal_invariants",
            lambda text: tuple(parse_polynomial(t, target) for t in _names(text, ",")),
        )
    restriction = LinearSubstitution(source, target, images)
    return EmbeddingDatum(name, ambient, subgroup, restriction, literal, where=fields.where)


def _lookup(records, what, name):
    if name not in records:
        raise KeyError(f"unknown {what} {name!r}")
    return records[name]


class Catalog:
    """Loaded and validated catalog of groups, real forms, and embeddings."""

    def __init__(self, groups, real_forms, embeddings):
        self.groups = groups
        self.real_forms = real_forms
        self.embeddings = embeddings

    @classmethod
    def from_text(cls, text, path="<catalog>", validate=True):
        tables = {"group": {}, "realform": {}, "embedding": {}}
        for fields in read_sections(text, path):
            kind, _, name = fields.header.partition(" ")
            name = name.strip()
            if kind not in tables:
                raise fields.error(f"unknown section kind {kind!r}")
            if not name:
                raise fields.error(f"[{kind}] section without a name")
            if name in tables[kind]:
                raise fields.error(f"duplicate [{kind} {name}]")
            if kind == "group":
                record = GroupDatum(
                    name=name,
                    family=fields.convert("family", _parse_family),
                    dimension=fields.convert("dimension", int),
                    rank=fields.convert("rank", int),
                    weyl_order=fields.convert("weyl_order", int),
                    primitive_degrees=fields.convert("primitive_degrees", _int_list),
                    invariant_degrees=fields.convert("invariant_degrees", _int_list),
                    where=fields.where,
                )
            elif kind == "realform":
                record = RealFormDatum(
                    name=name,
                    compact_dual=fields["compact_dual"],
                    dimension=fields.convert("dimension", int),
                    d_value=fields.convert("d_value", int),
                    maximal_compact=_names(fields["maximal_compact"], "+"),
                    where=fields.where,
                )
            else:
                record = _parse_embedding(fields, name)
            tables[kind][name] = record
        catalog = cls(tables["group"], tables["realform"], tables["embedding"])
        if validate:
            catalog.validate()
        return catalog

    def validate(self):
        for _, _, err in self.validation_report():
            if err is not None:
                raise CatalogError(err)

    def validation_report(self):
        """(record name, kind, error-or-None) for every record; errors start with `path:line`."""
        report = []
        for kind, records in (
            ("group", self.groups),
            ("realform", self.real_forms),
            ("embedding", self.embeddings),
        ):
            for record in records.values():
                try:
                    record.validate(self.groups)
                    report.append((record.name, kind, None))
                except CatalogError as exc:
                    report.append((record.name, kind, f"{record.where}: {exc}"))
        return report

    def lookup_group(self, name) -> GroupDatum:
        return _lookup(self.groups, "group", name)

    def lookup_real_form(self, name) -> RealFormDatum:
        return _lookup(self.real_forms, "real form", name)

    def case_from_fields(self, name, fields):
        """A CaseSpec from a `[case NAME]` Section, checked against the catalog."""
        g = fields.convert("g", self.lookup_real_form)
        h = fields.convert("h", self.lookup_real_form)
        if g.d_value < h.d_value:
            raise fields.error(
                f"d(G) = {g.d_value} < d(H) = {h.d_value}; "
                "no proper cocompact action exists",
                "h",
            )
        g_u = self.lookup_group(g.compact_dual)
        k_h = None
        if "k_h" in fields:
            k_h = fields.convert("k_h", self.lookup_group)
        embedding = None
        if "embedding" in fields:
            embedding = fields.convert(
                "embedding", lambda key: _lookup(self.embeddings, "embedding", key)
            )
            if k_h is None:
                raise fields.error("an embedding needs a k_h field", "embedding")
            if (embedding.ambient, embedding.subgroup) != (g.compact_dual, k_h.name):
                raise fields.error(
                    f"embedding {embedding.name!r} is not "
                    f"{g.compact_dual} > {k_h.name}, as g and k_h require",
                    "embedding",
                )
            if len(g_u.family) != 1:
                message = f"ambient group {g_u.name} of {embedding.name!r} is not simple"
                raise fields.error(message, "embedding")
        h_compact = fields.get("h_compact", "false").lower() in ("true", "yes", "1")
        if not h_compact and h.d_value == 0:
            h_compact = True
        h_u = self.lookup_group(h.compact_dual)
        return CaseSpec(name, g, h, g_u, h_u, k_h, embedding, h_compact)

    def load_case_file(self, path):
        cases = []
        for fields in read_sections(read_text(path), str(path)):
            kind, _, name = fields.header.partition(" ")
            if kind != "case":
                raise fields.error("expected [case ...] sections")
            cases.append(self.case_from_fields(name.strip(), fields))
        return cases


def default_catalog_path():
    override = os.environ.get("HOMCOH_CATALOG")
    if override:
        return override
    return str(resources.files("homcoh").joinpath("data/catalog.txt"))


def load_catalog(path=None, validate=True) -> Catalog:
    path = path or default_catalog_path()
    return Catalog.from_text(read_text(path), path, validate=validate)


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
