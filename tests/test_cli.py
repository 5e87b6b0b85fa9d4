import contextlib
import importlib
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

from conftest import LONG_SUM, WIDE_SQUARE
from homcoh import catalog, cdga, cli
from homcoh.catalog import bundled_case_paths, default_catalog_path

DATA = Path(default_catalog_path()).parent
MODULES = ("linalg", "poly", "groebner", "cdga", "catalog", "obstruct", "cli")


def run_cli(*args, expect=0):
    result = subprocess.run(
        [sys.executable, "-m", "homcoh.cli", *args],
        capture_output=True,
        text=True,
    )
    assert result.returncode == expect, result.stderr or result.stdout
    return result


def test_check_bundled_cases_text():
    result = run_cli("check", *bundled_case_paths(), expect=2)
    out = result.stdout
    assert out.count("case:") == 4
    assert out.count("verdict: no-amenable-form") == 2
    assert out.count("verdict: inconclusive") == 1
    assert out.count("verdict: vacuous-h-compact") == 1


def test_check_empty_file_list_is_usage_error():
    result = run_cli("check", expect=1)
    assert "no case files" in result.stderr


def test_check_negative_cutoff_is_input_error():
    result = run_cli("check", "--cutoff", "-3", *bundled_case_paths(), expect=1)
    assert "--cutoff must be non-negative" in result.stderr
    assert result.stdout == ""


def test_check_unknown_group_key(tmp_path):
    bad = tmp_path / "bad.case"
    bad.write_text("[case x/y]\ng = nosuchgroup\nh = g2(2)\n")
    result = run_cli("check", str(bad), expect=1)
    assert "nosuchgroup" in result.stderr


def test_check_parse_error_names_file(tmp_path):
    bad = tmp_path / "broken.case"
    bad.write_text("[case x/y]\nthis line has no equals sign\n")
    result = run_cli("check", str(bad), expect=1)
    assert "broken.case" in result.stderr


def test_check_json_output_roundtrips_and_is_stable():
    paths = bundled_case_paths()
    first = run_cli("--format", "json", "check", *paths, expect=2)
    second = run_cli("--format", "json", "check", *paths, expect=2)
    assert first.stdout == second.stdout  # byte-stable
    payload = json.loads(first.stdout)
    assert len(payload["reports"]) == 4
    assert json.loads(json.dumps(payload)) == payload


def test_check_text_and_json_verdicts_agree():
    paths = bundled_case_paths()
    text_out = run_cli("check", *paths, expect=2).stdout
    payload = json.loads(run_cli("--format", "json", "check", *paths, expect=2).stdout)
    for report in payload["reports"]:
        assert f"verdict: {report['verdict']}" in text_out


def test_check_filtered_checks():
    paths = bundled_case_paths()
    payload = json.loads(
        run_cli("--format", "json", "check", "--checks", "rank", *paths, expect=2).stdout
    )
    for report in payload["reports"]:
        assert all(c["name"] == "rank" for c in report["checks"])


def test_cohomology_cp1():
    result = run_cli(
        "cohomology", str(DATA / "cdga" / "cp1.cdga"), "--cutoff", "2"
    )
    assert "1 + t^2" in result.stdout
    assert "deg 2: 1" in result.stdout


def test_cohomology_sphere3():
    result = run_cli("cohomology", str(DATA / "cdga" / "sphere3.cdga"), "--cutoff", "3")
    assert "1 + t^3" in result.stdout


def test_cohomology_so8_fixture_degree_8():
    result = run_cli(
        "cohomology", str(DATA / "cdga" / "so8_so3so3.cdga"), "--cutoff", "8"
    )
    assert "deg 8: 1" in result.stdout


def test_cohomology_requires_cutoff():
    run_cli("cohomology", str(DATA / "cdga" / "cp1.cdga"), expect=1)


def test_cohomology_negative_cutoff_is_input_error():
    result = run_cli(
        "cohomology", str(DATA / "cdga" / "cp1.cdga"), "--cutoff", "-3", expect=1
    )
    assert "--cutoff must be non-negative" in result.stderr
    assert result.stdout == ""


def test_member_true():
    # the degree-8 restriction lies in the ideal of the degree-4 one
    result = run_cli(
        "member",
        str(DATA / "ideals" / "restricted_d4.ideal"),
        "x2^4 + 2*x2^3*x3 + 3*x2^2*x3^2 + 2*x2*x3^3 + x3^4",
    )
    assert "member: true" in result.stdout


@pytest.mark.parametrize("polynomial", [" x2", "x2 "])
def test_member_argument_may_have_white_space_at_either_end(capsys, polynomial):
    assert cli.main(["member", str(DATA / "ideals" / "restricted_d4.ideal"), polynomial]) == 0
    assert capsys.readouterr().out == "member: false, normal form: x2\n"


def test_member_false_with_normal_form(tmp_path):
    ideal = tmp_path / "x2.ideal"
    ideal.write_text("vars = x\nx^2\n")
    result = run_cli("member", str(ideal), "x")
    assert "member: false" in result.stdout
    assert "normal form: x" in result.stdout


def test_member_zero_polynomial(tmp_path):
    ideal = tmp_path / "g4.ideal"
    ideal.write_text("vars = x2, x3\n2*x2^2 + 2*x2*x3 + 2*x3^2\n")
    result = run_cli("member", str(ideal), "0")
    assert "member: true" in result.stdout


def test_groebner_prints_basis():
    result = run_cli("groebner", str(DATA / "ideals" / "restricted_d4.ideal"))
    assert "x2^2 + x2*x3 + x3^2" in result.stdout


def test_catalog_table():
    result = run_cli("catalog")
    assert "so(8)" in result.stdout
    assert "28" in result.stdout
    assert "3,7,7,11" in result.stdout
    assert "validation: all records consistent" in result.stdout


def test_catalog_override_with_corrupted_file(tmp_path):
    bad = tmp_path / "catalog.txt"
    bad.write_text(
        "[group so(8)]\nfamily = D4\ndimension = 28\nrank = 4\n"
        "weyl_order = 191\nprimitive_degrees = 3, 7, 7, 11\n"
        "invariant_degrees = 4, 8, 8, 12\n"
    )
    result = run_cli("--catalog", str(bad), "catalog")
    assert "INVALID" in result.stdout


def test_catalog_missing_field_is_input_error(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text(
        "# no dimension\n[group so(8)]\nfamily = D4\nrank = 4\nweyl_order = 192\n"
        "primitive_degrees = 3, 7, 7, 11\ninvariant_degrees = 4, 8, 8, 12\n"
    )
    result = run_cli("--catalog", str(bad), "catalog", expect=1)
    assert f"{bad}:2:" in result.stderr
    assert "missing field 'dimension'" in result.stderr
    assert "Traceback" not in result.stderr
    assert result.stdout == ""


@pytest.mark.parametrize("present, missing", [("g = so(4,4)", "h"), ("h = g2(2)", "g")])
def test_case_missing_field_is_input_error(tmp_path, present, missing):
    bad = tmp_path / "bad.case"
    bad.write_text(f"\n[case x/y]\n{present}\n")
    result = run_cli("check", str(bad), expect=1)
    assert result.stderr == f"error: {bad}:2: [case x/y] missing field {missing!r}\n"
    assert result.stdout == ""


def test_catalog_env_var_override(tmp_path, monkeypatch):
    empty = tmp_path / "catalog.txt"
    empty.write_text("")
    env = {"HOMCOH_CATALOG": str(empty), "PATH": "/usr/bin:/bin"}
    for name in ("PYTHONPATH", "PYTHONDONTWRITEBYTECODE"):
        if name in os.environ:
            env[name] = os.environ[name]
    result = subprocess.run(
        [sys.executable, "-m", "homcoh.cli", "catalog"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert result.returncode == 0
    assert "so(8)" not in result.stdout


CATALOG = (DATA / "catalog.txt").read_text()
CASE_3 = str(DATA / "cases" / "03_so35_g22.case")
EMBEDDING = "embedding = so(8) > so(3)xso(3)"
HEADER = "[embedding so(8) > so(3)xso(3)]"
COORDINATES = "subgroup_coordinates = x2 - x3, x2 + x3"
INVARIANTS = "subgroup_invariants = x2^2 + x2*x3 + x3^2, x2*x3"
CHECK_3 = ("--catalog", "{}", "check", CASE_3)
# An embedding into so(8) of su(2)xsu(2), whose A1 coordinate blocks do not sum to 0.
A1_BLOCKS = """
[embedding so(8) > su(2)xsu(2)]
source_vars = x1, x2, x3, x4
target_vars = x2, x3
map x1 = 0
map x2 = x2
map x3 = x3
map x4 = x2 + x3
subgroup_coordinates = x2, x3, -x2, -x3
subgroup_invariants = x2^2, x3^2
"""

# A torus so(2) as the group D1, whose Weyl invariants no family table gives.
D1_SUBGROUP = """
[group so(2)]
family = D1
dimension = 1
rank = 1
weyl_order = 1
primitive_degrees = 1
invariant_degrees = 2

[embedding so(3) > so(2)]
source_vars = x1
target_vars = t
map x1 = t
subgroup_coordinates = t
subgroup_invariants = t
"""


def edited(old, new):
    """The bundled catalog with the text old replaced by new."""
    assert old in CATALOG
    return CATALOG.replace(old, new)

# u^2 in 330 pairs of parentheses, deeper than the parser's recursion could go
DEEP = "(" * 330 + "u^2" + ")" * 330


# (file name, contents, the line the error must name, argv with {} for the file)
BAD_INPUTS = [
    ("dup.cdga", "[generators]\nu = 2\ny3 = 3\n[differential]\ny3 = u^2\ny3 = 0\n",
     "y3 = 0", ("cohomology", "{}", "--cutoff", "4")),
    ("int.cdga", "[generators]\nu = 2x\n", "u = 2x", ("cohomology", "{}", "--cutoff", "4")),
    ("int.txt", CATALOG.replace("dimension = 3\n", "dimension = 2x8\n", 1),
     "dimension = 2x8", ("--catalog", "{}", "catalog")),
    ("family.txt", CATALOG.replace("family = A1\n", "family = Aq\n", 1),
     "family = Aq", ("--catalog", "{}", "catalog")),
    ("dupmap.txt", CATALOG + "map x4 = x2\n", "map x4 = x2", ("--catalog", "{}", "check", CASE_3)),
    ("badmap.txt", CATALOG.replace("map x4 = x2 + x3", "map x4 = x2 + y"),
     "map x4 = x2 + y", ("--catalog", "{}", "catalog")),
    ("noname.txt", CATALOG + "[embedding]\n", "[embedding]", ("--catalog", "{}", "catalog")),
    ("nosuch.case", "[case x]\ng = so(4,4)\nh = nosuch\n", "h = nosuch", ("check", "{}")),
    ("nokh.case", f"[case x]\ng = so(3,5)\nh = g2(2)\n{EMBEDDING}\n", EMBEDDING, ("check", "{}")),
    ("mismatch.case", f"[case x]\ng = so(4,4)\nh = su(1,2)\nk_h = su(2)\n{EMBEDDING}\n",
     EMBEDDING, ("check", "{}")),
    ("dvalue.case", "[case x]\ng = g2(2)\nh = so(4,4)\n", "h = so(4,4)", ("check", "{}")),
    ("degree.ideal", "vars = x:q\nx^2\n", "vars = x:q", ("groebner", "{}")),
    ("odd.ideal", "vars = x:3, y\nx^2\n", "vars = x:3, y", ("groebner", "{}")),
    ("weyl.txt", CATALOG.replace("weyl_order = 192", "weyl_order = 191"),
     "[group so(8)]", CHECK_3),
    ("nonlinear.txt", edited("map x4 = x2 + x3", "map x4 = x2*x3"), "map x4 = x2*x3",
     ("--catalog", "{}", "catalog")),
    ("notonto.txt", edited("map x3 = x3\nmap x4 = x2 + x3", "map x3 = x2\nmap x4 = 2*x2"), HEADER,
     ("--catalog", "{}", "catalog")),
    ("coordinate.txt", edited(COORDINATES, "subgroup_coordinates = x2 - x3, x2*x3"),
     "subgroup_coordinates = x2 - x3, x2*x3", ("--catalog", "{}", "catalog")),
    ("coordinates.txt", edited(COORDINATES, "subgroup_coordinates = x2 - x3"), HEADER, CHECK_3),
    ("blocksum.txt", CATALOG + A1_BLOCKS, "[embedding so(8) > su(2)xsu(2)]", CHECK_3),
    ("coordrank.txt", edited(COORDINATES, "subgroup_coordinates = x2 - x3, 2*x3 - 2*x2"), HEADER,
     CHECK_3),
    ("targetvars.txt", edited("target_vars = x2, x3\nmap x1 = 0", "target_vars = x2, x3, x5\n"
                              "map x1 = x5"), HEADER, CHECK_3),
    ("invariants.txt", edited(INVARIANTS, "subgroup_invariants = x2^2 + x2*x3 + x3^2"), HEADER,
     CHECK_3),
    ("homogeneous.txt", edited(INVARIANTS, INVARIANTS + " + x2"), HEADER, CHECK_3),
    ("degrees.txt", edited(INVARIANTS, "subgroup_invariants = x2^2 + x2*x3 + x3^2, x2^3*x3"),
     HEADER, CHECK_3),
    ("d1.txt", CATALOG + D1_SUBGROUP, "[embedding so(3) > so(2)]", CHECK_3),
    # Each of these once passed as a catalog and turned case 3 into a false
    # no-amenable-form verdict; now the invariant certificate refuses it.
    ("x4_x2.txt", edited("map x4 = x2 + x3", "map x4 = x2"), HEADER, CHECK_3),
    ("x4_x2_2x3.txt", edited("map x4 = x2 + x3", "map x4 = x2 + 2*x3"), HEADER, CHECK_3),
    ("x1_x2.txt", edited("map x1 = 0", "map x1 = x2"), HEADER, CHECK_3),
    ("x1_x3.txt", edited("map x1 = 0", "map x1 = x3"), HEADER, CHECK_3),
    ("guess.txt", edited(INVARIANTS, "subgroup_invariants = x2^2 + x2*x3 + x3^2, x3^2"), HEADER,
     CHECK_3),
    ("nonsimple.case", "[case x]\ng = so(1,2)xso(1,2)\nh = su(1,2)\nk_h = su(2)\n"
     "embedding = so(3)xso(3) > su(2)\n", "embedding = so(3)xso(3) > su(2)",
     ("--catalog", "{catalog}", "check", "{}")),
    ("deep.cdga", f"[generators]\nu = 2\ny3 = 3\n[differential]\ny3 = {DEEP}\n", f"y3 = {DEEP}",
     ("cohomology", "{}", "--cutoff", "4")),
    ("deep.ideal", f"vars = u\n{DEEP}\n", DEEP, ("groebner", "{}")),
    ("b.cdga", "[generators]\nx = 2\ny = 3\n[differential]\ny = x\n", "y = x",
     ("cohomology", "{}", "--cutoff", "4")),
    ("d.cdga", "[generators]\nx = 2\ny = 3\n[differential]\ny = x^2 + 1\n", "y = x^2 + 1",
     ("cohomology", "{}", "--cutoff", "4")),
]

# The bundled catalog plus a real form whose compact dual is not simple, and
# an embedding with that ambient group.
NONSIMPLE_CATALOG = CATALOG + """
[realform so(1,2)xso(1,2)]
compact_dual = so(3)xso(3)
dimension = 6
d_value = 4
maximal_compact = u(1) + u(1)

[embedding so(3)xso(3) > su(2)]
source_vars = x1, x2
target_vars = t
map x1 = t
map x2 = t
subgroup_coordinates = t, -t
subgroup_invariants = t^2
"""


@pytest.mark.parametrize(
    "name, text, bad_line, argv", BAD_INPUTS, ids=[row[0] for row in BAD_INPUTS]
)
def test_bad_input_is_one_error_line_with_its_line(tmp_path, name, text, bad_line, argv):
    bad = tmp_path / name
    bad.write_text(text)
    nonsimple = tmp_path / "nonsimple.txt"
    nonsimple.write_text(NONSIMPLE_CATALOG)
    lineno = text.splitlines().index(bad_line) + 1
    result = run_cli(*(arg.format(bad, catalog=nonsimple) for arg in argv), expect=1)
    assert result.stderr.startswith(f"error: {bad}:{lineno}: ")
    assert result.stderr.count("\n") == 1 and result.stderr.endswith("\n")
    assert "Traceback" not in result.stderr
    assert result.stdout == ""


@pytest.mark.parametrize(
    "polynomial, message",
    [
        ("\u0663*x2^\u0662", "cannot parse polynomial at position 0: '\u0663*x2^\u0662'"),
        ("x2 + \u0663", "cannot parse polynomial at position 4: ' \u0663'"),
        ("(" * 101 + "x2" + ")" * 101, "parentheses nested more than 100 deep"),
    ],
    ids=["arabic-indic-digits", "arabic-indic-digit-last", "nesting"],
)
def test_bad_member_argument_is_one_error_line(capsys, polynomial, message):
    ideal = DATA / "ideals" / "restricted_d4.ideal"
    assert cli.main(["member", str(ideal), polynomial]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: polynomial {polynomial!r}: {message}\n"


def test_cdga_differential_errors_name_the_generator(tmp_path, capsys):
    model = tmp_path / "d.cdga"
    model.write_text("[generators]\nx = 2\ny = 3\n[differential]\ny = x^2 + 1\n")
    assert cli.main(["cohomology", str(model), "--cutoff", "4"]) == 1
    assert capsys.readouterr().err == (
        f"error: {model}:5: y: d(y) must be homogeneous of degree 4, got degrees 0, 4\n"
    )
    model.write_text("[generators]\nx = 2\ny = 3\n[differential]\ny = x\n")
    assert cli.main(["cohomology", str(model), "--cutoff", "4"]) == 1
    assert capsys.readouterr().err == (
        f"error: {model}:5: y: d(y) must be homogeneous of degree 4, got degree 2\n"
    )


@pytest.mark.parametrize(
    "text",
    ["vars = x\n(x+1)^3000\n", "vars = " + ", ".join(f"x{i}" for i in range(1, 9))
     + "\n(" + " + ".join(f"x{i}" for i in range(1, 9)) + ")^60\n",
     "vars = x, y, z\n(x+y+z)^256\n", "vars = x, y, z, w\n(x+y+z+w)^80\n",
     "vars = x\n((2^256)^256)^16*x\n", f"vars = x\n{WIDE_SQUARE}\n", f"vars = x\n{LONG_SUM}\n"],
    ids=["degree", "terms", "power-work-3", "power-work-4", "coefficient", "coefficient-product",
         "coefficient-sum"],
)
def test_oversized_power_is_rejected_at_once(tmp_path, capsys, text):
    ideal = tmp_path / "big.ideal"
    ideal.write_text(text)
    start = time.perf_counter()
    assert cli.main(["groebner", str(ideal)]) == 1
    assert time.perf_counter() - start < 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"error: {ideal}:2: ")


TWO_GENERATORS = "[generators]\nu = 2\ny3 = 3\n\n[differential]\ny3 = u^2\n"


@pytest.mark.parametrize("command", ["cohomology", "check"])
def test_oversized_cutoff_is_rejected_at_once(tmp_path, capsys, command):
    model = tmp_path / "two.cdga"
    model.write_text(TWO_GENERATORS)
    path = model if command == "cohomology" else bundled_case_paths()[0]
    start = time.perf_counter()
    assert cli.main([command, str(path), "--cutoff", "99999999999999999999"]) == 1
    assert time.perf_counter() - start < 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: --cutoff must be at most 512, got 99999999999999999999\n"


def test_cutoff_limit_is_accepted(tmp_path, capsys):
    model = tmp_path / "two.cdga"
    model.write_text(TWO_GENERATORS)
    assert cli.main(["--format", "json", "cohomology", str(model), "--cutoff", "512"]) == 0
    dims = json.loads(capsys.readouterr().out)["dims"]
    assert len(dims) == 513 and dims[:3] == [1, 0, 1] and sum(dims) == 2
    assert cli.main(["check", str(bundled_case_paths()[0]), "--cutoff", "512"]) == 0
    assert cli.main(["cohomology", str(model), "--cutoff", "513"]) == 1
    assert capsys.readouterr().err == "error: --cutoff must be at most 512, got 513\n"


def test_many_odd_generators_are_not_walked_subset_by_subset(tmp_path, capsys):
    """Only the odd subsets whose degree fits the graded piece are enumerated."""
    model = tmp_path / "exterior40.cdga"
    model.write_text("[generators]\n" + "".join(f"y{i} = 1\n" for i in range(40)))
    start = time.perf_counter()
    assert cli.main(["--format", "json", "cohomology", str(model), "--cutoff", "3"]) == 0
    assert time.perf_counter() - start < 1
    assert json.loads(capsys.readouterr().out)["dims"] == [1, 40, 780, 9880]


def test_every_bundled_input_parses():
    cat = catalog.load_catalog()
    for path in bundled_case_paths():
        assert cat.load_case_file(path)
    for path in sorted((DATA / "cdga").glob("*.cdga")):
        cdga.cdga_from_text(path.read_text(), str(path))
    for path in sorted((DATA / "ideals").glob("*.ideal")):
        assert cli._read_ideal_file(path)[1]


def test_every_benchmark_input_parses(tmp_path):
    """One full-size round of each benchmark workload runs without an input error."""
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.pop(0)
    hc = SimpleNamespace(**{m: importlib.import_module(f"homcoh.{m}") for m in MODULES})
    for workload in workloads.WORKLOADS:
        for job in workloads.build(workload, 7, tmp_path, hc):
            with contextlib.redirect_stderr(io.StringIO()) as err:
                output = job.run(hc)
            if isinstance(output, tuple):  # a CLI job: (exit code, stdout)
                assert output[0] in (0, 2), (job.name, err.getvalue())
