"""Mutated input files give an exit code and at most one error line.

Each bundled catalog, case, `.cdga` and `.ideal` file is mutated by deleting,
duplicating or swapping lines and by splicing junk into a value, then run
through `cli.main` in this process.  The property: `main` returns 0, 1 or 2
and raises nothing; when it returns 1 it prints nothing on standard output
and exactly one `error: ` line on standard error.
"""

from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from homcoh import cli
from homcoh.catalog import bundled_case_paths, default_catalog_path

DATA = Path(default_catalog_path()).parent
JUNK = st.text(alphabet="0123456789abgsuxyAGq^*+-/()=[]#:,>' ", max_size=6)
FUZZ = settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


@st.composite
def mutated(draw, text):
    lines = text.splitlines()
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        op = draw(st.sampled_from(("delete", "duplicate", "swap", "junk")))
        if op == "delete":
            del lines[i]
        elif op == "duplicate":
            lines.insert(i, lines[i])
        elif op == "swap":
            j = draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
        else:
            line = lines[i]
            at = draw(st.integers(line.find("=") + 1, len(line)))
            lines[i] = line[:at] + draw(JUNK) + line[at:]
        if not lines:
            break
    return "\n".join(lines) + "\n"


CASE_3 = str(DATA / "cases" / "03_so35_g22.case")
INPUTS = [
    (DATA / "catalog.txt", ("--catalog", "{}", "catalog")),
    (DATA / "ideals" / "restricted_d4.ideal", ("groebner", "{}")),
    *((Path(case), ("check", "{}")) for case in bundled_case_paths()),
    *((model, ("cohomology", "{}", "--cutoff", "8")) for model in sorted(DATA.glob("cdga/*.cdga"))),
    (DATA / "catalog.txt", ("--catalog", "{}", "check", CASE_3)),
]
# The catalog is mutated twice: loaded alone, and used by the tncz check of case 3.
IDS = [source.name for source, _ in INPUTS[:-1]] + ["catalog.txt-check"]


@pytest.mark.parametrize("source, argv", INPUTS, ids=IDS)
@FUZZ
@given(data=st.data())
def test_mutated_input_file(tmp_path, capsys, source, argv, data):
    path = tmp_path / source.name
    path.write_text(data.draw(mutated(source.read_text())))
    code = cli.main([arg.format(path) for arg in argv])
    out, err = capsys.readouterr()
    assert code in (0, 1, 2)
    if code == 1:
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1, err
