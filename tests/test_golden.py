"""Golden outputs: `--format json` stdout and exit codes of the CLI.

Each invocation below has its recorded stdout in `tests/golden/<name>.json`
and its exit code in `tests/golden/exit_codes.json`.  The test compares both
byte for byte, so a change that alters any reported number, key or exit code
fails here.  To record the outputs anew (only when a change of output is
intended), run from the repository root:

    PYTHONPATH=src python tests/test_golden.py --write
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from homcoh import cli
from homcoh.catalog import bundled_case_paths, default_catalog_path

GOLDEN = Path(__file__).parent / "golden"
DATA = Path(default_catalog_path()).parent


def _invocations():
    out = {}
    for path in sorted((DATA / "cdga").glob("*.cdga")):
        for cutoff in (0, 12, 26, 40):
            out[f"cohomology-{path.stem}-{cutoff}"] = [
                "--format", "json", "cohomology", "--cutoff", str(cutoff), str(path)
            ]
    for path in bundled_case_paths():
        stem = Path(path).stem
        out[f"check-{stem}-default"] = ["--format", "json", "check", str(path)]
        for cutoff in (12, 60):
            out[f"check-{stem}-{cutoff}"] = [
                "--format", "json", "check", "--cutoff", str(cutoff), str(path)
            ]
    return out


INVOCATIONS = _invocations()


def _run(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return buf.getvalue(), code


@pytest.mark.parametrize("name", sorted(INVOCATIONS))
def test_json_output_matches_golden(name):
    stdout, code = _run(INVOCATIONS[name])
    assert stdout == (GOLDEN / f"{name}.json").read_text(encoding="utf-8")
    assert code == json.loads((GOLDEN / "exit_codes.json").read_text())[name]


def _write():
    GOLDEN.mkdir(exist_ok=True)
    codes = {}
    for name, argv in sorted(INVOCATIONS.items()):
        stdout, codes[name] = _run(argv)
        (GOLDEN / f"{name}.json").write_text(stdout, encoding="utf-8")
    (GOLDEN / "exit_codes.json").write_text(json.dumps(codes, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_golden.py --write")
    _write()
