"""Each reference report under perfbench/reference/ and each stored report
under tests/data/ is reproduced byte for byte.

`<name>.json` holds the argv and the exit code, `<name>.out` the report the
CLI printed for that argv.  The files are only read here.
"""

import json
from pathlib import Path

import pytest

from coclass import cli

REFERENCE = Path(__file__).resolve().parent.parent / "perfbench" / "reference"
DATA = Path(__file__).resolve().parent / "data"

# stored report -> the argv that prints it from the root of the checkout,
# each with exit code 0
STORED = {
    "c3_eisenstein.run-all.out": ["run-all", "--scenario", "tests/data/c3_eisenstein.json"],
    "dihedral_mainline.branch-i5-k2-shift.out":
        ["branch", "--scenario", "dihedral_mainline", "--i", "5", "--k", "2", "--shift"],
    "d8_gaussian.verify-lcs-4096.out":
        ["verify-lcs", "--scenario", "d8_gaussian", "--max-order", "4096"],
}


@pytest.mark.parametrize("name", sorted(p.stem for p in REFERENCE.glob("*.out")))
def test_reference_report_is_reproduced(capsys, name):
    meta = json.loads((REFERENCE / (name + ".json")).read_text())
    code = cli.main(meta["argv"])
    out = capsys.readouterr().out.encode()
    assert code == meta["exit_code"]
    assert out == (REFERENCE / (name + ".out")).read_bytes()


@pytest.mark.parametrize("name", sorted(STORED))
def test_stored_report_is_reproduced(capsys, monkeypatch, name):
    monkeypatch.chdir(DATA.parent.parent)
    assert cli.main(STORED[name]) == 0
    assert capsys.readouterr().out.encode() == (DATA / name).read_bytes()
