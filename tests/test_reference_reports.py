"""Each reference report under perfbench/reference/ is reproduced byte for byte.

`<name>.json` holds the argv and the exit code, `<name>.out` the report the
CLI printed for that argv.  The files are only read here.
"""

import json
from pathlib import Path

import pytest

from coclass import cli

REFERENCE = Path(__file__).resolve().parent.parent / "perfbench" / "reference"


@pytest.mark.parametrize("name", sorted(p.stem for p in REFERENCE.glob("*.out")))
def test_reference_report_is_reproduced(capsys, name):
    meta = json.loads((REFERENCE / (name + ".json")).read_text())
    code = cli.main(meta["argv"])
    out = capsys.readouterr().out.encode()
    assert code == meta["exit_code"]
    assert out == (REFERENCE / (name + ".out")).read_bytes()
