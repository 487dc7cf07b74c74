"""Each reference report under perfbench/reference/ and each stored report
and DOT file under tests/data/ is reproduced byte for byte.

`<name>.json` holds the argv and the exit code, `<name>.out` the report the
CLI printed for that argv.  The files are only read here.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from coclass import cli, scenarios

from brute_force import build_extension, coclass_of_extension, table_class

REFERENCE = Path(__file__).resolve().parent.parent / "perfbench" / "reference"
DATA = Path(__file__).resolve().parent / "data"

# stored report -> the argv that prints it from the root of the checkout,
# each with exit code 0
STORED = {
    "c3_eisenstein.run-all.out": ["run-all", "--scenario", "tests/data/c3_eisenstein.json"],
    "c3_eisenstein_p19.run-all.out":
        ["run-all", "--scenario", "tests/data/c3_eisenstein_p19.json"],
    "dihedral_p9_d7.run-all.out": ["run-all", "--scenario", "tests/data/dihedral_p9_d7.json"],
    "dihedral_mainline.branch-i5-k2-shift.out":
        ["branch", "--scenario", "dihedral_mainline", "--i", "5", "--k", "2", "--shift"],
    "dihedral_mainline.branch-i3-k3-shift.out":
        ["branch", "--scenario", "dihedral_mainline", "--i", "3", "--k", "3", "--shift"],
    # the one stored branch with p = 3: each vertex certificate reads the
    # class of its base off the series of the extension
    "c3_eisenstein.branch-i4-k1.out":
        ["branch", "--scenario", "tests/data/c3_eisenstein.json", "--i", "4", "--k", "1"],
    "d8_gaussian.verify-lcs-4096.out":
        ["verify-lcs", "--scenario", "d8_gaussian", "--max-order", "4096"],
    "dihedral_mainline.verify-lcs-2048.out":
        ["verify-lcs", "--scenario", "dihedral_mainline", "--max-order", "2048"],
    # past the order 4096 of the largest table: d8 at depth 12 and every
    # chain index of the C3 file
    "d8_gaussian_depth12.verify-lcs-32768.out":
        ["verify-lcs", "--scenario", "tests/data/d8_gaussian_depth12.json",
         "--max-order", "32768"],
    "c3_eisenstein.verify-lcs-177147.out":
        ["verify-lcs", "--scenario", "tests/data/c3_eisenstein.json", "--max-order", "177147"],
    "d8_gaussian.cohomology-n3-d3.out":
        ["cohomology", "--scenario", "d8_gaussian", "--n", "3", "--degree", "3"],
    # p = 5 on Z_5[zeta_5], rechecked at 5^15, past the int64 product bound
    "c5_cyclotomic.cohomology-n4-d2.out":
        ["cohomology", "--scenario", "tests/data/c5_cyclotomic.json", "--n", "4",
         "--degree", "2"],
    # the extension over d8's order-32 top quotient, whose chain is pulled back
    "d8_gaussian.extend-mainline-1.out":
        ["extend", "--scenario", "d8_gaussian", "--cocycle",
         "tests/data/mainline_level1.cocycle.json"],
    # order 2048, above the 512 that the extension table once allowed
    "dihedral_mainline.extend-mainline-9.out":
        ["extend", "--scenario", "dihedral_mainline", "--cocycle",
         "tests/data/mainline_level9.cocycle.json"],
    # the summand witness, the H^2 orbits and the orbit correspondence, which
    # solve over Howell forms and list every H^2 coordinate
    "d8_gaussian.verify-counterexample.out":
        ["verify-counterexample", "--scenario", "d8_gaussian"],
    "d8_gaussian.orbits-n3.out": ["orbits", "--scenario", "d8_gaussian", "--n", "3"],
    "d8_gaussian.correspondence.out": ["correspondence", "--scenario", "d8_gaussian"],
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


@pytest.mark.parametrize("precision", [20, 22])
def test_c3_past_the_int64_product_bound_gives_the_precision_19_report(
        capsys, monkeypatch, tmp_path, precision):
    # (3^20 - 1)^2 > 2^63, so the lattice products are formed in Python ints;
    # the report is the precision-19 one, but for the file path and the name
    monkeypatch.chdir(DATA.parent.parent)
    name = "c3_eisenstein_p%d" % precision
    path = "tests/data/%s.json" % name
    if precision != 22:  # precision 22 is stored, 20 is a copy
        data = json.loads((DATA / "c3_eisenstein_p19.json").read_text())
        path = str(tmp_path / (name + ".json"))
        Path(path).write_text(json.dumps(dict(data, name=name, precision=precision)))
    assert cli.main(["run-all", "--scenario", path]) == 0
    want = (DATA / "c3_eisenstein_p19.run-all.out").read_text().replace(
        "tests/data/c3_eisenstein_p19.json", path).replace("c3_eisenstein_p19", name)
    assert capsys.readouterr().out == want


@pytest.mark.parametrize("name, depth", [("d8_gaussian_depth12.verify-lcs-32768.out", 12),
                                         ("c3_eisenstein.verify-lcs-177147.out", 10)])
def test_lcs_reports_past_the_table_oracle_identify_every_fiber_term(name, depth):
    # no table oracle reaches these orders, so each identified term is checked
    # against the order of the image of T_j in T / T_m, p^(steps[m] - steps[j]),
    # and every (m, 1 + j) with top_offset <= j <= m must be identified
    report = json.loads((DATA / name).read_text())
    scn = scenarios.load_scenario(str(DATA.parent.parent / STORED[name][2]))
    steps = scn.chain().index_exponents
    terms = [tuple(int(t[k]) for k in ("chain_index", "lcs_index", "size"))
             for t in report["identified_terms"]]
    assert report["ok"] is True and report["max_chain_index"] == str(depth)
    assert [(m, li) for m, li, _ in terms] == [
        (m, 1 + j) for m in range(1, depth + 1) for j in range(scn.top_offset, m + 1)]
    assert all(size == scn.p ** (steps[m] - steps[li - 1]) for m, li, size in terms)


def test_the_level_9_extend_report_matches_the_table_oracle():
    # the stored report of the order-2048 mainline extension, read again off
    # its multiplication table (2048 <= groups.CLOSURE_CAP)
    name = "dihedral_mainline.extend-mainline-9.out"
    report = json.loads((DATA / name).read_text())
    top = scenarios.load_scenario("dihedral_mainline").top()
    A = top.quotient(9).module
    ext = build_extension(top.group, A, top.mainline_cocycle(9))
    cc, flag = coclass_of_extension(ext, l=top.l)
    assert (report["order"], report["nilpotency_class"], report["coclass"]) == (
        str(ext.order), str(table_class(ext.table)), str(cc))
    assert report["has_top_coclass"] is flag is True


def test_stored_dot_file_is_reproduced(capsys, tmp_path):
    # the DOT labels are read off each vertex's element-order spectrum
    dot = tmp_path / "branch.dot"
    assert cli.main(["branch", "--scenario", "dihedral_mainline", "--i", "7", "--k", "1",
                     "--shift", "--dot", str(dot)]) == 0
    capsys.readouterr()
    assert dot.read_bytes() == (DATA / "dihedral_mainline.branch-i7-k1-shift.dot").read_bytes()


# A child's ru_maxrss starts at the peak of the process it was forked from,
# so the CLI is started by a fresh, small interpreter, which reads the CLI's
# own peak through os.wait4 (RUSAGE_CHILDREN would give the largest earlier
# child) and prints its exit code and that peak in KiB.
LAUNCH = ("import os, subprocess, sys\n"
          "with open(sys.argv[1], 'wb') as sink:\n"
          "    child = subprocess.Popen(sys.argv[2:], stdout=sink)\n"
          "_, status, usage = os.wait4(child.pid, 0)\n"
          "child.returncode = os.waitstatus_to_exitcode(status)\n"
          "print(child.returncode, usage.ru_maxrss)\n")


def test_verify_lcs_at_order_4096_stays_under_100_mib(tmp_path):
    # the quotients are read in coordinates, with no table, so the run peaks
    # near 32 MiB, where an order-4096 table alone is 32 MiB of int16 entries
    out = tmp_path / "lcs.out"
    env = dict(os.environ, PYTHONPATH=str(DATA.parent.parent / "src"))
    argv = [sys.executable, "-m", "coclass.cli"] + STORED["d8_gaussian.verify-lcs-4096.out"]
    proc = subprocess.run([sys.executable, "-c", LAUNCH, str(out)] + argv, env=env,
                          capture_output=True, text=True, check=True)
    code, peak_kib = (int(x) for x in proc.stdout.split())
    assert code == 0
    assert out.read_bytes() == (DATA / "d8_gaussian.verify-lcs-4096.out").read_bytes()
    assert peak_kib < 100 * 1024, "peak RSS %.1f MiB" % (peak_kib / 1024)
