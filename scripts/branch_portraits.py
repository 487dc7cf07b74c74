#!/usr/bin/env python3
"""Write DOT portraits of consecutive coclass-1 branches and their shift.

Usage: branch_portraits.py [outdir]

Builds the dihedral-tower branches for i = 3, 4, 5, certifies the shift
between consecutive ones, and drops branch_<i>.dot files annotated with the
vertex bijection.
"""

import pathlib
import sys

from coclass import coclass_tree, scenarios


def main() -> int:
    outdir = pathlib.Path(sys.argv[1] if len(sys.argv) > 1 else ".")
    outdir.mkdir(parents=True, exist_ok=True)
    scn = scenarios.load_scenario("dihedral_mainline")
    branches = {i: coclass_tree.build_branch(scn, i) for i in (3, 4, 5)}
    shifts = {}
    for i in (3, 4):
        rep, _ = coclass_tree.nu_shift(scn, branches[i], branches[i + 1])
        shifts[i] = rep
        print("shift %d -> %d: %s" % (i, i + 1, "ok" if rep["ok"] else rep["failures"]))
    for i, br in branches.items():
        path = outdir / ("branch_%d.dot" % i)
        path.write_text(coclass_tree.export_dot(br, nu=shifts.get(i)))
        print("wrote", path)
    return 0 if all(r["ok"] for r in shifts.values()) else 1


if __name__ == "__main__":
    raise SystemExit(main())
