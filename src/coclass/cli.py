"""Command-line entry point.

Exit codes: 0 on success, 1 when a verified mathematical claim fails to
hold, 2 on usage or validation errors: every package error (a
`CoclassError`) ends with exit 2 and one `error:` line.  All reports are
JSON, and identical invocations produce byte-identical output; `_emit` is
the one place that renders numbers, each as a decimal string.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import CoclassError, coclass_tree, cohomology, extensions, pairs, scenarios
from .scenarios import Scenario, ScenarioError


def _render(x):
    """x with each integer as a decimal string and each sequence as a list;
    booleans, None and strings as they are."""
    if isinstance(x, dict):
        return {k: _render(v) for k, v in x.items()}
    if isinstance(x, (list, tuple, np.ndarray)):
        return [_render(v) for v in x]
    if isinstance(x, (bool, np.bool_)):
        return bool(x)
    if isinstance(x, (int, np.integer)):
        return "%d" % x
    return x


def _emit(report: dict, out: str | None) -> None:
    text = json.dumps(_render(report), indent=2, sort_keys=True) + "\n"
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load(args, precision: int | None = None) -> Scenario:
    """The --scenario instance at `precision`, else at --precision, else at
    its own precision; validated once."""
    data = scenarios.scenario_data(args.scenario)
    if precision is None:
        precision = args.precision
    if precision is not None:
        data = dict(data, precision=precision)
    return scenarios.scenario_from_dict(data)


def _invariants_at(scn: Scenario, n: int, degree: int) -> list[int]:
    return cohomology.finite_cohomology(scn.quotient(n).module, degree).invariants()


def cmd_cohomology(args) -> int:
    scn = _load(args)
    inv = _invariants_at(scn, args.n, args.degree)
    recheck = _invariants_at(_load(args, scn.precision + 2), args.n, args.degree)
    report = {"scenario": scn.name, "n": args.n, "degree": args.degree, "invariants": inv,
              "order": math.prod(inv), "precision": scn.precision,
              "recheck_precision": scn.precision + 2, "stable": inv == recheck}
    _emit(report, args.out)
    return 0 if inv == recheck else 1


def cmd_orbits(args) -> int:
    scn = _load(args)
    A = scn.quotient(args.n).module
    H = cohomology.finite_cohomology(A, 2)
    part = pairs.orbits_on_h2(H, pairs.compatible_pairs(A))
    report = {"scenario": scn.name, "n": args.n, "h2_invariants": H.invariants(),
              "orbit_count": part.count, "orbit_sizes": part.sizes,
              "stabilizer_sizes": part.stabilizer_sizes, "acting_order": part.acting_order,
              "representatives": [cl[0] for cl in part.classes]}
    _emit(report, args.out)
    return 0


def cmd_correspondence(args) -> int:
    scn = _load(args)
    report = scenarios.orbit_correspondence_report(scn, args.n)
    _emit(report, args.out)
    return 0 if report["ok"] else 1


def _int_vector(data: dict, name: str, length: int) -> np.ndarray:
    """The cocycle file's field `name` as a vector of `length` integers."""
    def parse():
        values = data[name]
        if not isinstance(values, list) or len(values) != length:
            raise ValueError("expected a list of %d integers" % length)
        return np.array(scenarios.checked_integers(name, values, "cocycle"), dtype=np.int64)
    return scenarios.checked_field(name, parse, "cocycle")


def cmd_extend(args) -> int:
    scn = _load(args)
    data = scenarios.read_json_object(args.cocycle, "cocycle")
    if "level" not in data:
        raise ScenarioError("cocycle file is missing the field 'level'")
    level = scenarios.checked_integers("level", data["level"], "cocycle")
    n = scenarios.checked_field("level", lambda: int(level), "cocycle")
    top = scn.top()
    Q = top.quotient(n)
    H = cohomology.finite_cohomology(Q.module, 2)
    if "coords" in data:
        row = H.representative(_int_vector(data, "coords", len(H.invariants())))
    elif "row" in data:
        row = _int_vector(data, "row", H.cocycles.shape[1])
    elif data.get("mainline"):
        row = top.mainline_cocycle(n)
    else:
        raise ScenarioError("cocycle file needs 'coords', 'row', or 'mainline'")
    cert = extensions.certify(Q.module, row, top.l)
    report = {"scenario": scn.name, "level": n, "order": cert.order,
              "nilpotency_class": cert.nilpotency_class, "coclass": cert.coclass,
              "has_top_coclass": cert.flag, "class_coords": H.coords(row),
              "fiber_invariants": Q.module.invariants()}
    _emit(report, args.out)
    return 0


def _branch_dict(br: coclass_tree.BranchGraph) -> dict:
    return {
        "scenario": br.scenario, "i": br.i, "k": br.k, "root_level": br.root_level,
        "vertices": [{"index": v.index, "level": v.level, "distance": v.distance,
                      "order": v.order, "mainline": v.mainline,
                      "class_coords": v.class_coords, "parent": v.parent}
                     for v in br.vertices],
        "edges": sorted(br.edges),
    }


def cmd_branch(args) -> int:
    scn = _load(args)
    br = coclass_tree.build_branch(scn, args.i, args.k)
    report = {"branch": _branch_dict(br)}
    nu = None
    if args.shift:
        nu, dst = coclass_tree.nu_shift(scn, br)
        report["shifted_branch"] = _branch_dict(dst)
        report["shift"] = nu
    if args.dot:
        with open(args.dot, "w") as fh:
            fh.write(coclass_tree.export_dot(br, nu))
    _emit(report, args.out)
    return 1 if args.shift and not nu["ok"] else 0


def cmd_verify_counterexample(args) -> int:
    scn = _load(args)
    scan = scenarios.summand_instability_witness(scn)
    corr = scenarios.orbit_correspondence_report(scn)
    report = {
        "summand_scan": scan,
        "orbit_correspondence": corr,
        "ok": scan["found"] and scan["lifted_endomorphisms_stable"] and corr["ok"],
    }
    _emit(report, args.out)
    return 0 if report["ok"] else 1


def _check_max_order(args, scn: Scenario) -> None:
    """--max-order must be positive and reach the first quotient deep
    enough to test the identification, G0 x (T / T_m) for m = top_offset + 1,
    and the first whose coclass is checked, m = top_offset + period.  The
    order |G0| p^[T : T_m] is read off the chain before any quotient is
    built; a chain shallower than m is left to the report."""
    if args.max_order < 1:
        raise CoclassError("--max-order must be positive, not %d" % args.max_order)
    chain = scn.chain()
    for m, purpose in ((scn.top_offset + 1, "test the identification"),
                       (scn.top_offset + scn.period(), "check the coclass")):
        if m > chain.depth:
            return
        need = scn.group().order * scn.p ** chain.index_exponents[m]
        if args.max_order < need:
            raise CoclassError("--max-order %d is below %d, the order of the first quotient "
                               "of %s deep enough to %s" % (args.max_order, need, scn.name, purpose))


def cmd_verify_lcs(args) -> int:
    scn = _load(args)
    _check_max_order(args, scn)
    report = scenarios.check_lower_central_series(scn, max_order=args.max_order)
    _emit(report, args.out)
    return 0 if report["ok"] else 1


def cmd_run_all(args) -> int:
    names = [args.scenario] if args.scenario else list(scenarios.BUILTIN_SCENARIOS)
    loaded = {name: scenarios.load_scenario(name) for name in names}
    for scn in loaded.values():
        _check_max_order(args, scn)
    failures = []
    report: dict = {"scenarios": {}}
    for name in names:
        scn = loaded.pop(name)
        entry: dict = {}
        bounds = scn.bounds()
        n = bounds.least_qualifying()
        entry["bounds"] = {"a": bounds.a_exp, "b": bounds.b_exp,
                           "v": bounds.v, "least_qualifying_n": n}
        entry["lcs"] = scenarios.check_lower_central_series(scn, max_order=args.max_order)
        if not entry["lcs"]["ok"]:
            failures.append("%s: lower central series" % name)
        entry["correspondence"] = scenarios.orbit_correspondence_report(scn, n)
        if not entry["correspondence"]["ok"]:
            failures.append("%s: orbit correspondence" % name)
        entry["summand_scan"] = scenarios.summand_instability_witness(scn)
        if not entry["summand_scan"]["lifted_endomorphisms_stable"]:
            failures.append("%s: lifted endomorphism moved the summand" % name)
        top = scn.top()
        i0 = max(top.l + 1, top.l + bounds.v * scn.period())
        try:
            br = coclass_tree.build_branch(scn, i0, 1)
            nu, _ = coclass_tree.nu_shift(scn, br)
            entry["branch"] = _branch_dict(br)
            entry["shift_ok"] = nu["ok"]
            if not nu["ok"]:
                failures.append("%s: branch shift" % name)
        except coclass_tree.BranchError as exc:
            entry["branch_skipped"] = str(exc)
        report["scenarios"][name] = entry
    report["failures"] = failures
    report["ok"] = not failures
    _emit(report, args.out)
    return 0 if not failures else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="coclass",
        description="Cohomological classification toolkit for prime-power "
                    "groups of fixed coclass.")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--scenario", required=True,
                       help="built-in name (%s) or JSON file path"
                            % ", ".join(sorted(scenarios.BUILTIN_SCENARIOS)))
        p.add_argument("--precision", type=int, default=None,
                       help="override the working precision exponent")
        p.add_argument("--out", default=None, help="write the JSON report here")

    p = sub.add_parser("cohomology", help="abelian invariants of H^m(R, A_n)")
    common(p)
    p.add_argument("--n", type=int, required=True, help="chain level")
    p.add_argument("--degree", type=int, default=2, choices=(0, 1, 2, 3))
    p.set_defaults(func=cmd_cohomology)

    p = sub.add_parser("orbits", help="compatible-pair orbits on H^2(R, A_n)")
    common(p)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=cmd_orbits)

    p = sub.add_parser("correspondence",
                       help="orbit bijection between levels n and n + period")
    common(p)
    p.add_argument("--n", type=int, default=None)
    p.set_defaults(func=cmd_correspondence)

    p = sub.add_parser("extend", help="certify the extension of a cocycle class")
    common(p)
    p.add_argument("--cocycle", required=True,
                   help="JSON file with 'level' plus 'coords', 'row', or 'mainline'")
    p.set_defaults(func=cmd_extend)

    p = sub.add_parser("branch", help="build a branch of the descendant tree")
    common(p)
    p.add_argument("--i", type=int, required=True, help="branch index")
    p.add_argument("--k", type=int, default=1, help="distance cap")
    p.add_argument("--shift", action="store_true",
                   help="also build branch i + period and certify the shift")
    p.add_argument("--dot", default=None, help="write DOT output to this file")
    p.set_defaults(func=cmd_branch)

    p = sub.add_parser("verify-counterexample",
                       help="summand instability scan plus the orbit correspondence")
    common(p)
    p.set_defaults(func=cmd_verify_counterexample)

    p = sub.add_parser("verify-lcs",
                       help="identify the lower central series of the finite quotients")
    common(p)
    p.add_argument("--max-order", type=int, default=1024)
    p.set_defaults(func=cmd_verify_lcs)

    p = sub.add_parser("run-all", help="full verification sweep")
    p.add_argument("--scenario", default=None)
    p.add_argument("--max-order", type=int, default=512)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_run_all)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (CoclassError, OSError) as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())
