import json
from pathlib import Path

import numpy as np
import pytest

from coclass import cohomology, extensions, modules, pairs, scenarios

from brute_force import (are_isomorphic, build_extension, check_certificate,
                         extension_table_by_blocks, lcs_report_by_table,
                         split_frame_per_level, summand_scan_per_level_frames, table_coclass)


_cache = {}


def dihedral():
    if "dihedral" not in _cache:
        _cache["dihedral"] = scenarios.load_scenario("dihedral_mainline")
    return _cache["dihedral"]


def d8():
    if "d8" not in _cache:
        _cache["d8"] = scenarios.load_scenario("d8_gaussian")
    return _cache["d8"]


def test_builtins_load_and_validate():
    for name in scenarios.BUILTIN_SCENARIOS:
        scn = scenarios.load_scenario(name)
        assert scn.validate() is scn
        assert scn.period() >= 1


def test_missing_field_is_named(tmp_path):
    data = dict(scenarios.BUILTIN_SCENARIOS["dihedral_mainline"])
    del data["action"]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    with pytest.raises(scenarios.ScenarioError, match="action"):
        scenarios.load_scenario(str(path))


def test_file_round_trip(tmp_path):
    data = scenarios.BUILTIN_SCENARIOS["d8_gaussian"]
    path = tmp_path / "d8.json"
    path.write_text(json.dumps(data))
    scn = scenarios.load_scenario(str(path))
    assert scn.name == "d8_gaussian"
    assert scn.period() == d8().period()


def test_non_uniserial_action_is_rejected():
    data = dict(scenarios.BUILTIN_SCENARIOS["d8_gaussian"])
    data["action"] = [[[1, 0], [0, 1]], [[1, 0], [0, 1]]]  # trivial action
    with pytest.raises((scenarios.ScenarioError, modules.ModuleError)):
        scenarios.load_scenario(data)


def test_dihedral_thresholds():
    bounds = dihedral().bounds()
    assert (bounds.a_exp, bounds.b_exp) == (1, 0)
    assert bounds.least_qualifying() == 1


def test_d8_thresholds():
    bounds = d8().bounds()
    assert (bounds.a_exp, bounds.b_exp) == (1, 1)
    assert bounds.v == 2
    assert bounds.least_qualifying() == 4


def test_top_quotient_structure():
    top = dihedral().top()
    assert top.group.order == 4
    assert table_coclass(top.group) == 1 and top.l == 2
    t8 = d8().top()
    assert t8.group.order == 32
    assert table_coclass(t8.group) == 3 and t8.l == 3


def test_mainline_extensions_are_the_finite_quotients():
    # the mainline class at level n must rebuild the semidirect quotient
    scn = dihedral()
    top = scn.top()
    G0 = scn.group()
    for n in (1, 2, 3):
        Q = top.quotient(n)
        lam = top.mainline_cocycle(n)
        ext = build_extension(top.group, Q.module, lam)
        Qfull = scn.quotient(n + scn.top_offset)
        quotient_table = extension_table_by_blocks(G0, Qfull.module)
        assert are_isomorphic(ext.table, quotient_table)
        cert = check_certificate(Q.module, lam, l=top.l)
        assert cert.flag and cert.coclass == table_coclass(top.group)


def test_mainline_reduction_is_mainline():
    top = dihedral().top()
    Q3 = top.quotient(3)
    Q2 = top.quotient(2)
    lam3 = top.mainline_cocycle(3)
    lam2 = top.mainline_cocycle(2)
    H2 = cohomology.finite_cohomology(Q2.module, 2)
    red = cohomology.restrict_level(Q3, Q2, lam3)
    assert np.array_equal(H2.coords(red), H2.coords(lam2))


def test_lcs_identification_dihedral():
    rep = scenarios.check_lower_central_series(dihedral(), max_order=128)
    assert rep["ok"], rep["failures"]
    assert rep["limit_coclass"] == 1
    assert all(c["coclass"] == 1 for c in rep["coclasses"])


def test_lcs_identification_d8():
    rep = scenarios.check_lower_central_series(d8(), max_order=256)
    assert rep["ok"], rep["failures"]
    assert rep["limit_coclass"] == 3
    # gamma_{1+2k} of the semidirect product is the 2^k-scaled lattice:
    # at chain index 2k the fiber starts the (1+2k)-th term
    identified = {(t["chain_index"], t["lcs_index"]) for t in rep["identified_terms"]}
    assert (4, 5) in identified and (5, 5) in identified
    assert (3, 3) in identified


DATA = Path(__file__).resolve().parent / "data"
C3_EISENSTEIN = DATA / "c3_eisenstein.json"

# D8 acting on Z_2 through D8 -> C2, both generators negating: the derived
# subgroup of D8 is not trivial, so gamma_2 of each quotient does not lie
# over the identity of G0 as the image of T_1 does, and every quotient
# fails the identification
D8_NEGATION = dict(scenarios.BUILTIN_SCENARIOS["dihedral_mainline"], name="d8_negation",
                   group=scenarios.BUILTIN_SCENARIOS["d8_gaussian"]["group"],
                   action=[[[-1]], [[-1]]])


@pytest.mark.parametrize("source, max_order, last_order, ok", [
    ("dihedral_mainline", 2048, 2048, True),
    ("d8_gaussian", 4096, 4096, True),
    (str(C3_EISENSTEIN), 2187, 2187, True),
    (str(DATA / "dihedral_p9_d7.json"), 4096, 256, True),  # its chain stops at depth 7
    (D8_NEGATION, 4096, 4096, False),
], ids=["dihedral_mainline", "d8_gaussian", "c3_eisenstein", "dihedral_p9_d7", "d8_negation"])
def test_lcs_report_matches_the_table_oracle(source, max_order, last_order, ok):
    # every field: orders, identified terms and their sizes, coclasses, the
    # limit and the failures, against each quotient's table
    rep = scenarios.check_lower_central_series(scenarios.load_scenario(source), max_order)
    assert rep == lcs_report_by_table(scenarios.load_scenario(source), max_order)
    assert (rep["ok"], rep["quotient_orders"][-1]) == (ok, last_order)


@pytest.mark.parametrize("source, max_order", [("dihedral_mainline", 512),
                                               ("d8_gaussian", 4096)])
def test_lcs_check_builds_and_keeps_no_table(monkeypatch, source, max_order):
    # each split quotient is read in coordinates: no table is built or read
    scn = scenarios.load_scenario(source)

    def refused(*args, **kwargs):
        raise AssertionError("the check built or read a table")

    monkeypatch.setattr(extensions, "split_table", refused)
    rep = scenarios.check_lower_central_series(scn, max_order)
    assert rep["ok"] and rep["quotient_orders"][-1] == max_order
    assert not [key for key in scn._memo if isinstance(key, tuple) and key[0] == "stage"]


def d8_scan():
    if "scan" not in _cache:
        _cache["scan"] = scenarios.summand_instability_witness(d8())
    return _cache["scan"]


def test_summand_instability_witness_d8():
    rep = d8_scan()
    assert rep["found"]
    assert rep["lifted_endomorphisms_stable"]
    w = rep["witness"]
    assert (w["k"], w["n"]) == (0, 2)
    assert any(c != 0 for c in w["h3_component"])


def test_witness_is_recheckable():
    scn = d8()
    rep = d8_scan()
    w = rep["witness"]
    n = int(w["n"])
    T, chain = scn.lattice(), scn.chain()
    frame = cohomology.split_frame(T, chain, n, m=2)
    Q = scn.quotient(n)
    level = cohomology.split_at_level(frame, chain, n)
    H = level.H
    A = Q.module
    eps_hat = np.array([[int(x) for x in r] for r in w["eps_hat"]], dtype=np.int64)
    beta, eps_hat = np.arange(A.group.order, dtype=np.int64), A.canonical(eps_hat)
    assert pairs.automorphism_mask(A, eps_hat)
    # rebuild the class from the theta rows so it provably sits in the summand
    classes = scenarios._summand_classes(level)
    lookup = dict(classes)
    key = tuple(int(c) for c in w["class_coords"])
    row = lookup[key]
    member = scenarios._summand_membership_solver(level, H)
    assert not np.any(member.reduce(row))
    image = pairs.act_on_cochains(H, beta, eps_hat[None], row[None])[0, 0]
    assert np.any(member.reduce(image))
    comp = scenarios._h3_component(level, image)
    assert comp == w["h3_component"]
    # an independent representative of the same class decomposes the same way
    d1 = cohomology.coboundary_matrix(A, 1)
    rng = np.random.default_rng(3)
    f = rng.integers(0, A.q, size=d1.shape[0], dtype=np.int64)
    image2 = (image + f @ d1) % A.q
    assert scenarios._h3_component(level, image2) == comp


def test_no_witness_on_dihedral():
    rep = scenarios.summand_instability_witness(dihedral())
    assert not rep["found"]
    assert rep["lifted_endomorphisms_stable"]


def test_correspondence_report_qualifying_and_not():
    rep = scenarios.orbit_correspondence_report(dihedral())
    assert rep["ok"] and rep["qualified"]
    bad = scenarios.orbit_correspondence_report(dihedral(), n=0)
    assert not bad["qualified"] and "violates" in bad["reason"]


def test_summand_scan_sizes_a_stage_before_building_it(monkeypatch):
    # stages 1 and 2 of C3 have orders 3 * 3^2 and 3 * 3^4, read off the chain,
    # so the scan skips both without building their split tables
    scn = scenarios.load_scenario(str(C3_EISENSTEIN))
    built = []

    def counted(A, _fn=extensions.split_table):
        table = _fn(A)
        built.append(table.order)
        return table
    monkeypatch.setattr(extensions, "split_table", counted)
    rep = scenarios.summand_instability_witness(scn)
    assert [(s["k"], s["group_order"]) for s in rep["skipped"] if "group_order" in s] == [
        (1, 27), (2, 243)]
    assert built == []


@pytest.mark.parametrize("n, exps", [(3, [1, 2]), (5, [2, 3])])
def test_summand_scan_tries_only_module_automorphisms(n, exps):
    # at these levels the coordinate exponents differ, so a plain endomorphism
    # matrix read as a hatted one is in most cases no module map at all
    scn = scenarios.load_scenario(str(C3_EISENSTEIN))
    stage = scn.stage(0)
    level = cohomology.level_split(stage.chain, n)
    A, H = level.Q.module, level.H
    assert A.exps == exps
    member = scenarios._summand_membership_solver(level, H)
    # the pair (1, eps) of a module automorphism eps maps coboundaries to
    # coboundaries, since eps commutes with d, so none of these rows may move
    classes = [((i,), row) for i, row in enumerate(H.boundaries)]
    assert scenarios._scan_level(0, n, level, H, A, member, classes) is None
    assert scenarios._lifted_endos_stable(stage.lattice, level.Q, H, member, classes)


def test_c3_scenario_file_runs_clean():
    rep = scenarios.summand_instability_witness(scenarios.load_scenario(str(C3_EISENSTEIN)))
    assert not rep["found"] and rep["lifted_endomorphisms_stable"]
    assert [x["n"] for x in rep["scanned"]] == [2, 3, 4, 5, 6]


# scenario copies for the scan: built-ins, the C3 file, lower precisions, and
# a shallow dihedral chain at precision 9 whose deeper levels run out of
# precision after frames of their residue classes have built
SCAN_COPIES = [
    ("dihedral_mainline", {}), ("dihedral_mainline", {"precision": 12}),
    ("dihedral_mainline", {"precision": 9, "depth": 7}),
    ("d8_gaussian", {}), ("d8_gaussian", {"precision": 11}), ("d8_gaussian", {"precision": 12}),
    (str(C3_EISENSTEIN), {}), (str(C3_EISENSTEIN), {"precision": 12}),
]


@pytest.mark.parametrize("source, changes", SCAN_COPIES,
                         ids=lambda x: Path(x).stem if isinstance(x, str)
                         else ",".join("%s=%s" % kv for kv in x.items()) or "as-is")
def test_shared_frames_scan_as_frames_per_level(tmp_path, source, changes):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(dict(scenarios.scenario_data(source), **changes)))
    got = scenarios.summand_instability_witness(scenarios.load_scenario(str(path)))
    want = summand_scan_per_level_frames(scenarios.load_scenario(str(path)))
    assert got == want


@pytest.mark.parametrize("source, frames", [
    ("dihedral_mainline", {0: [1], 1: [1], 2: [1]}),
    (str(C3_EISENSTEIN), {0: [2, 3]}),
], ids=["dihedral_mainline", "c3_eisenstein"])
def test_scan_builds_one_frame_per_residue_class(source, frames):
    scn = scenarios.load_scenario(source)
    scenarios.summand_instability_witness(scn)
    for k, levels in frames.items():
        chain = scn.stage(k).chain
        keys = [key for key in chain._memo if key[0] == "frame"]
        assert sorted(keys) == sorted(_frame_key(chain, n) for n in levels), k


def _frame_key(chain, n):
    """The memo key of the degree-2 frame of n's residue class."""
    basis, _ = cohomology.primitive_basis(chain, n)
    return ("frame", 2, basis.astype(np.int64).tobytes())


@pytest.mark.parametrize("source, n, base", [
    ("d8_gaussian", None, 2),
    ("d8_gaussian", 6, 2),
    ("dihedral_mainline", 3, 1),
])
def test_correspondence_splits_through_the_frame_of_the_residue_class(monkeypatch, source, n,
                                                                       base):
    scn = scenarios.load_scenario(source)
    if n is None:
        n = scn.bounds().least_qualifying()
    shared = pairs.orbit_correspondence(scn.lattice(), scn.chain(), n, scn.period())
    keys = [k for k in scn.chain()._memo if k[0] == "frame"]
    assert keys == [_frame_key(scn.chain(), base)]
    # the same certificate through the frame of the correspondence's own
    # level, built by the per-level oracle
    own = scenarios.load_scenario(source)
    frame = split_frame_per_level(own.chain(), shared.level)
    class_split = cohomology.level_split

    def per_level_split(chain, level, m=2):
        if chain is own.chain() and m == 2:
            return cohomology.split_at_level(frame, chain, level)
        return class_split(chain, level, m)

    monkeypatch.setattr(cohomology, "level_split", per_level_split)
    per_level = pairs.orbit_correspondence(own.lattice(), own.chain(), n, own.period())
    assert not [k for k in own.chain()._memo if k[0] == "frame"]
    assert shared.ok and shared == per_level
