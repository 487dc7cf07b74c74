import dataclasses
import itertools
import tracemalloc

import numpy as np
import pytest

from coclass import cli, coclass_tree, cohomology, extensions, groups, scenarios

from brute_force import are_isomorphic, at_distance, build_extension, check_certificate, vertex_table


_cache = {}


def dihedral():
    if "scn" not in _cache:
        _cache["scn"] = scenarios.load_scenario("dihedral_mainline")
    return _cache["scn"]


def branch(i, k=1):
    key = ("b", i, k)
    if key not in _cache:
        _cache[key] = coclass_tree.build_branch(dihedral(), i, k)
    return _cache[key]


def involution_count(v):
    table = vertex_table(dihedral(), v)
    return int(np.count_nonzero(table.element_orders() == 2))


def expected_triple(order):
    # dihedral, semidihedral, quaternion of the given order by involution count
    return sorted([order // 2 + 1, order // 4 + 1, 1])


def test_branch_root_is_the_mainline_quotient():
    br = branch(3)
    assert br.root_level == 1
    assert br.root.mainline
    assert br.root.order == 8
    # D8: dihedral of order 8
    assert involution_count(br.root) == 5


def test_branch_children_are_the_expected_triple():
    for i in (3, 4, 5):
        br = branch(i)
        kids = at_distance(br, 1)
        assert len(kids) == 3
        order = 2 ** (i + 1)
        assert all(v.order == order for v in kids)
        got = sorted(involution_count(v) for v in kids)
        assert got == expected_triple(order)
        assert sum(v.mainline for v in kids) == 1
        # the mainline child is the dihedral group (most involutions)
        main = [v for v in kids if v.mainline][0]
        assert involution_count(main) == order // 2 + 1


def test_branch_edges_all_point_to_the_root_at_k1():
    br = branch(4)
    assert sorted(br.edges) == [(0, v.index) for v in at_distance(br, 1)]


def test_deeper_shave_adds_nothing_off_the_mainline():
    # quaternion and semidihedral 2-groups have no descendants of coclass 1,
    # and deeper mainline descendants belong to the next branch
    br1 = branch(4, 1)
    br2 = branch(4, 2)
    assert len(br2.vertices) == len(br1.vertices)
    assert at_distance(br2, 2) == []


def test_branch_too_shallow_is_rejected():
    with pytest.raises(coclass_tree.BranchError):
        coclass_tree.build_branch(dihedral(), 2)


def test_negative_distance_cap_is_rejected():
    with pytest.raises(coclass_tree.BranchError, match="k = -1 is negative"):
        coclass_tree.build_branch(dihedral(), 3, k=-1)


def test_branch_cap_is_enforced():
    with pytest.raises(coclass_tree.BranchError,
                       match="extensions at level 8 exceed the order cap 512"):
        coclass_tree.build_branch(dihedral(), 9, k=1)


def test_shift_two_consecutive_branches():
    scn = dihedral()
    for i in (3, 4):
        rep, dst = coclass_tree.nu_shift(scn, branch(i), dst=branch(i + 1))
        assert rep["ok"], rep["failures"]
        assert len(rep["vertex_map"]) == len(branch(i).vertices)
        # the shift respects the group type: images are the extensions whose
        # involution pattern matches, scaled one order up
        src = branch(i)
        for a, b in rep["vertex_map"]:
            va, vb = src.vertices[a], dst.vertices[b]
            assert vb.distance == va.distance
            assert vb.order == 2 * va.order
            assert va.mainline == vb.mainline
            if va.distance == 1:
                ia = involution_count(va)
                ib = involution_count(vb)
                # dihedral -> dihedral, semidihedral -> semidihedral,
                # quaternion -> quaternion
                rank_a = sorted(involution_count(v)
                                for v in at_distance(src, 1)).index(ia)
                rank_b = sorted(involution_count(v)
                                for v in at_distance(dst, 1)).index(ib)
                assert rank_a == rank_b


def test_shift_maps_root_to_root():
    rep, dst = coclass_tree.nu_shift(dihedral(), branch(3), dst=branch(4))
    mapped = dict(rep["vertex_map"])
    assert mapped[branch(3).root.index] == dst.root.index


def test_dot_export_is_deterministic_and_complete():
    br = branch(3)
    rep, _ = coclass_tree.nu_shift(scn := dihedral(), br, dst=branch(4))
    dot1 = coclass_tree.export_dot(br, rep)
    dot2 = coclass_tree.export_dot(br, rep)
    assert dot1 == dot2
    for v in br.vertices:
        assert "v%d [label=" % v.index in dot1
    for a, b in br.edges:
        assert "v%d -> v%d;" % (a, b) in dot1
    assert dot1.startswith("digraph")


def test_vertices_pairwise_nonisomorphic():
    br = branch(4)
    tables = [vertex_table(dihedral(), v) for v in at_distance(br, 1)]
    for x in range(len(tables)):
        for y in range(x + 1, len(tables)):
            assert not are_isomorphic(tables[x], tables[y])


@pytest.mark.parametrize("i", [3, 4, 5, 6, 7])
def test_every_vertex_certificate_matches_its_table(i):
    # every vertex of branches 3-7 shaved at k <= 2, up to order 512
    scn = dihedral()
    top = scn.top()
    for k in (1, 2):
        for v in branch(i, k).vertices:
            lv = coclass_tree._level_data(top, v.level)
            cert = check_certificate(lv.Q.module, lv.H.representative(v.class_coords), l=top.l)
            assert cert.flag
            assert (v.order, v.spectrum) == (cert.order, cert.spectrum())


@pytest.mark.parametrize("i", [3, 4, 5, 6, 7])
def test_orbits_certify_the_isomorphism_types_of_a_level(i):
    # what `_check_orbit_isomorphism` certifies by theorem, checked by
    # search: the vertices of a level are pairwise non-isomorphic; as a
    # positive control, two classes of one orbit give isomorphic groups
    scn = dihedral()
    top = scn.top()
    br = branch(i, 2)
    controls = 0
    for level in sorted({v.level for v in br.vertices}):
        vs = [v for v in br.vertices if v.level == level]
        tables = [vertex_table(scn, v) for v in vs]
        for a, b in itertools.combinations(tables, 2):
            assert not are_isomorphic(a, b)
        lv = coclass_tree._level_data(top, level)
        for v in vs:
            twins = lv.partition.classes[v.orbit]
            if len(twins) > 1 and v.order <= 64:
                a, b = (build_extension(top.group, lv.Q.module, lv.H.representative(c)).table
                        for c in twins[:2])
                assert are_isomorphic(a, b)
                controls += 1
    assert controls or i > 5


def test_shift_splits_through_the_frame_of_the_residue_class():
    # period 1: one residue class, whose frame serves the levels of both
    # branches
    scn = scenarios.load_scenario("dihedral_mainline")
    rep, _ = coclass_tree.nu_shift(scn, coclass_tree.build_branch(scn, 7, 1))
    top = scn.top()
    assert rep["ok"] and top.period == 1
    basis, _ = cohomology.primitive_basis(top.chain, 1)
    assert [key for key in top.chain._memo if key[0] == "frame"] == [
        ("frame", 2, basis.astype(np.int64).tobytes())]


def test_branch_shift_peaks_under_half_of_its_largest_table():
    # no vertex builds its extension table: the peak is set by the level
    # cohomology and the certificates, under half of the order-512 table
    # that the largest vertex once built
    scn = scenarios.load_scenario("dihedral_mainline")
    tracemalloc.start()
    try:
        br = coclass_tree.build_branch(scn, 7, 1)
        _, dst = coclass_tree.nu_shift(scn, br)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    largest = max(v.order for v in br.vertices + dst.vertices)
    table_bytes = largest**2 * np.dtype(groups.index_dtype(largest)).itemsize
    assert largest == 512
    assert peak <= table_bytes / 2, "peak %.2f x the largest table" % (peak / table_bytes)
    assert held < table_bytes / 4, "%.2f MiB still held" % (held / 2**20)


def test_branch_shift_builds_each_class_once_and_never_compares_two_groups(monkeypatch, capsys):
    # branch 8's root is branch 7's mainline child: 8 vertices, 7 classes;
    # the only table built is the top group's split table, in its stage
    certified, searches, tables, stages = [], [], [], []

    def certify(A, row, l=None, _fn=extensions.certify):
        certified.append((A.order, np.asarray(row).tobytes()))
        return _fn(A, row, l)

    def search(G, H, _fn=groups.isomorphisms):
        if G is not H:  # automorphism_group searches the top quotient's own
            searches.append((G.order, H.order))
        return _fn(G, H)

    def stage(self, k, _fn=scenarios.Scenario.stage):
        stages.append(k)
        top = _fn(self, k)
        stages.pop()
        return top

    def table(A, _fn=extensions.split_table):
        tables.append(bool(stages))
        return _fn(A)

    monkeypatch.setattr(extensions, "certify", certify)
    monkeypatch.setattr(groups, "isomorphisms", search)
    monkeypatch.setattr(scenarios.Scenario, "stage", stage)
    monkeypatch.setattr(extensions, "split_table", table)
    assert cli.main(["branch", "--scenario", "dihedral_mainline", "--i", "7", "--k", "1",
                     "--shift"]) == 0
    capsys.readouterr()
    assert len(certified) == len(set(certified)) == 7
    assert not searches
    assert tables == [True]


def test_the_orbit_certificate_refuses_a_shared_orbit_or_a_missing_flag(monkeypatch):
    scn, br = dihedral(), branch(4)
    top = scn.top()
    kids = at_distance(br, 1)
    level = kids[0].level
    levels = {level: coclass_tree._level_data(top, level)}
    certified = []

    def certify(*args, _fn=extensions.certify):
        certified.append(args)
        return _fn(*args)

    monkeypatch.setattr(extensions, "certify", certify)
    # distinct orbits of flagged classes settle the level from the held
    # certificates, with no table and no search
    coclass_tree._check_orbit_isomorphism(top, levels, kids)
    assert certified == []
    twin = dataclasses.replace(kids[0], index=len(br.vertices))
    with pytest.raises(coclass_tree.BranchError,
                       match="vertices %d and %d at level %d are one orbit"
                       % (kids[0].index, twin.index, level)):
        coclass_tree._check_orbit_isomorphism(top, levels, [kids[0], twin])
    # the split class has no gamma_l(E) = A, so its orbit certifies nothing
    split = dataclasses.replace(kids[0], class_coords=(0, 0, 0))
    with pytest.raises(coclass_tree.BranchError,
                       match="vertex %d at level %d does not have gamma_l" % (split.index, level)):
        coclass_tree._check_orbit_isomorphism(top, levels, [split])
    assert len(certified) == 1
