import dataclasses
import tracemalloc

import numpy as np
import pytest

from coclass import cli, coclass_tree, cohomology, extensions, groups, scenarios

from brute_force import at_distance, vertex_table


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
        assert rep.ok, rep.failures
        assert len(rep.vertex_map) == len(branch(i).vertices)
        # the shift respects the group type: images are the extensions whose
        # involution pattern matches, scaled one order up
        src = branch(i)
        for a, b in rep.vertex_map:
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
    mapped = dict(rep.vertex_map)
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
            assert not extensions.are_isomorphic(tables[x], tables[y])


def test_shift_splits_through_the_frame_of_the_residue_class():
    # period 1: one residue class, whose frame serves the levels of both
    # branches
    scn = scenarios.load_scenario("dihedral_mainline")
    rep, _ = coclass_tree.nu_shift(scn, coclass_tree.build_branch(scn, 7, 1))
    top = scn.top()
    assert rep.ok and top.period == 1
    basis, _ = cohomology.primitive_basis(top.chain, 1)
    assert [key for key in top.chain._memo if key[0] == "frame"] == [
        ("frame", 2, basis.astype(np.int64).tobytes())]


def test_branch_shift_peaks_under_three_of_its_largest_tables():
    # no vertex keeps its extension table, so at most one table of order
    # 512 is alive at a time, beside its fingerprint's temporaries
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
    assert peak <= 3 * table_bytes, "peak %.2f x the largest table" % (peak / table_bytes)
    assert held < table_bytes, "%.2f MiB still held" % (held / 2**20)


def test_branch_shift_builds_each_class_once_and_never_compares_two_groups(monkeypatch, capsys):
    # branch 8's root is branch 7's mainline child: 8 vertices, 7 classes
    requests, builds, searches = [], [], []

    def requested(top, lv, coords, _fn=coclass_tree._vertex_extension):
        requests.append((lv.n, tuple(coords)))
        return _fn(top, lv, coords)

    def built(*args, _fn=extensions.build_extension):
        builds.append(args)
        return _fn(*args)

    def search(G, H, _fn=groups.isomorphisms):
        if G is not H:  # automorphism_group searches the top quotient's own
            searches.append((G.order, H.order))
        return _fn(G, H)

    monkeypatch.setattr(coclass_tree, "_vertex_extension", requested)
    monkeypatch.setattr(extensions, "build_extension", built)
    monkeypatch.setattr(groups, "isomorphisms", search)
    assert cli.main(["branch", "--scenario", "dihedral_mainline", "--i", "7", "--k", "1",
                     "--shift"]) == 0
    capsys.readouterr()
    assert len(requests) == 8
    assert len(builds) == len(set(requests)) == 7
    assert not searches


def test_a_fingerprint_tie_rebuilds_both_tables_and_is_refused(monkeypatch):
    scn, br = dihedral(), branch(4)
    top = scn.top()
    kids = at_distance(br, 1)
    level = kids[0].level
    levels = {level: coclass_tree._level_data(top, level)}
    builds = []

    def built(*args, _fn=extensions.build_extension):
        builds.append(args)
        return _fn(*args)

    monkeypatch.setattr(extensions, "build_extension", built)
    # distinct fingerprints settle the level without a table
    coclass_tree._check_orbit_isomorphism(top, levels, kids)
    assert builds == []
    twin = dataclasses.replace(kids[0], index=len(br.vertices))
    with pytest.raises(coclass_tree.BranchError,
                       match="distinct orbits at level %d gave isomorphic groups" % level):
        coclass_tree._check_orbit_isomorphism(top, levels, [kids[0], twin])
    assert len(builds) == 2
