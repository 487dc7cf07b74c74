import numpy as np
import pytest

from coclass import coclass_tree, cohomology, extensions, groups, scenarios

from brute_force import at_distance


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


def involution_count(table):
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
    assert involution_count(br.tables[0]) == 5


def test_branch_children_are_the_expected_triple():
    for i in (3, 4, 5):
        br = branch(i)
        kids = at_distance(br, 1)
        assert len(kids) == 3
        order = 2 ** (i + 1)
        assert all(v.order == order for v in kids)
        got = sorted(involution_count(br.tables[v.index]) for v in kids)
        assert got == expected_triple(order)
        assert sum(v.mainline for v in kids) == 1
        # the mainline child is the dihedral group (most involutions)
        main = [v for v in kids if v.mainline][0]
        assert involution_count(br.tables[main.index]) == order // 2 + 1


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
                ia = involution_count(src.tables[a])
                ib = involution_count(dst.tables[b])
                # dihedral -> dihedral, semidihedral -> semidihedral,
                # quaternion -> quaternion
                rank_a = sorted(involution_count(src.tables[v.index])
                                for v in at_distance(src, 1)).index(ia)
                rank_b = sorted(involution_count(dst.tables[v.index])
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
    idxs = [v.index for v in at_distance(br, 1)]
    for x in range(len(idxs)):
        for y in range(x + 1, len(idxs)):
            assert not extensions.are_isomorphic(br.tables[idxs[x]], br.tables[idxs[y]])


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
