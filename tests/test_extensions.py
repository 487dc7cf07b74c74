import itertools
from pathlib import Path

import numpy as np
import pytest

from coclass import cohomology, extensions, groups, modules, pairs, scenarios

from brute_force import (ExtensionGroup, are_isomorphic, build_extension, check_certificate,
                         cocycle_value_table, extension_table_by_blocks,
                         extension_table_by_formula,
                         orbit_isomorphism_check, plain_action_entries, validate_extension)


C3_EISENSTEIN = Path(__file__).resolve().parent / "data" / "c3_eisenstein.json"


def cyclic_table(n):
    return [[(i + j) % n for j in range(n)] for i in range(n)]


def trivial_module(G, p, exps):
    r = len(exps)
    act = [np.eye(r, dtype=np.int64) for _ in range(G.order)]
    return modules.finite_module_from_plain(G, p, exps, act)


_cache = {}


def d8_level_one():
    if "d8" not in _cache:
        D8 = groups.build_group(
            {"presentation": {"generators": ["a", "b"],
                              "relators": ["a^2", "b^4", "a^-1 b a b"]}}
        )
        a = np.array([[1, 0], [0, -1]])
        b = np.array([[0, 1], [-1, 0]])
        T = modules.lattice_module(D8, {D8.generators[0]: a, D8.generators[1]: b}, 2, 16)
        chain = modules.g_central_series(T, 4)
        Q = modules.quotient(T, chain, 1)
        H = cohomology.finite_cohomology(Q.module, 2)
        _cache["d8"] = (Q, H)
    return _cache["d8"]


def h2_coords(H):
    """Every coordinate row of H, in mixed-radix order."""
    return groups.all_coord_rows(H.structure.moduli().tolist())


def test_zero_cocycle_gives_direct_product():
    C2 = groups.make_table(cyclic_table(2))
    A = trivial_module(C2, 2, [1])
    H = cohomology.finite_cohomology(A, 2)
    cert = check_certificate(A, H.representative(H.structure.coords(
        np.zeros(H.cocycles.shape[1], dtype=np.int64))))
    assert cert.order == 4
    assert cert.spectrum() == ((1, 1), (2, 3))  # C2 x C2


def test_nonzero_cocycle_gives_c4():
    C2 = groups.make_table(cyclic_table(2))
    A = trivial_module(C2, 2, [1])
    H = cohomology.finite_cohomology(A, 2)
    assert H.structure.invariants() == [2]
    rep = H.representative(np.array([1], dtype=np.int64))
    cert = check_certificate(A, rep)
    assert cert.spectrum()[-1][0] == 4  # C4


def test_cohomologous_cocycles_give_isomorphic_extensions():
    Q, H = d8_level_one()
    A = Q.module
    d1 = cohomology.coboundary_matrix(A, 1)
    rng = np.random.default_rng(7)
    for coords in h2_coords(H)[:4]:
        rep = H.representative(coords)
        f = rng.integers(0, A.q, size=d1.shape[0], dtype=np.int64)
        rep2 = (rep + f @ d1) % A.q
        e1 = build_extension(A.group, A, rep)
        e2 = build_extension(A.group, A, rep2)
        assert are_isomorphic(e1.table, e2.table)
        c1, c2 = extensions.certify(A, rep), extensions.certify(A, rep2)
        assert (c1.lcs_orders, c1.flag, c1.spectrum()) == (c2.lcs_orders, c2.flag, c2.spectrum())


def test_cocycle_identity_is_enforced():
    Q, H = d8_level_one()
    A = Q.module
    bad = H.representative(h2_coords(H)[1]).copy()
    bad[0] = (bad[0] + 1) % A.q
    assert np.any((bad @ cohomology.coboundary_matrix(A, 2)) % A.q)
    with pytest.raises(extensions.ExtensionError, match="cocycle identity"):
        extensions.certify(A, bad)


def test_is_cocycle_on_c2_acting_on_z2_plus_z4():
    # C2 fixes Z/2 and negates Z/4; its one 2-tuple (g, g) is a generator
    # column, and a 2-cochain f is a cocycle iff f(g, g) is fixed
    C2 = groups.make_table(cyclic_table(2))
    A = modules.finite_module_from_plain(C2, 2, [1, 2], [np.eye(2), np.diag([1, -1])])
    D = cohomology.coboundary_matrix(A, 2)
    cocycle = A.hat([1, 2])
    assert cohomology.is_cocycle(A, 2, cocycle)
    assert check_certificate(A, cocycle).order == 16
    moved = A.hat([0, 1])
    assert np.any((moved @ D) % A.q)
    assert not cohomology.is_cocycle(A, 2, moved)
    with pytest.raises(extensions.ExtensionError, match="cocycle identity"):
        extensions.certify(A, moved)
    # the hatted Z/2 coordinate must be even; d^2 alone would let this through
    outside = np.array([1, 0], dtype=np.int64)
    assert not np.any((outside @ D) % A.q)
    assert not cohomology.is_cocycle(A, 2, outside)
    with pytest.raises(extensions.ExtensionError, match="cocycle identity"):
        extensions.certify(A, outside)


def test_coclass_criterion_on_the_dihedral_tower():
    # extensions of Z/2 by D8 of order 16: the flag must pick out exactly
    # the maximal-class groups (coclass 1, same as D8)
    Q, H = d8_level_one()
    A = Q.module
    flagged = []
    for coords in h2_coords(H):
        cert = check_certificate(A, H.representative(coords))
        assert cert.flag == (cert.coclass == 1)
        if cert.flag:
            flagged.append(cert)
    assert len(flagged) == 4
    # gamma_2 has order 4 in a maximal-class group of order 16
    for cert in flagged:
        assert cert.lcs_orders == [16, 4, 2, 1]


def test_dihedral_quaternion_semidihedral_all_distinct():
    Q, H = d8_level_one()
    A = Q.module
    flagged = [extensions.certify(A, H.representative(c)) for c in h2_coords(H)]
    spectra = sorted(cert.spectrum() for cert in flagged if cert.flag)
    # D16, SD16 (two classes), Q16 by their order spectra
    assert len(spectra) == 4
    assert len(set(spectra)) == 3


def test_are_isomorphic_separates_d8_q8():
    D8 = groups.build_group(
        {"presentation": {"generators": ["a", "b"],
                          "relators": ["a^2", "b^4", "a^-1 b a b"]}})
    Q8 = groups.build_group(
        {"presentation": {"generators": ["a", "b"],
                          "relators": ["a^4", "a^2 b^-2", "a^-1 b a b"]}})
    assert D8.order == 8 and Q8.order == 8
    assert not are_isomorphic(D8, Q8)
    assert are_isomorphic(D8, D8)


def test_fingerprint_prefilter_matches_isomorphism_on_order_eight():
    tables = [groups.make_table(cyclic_table(8))]
    tables.append(groups.build_group(
        {"presentation": {"generators": ["a", "b"], "relators": ["a^4", "b^2", "a b a^-1 b^-1"]}}))
    tables.append(groups.build_group(
        {"presentation": {"generators": ["a", "b"],
                          "relators": ["a^2", "b^4", "a^-1 b a b"]}}))
    for G1, G2 in itertools.combinations(tables, 2):
        assert not are_isomorphic(G1, G2)


def test_orbit_isomorphism_on_d8_level_one():
    Q, H = d8_level_one()
    part = pairs.orbits_on_h2(H, pairs.compatible_pairs(Q.module))
    rep = orbit_isomorphism_check(H, Q.module, part)
    assert rep.ok
    assert rep.checked_pairs == 6
    assert rep.skipped_classes == 4


def test_extension_cap_is_enforced():
    # C2 acting trivially on Z/2^12: the certificate has no order cap, and
    # the table oracle refuses order 8192 > CLOSURE_CAP before it allocates
    C2 = groups.make_table(cyclic_table(2))
    A = trivial_module(C2, 2, [12])
    H = cohomology.finite_cohomology(A, 2)
    rep = H.representative(np.array([1], dtype=np.int64))
    cert = extensions.certify(A, rep)
    assert (cert.order, cert.lcs_orders, cert.spectrum()[-1]) == (8192, [8192, 1], (8192, 4096))
    with pytest.raises(groups.GroupError, match="order 8192 exceeds the table cap 4096"):
        build_extension(C2, A, rep)


def test_projection_is_checked_on_the_generator_edges():
    C4 = groups.make_table(cyclic_table(4))
    A = trivial_module(C4, 2, [1])
    H = cohomology.finite_cohomology(A, 2)
    ext = build_extension(C4, A, H.representative(np.array([1], dtype=np.int64)))
    # the same base with the labels of a and a^2 swapped, so that the block
    # projection, read in the new labels, is no longer a homomorphism
    swap = np.array([0, 2, 1, 3])
    relabelled = groups.make_table(swap[C4.mul[np.ix_(swap, swap)]])
    assert are_isomorphic(relabelled, C4)
    bad = ExtensionGroup(relabelled, A, ext.table)
    with pytest.raises(extensions.ExtensionError, match="not a homomorphism"):
        validate_extension(bad)


@pytest.mark.parametrize("stage, level", [(2, 6), (3, 5)])
def test_extension_table_matches_the_int64_formula(stage, level):
    # order 512, so the flat pair index of the oracle runs far past 2^15
    top = scenarios.load_scenario("dihedral_mainline").stage(stage)
    A = top.chain.quotient(level).module
    H = cohomology.finite_cohomology(A, 2)
    tau_hat = H.representative([1] * len(H.structure.exps))
    tau = cocycle_value_table(A, tau_hat)
    assert tau.any()
    ext = build_extension(top.group, A, tau_hat)
    assert ext.table.order == 512
    assert ext.table.mul.dtype == groups.index_dtype(512)
    want = extension_table_by_formula(top.group.mul, A.coord_moduli(), plain_action_entries(A),
                                      tau)
    assert np.array_equal(ext.table.mul, want)


@pytest.mark.parametrize("source", ["dihedral_mainline", "d8_gaussian", str(C3_EISENSTEIN)],
                         ids=["dihedral_mainline", "d8_gaussian", "c3_eisenstein"])
def test_split_table_of_every_stage_matches_the_block_oracle(source):
    # each stage G0 x (T / T_kd) up to the table cap, built by the package
    # from the generators' right multiplications and by the oracle block by block
    scn = scenarios.load_scenario(source)
    d = scn.period()
    stages = [k for k in range(1, scn.chain().depth // d + 1)
              if scn.stage_order(k) <= groups.CLOSURE_CAP]
    assert len(stages) >= 3
    for k in stages:
        A = scn.quotient(k * d).module
        got, want = extensions.split_table(A), extension_table_by_blocks(scn.group(), A)
        assert got.mul.dtype == want.mul.dtype and got.mul.tobytes() == want.mul.tobytes(), k
        assert np.array_equal(got.inverses, want.inverses), k
        assert got.generators == want.generators, k


def test_a_coclass_criterion_disagreement_is_refused():
    # D8 over the dihedral top quotient V4 has the base's coclass 1; read at
    # the wrong index l = 1, gamma_1(E) = E is not the fiber, so the flag
    # and the coclass disagree, on the table as on the certificate
    top = scenarios.load_scenario("dihedral_mainline").top()
    A = top.quotient(1).module
    lam = top.mainline_cocycle(1)
    assert check_certificate(A, lam, l=top.l).flag
    assert check_certificate(A, lam, l=1) is None
    with pytest.raises(extensions.ExtensionError,
                       match="coclass criterion disagreement: cc 1 vs base 1, flag False"):
        extensions.certify(A, lam, l=1)


def test_product_of_three_largest_entries_does_not_wrap():
    # C3 acting trivially on Z/3^39: a.h + b + c(g, h) with every entry q - 1
    # is 3(q - 1), past 2^63, so the product must reduce after each sum of two
    C3 = groups.make_table(cyclic_table(3))
    A = trivial_module(C3, 3, [39])
    q = A.q
    tau = np.full((3, 3, 1), q - 1, dtype=np.int64)
    a = np.full((3, 1), q - 1, dtype=np.int64)
    g = np.arange(3)
    pa, pg = extensions._mul(A, tau, a, g, a, g)
    assert pa.dtype == np.int64
    assert pa[:, 0].tolist() == [3 * (q - 1) % q] * 3 == [4052555153018976264] * 3
    assert pg.tolist() == [0, 2, 1]
