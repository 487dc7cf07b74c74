import numpy as np
import pytest

from coclass import cohomology, groups, linalg, modules, scenarios

from brute_force import (
    brute_cocycles_and_boundaries,
    coboundary_matrix_naive,
    cocycles_by_intersection,
    full_lattice_cocycles,
    id_oplus_mu_inverse,
    is_coboundary,
    lattice_coefficients,
    lattice_cohomology,
    order_statistics,
    permutation_table,
    smith_dense_update,
    stats_from_invariants,
)


def cyclic_table(n):
    return [[(i + j) % n for j in range(n)] for i in range(n)]


def c2_negation(N=12):
    C2 = groups.make_table(cyclic_table(2))
    return modules.lattice_module(C2, {1: -np.eye(1, dtype=np.int64)}, 2, N)


def c2_trivial(N=12):
    C2 = groups.make_table(cyclic_table(2))
    return modules.lattice_module(C2, {1: np.eye(1, dtype=np.int64)}, 2, N)


def d8_lattice(N=16):
    D8 = groups.build_group(
        {"presentation": {"generators": ["a", "b"], "relators": ["a^2", "b^4", "a^-1 b a b"]}}
    )
    a = np.array([[1, 0], [0, -1]])
    b = np.array([[0, 1], [-1, 0]])
    return modules.lattice_module(D8, {D8.generators[0]: a, D8.generators[1]: b}, 2, N)


def finite_mod(group, moduli, act_plain):
    exps = [int(np.log2(m)) for m in moduli]
    return modules.finite_module_from_plain(group, 2, exps, act_plain)


def check_against_brute(group, moduli, act_plain, m, H):
    cocycles, boundaries, tuples_m = brute_cocycles_and_boundaries(
        group.mul, group.identity, moduli, act_plain, m
    )
    got = order_statistics(cocycles, boundaries, tuples_m, moduli)
    want = stats_from_invariants(H.invariants())
    # the brute set lists all cocycles; the coset order statistics of Z^m by
    # B^m determine the quotient up to isomorphism, with multiplicity |B^m|
    scaled = {k: v // (len(cocycles) // sum(want.values())) for k, v in got.items()}
    assert scaled == want, (scaled, want, H.invariants())


def test_d_squared_is_zero_finite():
    T = d8_lattice()
    chain = modules.g_central_series(T, 5)
    Q = modules.quotient(T, chain, 4)
    A = Q.module
    for m in (0, 1, 2):
        D0 = cohomology.coboundary_matrix(A, m)
        D1 = cohomology.coboundary_matrix(A, m + 1)
        assert not np.any((D0 @ D1) % A.q)


def test_d_squared_is_zero_lattice():
    T = d8_lattice(N=10)
    A = lattice_coefficients(T)
    for m in (0, 1, 2):
        D0 = cohomology.coboundary_matrix(A, m)
        D1 = cohomology.coboundary_matrix(A, m + 1)
        assert not np.any((D0 @ D1) % A.q)


def test_c2_negation_finite_known_values():
    # C2 on Z/2^n by negation: H^0 = H^1 = H^2 = H^3 = Z/2
    C2 = groups.make_table(cyclic_table(2))
    A = finite_mod(C2, [8], [np.array([[1]]), np.array([[-1]])])
    for m in (0, 1, 2, 3):
        H = cohomology.finite_cohomology(A, m)
        assert H.invariants() == [2], (m, H.invariants())


def test_c2_negation_brute_force():
    C2 = groups.make_table(cyclic_table(2))
    for mod in (4, 8):
        act = [np.array([[1]]), np.array([[-1]])]
        A = finite_mod(C2, [mod], act)
        for m in (1, 2):
            H = cohomology.finite_cohomology(A, m)
            check_against_brute(C2, [mod], act, m, H)


def test_c4_trivial_z2_brute_force():
    C4 = groups.make_table(cyclic_table(4))
    act = [np.array([[1]]) for _ in range(4)]
    A = finite_mod(C4, [2], act)
    for m in (1, 2):
        H = cohomology.finite_cohomology(A, m)
        assert H.invariants() == [2]
        check_against_brute(C4, [2], act, m, H)


def test_c2_mixed_module_brute_force():
    # C2 swapping the two coordinates of Z/2 + Z/2
    C2 = groups.make_table(cyclic_table(2))
    act = [np.eye(2, dtype=np.int64), np.array([[0, 1], [1, 0]])]
    A = finite_mod(C2, [2, 2], act)
    for m in (1, 2):
        H = cohomology.finite_cohomology(A, m)
        check_against_brute(C2, [2, 2], act, m, H)


def test_lattice_c2_negation_periodic_values():
    T = c2_negation()
    assert lattice_cohomology(T, 1).invariants() == [2]
    assert lattice_cohomology(T, 2).invariants() == []
    assert lattice_cohomology(T, 3).invariants() == [2]


def test_lattice_c2_trivial_values():
    T = c2_trivial()
    # H^1 = Hom(C2, Z_2) = 0: this dies without kernel saturation
    assert lattice_cohomology(T, 1).invariants() == []
    assert lattice_cohomology(T, 2).invariants() == [2]
    assert lattice_cohomology(T, 3).invariants() == []


def c3_eisenstein(N=10):
    # C3 on Z_3[omega], the generator acting by multiplication with omega
    C3 = groups.make_table(cyclic_table(3))
    return modules.lattice_module(C3, {1: np.array([[0, 1], [-1, -1]])}, 3, N)


def _s3_permutations():
    S3, perms = permutation_table([(1, 0, 2), (0, 2, 1)])
    mats = [np.eye(3, dtype=np.int64)[list(g)] for g in perms]  # v.g = v P_g
    return S3, mats


def _c4_rotation_lattice():
    C4 = groups.make_table(cyclic_table(4))
    rot = np.array([[0, 1], [-1, 0]])
    return modules.lattice_module(C4, {1: rot}, 2, 6)


def _s3_permutation_lattice():
    S3, mats = _s3_permutations()
    return modules.lattice_module(S3, {g: mats[g] for g in S3.generators},
                                  3, 4)


def _c2_swap():
    C2 = groups.make_table(cyclic_table(2))
    return finite_mod(C2, [4, 4], [np.eye(2, dtype=np.int64), np.array([[0, 1], [1, 0]])])


def _c4_by_three():
    C4 = groups.make_table(cyclic_table(4))
    return finite_mod(C4, [8], [np.array([[3**i]]) for i in range(4)])


def _s3_permutation_finite():
    S3, mats = _s3_permutations()
    return finite_mod(S3, [4, 4, 4], mats)


# coefficient modules whose hatted and plain coordinates agree, with the
# degrees m the naive formula is compared at
_ORACLE_SPACES = {
    "C2 negation lattice": (lambda: lattice_coefficients(c2_negation(N=6)), 3),
    "C2 swap on (Z/4)^2": (_c2_swap, 3),
    "C4 rotation lattice": (lambda: lattice_coefficients(_c4_rotation_lattice()), 3),
    "C4 by 3 on Z/8": (_c4_by_three, 3),
    "S3 permutation lattice": (
        lambda: lattice_coefficients(_s3_permutation_lattice()), 3),
    "S3 permutation on (Z/4)^3": (_s3_permutation_finite, 3),
    "D8 lattice": (lambda: lattice_coefficients(d8_lattice(N=8)), 2),
    "C3 on Z_3[omega]": (lambda: lattice_coefficients(c3_eisenstein(N=5)), 3),
}


@pytest.mark.parametrize("name", list(_ORACLE_SPACES))
def test_coboundary_matrix_matches_the_naive_formula(name):
    build, degrees = _ORACLE_SPACES[name]
    A = build()
    G = A.group
    for m in range(degrees):
        want = coboundary_matrix_naive(G.mul, G.identity, A.act, [A.q] * A.rank, m)
        got = cohomology.coboundary_matrix(A, m)
        assert got.shape == want.shape and np.array_equal(got, want % A.q), m


@pytest.mark.parametrize("name", list(_ORACLE_SPACES))
def test_generator_column_cocycles_match_the_full_kernel(name):
    # the lattice coefficients are read as the finite modules (Z/p^E)^r
    build, degrees = _ORACLE_SPACES[name]
    A = build()
    for m in range(degrees):
        got = cohomology.cocycle_rows(A, m)
        assert np.array_equal(got, cocycles_by_intersection(A, m)), m


def _d8_class(n):
    # the action conjugated into a chain level works at a reduced precision
    return cohomology.class_coefficients(modules.g_central_series(d8_lattice(), 8), n)


_LATTICE_SPACES = dict(
    {name: _ORACLE_SPACES[name] for name in [
        "C2 negation lattice", "C4 rotation lattice", "S3 permutation lattice", "D8 lattice",
        "C3 on Z_3[omega]"]},
    **{"D8 class of level %d" % n: (lambda n=n: _d8_class(n), 3) for n in range(1, 5)})


@pytest.mark.parametrize("name", list(_LATTICE_SPACES))
def test_lattice_cocycles_match_the_full_kernel(name):
    build, degrees = _LATTICE_SPACES[name]
    A = build()
    assert A.exps == [A.E] * A.rank  # the lattice held as (Z/p^E)^d
    for m in range(degrees):
        got, E = linalg.lattice_kernel(cohomology.generator_smith(A, m))
        want, E_want = full_lattice_cocycles(A, m)
        assert E == E_want, m
        assert linalg.span_equal(got, want, A.p, E), m


@pytest.mark.parametrize("want_right", [False, True])
@pytest.mark.parametrize("name", list(_ORACLE_SPACES))
def test_smith_matches_the_dense_update(name, want_right):
    build, degrees = _ORACLE_SPACES[name]
    A = build()
    for m in range(degrees):
        D = cohomology.coboundary_matrix(A, m)
        exps, U, V = smith_dense_update(D, A.p, A.E, want_right=want_right)
        for want_left in (True, False):
            s = linalg.smith(D, A.p, A.E, want_left=want_left, want_right=want_right)
            assert s.exps == exps, (m, want_left)
            assert np.array_equal(s.U, U) if want_left else s.U is None, (m, want_left)
            assert (s.V is None and V is None) or np.array_equal(s.V, V), (m, want_left)


def _assert_invariants_match(T, basis=None):
    A = lattice_coefficients(T, basis)
    for m in (1, 2, 3):
        want = lattice_cohomology(T, m, basis=basis).structure.exps
        assert cohomology.lattice_invariants(A, m) == want, m


@pytest.mark.parametrize("lattice, n", [
    (c2_negation, None), (c2_trivial, None), (d8_lattice, None), (c3_eisenstein, None),
] + [(d8_lattice, n) for n in range(1, 7)])
def test_lattice_invariants_match_the_kernel_path(lattice, n):
    T = lattice()
    _assert_invariants_match(T, None if n is None else modules.g_central_series(T, 8).bases[n])


@pytest.mark.parametrize("k", [0, 1, 2])
def test_lattice_invariants_match_the_kernel_path_on_stages(k):
    _assert_invariants_match(scenarios.load_scenario("dihedral_mainline").stage(k).lattice)


def test_lattice_invariants_reject_degree_zero():
    with pytest.raises(cohomology.CohomologyError, match="m >= 1"):
        cohomology.lattice_invariants(lattice_coefficients(c2_negation()), 0)


def test_lattice_invariants_rank_certificate_is_live():
    # g -> [[0, 1], [0, 0]] is no representation of C2; its traces still average
    # to a dimension, 1, but d^0 = 1 - g has rank 2, not 2 - 1
    C2 = groups.make_table(cyclic_table(2))
    act = np.array([np.eye(2), [[0, 1], [0, 0]]], dtype=np.int64)
    A = modules.FiniteModule(C2, 2, [10, 10], 10, act)
    for m in (1, 2):
        with pytest.raises(cohomology.CohomologyError, match="rational rank"):
            cohomology.lattice_invariants(A, m)


def test_lattice_h0_fixed_points():
    T = c2_trivial()
    H0 = lattice_cohomology(T, 0)
    # the whole lattice is fixed; at precision N that is one generator of
    # full order
    assert sum(H0.structure.exps) == T.N
    Tn = c2_negation()
    assert lattice_cohomology(Tn, 0).invariants() == []


def test_lattice_precision_stability():
    for N in (14, 16):
        T = d8_lattice(N)
        h2 = lattice_cohomology(T, 2).invariants()
        h3 = lattice_cohomology(T, 3).invariants()
        assert h2 == d8_h2_t_cached()
        assert h3 == d8_h3_t_cached()


_d8_cache = {}


def d8_h2_t_cached():
    if "h2" not in _d8_cache:
        _d8_cache["h2"] = lattice_cohomology(d8_lattice(18), 2).invariants()
    return _d8_cache["h2"]


def d8_h3_t_cached():
    if "h3" not in _d8_cache:
        _d8_cache["h3"] = lattice_cohomology(d8_lattice(18), 3).invariants()
    return _d8_cache["h3"]


def test_finite_h_matches_split_prediction():
    # |H^2(R, A_n)| = |H^2(R, T)| * |H^3(R, T_n)| once the level qualifies
    T = d8_lattice()
    chain = modules.g_central_series(T, 10)
    h2T = lattice_cohomology(T, 2)
    for n in (4, 6):
        Q = modules.quotient(T, chain, n)
        H2 = cohomology.finite_cohomology(Q.module, 2)
        H3n = lattice_cohomology(T, 3, basis=chain.bases[n])
        assert H2.order == h2T.order * H3n.order, (n, H2.invariants())


def test_split_level_d8():
    T = d8_lattice()
    chain = modules.g_central_series(T, 10)
    frame = cohomology.split_frame(T, chain, 4, m=2)
    lvl = cohomology.split_at_level(frame, chain, 4)
    # decompose every generator of Z^2(A_4) and reassemble
    for row in lvl.H.cocycles:
        gamma, c = lvl.decompose(row)
        back = (cohomology.lattice_row_to_quotient(lvl.Q, gamma)
                + cohomology.lattice_row_to_quotient(lvl.Q, lvl.k_lift(c))) % lvl.Q.module.q
        assert np.array_equal(back, row % lvl.Q.module.q)


def test_id_oplus_mu_is_iso_on_classes():
    T = d8_lattice()
    chain = modules.g_central_series(T, 10)
    frame = cohomology.split_frame(T, chain, 4, m=2)
    src = cohomology.split_at_level(frame, chain, 4)
    dst = cohomology.split_at_level(frame, chain, 6)
    assert src.H.order == dst.H.order
    # well-defined: a coboundary shifts to a coboundary
    for brow in src.H.boundaries[:4]:
        img = cohomology.id_oplus_mu(src, dst, brow)
        assert is_coboundary(dst.H, img)
    # injective on classes and compatible with the inverse
    seen = set()
    for coords in groups.all_coord_rows(src.H.structure.moduli().tolist()):
        tau = src.H.representative(coords)
        img = cohomology.id_oplus_mu(src, dst, tau)
        cls = tuple(dst.H.coords(img))
        seen.add(cls)
        back = id_oplus_mu_inverse(src, dst, img)
        assert tuple(src.H.coords(back)) == tuple(int(x) for x in coords)
    assert len(seen) == src.H.order


def test_id_oplus_mu_additive():
    T = d8_lattice()
    chain = modules.g_central_series(T, 10)
    frame = cohomology.split_frame(T, chain, 4, m=2)
    src = cohomology.split_at_level(frame, chain, 4)
    dst = cohomology.split_at_level(frame, chain, 6)
    rng = np.random.default_rng(5)
    for _ in range(5):
        c1 = [int(rng.integers(0, m)) for m in (int(x) for x in src.H.structure.invariants())]
        c2 = [int(rng.integers(0, m)) for m in (int(x) for x in src.H.structure.invariants())]
        t1 = src.H.representative(c1)
        t2 = src.H.representative(c2)
        a = cohomology.id_oplus_mu(src, dst, (t1 + t2) % src.Q.module.q)
        b = (cohomology.id_oplus_mu(src, dst, t1) + cohomology.id_oplus_mu(src, dst, t2))
        assert tuple(dst.H.coords(a)) == tuple(dst.H.coords(b % dst.Q.module.q))


def test_restrict_level_to_and_from_rank_0():
    chain = modules.g_central_series(c2_negation(), 6)
    Q0, Q1, Q3 = (chain.quotient(n) for n in (0, 1, 3))
    row = np.arange(4, dtype=np.int64)  # a 2-cochain of C2 with values in A_3
    assert Q0.module.rank == 0
    assert cohomology.restrict_level(Q3, Q0, row).shape == (0,)
    assert cohomology.restrict_level(Q0, Q0, np.zeros(0, dtype=np.int64)).shape == (0,)
    # each value a of Z/8 restricts to a mod 2
    assert cohomology.restrict_level(Q3, Q1, row).tolist() == [0, 1, 0, 1]


def test_trivial_group_cohomology():
    triv = groups.make_table([[0]])
    A = modules.finite_module_from_plain(triv, 2, [2], [np.eye(1, dtype=np.int64)])
    assert cohomology.finite_cohomology(A, 1).order == 1
    assert cohomology.finite_cohomology(A, 2).order == 1
    assert cohomology.finite_cohomology(A, 0).invariants() == [4]


def _scaled_chain(T, depth):
    """The chain T_n = 2^n T of invariant sublattices, built directly: its
    index outgrows the precision margin g_central_series keeps."""
    ident = np.eye(T.rank, dtype=np.int64)
    return modules.CentralChain(T, [(2**n * ident) % T.q for n in range(depth + 1)],
                                [T.rank * n for n in range(depth + 1)], False)


def _c2_negation_rank8(N):
    C2 = groups.make_table(cyclic_table(2))
    return modules.lattice_module(C2, {1: -np.eye(8, dtype=np.int64)},
                                  2, N)


@pytest.mark.parametrize("chain, period", [
    # at the old per-level precision the frame failed from level 5
    (lambda: modules.g_central_series(c2_negation(8), 6), 1),
    # at level 5 the old per-level rank certificate failed: 2^(4 - 1) is not
    # above the rank 8
    (lambda: _scaled_chain(_c2_negation_rank8(9), 6), 1),
    (lambda: modules.g_central_series(d8_lattice(10), 8), 2),
    (lambda: modules.g_central_series(c3_eisenstein(9), 7), 2),
], ids=["C2 negation", "C2 negation on rank 8", "D8", "C3"])
def test_class_frame_serves_exactly_the_levels_inside_f_T(chain, period):
    # T_n = p^c T' for the primitive basis of T', so the frame of the class
    # serves level n at scale p^(c - f) whenever c >= f; below it T_n is not
    # inside f.T and the level raises
    chain = chain()
    T = chain.lattice
    assert modules.chain_period(T, chain) == period
    frames, served = {}, 0
    for n in range(1, chain.depth):
        f = max(cohomology.lattice_exps(chain, 3, n), default=0)
        _, c = cohomology.primitive_basis(chain, n)
        if c >= f:
            level = cohomology.level_split(chain, n)  # certifies the split
            assert level.frame is frames.setdefault(n % period, level.frame)
            assert level.scale_exp == c - f
            served += 1
        else:
            with pytest.raises(cohomology.CohomologyError, match="is not contained in"):
                cohomology.level_split(chain, n)
    assert served and len(frames) == period
