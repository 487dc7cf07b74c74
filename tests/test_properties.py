"""Property-based checks of the structural identities the pipeline relies on."""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from coclass import cohomology, extensions, groups, linalg, modules, pairs, scenarios

from brute_force import (act_on_row, brute_act_on_cochain, center, center_of_table,
                         check_certificate, closure_table_fill,
                         compose_permutations, contains, diagonalize_mod, element_orders_by_steps,
                         extension_mul_by_blocks, extension_table_by_formula, flat_pairs,
                         generator_columns,
                         hom_space_flat_by_plain_solve, is_associative, is_coboundary,
                         kernel_gens_mod, lower_central_series_terms, pair_compose,
                         permutation_table, plain_action_entries, reduce_one_row,
                         semi_brute_h_stats,
                         series_images, span_automorphism)


DATA = Path(__file__).resolve().parent / "data"


def cyclic_table(n):
    return [[(i + j) % n for j in range(n)] for i in range(n)]


small_mat = st.lists(
    st.lists(st.integers(min_value=0, max_value=255), min_size=3, max_size=3),
    min_size=2, max_size=4,
)


@given(small_mat, st.integers(min_value=2, max_value=6))
@settings(max_examples=60, deadline=None)
def test_diagonalize_mod_is_a_factorization(rows, K):
    p = 2
    q = p**K
    M = np.array(rows, dtype=np.int64) % q
    exps, U, V = diagonalize_mod(M, p, K, want_u=True, want_v=True)
    D = (U @ M @ V) % q
    want = np.zeros_like(D)
    for i, a in enumerate(exps):
        want[i, i] = p**a % q
    assert np.array_equal(D, want)
    # the tracked transforms stay invertible mod p
    assert round(np.linalg.det(U % p)) % p != 0
    assert round(np.linalg.det(V % p)) % p != 0


@given(small_mat, st.integers(min_value=2, max_value=5))
@settings(max_examples=40, deadline=None)
def test_kernel_gens_annihilate_and_are_complete(rows, K):
    p, q = 2, 2**K
    M = np.array(rows, dtype=np.int64) % q
    gens = kernel_gens_mod(M, p, K)
    assert not np.any((gens @ M) % q)
    # completeness: |span(gens)| * |row span(M)| = q^rows
    exps, _, _ = diagonalize_mod(M, p, K)
    im_exp = sum(K - a for a in exps)
    ker = linalg.howell(gens % q, p, K) if gens.shape[0] else None
    ker_exp = K * M.shape[0] - (ker.index_exponent() if ker else K * M.shape[0])
    assert ker_exp + im_exp == K * M.shape[0]


@given(st.integers(min_value=1, max_value=6), st.integers(min_value=1, max_value=4),
       st.integers(min_value=0, max_value=1))
@settings(max_examples=30, deadline=None)
def test_first_cohomology_of_cyclic_trivial_is_gcd(n, e, p_idx):
    p = (2, 3)[p_idx]
    G = groups.make_table(cyclic_table(n))
    act = [np.eye(1, dtype=np.int64)] * n
    A = modules.finite_module_from_plain(G, p, [e], act)
    H = cohomology.finite_cohomology(A, 1)
    g = int(np.gcd(n, p**e))
    assert [int(x) for x in H.invariants()] == ([] if g == 1 else [g])
    got = semi_brute_h_stats(G.mul, G.identity, [p**e], act, 1, p)
    assert sum(got.values()) == g


@given(st.integers(min_value=2, max_value=4), st.integers(min_value=1, max_value=3),
       st.booleans())
@settings(max_examples=25, deadline=None)
def test_coboundary_squares_to_zero(order, e, negate):
    G = groups.make_table(cyclic_table(order))
    # negation is only an action when the group order is even
    sign = -1 if (negate and order % 2 == 0) else 1
    act = [np.array([[sign**i]], dtype=np.int64) % 2**e for i in range(order)]
    A = modules.finite_module_from_plain(G, 2, [e], act)
    for m in (0, 1, 2):
        D0 = cohomology.coboundary_matrix(A, m)
        D1 = cohomology.coboundary_matrix(A, m + 1)
        assert not np.any((D0 @ D1) % A.q)


def _c4_by_c4():
    # element 4a + b is (a, b); the generators are given out of order
    table = [[4 * ((i // 4 + j // 4) % 4) + (i + j) % 4 for j in range(16)] for i in range(16)]
    return groups.make_table(table, generators=[4, 1])


def _d8_unsorted():
    D8, _ = permutation_table([(1, 2, 3, 0), (3, 2, 1, 0)])
    return groups.make_table(D8.mul, generators=sorted(D8.generators, reverse=True))


COLUMN_GROUPS = {
    "C1": lambda: groups.make_table([[0]]),
    "C3": lambda: groups.make_table(cyclic_table(3)),
    "C16": lambda: groups.make_table(cyclic_table(16)),
    "S3": lambda: permutation_table([(1, 2, 0), (1, 0, 2)])[0],
    "D8 unsorted": _d8_unsorted,
    "C2^4": lambda: groups.make_table([[i ^ j for j in range(16)] for i in range(16)]),
    "C4 x C4 unsorted": _c4_by_c4,
}


@given(st.sampled_from(sorted(COLUMN_GROUPS)), st.sampled_from([2, 3]), st.integers(1, 2),
       st.booleans(), st.data())
@settings(max_examples=40, deadline=None)
def test_generator_columns_are_the_full_columns_ending_in_a_generator(name, p, r, lattice,
                                                                      data):
    # any action matrices: the column rule is about where d^m is read, not
    # about whether the action is a representation; a lattice is held as
    # (Z/p^E)^r, a finite module may have any exponents up to E
    G = COLUMN_GROUPS[name]()
    E = 3
    flat = data.draw(st.lists(st.integers(0, p**E - 1), min_size=G.order * r * r,
                              max_size=G.order * r * r))
    act = np.array(flat, dtype=np.int64).reshape(G.order, r, r)
    exps = [E] * r if lattice else data.draw(st.lists(st.integers(1, E), min_size=r,
                                                      max_size=r))
    A = modules.FiniteModule(G, p, exps, E, act)
    for m in range(3):
        got = cohomology.coboundary_matrix(A, m, G.generators)
        want = cohomology.coboundary_matrix(A, m)[:, generator_columns(A, m)]
        assert got.dtype == want.dtype and got.shape == want.shape, m
        assert got.tobytes() == want.tobytes(), m


@given(st.lists(st.integers(min_value=1, max_value=3), min_size=1, max_size=4),
       st.data())
@settings(max_examples=50, deadline=None)
def test_mixed_radix_round_trip(exps, data):
    moduli = [2**e for e in exps]
    v = np.array([data.draw(st.integers(min_value=0, max_value=m - 1)) for m in moduli],
                 dtype=np.int64)
    idx = groups.mixed_radix_index(v, moduli)
    rows = groups.all_coord_rows(moduli)
    assert np.array_equal(rows[idx], v)


EXTENSION_BASES = {
    "C1": [[0]],
    "C2": cyclic_table(2),
    "C4": cyclic_table(4),
    "S3": closure_table_fill([(1, 2, 0), (1, 0, 2)], compose_permutations, (0, 1, 2))[0].tolist(),
}


@given(st.sampled_from([2, 3, 5]), st.lists(st.integers(1, 3), min_size=1, max_size=3),
       st.sampled_from(sorted(EXTENSION_BASES)), st.booleans(), st.data())
@settings(max_examples=80, deadline=None)
def test_extension_blocks_match_the_int64_formula(p, exps, base, with_tau, data):
    # the block oracle that builds the tests' extension tables, against the
    # flat formula, for any integer action matrices, automorphisms of A or
    # not, and any factor set
    assume(p ** sum(exps) <= 128)
    moduli = [p**e for e in exps]
    na = int(np.prod(moduli))
    gmul = np.array(EXTENSION_BASES[base])
    ng, r = len(gmul), len(moduli)

    def integers(*shape):
        n = int(np.prod(shape))
        flat = data.draw(st.lists(st.integers(-3 * na, 3 * na), min_size=n, max_size=n))
        return np.array(flat, dtype=np.int64).reshape(shape)

    act = integers(ng, r, r)
    tau = integers(ng, ng, r) if with_tau else None
    got = extension_mul_by_blocks(gmul, moduli, act, tau)
    want = extension_table_by_formula(gmul, moduli, act,
                                      np.zeros((ng, ng, r), dtype=np.int64) if tau is None else tau)
    assert got.dtype == groups.index_dtype(ng * na)
    assert np.array_equal(got, want)


def _v4_signs(p, exps, signs):
    """V4 = <a, b> acting on the sum of Z/p^{e_i} by commuting sign matrices:
    coordinate i is negated by a when signs[i] is 1 or 3, by b when 2 or 3."""
    V4 = groups.make_table([[i ^ j for j in range(4)] for i in range(4)])
    act = [np.diag([(-1) ** bin(x & s).count("1") for s in signs]) for x in range(4)]
    return modules.finite_module_from_plain(V4, p, exps, act)


def _c2_blocks(p, exps, r1, X):
    """C2 acting by the involution [[1, X], [0, -1]] in blocks of r1 and
    len(exps) - r1 coordinates."""
    r = len(exps)
    M = np.diag([1] * r1 + [-1] * (r - r1)).astype(np.int64)
    M[:r1, r1:] = X
    return modules.finite_module_from_plain(groups.make_table(cyclic_table(2)), p, exps,
                                            [np.eye(r, dtype=np.int64), M])


def _d8_on_plane(e):
    # D8 = <a, b | a^2, b^4, (ab)^2> acting on (Z/2^e)^2 by its integer
    # matrices: a reflects, b rotates; every element's matrix is read mod 64
    D8 = groups.from_presentation(["a", "b"], ["a^2", "b^4", "a^-1 b a b"])
    a, b = D8.generators
    T = modules.lattice_module(D8, {a: np.array([[1, 0], [0, -1]]),
                                    b: np.array([[0, 1], [-1, 0]])}, 2, 6)
    return modules.finite_module_from_plain(D8, 2, [e, e], T.act)


@st.composite
def mixed_modules(draw):
    """A finite module with mixed exponents and a pullback of it along an
    automorphism of its group: sign matrices of V4, whose automorphisms
    permute a, b and ab, block involutions of C2 over p = 2, 3, 5, or D8 on
    a plane."""
    kind = draw(st.sampled_from(["V4 signs", "C2 blocks", "D8 on a plane"]))
    if kind == "D8 on a plane":
        A = _d8_on_plane(draw(st.integers(1, 2)))
    else:
        p = draw(st.sampled_from([2, 3, 5] if kind == "C2 blocks" else [2, 3]))
        r = draw(st.integers(1 if kind == "V4 signs" else 2, 3))
        exps = draw(st.lists(st.integers(1, 3), min_size=r, max_size=r))
        if kind == "V4 signs":
            A = _v4_signs(p, exps, draw(st.lists(st.integers(0, 3), min_size=r, max_size=r)))
        else:
            # X_ij must be a multiple of p^(e_j - e_i) to be a module map
            r1 = draw(st.integers(1, r - 1))
            X = np.array([[p ** max(exps[j] - exps[i], 0) * draw(st.integers(-p**2, p**2))
                           for j in range(r1, r)] for i in range(r1)], dtype=np.int64)
            A = _c2_blocks(p, exps, r1, X)
    beta = draw(st.sampled_from(A.group.automorphisms()))
    return A, A.pullback(A.group, beta)


@given(mixed_modules())
@settings(max_examples=80, deadline=None)
def test_hom_space_matches_the_plain_solve_on_pullbacks(modules_pair):
    # hom(A, A^beta) and hom(A^beta, A), solved in hatted coordinates, have
    # the Howell rows of the solve on plain matrices at the codomain moduli
    A, W = modules_pair
    for V, U in ((A, W), (W, A)):
        got, want = modules.hom_space_flat(V, U), hom_space_flat_by_plain_solve(V, U)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


@given(mixed_modules(), st.booleans())
@settings(max_examples=60, deadline=None)
def test_split_table_matches_the_int64_formula(modules_pair, pulled):
    A = modules_pair[pulled]
    G = A.group
    assume(G.order * A.order <= 512)
    got = extensions.split_table(A)
    formula = extension_table_by_formula(G.mul, A.coord_moduli(), plain_action_entries(A),
                                         np.zeros((G.order, G.order, A.rank), dtype=np.int64))
    want = groups.make_table(formula)
    assert got.mul.dtype == want.mul.dtype == groups.index_dtype(G.order * A.order)
    assert got.mul.tobytes() == want.mul.tobytes()
    assert np.array_equal(got.inverses, want.inverses)
    assert got.generators == want.generators


def _dihedral_setup():
    scn = scenarios.load_scenario("dihedral_mainline")
    return scn


@given(st.data())
@settings(max_examples=15, deadline=None)
def test_restrict_level_composes(data):
    scn = _dihedral_setup()
    Q4, Q3, Q2 = scn.quotient(4), scn.quotient(3), scn.quotient(2)
    H = cohomology.finite_cohomology(Q4.module, 2)
    coords = tuple(data.draw(st.integers(min_value=0, max_value=int(m) - 1))
                   for m in (H.module.p**e for e in H.structure.exps))
    row = H.representative(coords)
    one = cohomology.restrict_level(Q4, Q2, row)
    two = cohomology.restrict_level(Q3, Q2, cohomology.restrict_level(Q4, Q3, row))
    assert np.array_equal(one % Q2.module.q, two % Q2.module.q)


@given(st.data())
@settings(max_examples=15, deadline=None)
def test_pair_action_is_an_action(data):
    scn = _dihedral_setup()
    Q = scn.quotient(3)
    A = Q.module
    H = cohomology.finite_cohomology(A, 2)
    ps = flat_pairs(pairs.compatible_pairs(A))
    x = ps[data.draw(st.integers(min_value=0, max_value=len(ps) - 1))]
    y = ps[data.draw(st.integers(min_value=0, max_value=len(ps) - 1))]
    coords = tuple(data.draw(st.integers(min_value=0, max_value=int(m) - 1))
                   for m in (H.module.p**e for e in H.structure.exps))
    row = H.representative(coords)
    xy = pair_compose(A, x, y)
    via_product = act_on_row(H, xy, row)
    stepwise = act_on_row(H, y, act_on_row(H, x, row))
    assert is_coboundary(H, (via_product - stepwise) % A.q)


def _v4_trivial():
    # every pair is compatible with the trivial action, so beta runs over
    # Aut(V4) = S3, which has automorphisms that are not involutions
    V4 = groups.make_table([[i ^ j for j in range(4)] for i in range(4)])
    return modules.finite_module_from_plain(V4, 2, [2, 2], [np.eye(2, dtype=np.int64)] * 4)


_PAIR_MODULES = {
    "dihedral_mainline level 3":
        lambda: scenarios.load_scenario("dihedral_mainline").quotient(3).module,
    "d8_gaussian level 2": lambda: scenarios.load_scenario("d8_gaussian").quotient(2).module,
    "V4 on (Z/4)^2": _v4_trivial,
}
_pair_cache = {}


def _module_pairs(name):
    """A finite module, its H^1 and H^2, and its compatible pairs."""
    if name not in _pair_cache:
        A = _PAIR_MODULES[name]()
        Hs = [cohomology.finite_cohomology(A, m) for m in (1, 2)]
        _pair_cache[name] = (A, Hs, flat_pairs(pairs.compatible_pairs(A)))
    return _pair_cache[name]


@given(st.sampled_from(list(_PAIR_MODULES)), st.data())
@settings(max_examples=40, deadline=None)
def test_pair_action_matches_the_per_tuple_loop(module, data):
    A, Hs, ps = _module_pairs(module)
    H = data.draw(st.sampled_from(Hs))
    pair = data.draw(st.sampled_from(ps))
    # any cochain of the module, not only a cocycle: hatted coordinates per slot
    mods = [A.p**e for e in A.exps]
    slots = (A.group.order - 1) ** H.m
    coords = np.array([[data.draw(st.integers(min_value=0, max_value=m - 1)) for m in mods]
                       for _ in range(slots)], dtype=np.int64)
    row = A.hat(coords).reshape(-1)
    assert np.array_equal(act_on_row(H, pair, row), brute_act_on_cochain(H, pair, row))


@given(st.data())
@settings(max_examples=20, deadline=None)
def test_canonical_hat_is_idempotent_and_respects_action(data):
    scn = _dihedral_setup()
    A = scn.quotient(3).module
    r = len(A.exps)
    M = np.array([[data.draw(st.integers(min_value=0, max_value=int(A.q) - 1))
                   for _ in range(r)] for _ in range(r)], dtype=np.int64)
    C = A.canonical(M)
    assert np.array_equal(C, A.canonical(C))
    # hatted vectors transform identically under M and its canonical form
    v = A.hat(np.array([data.draw(st.integers(min_value=0, max_value=int(A.p**e) - 1))
                        for e in A.exps], dtype=np.int64))
    assert np.array_equal(A.unhat((v @ M) % A.q), A.unhat((v @ C) % A.q))


def _swap_intercalate(mul, t, i, j):
    """Swap the 2 x 2 subsquare on rows i, it and columns j, jt of an abelian
    table, where t is an involution: the result is still a Latin square."""
    it, jt = mul[i][t], mul[j][t]
    mul[i][j], mul[i][jt] = mul[i][jt], mul[i][j]
    mul[it][j], mul[it][jt] = mul[it][jt], mul[it][j]


@given(st.integers(min_value=1, max_value=6), st.integers(min_value=1, max_value=4),
       st.booleans(), st.data())
@settings(max_examples=60, deadline=None)
def test_make_table_accepts_exactly_the_associative_tables(a, b, swap, data):
    # Z/a x Z/b, element (x, y) at index x*b + y
    n = a * b
    mul = [[((i // b + j // b) % a) * b + (i + j) % b for j in range(n)] for i in range(n)]
    if swap:
        inv = [row.index(0) for row in mul]
        # swaps that leave the identity row and column and every inverse alone
        sites = [(t, i, j) for t in range(1, n) if mul[t][t] == 0
                 for i in range(1, n) if i != t
                 for j in range(1, n) if j != t and 0 not in (mul[i][j], mul[i][mul[j][t]])]
        if sites:
            _swap_intercalate(mul, *data.draw(st.sampled_from(sites)))
            assert [row.index(0) for row in mul] == inv
    if is_associative(mul):
        G = groups.make_table(mul)
        assert G.order == n
    else:
        with pytest.raises(groups.GroupError, match="not associative"):
            groups.make_table(mul)


@st.composite
def permutation_generators(draw):
    degree = draw(st.integers(min_value=1, max_value=6))
    return draw(st.lists(st.permutations(range(degree)), max_size=3))


@given(permutation_generators())
@settings(max_examples=40, deadline=None)
def test_permutation_tables_match_the_all_pairs_fill(perms):
    # the one table builder, on the right multiplications of the oracle's elements
    perms = [tuple(p) for p in perms]
    identity = tuple(range(len(perms[0]) if perms else 1))
    mul, gens, elems = closure_table_fill(perms, compose_permutations, identity)
    index = {x: i for i, x in enumerate(elems)}
    right = [[index[compose_permutations(x, g)] for x in elems] for g in perms]
    G = groups.table_from_generators(np.array(right, dtype=np.int64).reshape(len(perms),
                                                                               len(elems)))
    assert np.array_equal(G.mul, mul)
    assert G.generators == gens


@given(permutation_generators())
@example([(1, 0, 2, 3, 4, 5), (1, 2, 3, 4, 5, 0)])  # S_6
@example([(1, 2, 0, 3, 4), (0, 1, 3, 4, 2)])  # A_5
@example([(1, 0, 2, 3), (0, 2, 3, 1)])  # S_4
@settings(max_examples=40, deadline=None)
def test_lcs_orders_and_center_match_the_naive_ones(perms):
    G, _ = permutation_table(perms)
    terms = lower_central_series_terms(G)
    if len(terms[-1]) == 1:
        assert series_images(G) == terms
    else:
        with pytest.raises(groups.GroupError, match="group is not nilpotent"):
            series_images(G)
    assert np.array_equal(G.element_orders(), element_orders_by_steps(G.mul, G.identity))
    assert center(G) == center_of_table(G.mul)


@given(st.sampled_from([2, 3, 5]), st.sampled_from([[1, 2], [2, 1], [2, 2], [1, 3, 2]]),
       st.booleans(), st.data())
@settings(max_examples=200, deadline=None)
def test_automorphism_mask_matches_the_span_comparison(p, exps, into, data):
    C2 = groups.make_table(cyclic_table(2))
    A = modules.finite_module_from_plain(C2, p, exps, [np.eye(len(exps), dtype=np.int64)] * 2)
    r = len(exps)
    # canonical hatted rows, row i mod p^{e_i}; with `into` the entries that
    # must be divisible for the map to keep A are made so
    X = np.array([[data.draw(st.integers(0, p**exps[i] - 1)) for _ in range(r)]
                  for i in range(r)], dtype=np.int64)
    if into:
        X = X * np.array([[p ** max(ei - ej, 0) for ej in exps] for ei in exps]) % A.q
    stack = np.stack([X, A.canonical(np.eye(r, dtype=np.int64) + X)])
    want = [span_automorphism(A, x) for x in stack]
    assert pairs.automorphism_mask(A, stack).tolist() == want
    assert [bool(pairs.automorphism_mask(A, x)) for x in stack] == want


@given(st.sampled_from([(2, 5), (3, 3), (5, 2)]), st.integers(1, 4), st.integers(1, 4),
       st.data())
@settings(max_examples=60, deadline=None)
def test_stacked_reduce_matches_the_row_by_row_loop(pM, ngens, nrows, data):
    p, M = pM
    q = p**M
    width = data.draw(st.integers(1, 5))
    entries = st.lists(st.lists(st.integers(0, q - 1), min_size=width, max_size=width),
                       min_size=1, max_size=ngens)
    gens = np.array(data.draw(entries), dtype=np.int64)
    H = linalg.howell(gens, p, M)
    coeffs = np.array(data.draw(st.lists(st.lists(st.integers(0, q - 1), min_size=len(gens),
                                                   max_size=len(gens)),
                                          min_size=nrows, max_size=nrows)), dtype=np.int64)
    inside = (coeffs @ gens) % q
    noise = np.array(data.draw(st.lists(st.lists(st.integers(0, q - 1), min_size=width,
                                                  max_size=width),
                                         min_size=nrows, max_size=nrows)), dtype=np.int64)
    stack = np.stack([inside, (inside + noise) % q])
    got = H.reduce(stack)
    assert got.shape == stack.shape
    want = [[reduce_one_row(H, v) for v in rows] for rows in stack]
    assert np.array_equal(got, np.array(want).reshape(stack.shape))
    assert not np.any(got[0])


@given(st.sampled_from([(2, 5), (3, 3), (5, 2)]), st.integers(1, 4), st.integers(1, 4),
       st.data())
@settings(max_examples=60, deadline=None)
def test_stacked_solve_and_coords_match_the_row_by_row_calls(pM, ngens, nrows, data):
    p, M = pM
    q = p**M
    width = data.draw(st.integers(1, 4))
    rows = st.lists(st.lists(st.integers(0, q - 1), min_size=width, max_size=width),
                    min_size=1, max_size=ngens)
    K = np.array(data.draw(rows), dtype=np.int64)
    B = (p * K[:data.draw(st.integers(0, len(K)))]) % q
    coeffs = np.array(data.draw(st.lists(st.lists(st.integers(0, q - 1), min_size=len(K),
                                                   max_size=len(K)),
                                          min_size=nrows, max_size=nrows)), dtype=np.int64)
    stack = (coeffs @ K) % q
    qg = linalg.quotient_group(K, B, p, M)
    want = np.array([qg.coords(v) for v in stack]).reshape(nrows, len(qg.exps))
    assert np.array_equal(qg.coords(stack), want)
    H = linalg.howell(K, p, M, track=True)
    solved = H.solve(stack)
    assert np.array_equal(solved, np.array([H.solve(v) for v in stack]))
    assert np.array_equal((solved @ K) % q, stack)
    outside = next((v for v in np.eye(width, dtype=np.int64) if not contains(H, v)), None)
    if outside is not None:
        assert H.solve(np.vstack([stack, outside])) is None


def _trivial_on(table, p):
    G = groups.make_table(table)
    return lambda *exps: modules.finite_module_from_plain(
        G, p, list(exps), [np.eye(len(exps), dtype=np.int64)] * G.order)


# (G, A) up to |G| |A| = 512: trivial and faithful actions of 2- and
# 3-groups, and the level quotients of the built-in scenarios
_CERT_MODULES = {
    "C2 trivial": (_trivial_on(cyclic_table(2), 2), [(1,), (3,), (1, 2), (2, 2), (1, 1, 2)]),
    "C4 trivial": (_trivial_on(cyclic_table(4), 2), [(1,), (2,), (1, 2), (1, 1, 1)]),
    "V4 trivial": (_trivial_on([[i ^ j for j in range(4)] for i in range(4)], 2),
                   [(1,), (2,), (1, 1), (1, 3)]),
    "C9 trivial": (_trivial_on(cyclic_table(9), 3), [(1,), (2,), (1, 1)]),
    "D8 on a plane": (_d8_on_plane, [(1,), (2,), (3,)]),
    "dihedral_mainline": (lambda n: scenarios.load_scenario("dihedral_mainline").top()
                          .quotient(n).module, [(n,) for n in range(1, 8)]),
    "d8_gaussian": (lambda n: scenarios.load_scenario("d8_gaussian").top().quotient(n).module,
                    [(1,)]),
    "c3_eisenstein": (lambda n: scenarios.load_scenario(str(DATA / "c3_eisenstein.json")).top()
                      .quotient(n).module, [(1,), (2,)]),
}
_cert_cache = {}


@given(st.sampled_from(sorted(_CERT_MODULES)), st.data())
@settings(max_examples=60, deadline=None)
def test_extension_certificate_matches_the_table(name, data):
    # a random cocycle, any class plus any coboundary, of a random module
    build, choices = _CERT_MODULES[name]
    args = data.draw(st.sampled_from(choices))
    if (name, args) not in _cert_cache:
        A = build(*args)
        _cert_cache[name, args] = (A, cohomology.finite_cohomology(A, 2),
                                   cohomology.coboundary_rows(A, 2))
    A, H, B = _cert_cache[name, args]
    assert A.group.order * A.order <= 512
    coords = [data.draw(st.integers(0, int(m) - 1)) for m in H.structure.moduli()]
    mix = np.array(data.draw(st.lists(st.integers(0, A.q - 1), min_size=len(B),
                                      max_size=len(B))), dtype=np.int64)
    row = (H.representative(coords) + mix @ B) % A.q
    check_certificate(A, row)
