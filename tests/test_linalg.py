import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from coclass import linalg

from brute_force import contains, invert, smith_rescan, span_elements, span_intersection


# (p, M) on both sides of the ring rule's bound (p^M - 1)^2 < 2^63: 3^19 and
# 5^13 below it, the rest past it
RING_MODULI = [(3, 19), (3, 20), (3, 39), (5, 13), (5, 27), (2, 62)]


def assert_ring_array(x, q):
    """The ring rule's storage: int64 with entries in [0, q)."""
    assert x.dtype == np.int64 and ((0 <= x) & (x < q)).all()


def random_matrix(draw, p, M, rmax=5, cmax=5):
    q = p**M
    r = draw(st.integers(1, rmax))
    c = draw(st.integers(1, cmax))
    data = draw(
        st.lists(st.lists(st.integers(0, q - 1), min_size=c, max_size=c), min_size=r, max_size=r)
    )
    return np.array(data, dtype=np.int64)


mat_strategy = st.builds(
    lambda data: np.array(data, dtype=np.int64),
    st.lists(
        st.lists(st.integers(0, 2**6 - 1), min_size=3, max_size=3), min_size=2, max_size=5
    ),
)


@given(mat_strategy)
@settings(max_examples=100, deadline=None)
def test_smith_reconstruction(A):
    p, M = 2, 6
    q = p**M
    s = linalg.smith(A, p, M, want_left=True, want_right=True)
    D = (s.U @ (A % q) @ s.V) % q
    expect = np.zeros_like(D)
    for i, e in enumerate(s.exps):
        if e < M:
            expect[i, i] = p**e
    assert np.array_equal(D % q, expect % q)
    assert s.exps == sorted(s.exps)
    # transforms invertible, and Vinv is the inverse of V
    invert(s.U, p, M)
    assert np.array_equal(s.Vinv, invert(s.V, p, M))



def assert_smith_matches_rescan(F, p, M):
    """smith and the rescanning oracle give the same U, V, Vinv and
    exponents, under every choice of transforms."""
    for want_left in (True, False):
        for want_right in (True, False):
            got = linalg.smith(F, p, M, want_left=want_left, want_right=want_right)
            want = smith_rescan(F, p, M, want_left=want_left, want_right=want_right)
            assert got.shape == want.shape and got.exps == want.exps
            for x, y in ((got.U, want.U), (got.V, want.V), (got.Vinv, want.Vinv)):
                assert (x is None and y is None) or (
                    x.dtype == y.dtype and np.array_equal(x, y))


def test_smith_pivots_match_the_rescan():
    rng = np.random.default_rng(24)
    for _ in range(400):
        p = int(rng.choice([2, 3, 5]))
        M = int(rng.integers(1, 6))
        r, c = (int(x) for x in rng.integers(1, 8, size=2))
        # units scaled by p^0 .. p^M, so pivots of every valuation (and zero
        # entries) come up
        F = rng.integers(1, p**M, size=(r, c)) * p ** rng.integers(0, M + 1, size=(r, c))
        assert_smith_matches_rescan(F, p, M)


def test_smith_pivots_match_the_rescan_in_python_ints():
    # the rescan works in Python ints, so it checks smith's int64 work array
    # below the bound and its Python-int one past it
    rng = np.random.default_rng(25)
    for p, M in RING_MODULI:
        q = p**M
        for _ in range(40):
            r, c = (int(x) for x in rng.integers(1, 6, size=2))
            F = np.array([[int(rng.integers(1, q)) * p ** int(rng.integers(0, M + 1)) % q
                           for _ in range(c)] for _ in range(r)], dtype=np.int64)
            s = linalg.smith(F, p, M, want_left=True, want_right=True)
            for x in (s.U, s.V, s.Vinv):
                assert_ring_array(x, q)
            assert_smith_matches_rescan(F, p, M)


@pytest.mark.parametrize("F", [np.zeros((0, 3), dtype=np.int64), np.zeros((3, 0), dtype=np.int64),
                               np.zeros((3, 4), dtype=np.int64), np.array([4, 0, 6, 2])])
def test_smith_of_degenerate_shapes_matches_the_rescan(F):
    assert_smith_matches_rescan(F, 2, 3)


def test_smith_pivot_in_row_order_when_the_least_valuation_rises():
    p, M = 2, 4
    # after the unit pivot the least valuation rises to 1; the first entry
    # 2 in row order is (1, 2), though column 1 holds a 2 below it at (2, 1)
    F = np.array([[1, 0, 0], [0, 0, 2], [0, 2, 0]])
    s = linalg.smith(F, p, M, want_left=True, want_right=True)
    assert s.exps == [0, 1, 1]
    assert np.array_equal(s.U, np.eye(3, dtype=np.int64))  # no row swap
    assert np.array_equal(s.V, np.eye(3, dtype=np.int64)[:, [0, 2, 1]])  # columns 1, 2 swap
    assert_smith_matches_rescan(F, p, M)
    # while the least valuation stays at the last pivot's, column k comes
    # first: the first pivot 2 is (0, 0), then (2, 1) before (1, 2)
    F = np.array([[2, 0, 0], [0, 0, 2], [0, 2, 0]])
    s = linalg.smith(F, p, M, want_left=True, want_right=True)
    assert s.exps == [1, 1, 1]
    assert np.array_equal(s.U, np.eye(3, dtype=np.int64)[[0, 2, 1]])  # rows 1, 2 swap
    assert np.array_equal(s.V, np.eye(3, dtype=np.int64))
    assert_smith_matches_rescan(F, p, M)

@given(mat_strategy)
@settings(max_examples=60, deadline=None)
def test_row_kernel_annihilates(A):
    p, M = 2, 6
    q = p**M
    K = linalg.row_kernel(A, p, M)
    if K.shape[0]:
        assert not np.any((K @ (A % q)) % q)


@given(mat_strategy)
@settings(max_examples=60, deadline=None)
def test_howell_membership(A):
    p, M = 2, 6
    q = p**M
    H = linalg.howell(A, p, M, track=True)
    # every original generator reduces to zero
    for row in A % q:
        assert contains(H, row)
    # every howell row is transform @ gens
    if H.rows.shape[0]:
        assert np.array_equal((H.transform @ (A % q)) % q, H.rows % q)
    # random combinations are members
    rng = np.random.default_rng(0)
    for _ in range(3):
        x = rng.integers(0, q, size=A.shape[0])
        assert contains(H, (x @ (A % q)) % q)


def check_howell_form(A, p, M):
    """The Howell form of A against its span listed in full: the same span,
    echelon rows with strictly increasing pivot columns, each pivot exactly
    p^a with the entries above it in [0, p^a), the Howell property, and the
    transform taking the generators to the rows."""
    q = p**M
    H = linalg.howell(A, p, M, track=True)
    span = span_elements(A, q)
    assert span_elements(H.rows, q) == span
    cols = [j for j, _ in H.pivots]
    assert cols == sorted(set(cols)) and len(cols) == H.rows.shape[0]
    for i, (j, a) in enumerate(H.pivots):
        assert 0 <= a < M and H.rows[i, j] == p**a and not H.rows[i, :j].any()
        assert all(0 <= H.rows[h, j] < p**a for h in range(i))
    assert ((H.rows >= 0) & (H.rows < q)).all()
    # Howell property: the span elements that vanish on the first t columns
    # are spanned by the rows whose pivot lies in column t or later
    for t in range(A.shape[1] + 1):
        tail = [i for i, j in enumerate(cols) if j >= t]
        assert span_elements(H.rows[tail], q) == {v for v in span if not any(v[:t])}
    G = np.asarray(A, dtype=object) % q
    assert np.array_equal((H.transform.astype(object) @ G) % q, H.rows)
    assert H.transform.shape == (len(cols), A.shape[0])
    plain = linalg.howell(A, p, M)
    assert plain.transform is None and plain.same_span(H)
    return H


@pytest.mark.parametrize("gens", [0, 2])
def test_width_0_rows_reduce_to_width_0_residues(gens):
    H = linalg.howell(np.zeros((gens, 0), dtype=np.int64), 2, 3)
    assert H.pivots == []
    assert H.reduce(np.zeros((3, 0), dtype=np.int64)).shape == (3, 0)
    assert H.reduce(np.zeros((2, 3, 0), dtype=np.int64)).shape == (2, 3, 0)
    # a Python list of width-0 rows holds no entry to take a dtype from
    residue = H.reduce([[], [], []])
    assert residue.shape == (3, 0) and residue.dtype == np.int64


@given(st.data())
@settings(max_examples=120, deadline=None)
def test_howell_is_the_canonical_form_of_the_span(data):
    p = data.draw(st.sampled_from([2, 3, 5]))
    M = data.draw(st.integers(1, 4))
    q = p**M
    # shapes up to 4 x 4 whose spans (of at most q^min(r, c) elements) can
    # be listed
    r, c = data.draw(st.sampled_from([(r, c) for r in range(1, 5) for c in range(1, 5)
                                      if q ** min(r, c) <= 1 << 12]))
    # entries of every valuation, so that pivots p^a with a > 0 and their
    # annihilator rows come up; valuation M is a zero entry
    entry = st.tuples(st.integers(1, q - 1), st.integers(0, M)).map(
        lambda uv: uv[0] * p ** uv[1] % q)
    A = np.array(data.draw(st.lists(st.lists(entry, min_size=c, max_size=c),
                                    min_size=r, max_size=r)), dtype=np.int64)
    check_howell_form(A, p, M)


def test_howell_form_in_python_ints():
    # the span lies in p^(M - 2) (Z/p^M)^3; check_howell_form checks the
    # transform in Python ints
    for p, M in RING_MODULI:
        q = p**M
        t = p ** (M - 2)
        A = np.array([[t * a % q for a in row] for row in [[1, 2, 0], [p, 0, 5], [2, 4, 7]]],
                     dtype=np.int64)
        H = check_howell_form(A, p, M)
        assert_ring_array(H.rows, q)
        assert_ring_array(H.transform, q)
        if p > 2:  # 2, 4 and 7 are units
            assert H.pivots == [(0, M - 2), (1, M - 1), (2, M - 2)]


def test_solve_rows_roundtrip():
    # (3^19 - 1)^2 < 2^63 keeps the elimination in int64, but 45 * (3^19 -
    # 1)^2 > 2^63: summing 45 transform rows in int64 would overflow, so
    # dot_mod forms those products in Python ints
    for p, M, shape, trials in ([(2, 8, (4, 3), 25), (3, 19, (45, 40), 5)]
                                + [(p, M, (6, 5), 5) for p, M in RING_MODULI]):
        q = p**M
        rng = np.random.default_rng(1)
        for _ in range(trials):
            A = rng.integers(0, q, size=shape)
            x = rng.integers(0, q, size=shape[0])
            b = (x.astype(object) @ A.astype(object)) % q
            sol = linalg.howell(A, p, M, track=True).solve(b.astype(np.int64))
            assert sol is not None
            assert_ring_array(sol, q)
            assert np.array_equal((sol.astype(object) @ A.astype(object)) % q, b)


def test_solve_rows_infeasible():
    p, M = 2, 4
    A = np.array([[2, 0], [0, 4]])
    assert linalg.howell(A, p, M, track=True).solve(np.array([1, 0])) is None


def test_invert_errors_on_singular():
    with pytest.raises(ValueError):
        invert(np.array([[2, 0], [0, 1]]), 2, 5)


def test_quotient_group_cyclic():
    # K = (Z/8)^1, B = 4Z/8: quotient Z/4
    p, M = 2, 3
    K = np.array([[1]])
    B = np.array([[4]])
    qg = linalg.quotient_group(K, B, p, M)
    assert qg.invariants() == [4]
    assert list(qg.coords(np.array([1]))) in ([1], [3])
    assert list(qg.coords(np.array([4]))) == [0]


def test_quotient_group_mixed():
    # K = span{(2,0),(0,1)} in (Z/8)^2, B = span{(4,0),(0,4)}
    p, M = 2, 3
    K = np.array([[2, 0], [0, 1]])
    B = np.array([[4, 0], [0, 4]])
    qg = linalg.quotient_group(K, B, p, M)
    assert sorted(qg.invariants()) == [2, 4]
    # generator representatives have the right orders
    for g, e in zip(qg.gens, qg.exps):
        c = qg.coords(g)
        assert any(c)
        cc = qg.coords((p**e * g) % (p**M))
        assert not any(cc)


def test_quotient_group_coords_additive():
    p, M = 2, 4
    K = np.array([[1, 0], [0, 2]])
    B = np.array([[8, 0], [0, 8]])
    qg = linalg.quotient_group(K, B, p, M)
    rng = np.random.default_rng(3)
    q = p**M
    for _ in range(20):
        x = (rng.integers(0, q, 2) @ K) % q
        y = (rng.integers(0, q, 2) @ K) % q
        cx, cy = qg.coords(x), qg.coords(y)
        cxy = qg.coords((x + y) % q)
        mods = [p**e for e in qg.exps]
        assert all((int(a) + int(b)) % m == int(c) for a, b, c, m in zip(cx, cy, cxy, mods))


def test_abelian_invariants_of_span():
    p, M = 2, 4
    gens = np.array([[2, 0], [0, 4]])
    empty = np.zeros((0, 2), dtype=np.int64)
    assert linalg.quotient_group(gens, empty, p, M).invariants() == [8, 4]
    assert linalg.quotient_group(np.zeros((1, 2), dtype=np.int64), empty, p, M).invariants() == []


def test_span_intersection():
    p, M = 2, 4
    A = np.array([[2, 0]])
    B = np.array([[4, 0], [0, 1]])
    inter = span_intersection(A, B, p, M)
    H = linalg.howell(inter, p, M)
    assert contains(H, np.array([4, 0]))
    assert not contains(H, np.array([2, 0]))


def test_saturated_kernel_drops_precision_artifacts():
    # multiplication by 2 on Z_2 at precision 2^6: the honest kernel is 0
    p, M = 2, 6
    F = np.array([[2]])
    K, _ = linalg.lattice_kernel(linalg.smith(F, p, M))
    assert K.shape[0] == 0
    K_full = linalg.row_kernel(F, p, M)
    assert K_full.shape[0] == 1  # the mod-p^M artifact 2^{M-1}


def test_object_dtype_path():
    # Smith forms past the int64 product bound (and 3^19, 5^13 below it),
    # stored in int64 and checked in Python ints
    for p, M in [(2, 40)] + RING_MODULI:
        q = p**M
        A = linalg.as_matrix([[p ** (M - 5), 1], [3, p ** (M // 2)]])
        assert_ring_array(A, q)
        s = linalg.smith(A, p, M, want_left=True, want_right=True)
        for x in (s.U, s.V, s.Vinv):
            assert_ring_array(x, q)
        D = (s.U.astype(object) @ A.astype(object) @ s.V.astype(object)) % q
        expect = np.zeros((2, 2), dtype=object)
        for i, e in enumerate(s.exps):
            if e < M:
                expect[i, i] = p**e
        assert np.array_equal(D, expect)


@given(st.sampled_from([2, 3, 5, 2**31 - 1, 2**61 - 1]), st.integers(0, 4), st.data())
@settings(max_examples=60, deadline=None)
def test_invertible_mod_p_matches_the_smith_divisors(p, k, data):
    # at k = 0 the stack holds three empty matrices, each invertible
    entries = st.integers(0, min(p - 1, 3) if data.draw(st.booleans()) else p - 1)
    X = np.array([[[data.draw(entries) for _ in range(k)] for _ in range(k)] for _ in range(3)],
                 dtype=object).reshape(3, k, k)
    want = [all(e == 0 for e in linalg.smith(x, p, 1).exps) for x in X]
    got = linalg.invertible_mod_p(X, p)
    assert got.shape == (3,) and got.tolist() == want
