"""Group cohomology H^m (m <= 3) by exact normal forms of coboundary maps.

Normalized bar cochains for right modules: an m-cochain assigns a coefficient
vector to every m-tuple of nonidentity group elements, and

  (d f)(g_1, ..., g_{m+1}) = f(g_2, ..., g_{m+1})
      + sum_{i=1}^{m} (-1)^i f(g_1, ..., g_i g_{i+1}, ..., g_{m+1})
      + (-1)^{m+1} f(g_1, ..., g_m).g_{m+1},

with terms containing an identity argument dropped.  Cochains are flat row
vectors (one coefficient block per tuple) and d is a matrix acting on the
right, so cocycles are row kernels and coboundaries are row spans.

One coefficient type, `modules.FiniteModule` in hatted coordinates mod p^E,
holds finite modules and free lattices at working precision, a lattice as
(Z/p^E)^d (`lattice_coefficients`); the caller picks how a kernel is read:
  - finite cocycles are the exact kernel of d^m on the A-valued cochains;
  - lattice cocycles are the exact p-adic kernel (`linalg.lattice_kernel`),
    and computed invariants must divide |G| (anything larger signals
    precision loss and raises).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import CoclassError, linalg, modules
from .groups import GroupTable
from .modules import FiniteModule, LatticeModule, QuotientModule


# Entries of the largest coboundary matrix that may be built, counted over the
# columns built.  Built-in runs build at most 686 x 1372 (0.9 M, d^3 of d8 on a
# rank-2 module); `extend` of d8's level-1 mainline builds 961 x 3844 (3.7 M)
# on its order-32 group, and at rank 2, 1922 x 7688 (14.8 M, 118 MB) is refused.
COBOUNDARY_CAP = 1 << 23


class CohomologyError(CoclassError):
    pass


def generator_smith(A: FiniteModule, k: int) -> linalg.Smith:
    """Smith form, with U, of the generator columns of d^k, which carry the
    divisors of all of d^k (see `coboundary_matrix`); held by A."""
    return A.derived(("smith", k), lambda: _generator_smith(A, k))


def _generator_smith(A: FiniteModule, k: int) -> linalg.Smith:
    return linalg.smith(coboundary_matrix(A, k, A.group.generators), A.p, A.E)


def lattice_coefficients(T: LatticeModule, basis) -> FiniteModule:
    """(Z/p^E)^d for the finite-index sublattice spanned by the d basis rows.

    The action conjugated into the sublattice basis is only determined modulo
    p^{N - a}, where p^a is the largest elementary divisor of the basis, so
    the returned module works at that reduced precision E.  In the primitive
    basis of a chain level (`primitive_basis`) a does not grow with depth.
    """
    p, N, q = T.p, T.N, T.q
    B = np.asarray(basis, dtype=np.int64) % q
    d = B.shape[0]
    E = _basis_precision(T, B)
    act = linalg.howell(B, p, N, track=True).solve(linalg.dot_mod(B, T.act, q, q))
    if act is None:
        raise CohomologyError("sublattice is not invariant under the action")
    act %= p**E
    return FiniteModule(T.group, p, [E] * d, E, act)


def _basis_precision(T: LatticeModule, B: np.ndarray) -> int:
    """The precision E = N - a left to the action conjugated into the basis
    rows B, with p^a the largest elementary divisor of B; raises when E is
    too small to read invariants killed by |G|."""
    sB = linalg.smith(B, T.p, T.N, want_left=False, want_right=False)
    E = T.N - max(sB.exps, default=0)
    if E < linalg.valuation(T.group.order, T.p) + 3:
        raise CohomologyError("precision p^%d left after the basis change is too small" % E)
    return E


def coboundary_matrix(A: FiniteModule, m: int, last=None) -> np.ndarray:
    """The columns of d^m: C^m -> C^{m+1}, acting on flat cochain rows, whose
    (m+1)-tuple ends in an element of `last` (default: all of d^m), in the
    column order of d^m; the cap is checked on their size before any is built.

    The group generators are enough as last entries to test a cocycle.  For an
    A-valued cochain f, u = df is normalised and du = 0, and du(g_1, ..., g_m,
    x, y) = 0 writes u(g_1, ..., g_m, xy) as u(g_1, ..., g_m, x).y plus values
    of u whose last entry is y.  For a generator y those vanish if u does on
    the generator columns, and induction on the word length of the last entry
    gives u = 0.  This holds mod every p^a, so these columns have the row
    kernels, and so the Smith divisors, of all of d^m.  Each term is one
    scatter of r x r blocks into the (source tuple, slot, target tuple, slot)
    view of D; its blocks go to distinct targets, so `+=` adds them all."""
    G = A.group
    r = A.rank
    last, rows, cols = coboundary_shape(G, r, m, last)
    src = G.bar_index(m)
    T = np.column_stack([np.repeat(src.tuples, len(last), axis=0), np.tile(last, len(src.tuples))])
    D = np.zeros((rows, cols), dtype=np.int64)
    blocks = D.reshape(len(src.tuples), r, len(T), r)
    targets = np.arange(len(T))
    ident = np.eye(r, dtype=np.int64)
    # leading term f(g_2, ..., g_{m+1})
    blocks[src.index(T[:, 1:]), :, targets, :] += ident
    # merge terms (-1)^k f(g_1, ..., g_k g_{k+1}, ..., g_{m+1}), dropped at the identity
    for k in range(1, m + 1):
        merged = np.delete(T, k, axis=1)
        merged[:, k - 1] = G.mul[T[:, k - 1], T[:, k]]
        keep = merged[:, k - 1] != G.identity
        blocks[src.index(merged[keep]), :, targets[keep], :] += (-1) ** k * ident
    # trailing term (-1)^{m+1} f(g_1, ..., g_m).g_{m+1}
    blocks[src.index(T[:, :m]), :, targets, :] += (-1) ** (m + 1) * A.act[T[:, m]]
    return np.remainder(D, A.q, out=D)


def coboundary_shape(G: GroupTable, r: int, m: int, last=None) -> tuple[np.ndarray, int, int]:
    """(last entries, rows, columns) of what `coboundary_matrix` builds of d^m
    over rank-r coefficients for `last`; raises above COBOUNDARY_CAP entries."""
    allowed = np.zeros(G.order, dtype=bool)
    allowed[np.arange(G.order) if last is None else np.asarray(last, dtype=np.int64)] = True
    last = np.flatnonzero(allowed & (np.arange(G.order) != G.identity))
    rows = r * (G.order - 1) ** m
    cols = rows * len(last)
    if rows * cols > COBOUNDARY_CAP:
        raise CohomologyError("coboundary d^%d over a group of order %d is %d x %d, "
                              "above the cap of %d entries" % (m, G.order, rows, cols,
                                                               COBOUNDARY_CAP))
    return last, rows, cols


def _slot_scales(A: FiniteModule, m: int) -> np.ndarray:
    """The hat scale of each slot of a flat m-cochain row."""
    return np.tile(A.scales(), (A.group.order - 1) ** m)


def is_cocycle(A: FiniteModule, m: int, row) -> bool:
    """Whether a flat m-cochain row is an A-valued cocycle: whether it lies
    in the Howell span of Z^m(A) that `finite_cohomology` holds."""
    return not np.any(finite_cohomology(A, m).structure.K.reduce(row))


def cocycle_rows(A: FiniteModule, m: int) -> np.ndarray:
    """Howell rows of Z^m(A), read off the generator columns of d^m (see
    `coboundary_matrix`).

    Z^m(A) is the kernel of d^m on the A-valued cochains, whose hat scales
    are the slot scales (`linalg.scaled_kernel`).  The Howell form of a span
    is canonical, so the rows are those of the full kernel intersected with
    the A-valued cochains.
    """
    D = coboundary_matrix(A, m, A.group.generators)
    return linalg.scaled_kernel(D, _slot_scales(A, m), A.p, A.E)


def coboundary_rows(A: FiniteModule, m: int) -> np.ndarray:
    """Generators of B^m: the image of d^{m-1} on the A-valued cochains."""
    if m == 0:
        return np.zeros((0, A.rank), dtype=np.int64)
    return linalg.mul_mod(_slot_scales(A, m - 1)[:, None], coboundary_matrix(A, m - 1), A.q)


@dataclass
class CohomologyGroup:
    module: FiniteModule
    m: int
    cocycles: np.ndarray
    boundaries: np.ndarray
    structure: linalg.QuotientGroup

    def invariants(self) -> list[int]:
        return self.structure.invariants()

    @property
    def order(self) -> int:
        return self.structure.order

    def coords(self, cocycle_row) -> np.ndarray:
        return self.structure.coords(cocycle_row)

    def representative(self, coords) -> np.ndarray:
        return self.structure.element(coords)


def finite_cohomology(A: FiniteModule, m: int) -> CohomologyGroup:
    """H^m(R, A), held by A."""
    return A.derived(("H", m), lambda: _cohomology_group(A, m))


def _cohomology_group(A: FiniteModule, m: int) -> CohomologyGroup:
    Z = cocycle_rows(A, m)
    B = coboundary_rows(A, m)
    return CohomologyGroup(A, m, Z, B, linalg.quotient_group(Z, B, A.p, A.E))


def lattice_invariants(A: FiniteModule, m: int) -> list[int]:
    """Invariant exponents of the lattice H^m (m >= 1), from d^{m-1} alone.

    Z^m is a direct summand of C^m and H^m is finite, so H^m is the torsion of
    C^m / B^m: the nonzero, nonunit Smith divisors of d^{m-1}.  Each is at
    most v_p|G| and so read exactly at precision p^E, and the rank
    certificate checks that no divisor reached p^E: their count must equal
    the rational rank of d^{m-1}.  The kernel-and-quotient path to the same
    exponents is kept as a test oracle.

    Only the generator columns of d^{m-1} are eliminated; they have the
    Smith divisors of all of d^{m-1} (see `coboundary_matrix`).
    """
    if m < 1:
        raise CohomologyError("lattice invariants need degree m >= 1, not %d" % m)
    E = A.E
    s = generator_smith(A, m - 1)
    finite = [a for a in s.exps if a < E]
    rank = _coboundary_rank(A, m - 1)
    if len(finite) != rank:
        raise CohomologyError(
            "d^%d has %d divisors below p^%d but rational rank %d; the action is "
            "not a representation or the precision is too small"
            % (m - 1, len(finite), E, rank)
        )
    exps = [a for a in finite if a > 0]
    _check_group_order_bound(A, m, exps)
    return exps


def _coboundary_rank(A: FiniteModule, k: int) -> int:
    """Rational rank of d^k on lattice cochains.

    rank d^0 = r - dim V^G, and rank d^k = dim C^k - rank d^{k-1} because
    H^k is finite for k >= 1.  dim V^G is the average trace of the action,
    known mod p^{E - v_p|G|} and lying in [0, r].
    """
    G, p, r = A.group, A.p, A.rank
    gexp = linalg.valuation(G.order, p)
    P = _rank_modulus(G, p, A.E, r)
    total = sum(int(t) for t in np.trace(A.act, axis1=1, axis2=2)) % A.q
    fixed = (total // p**gexp) * pow(G.order // p**gexp, -1, P) % P
    if total % p**gexp or fixed > r:
        raise CohomologyError("the action's traces average to no dimension in [0, %d]; "
                              "it is not a representation" % r)
    rank = r - fixed
    for j in range(1, k + 1):
        rank = r * (G.order - 1) ** j - rank
    return rank


def _rank_modulus(G: GroupTable, p: int, E: int, r: int) -> int:
    """p^(E - v_p|G|), the modulus dim V^G is known to; it must exceed the rank r."""
    P = p ** (E - linalg.valuation(G.order, p))
    if P <= r:
        raise CohomologyError("precision p^%d is too small to certify ranks over a "
                              "group of order %d" % (E, G.order))
    return P


def _check_group_order_bound(A: FiniteModule, m: int, exps) -> None:
    """|G| kills the lattice H^m, so a larger invariant means lost precision."""
    gexp = linalg.valuation(A.group.order, A.p)
    for e in exps:
        if e > gexp:
            raise CohomologyError(
                "lattice H^%d invariant p^%d exceeds the |G| bound p^%d; "
                "raise the working precision" % (m, e, gexp)
            )


# ---------------------------------------------------------------------------
# derived objects held by the chain they come from, or by the coefficient
# module of a residue class it holds; each accessor looks in the memo first


def primitive_basis(chain: modules.CentralChain, n: int) -> tuple[np.ndarray, int]:
    """(B', c_n): c_n is the largest exponent with p^{c_n} dividing every
    entry of chain.bases[n], and B' = chain.bases[n] / p^{c_n}.

    B' spans the lattice T' = p^{-c_n} T_n, and multiplication by p^{c_n} is
    a module isomorphism T' -> T_n.  The chain is periodic, T_{n+kd} = p^k T_n,
    so every level of a residue class modulo the period d has the same B'
    (its Howell rows are those of T' times p^{c_n}), and the class is named by
    it.  Were two levels of a class to differ in B', they would get two
    frames, and `id_oplus_mu` would refuse to shift between them.
    """
    T = chain.lattice
    B = chain.bases[n]
    # gcd(entries, p^N) = p^{min(N, v_p of every entry)}
    c = linalg.valuation(np.gcd.reduce(B, axis=None, initial=T.q), T.p)
    return B // T.p**c, c


def _class_key(basis: np.ndarray) -> bytes:
    return np.asarray(basis, dtype=np.int64).tobytes()


def class_coefficients(chain: modules.CentralChain, n: int = 0) -> FiniteModule:
    """The action conjugated into the primitive basis of level n, shared by
    n's residue class; level 0 is T itself."""
    basis, _ = primitive_basis(chain, n)
    return chain.derived(("coefficients", _class_key(basis)),
                         lambda: lattice_coefficients(chain.lattice, basis))


def lattice_exps(chain: modules.CentralChain, m: int, n: int = 0) -> list[int]:
    """Invariant exponents of the lattice H^m(R, T_n), with T_0 = T.

    Only the exponents are kept: every reader needs the exponent or the order.
    T_n is isomorphic to the lattice of its primitive basis, so they are read
    by `lattice_invariants` once per residue class, from the Smith divisors of
    d^{m-1} on the class coefficients; the larger d^m is never built.
    """
    A = class_coefficients(chain, n)
    return A.derived(("lattice H", m), lambda: lattice_invariants(A, m))


def level_frame(chain: modules.CentralChain, n: int, m: int = 2) -> "SplitFrame":
    """The split frame of level n's residue class; raises what keeps it from
    serving level n, before the frame is built."""
    basis, c = primitive_basis(chain, n)
    _scale(chain, n, c, max(lattice_exps(chain, m + 1, n), default=0))
    return chain.derived(("frame", m, _class_key(basis)),
                         lambda: split_frame(chain.lattice, chain, n, m))


def _scale(chain: modules.CentralChain, n: int, c: int, f_exp: int) -> int:
    """c_n - f_exp; raises unless T_n = p^{c_n} T' lies in p^{f_exp} T."""
    if c < f_exp:
        raise CohomologyError("T_%d is not contained in %d.T; the level is too small "
                              "for the split" % (n, chain.lattice.p**f_exp))
    return c - f_exp


def level_split(chain: modules.CentralChain, n: int, m: int = 2) -> "SplitLevel":
    """The split of H^m(R, A_n) through the frame of n's residue class."""
    return chain.derived(("split", n, m), lambda: split_at_level(
        level_frame(chain, n, m), chain, n))


# ---------------------------------------------------------------------------
# the split decomposition H^m(R, T/T_n) = Im(theta) + K with K = H^{m+1}(R, T_n)


def lattice_row_to_quotient(Q: QuotientModule, row) -> np.ndarray:
    """Reduce a T-valued cochain row, or a stack of rows, to hatted A_n-valued rows."""
    row = np.asarray(row, dtype=np.int64)
    d = Q.lattice.rank
    hatted = Q.hat_of_ambient(row.reshape(-1, d))
    return hatted.reshape(*row.shape[:-1], row.shape[-1] // d * Q.module.rank)


@dataclass
class SplitFrame:
    """Data for splitting H^m(R, A_n), shared by the residue class of n
    modulo the chain period: the levels whose primitive basis is `basis`.

    theta_rows generate Z^m(R, T) at precision N.  K_lifts are the T-valued
    cochains delta_i = p^{f_exp - a_i} U_i B', read slot by slot from B'
    coordinates, for the divisors p^{a_i} of the class Smith form
    U d^m V = diag(p^{a_i}) (generator columns, B' coordinates).  At a level
    with c_n >= f_exp, the reductions of p^{c_n - f_exp} delta_i mod T_n
    generate the complement K = H^{m+1}(R, T_n) inside Z^m(R, A_n).
    """

    m: int
    basis: np.ndarray  # the primitive basis B' of the class
    f_exp: int  # v_p(exp H^{m+1}(R, T_n))
    theta_rows: np.ndarray
    theta_precision: int  # theta_rows are determined mod p^theta_precision
    K_lifts: np.ndarray
    K_divisor_exps: list[int]  # the a_i, each in (0, f_exp]


def split_frame(T: LatticeModule, chain: modules.CentralChain, n: int, m: int = 2) -> SplitFrame:
    """The frame of the residue class of level n; T is chain.lattice.

    It reads the class Smith form that `lattice_exps` reads H^{m+1}(R, T_n)
    from, so its rank certificate and |G| bound hold, every divisor a_i lies
    in (0, f_exp] and they sum to v_p |H^{m+1}|.  On the generator columns
    U_i d^m is p^{a_i} times a row of the unit V^-1, so d(delta_i) vanishes
    mod p^{f_exp} there, and so everywhere by the rule in `coboundary_matrix`.
    """
    p, q, d = T.p, T.q, T.rank
    basis, _ = primitive_basis(chain, n)
    A = class_coefficients(chain, n)
    f_exp = max(lattice_exps(chain, m + 1, n), default=0)
    s = generator_smith(A, m)
    theta, theta_prec = linalg.lattice_kernel(generator_smith(class_coefficients(chain), m))
    rows = [i for i, a in enumerate(s.exps) if 0 < a < A.E]
    divisors = [s.exps[i] for i in rows]
    scale = np.array([p ** (f_exp - a) for a in divisors], dtype=np.int64)
    delta = linalg.mul_mod(scale[:, None], s.U[rows], q)  # in B' coordinates, slot by slot
    lifts = linalg.dot_mod(delta.reshape(-1, d), basis, q, q)
    return SplitFrame(m, basis, f_exp, theta, theta_prec,
                      lifts.reshape(len(rows), s.U.shape[1]), divisors)


@dataclass
class SplitLevel:
    """The split of Z^m(R, A_n) = Im(theta) + K at a concrete level n."""

    frame: SplitFrame
    Q: QuotientModule
    level: int
    scale_exp: int  # c_n - f_exp; grows by one per period step
    theta_hat: np.ndarray
    K_hat: np.ndarray
    H: CohomologyGroup
    _solver: linalg.Howell

    def decompose(self, tau_hat) -> tuple[np.ndarray, np.ndarray]:
        """tau = theta(gamma) + sum c_i kappa_i exactly on cocycles.

        Returns (gamma, c) with gamma a T-valued m-cocycle row and c the
        K-lift coefficients.
        """
        x = self._solver.solve(np.asarray(tau_hat) % self.Q.module.q, modulus=self.Q.lattice.q)
        if x is None:
            raise CohomologyError("cocycle does not split; it may not be a cocycle")
        q = self.Q.lattice.q
        nt = self.frame.theta_rows.shape[0]
        return linalg.dot_mod(x[:nt], self.frame.theta_rows, q, q), x[nt:]

    def k_lift(self, c) -> np.ndarray:
        """T-valued cochain lift of the K-part with the given coefficients."""
        q = self.Q.lattice.q
        out = linalg.dot_mod(np.asarray(c, dtype=np.int64), self.frame.K_lifts, q, q)
        return linalg.mul_mod(pow(self.Q.lattice.p, self.scale_exp, q), out, q)


def split_at_level(frame: SplitFrame, chain: modules.CentralChain, n: int) -> SplitLevel:
    """The split of Z^m(R, A_n) through a frame that serves level n, with
    its certificate: the theta image and the complement p^{c_n - f_exp} K_lifts,
    reduced mod T_n, span the cocycles of A_n and meet in zero."""
    T = chain.lattice
    basis, c = primitive_basis(chain, n)
    if not np.array_equal(basis, frame.basis):
        raise CohomologyError("frame of another residue class cannot serve level %d" % n)
    k = _scale(chain, n, c, frame.f_exp)
    Q = chain.quotient(n)
    if frame.theta_precision < Q.module.E:
        raise CohomologyError("cocycle precision p^%d below module precision p^%d"
                              % (frame.theta_precision, Q.module.E))
    theta_hat = lattice_row_to_quotient(Q, frame.theta_rows)
    K_hat = lattice_row_to_quotient(Q, linalg.mul_mod(pow(T.p, k, T.q), frame.K_lifts, T.q))
    H = finite_cohomology(Q.module, frame.m)
    solver = linalg.howell(np.vstack([theta_hat, K_hat]), T.p, Q.module.E, track=True)
    Z = H.structure.K
    # the two parts must span the cocycles exactly and independently
    if not solver.same_span(Z):
        raise CohomologyError("theta image plus complement does not span the cocycles")
    ord_theta = linalg.howell(theta_hat, T.p, Q.module.E).order_exp()
    ord_K = linalg.howell(K_hat, T.p, Q.module.E).order_exp()
    if ord_theta + ord_K != Z.order_exp():
        raise CohomologyError("theta image and complement are not independent")
    return SplitLevel(frame, Q, n, k, theta_hat, K_hat, H, solver)


def restrict_level(Q_from: QuotientModule, Q_to: QuotientModule, row) -> np.ndarray:
    """Push a hatted A_n-valued cochain row down to a shallower level.

    Slotwise: take an ambient representative of each value and reduce it
    modulo the larger relation lattice (Q_to.level <= Q_from.level).
    """
    if Q_to.level > Q_from.level:
        raise CohomologyError("target level must not exceed the source level")
    A = Q_from.module
    # at rank 0 the row is empty, and so is its image at the shallower level
    slots = A.unhat(np.reshape(row, (np.size(row) // max(A.rank, 1), A.rank)))
    return Q_to.hat_of_ambient(Q_from.structure.element(slots)).reshape(-1)


def id_oplus_mu(src: SplitLevel, dst: SplitLevel, tau_hat) -> np.ndarray:
    """The shift H^m(R, A_n) -> H^m(R, A_{n+d}) on cocycle representatives.

    Decomposes tau = theta(gamma) + kappa and returns the reduction of
    gamma + p^k delta at the destination level, where delta is the T-valued
    lift of the complement part and k raises by one per period step.
    """
    if dst.frame is not src.frame:
        raise CohomologyError("source and destination must share a split frame")
    gamma, c = src.decompose(tau_hat)
    q = src.Q.lattice.q
    delta = src.k_lift(c)  # already scaled to the source level
    step = dst.scale_exp - src.scale_exp
    if step <= 0:
        raise CohomologyError("destination level must be deeper than the source")
    lifted = (gamma + linalg.mul_mod(pow(src.Q.lattice.p, step, q), delta, q)) % q
    return lattice_row_to_quotient(dst.Q, lifted)

