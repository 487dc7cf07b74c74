"""Lattices with group action at finite p-adic precision, and their quotients.

A rank-d lattice with a right action of a finite group R is modelled by d x d
action matrices over Z/p^N.  The descending chain T = T_0 > T_1 > ... with
T_{i+1} = <t.g - t> is computed by exact Howell reduction; uniserial chains
drop index p at every step and satisfy T_{i+d} = p T_i.

Finite coefficient modules (the quotients A_n = T/T_n and friends) are
direct sums of cyclic p-groups Z/p^{e_i}.  They are embedded into a uniform
ambient (Z/p^E)^r by scaling coordinate i with p^{E-e_i} ("hatted"
coordinates), which makes every subgroup computation, fixed points and hom
spaces included, one exact kernel mod p^E (`linalg.scaled_kernel`); a module
holds its action in these coordinates only.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import CoclassError, Owner, groups, linalg
from .groups import GroupTable


class ModuleError(CoclassError):
    pass


# ---------------------------------------------------------------------------
# lattices


@dataclass(eq=False)
class LatticeModule(Owner):
    """A lattice mod p^N; it holds its hom bases (`lattice_hom_space`), one per beta."""

    group: GroupTable
    p: int
    N: int
    rank: int
    act: np.ndarray  # (|G|, d, d), right action v -> v @ act[g], act[gh] = act[g] @ act[h]

    @property
    def q(self) -> int:
        return self.p**self.N

    @property
    def ctx(self) -> "LatticeModule":  # perfbench/tracer.py reads the precision as T.ctx.N
        return self

    def pullback(self, group: GroupTable, elements) -> "LatticeModule":
        """The same lattice for a group whose element x acts as elements[x]."""
        return LatticeModule(group, self.p, self.N, self.rank,
                             self.act[_along(group, self.group, elements)])


def _along(group: GroupTable, acting: GroupTable, elements) -> np.ndarray:
    if not groups.is_homomorphism(group, acting, elements):
        raise ModuleError("the elements to pull back along do not form a homomorphism")
    return np.asarray(elements, dtype=np.int64)


def lattice_module(group: GroupTable, gen_action: dict, p: int, N: int) -> LatticeModule:
    """Extend generator action matrices mod p^N to the whole table and validate.

    gen_action maps generator element indices to d x d integer matrices.
    The matrices are carried along a breadth-first closure from the
    identity; act[x.g] = act[x] M_g for every element x and generator g then
    gives act[xy] = act[x] act[y] by induction on the word length of y.
    """
    q = p**N
    gen_mats = [(g, np.asarray(m, dtype=np.int64) % q) for g, m in gen_action.items()]
    if not gen_mats:
        raise ModuleError("need at least one generator action matrix")
    d = gen_mats[0][1].shape[0]
    reached = groups.closure(
        [(group.identity, np.eye(d, dtype=np.int64))], gen_mats,
        lambda xa, gm: (int(group.mul[xa[0], gm[0]]), linalg.dot_mod(xa[1], gm[1], q, q)),
        key=lambda xa: xa[0])
    if len(reached) != group.order:
        raise ModuleError("generators with action matrices do not generate the group")
    act = np.stack([reached[x][1] for x in range(group.order)])
    for g, Mg in gen_mats:
        if not np.array_equal(act[group.mul[:, g]], linalg.dot_mod(act, Mg, q, q)):
            raise ModuleError("action matrices violate the group relations")
    return LatticeModule(group, p, N, d, act)


@dataclass(eq=False)
class CentralChain(Owner):
    """A lattice with its chain of sublattices T_i.

    The chain owns every object derived from the pair: level quotients here,
    and the cohomology, split frames and stabilizer data built on them by
    `cohomology` and `pairs`; one made by `pullback` reads its quotients from its source.
    """

    lattice: LatticeModule
    bases: list[np.ndarray]  # bases[i] rows span T_i mod p^N
    index_exponents: list[int]  # v_p([T : T_i]) for each term
    stopped: bool  # True when the series became stationary before reaching depth
    pulled_from: tuple[CentralChain, np.ndarray] | None = None  # (chain, elements)

    @property
    def depth(self) -> int:
        return len(self.bases) - 1

    def quotient(self, n: int) -> "QuotientModule":
        def build():
            if self.pulled_from is None:
                return quotient(self.lattice, self, n)
            Q = self.pulled_from[0].quotient(n)
            return replace(Q, lattice=self.lattice,
                           module=Q.module.pullback(self.lattice.group, self.pulled_from[1]))
        return self.derived(("quotient", n), build)

    def pullback(self, group: GroupTable, elements) -> "CentralChain":
        """The same chain for a group whose element x acts as elements[x]: it
        keeps the bases, and each level quotient is this chain's pulled back."""
        return CentralChain(self.lattice.pullback(group, elements), self.bases,
                            self.index_exponents, self.stopped, (self, np.asarray(elements)))


def g_central_series(T: LatticeModule, depth: int) -> CentralChain:
    """T_0 = T, T_{i+1} = span{ t.g - t : t in T_i, g in the group }."""
    p, N, q = T.p, T.N, T.q
    d = T.rank
    ident = np.eye(d, dtype=np.int64)
    diffs = (T.act - ident) % q
    bases = [ident]
    idx = [0]
    stopped = False
    for _ in range(depth):
        B = bases[-1]
        rows = linalg.dot_mod(B, diffs, q, q).reshape(-1, d)
        H = linalg.howell(rows, p, N)
        if H.rows.shape[0] < d:
            stopped = True
            break
        e = H.index_exponent()
        if e + 2 > N:
            raise ModuleError("precision exhausted at chain index p^%d (N = %d)" % (e, N))
        if e == idx[-1]:
            stopped = True
            break
        bases.append(H.rows.copy())
        idx.append(e)
    return CentralChain(T, bases, idx, stopped)


def is_uniserial(chain: CentralChain, depth: int) -> tuple[bool, list[int]]:
    """True iff [T_i : T_{i+1}] = p for the first `depth` steps; returns the step indices."""
    steps = [b - a for a, b in zip(chain.index_exponents, chain.index_exponents[1:])]
    ok = chain.depth >= depth and all(s == 1 for s in steps[:depth])
    return ok, steps


def chain_period(T: LatticeModule, chain: CentralChain) -> int | None:
    """Least d with T_{i+d} = p T_i for all applicable i, or None."""
    for dd in range(1, chain.depth + 1):
        if all(linalg.span_equal(linalg.mul_mod(T.p, chain.bases[i], T.q), chain.bases[i + dd],
                                 T.p, T.N)
               for i in range(chain.depth - dd + 1)):
            return dd
    return None


def distinguished_generator(T: LatticeModule, chain: CentralChain) -> np.ndarray:
    """A vector t0 with <t0, T_1> = T, preferring ambient basis vectors."""
    if chain.depth < 1:
        raise ModuleError("need T_1 to choose a distinguished generator")
    p, N = T.p, T.N
    B1 = chain.bases[1]
    d = T.rank
    candidates = [np.eye(d, dtype=np.int64)[i] for i in range(d)]
    # fall back to short integer combinations if no basis vector works
    for c in range(2, p + 2):
        for i in range(d - 1):
            v = np.zeros(d, dtype=np.int64)
            v[i] = 1
            v[i + 1] = c - 1
            candidates.append(v)
    for t0 in candidates:
        H = linalg.howell(np.vstack([t0[None, :], B1]), p, N)
        if H.index_exponent() == 0:
            return t0
    raise ModuleError("no distinguished generator found")


# ---------------------------------------------------------------------------
# finite coefficient modules in hatted coordinates


@dataclass
class FiniteModule(Owner):
    """Direct sum of Z/p^{e_i} with a right group action, in hatted coordinates.

    Elements live in (Z/p^E)^r as multiples of scale_i = p^{E-e_i} on
    coordinate i; act[g] are the hatted action matrices, the one copy of
    the action.  Its plain coordinate matrix (entry ij mod p^{e_j}) is read
    from it as `unhat(member_rows() @ act[g])`.  The module holds its hom
    spaces (`hom_to`), one per codomain action.
    """

    group: GroupTable
    p: int
    exps: list[int]  # e_i > 0
    E: int
    act: np.ndarray  # (|G|, r, r) hatted matrices mod p^E

    @property
    def rank(self) -> int:
        return len(self.exps)

    @property
    def q(self) -> int:
        return self.p**self.E

    @property
    def order(self) -> int:
        return self.p ** int(sum(self.exps))

    def scales(self) -> np.ndarray:
        return np.array([self.p ** (self.E - e) for e in self.exps], dtype=np.int64)

    def coord_moduli(self) -> np.ndarray:
        return np.array([self.p**e for e in self.exps], dtype=np.int64)

    def member_rows(self) -> np.ndarray:
        """Generator rows of the module inside the hatted ambient space."""
        return np.diag(self.scales()).astype(np.int64)

    def hat(self, coords) -> np.ndarray:
        """Hatted vector of plain coordinates, rowwise on a stack."""
        return linalg.mul_mod(np.asarray(coords, dtype=np.int64) % self.q, self.scales(), self.q)

    def unhat(self, x) -> np.ndarray:
        """Plain coordinates of a hatted vector, rowwise on a stack."""
        x = np.asarray(x, dtype=np.int64) % self.q
        s = self.scales()
        if np.any(x % s):
            raise ModuleError("vector is not in the hatted module")
        return (x // s) % self.coord_moduli()

    def canonical(self, M) -> np.ndarray:
        """Canonical form of a hatted matrix, or of each in a stack: hatted
        matrices represent the same map whenever row i agrees mod p^{e_i}."""
        return np.asarray(M, dtype=np.int64) % self.q % self.coord_moduli()[:, None]

    def hat_matrix(self, plain) -> np.ndarray:
        """Canonical hatted matrix of an additive map given by a plain
        coordinate matrix (entry ij mod p^{e_j}), or of each map in a stack."""
        X = self.hat(plain)  # X[i, j] = C_ij p^{E - e_j}
        s = self.scales()[:, None]
        if np.any(X % s):
            raise ModuleError("plain matrix is not a well defined module map")
        return self.canonical(X // s)

    def invariants(self) -> list[int]:
        return [self.p**e for e in sorted(self.exps, reverse=True)]

    def pullback(self, group: GroupTable, elements) -> "FiniteModule":
        """The same module for a group whose element x acts as elements[x]."""
        e = _along(group, self.group, elements)
        return FiniteModule(group, self.p, list(self.exps), self.E, self.act[e])

    def hom_to(self, W: "FiniteModule", v0_hat=None) -> "HomSpace":
        """`hom_space(self, W)`, solved once per codomain, and cross-checked
        once by `_check_orbit_route` for each v0 given.  W is keyed by its
        exponents and its generators' canonical action, which fix it as a
        module over this module's group, so hom(A, A^(beta)) is solved once
        for all beta that act alike on A; the space names the first such W
        as its codomain."""
        key = ("hom", tuple(W.exps), W.canonical(W.act[self.group.generators]).tobytes())
        hs = self.derived(key, lambda: hom_space(self, W))
        if v0_hat is not None:
            v0 = np.asarray(v0_hat, dtype=np.int64) % self.q
            self.derived(key + (v0.tobytes(),), lambda: _check_orbit_route(hs, v0))
        return hs


def finite_module_from_plain(group: GroupTable, p: int, exps: list[int], plain_act) -> FiniteModule:
    """Build from action matrices on plain coordinates (entry ij mod p^{e_j}).

    The hatted entry ij is A_ij p^{E-e_j} / p^{E-e_i}: a multiple of A_ij
    when e_i >= e_j, and an exact quotient of it otherwise.  A_ij is first
    reduced mod p^{e_j}, so every integer lift of the same map gives the same
    canonical hatted matrices."""
    exps = [int(e) for e in exps]
    E = max(exps) if exps else 1
    r = len(exps)
    e = np.array(exps, dtype=np.int64)
    A = np.asarray(plain_act, dtype=np.int64).reshape(group.order, r, r) % p**e
    shift = e[:, None] - e[None, :]  # e_i - e_j
    mult, div = p ** np.maximum(shift, 0), p ** np.maximum(-shift, 0)
    if np.any(A % div):
        raise ModuleError("action matrix is not a well defined module map")
    act = A // div * mult  # row i below p^{e_i}: canonical
    fm = FiniteModule(group, p, exps, E, act)
    _validate_finite_action(fm)
    return fm


def _validate_finite_action(fm: FiniteModule):
    """The identity acts trivially, act[x.s] = act[x] act[s] for every
    element x and generator s (so the action is multiplicative, by induction
    on word length), and the generators preserve the hatted module.  Matrices
    are compared in canonical form, as maps of the module."""
    G = fm.group
    if not np.array_equal(fm.canonical(fm.act[G.identity]), np.eye(fm.rank, dtype=np.int64)):
        raise ModuleError("the identity does not act trivially")
    for s in G.generators:
        if not np.array_equal(fm.canonical(linalg.dot_mod(fm.act, fm.act[s], fm.q, fm.q)),
                              fm.canonical(fm.act[G.mul[:, s]])):
            raise ModuleError("finite module action is not multiplicative")
    if np.any(linalg.dot_mod(fm.member_rows(), fm.act[G.generators], fm.q, fm.q) % fm.scales()):
        raise ModuleError("action does not preserve the module")


@dataclass
class QuotientModule:
    """A_n = T / T_n, with coordinates and representatives from its
    structure, `linalg.quotient_group` of the whole lattice by the T_n basis."""

    lattice: LatticeModule
    level: int
    module: FiniteModule
    structure: linalg.QuotientGroup  # T / T_n, over ambient lattice coordinates

    def coords(self, v) -> np.ndarray:
        """Plain coordinates of v + T_n, for one ambient vector or a stack of them."""
        return self.structure.coords(v)

    def reduce(self, v) -> np.ndarray:
        """Canonical ambient representative of v + T_n (rowwise on a stack)."""
        return self.structure.element(self.coords(v))

    def hat_of_ambient(self, v) -> np.ndarray:
        return self.module.hat(self.coords(v))


def quotient(T: LatticeModule, chain: CentralChain, n: int) -> QuotientModule:
    """T / T_n.  The lattice is the span of the identity, whose Howell form
    is itself with no relations, so `linalg.quotient_group` runs its one
    Smith elimination on the T_n basis as given."""
    if n < 0:
        raise ModuleError("chain level %d is negative" % n)
    if n > chain.depth:
        raise ModuleError("chain only computed to depth %d < %d" % (chain.depth, n))
    S = linalg.quotient_group(np.eye(T.rank, dtype=np.int64), chain.bases[n], T.p, T.N)
    # the induced action on the coordinates
    plain = S.coords(linalg.dot_mod(S.gens, T.act, T.q, T.q))
    return QuotientModule(T, n, finite_module_from_plain(T.group, T.p, S.exps, plain), S)


# ---------------------------------------------------------------------------
# fixed points and hom spaces


def stabilizer(act: np.ndarray, v, q: int) -> np.ndarray:
    """Elements g with v.g = v, for action matrices act mod q and v reduced mod q."""
    return np.flatnonzero((linalg.dot_mod(v, act, q, q) == v).all(axis=1))


def fixed_points(W: FiniteModule, subgroup_elems) -> np.ndarray:
    """Hatted generator rows of { w : w.h = w for all h in the subgroup }."""
    ident = np.eye(W.rank, dtype=np.int64)
    blocks = [(W.act[h] - ident) % W.q for h in subgroup_elems if h != W.group.identity]
    if not blocks:
        return W.member_rows()
    return linalg.scaled_kernel(np.hstack(blocks), W.scales(), W.p, W.E)


@dataclass(eq=False)
class HomSpace(Owner):
    """hom_R(V, W) as a finite abelian group of plain coordinate matrices.  It
    holds its enumeration (`matrices`) and, as `pairs.compatible_pairs` finds
    them, the invertible homs among it: one hatted (s, r, r) stack, which is
    the eps stack of every beta whose hom(A, A^(beta)) is this space."""

    domain: FiniteModule
    codomain: FiniteModule
    structure: linalg.QuotientGroup  # over flattened hatted hom coordinates

    def flat_to_matrix(self, flat_hat) -> np.ndarray:
        """Plain coordinate matrix (entry ij mod p^{f_j}) from a hatted flat
        row, or one per row of a stack: each matrix row is a hatted vector
        of the codomain."""
        W = self.codomain
        flat_hat = np.asarray(flat_hat, dtype=np.int64)
        return W.unhat(flat_hat.reshape(*flat_hat.shape[:-1], self.domain.rank, W.rank))

    def matrix_to_flat(self, C) -> np.ndarray:
        return self.codomain.hat(C).reshape(-1)

    def matrices(self) -> np.ndarray:
        """Every hom's plain matrix, enumerated once by `all_matrices`."""
        return self.derived("matrices", self.all_matrices)

    def all_matrices(self) -> np.ndarray:
        """The plain matrix of every hom, as one stack in mixed-radix
        coordinate order."""
        S = self.structure
        q = S.p**S.M
        coords = groups.all_coord_rows(S.moduli().tolist())
        return self.flat_to_matrix(linalg.dot_mod(coords, S.gens, q, q))


def _commuting_columns(A, B) -> np.ndarray:
    """Condition columns of A C - C B = 0 in the row-major entries of C.

    Row i * cols(C) + j is the unknown C[i, j]; column a * cols(C) + b is the
    (a, b) entry of A C - C B.
    """
    return (np.kron(A, np.eye(B.shape[0], dtype=np.int64))
            - np.kron(np.eye(A.shape[0], dtype=np.int64), B.T)).T


def hom_space_flat(V: FiniteModule, W: FiniteModule) -> np.ndarray:
    """Hatted flat generator rows of hom_R(V, W), by one `linalg.scaled_kernel`.

    A hom is the r x r_W matrix X whose row i is the hatted image in W of
    coordinate generator i of V, flattened row major.  With P_g the plain
    matrix of g on V, X is a hom exactly when P_g X = X W.act[g] for each
    generator g and p^{e_i} X[i] = 0, all mod p^{E_W}.
    """
    r, rw = V.rank, W.rank
    S = V.group.generators
    P = V.unhat(linalg.dot_mod(V.member_rows(), V.act[S], V.q, V.q))
    F = np.hstack([_commuting_columns(Pg, W.act[g]) for Pg, g in zip(P, S)]
                  + [np.diag(np.repeat(V.coord_moduli(), rw))]) % W.q
    return linalg.scaled_kernel(F, np.tile(W.scales(), r), W.p, W.E)


def hom_space_via_orbit(V: FiniteModule, W: FiniteModule, v0_hat) -> np.ndarray:
    """Hatted flat hom generators via the distinguished-generator orbit route.

    Requires v0 to generate V as a module: the stabilizer of v0 is computed,
    each fixed point of the stabilizer in W lifts to the unique hom
    with v0 -> w, and the lifts of the fixed-submodule generators generate
    the hom space.
    """
    p = V.p
    v0_hat = np.asarray(v0_hat, dtype=np.int64) % V.q
    orbit = linalg.dot_mod(v0_hat, V.act, V.q, V.q)
    fixed = fixed_points(W, stabilizer(V.act, v0_hat, V.q))
    # orbit must span V
    if not linalg.span_equal(orbit, V.member_rows(), p, V.E):
        raise ModuleError("distinguished generator does not generate the module")
    # X[i] expresses the hatted coordinate generator e_i in the orbit rows
    solver = linalg.howell(orbit, p, V.E, track=True)
    X = solver.solve(V.member_rows())
    if X is None:
        raise ModuleError("failed to express a coordinate generator in the orbit")
    bound = max(V.q, W.q)
    rows = [linalg.dot_mod(X, linalg.dot_mod(w, W.act, W.q, W.q), bound, W.q).reshape(-1)
            for w in fixed]
    if not rows:
        return np.zeros((0, V.rank * W.rank), dtype=np.int64)
    return linalg.howell(np.vstack(rows), p, W.E).rows


def hom_space(V: FiniteModule, W: FiniteModule) -> HomSpace:
    """hom_R(V, W); for hom_R(V, W^(beta)), pass W pulled back along beta.
    `FiniteModule.hom_to` holds it."""
    flat = hom_space_flat(V, W)
    structure = linalg.quotient_group(flat, np.zeros((0, flat.shape[1]), dtype=np.int64),
                                      V.p, W.E)
    return HomSpace(V, W, structure)


def _check_orbit_route(hs: HomSpace, v0_hat) -> None:
    """The orbit route from the module generator v0 must give the same homs
    as the direct solve; the structure's generators span what it solved."""
    V, W = hs.domain, hs.codomain
    if not linalg.span_equal(hs.structure.gens, hom_space_via_orbit(V, W, v0_hat), V.p, W.E):
        raise ModuleError("hom space routes disagree")


# ---------------------------------------------------------------------------
# endomorphisms of the lattice itself


def lattice_hom_space(T: LatticeModule, beta=None) -> list[np.ndarray]:
    """Basis matrices of hom_R(T, T^(beta)) as a free module, at precision N;
    held by T, one basis per beta (default: the identity)."""
    b = np.arange(T.group.order, dtype=np.int64) if beta is None else np.asarray(beta, dtype=np.int64)
    return T.derived(("hom", b.tobytes()), lambda: _lattice_hom_basis(T, b))


def _lattice_hom_basis(T: LatticeModule, beta: np.ndarray) -> list[np.ndarray]:
    """Solutions of act[g] X = X act[beta g] for all generators;
    `lattice_kernel` discards precision artifacts, so the row count is the
    free rank."""
    p, N, q = T.p, T.N, T.q
    d = T.rank
    F = np.hstack([_commuting_columns(T.act[g], T.act[int(beta[g])])
                   for g in T.group.generators]) % q
    K, Ke = linalg.lattice_kernel(linalg.smith(F, p, N))
    return [K[i].reshape(d, d) % (p**Ke) for i in range(K.shape[0])]


def lattice_endomorphisms(T: LatticeModule, c: int, beta=None) -> np.ndarray:
    """Every combination of the `lattice_hom_space` basis with coefficients
    mod c, as a (c^k, d, d) stack in mixed-radix coefficient order."""
    basis = lattice_hom_space(T, beta)
    d = T.rank
    B = np.array(basis, dtype=np.int64).reshape(len(basis), d * d)
    coeffs = groups.all_coord_rows([c] * len(basis))
    return linalg.dot_mod(coeffs, B, max(c, T.q), T.q).reshape(-1, d, d)


def endo_to_quotient(Q: QuotientModule, Phi) -> np.ndarray:
    """Plain coordinate matrix of a lattice endomorphism acting on A_n, or of
    each one in a stack."""
    q = Q.lattice.q
    return Q.coords(linalg.dot_mod(Q.structure.gens, np.asarray(Phi, dtype=np.int64) % q, q, q))


def lift_endo(Q: QuotientModule, C) -> np.ndarray:
    """Integer matrix on the ambient lattice inducing the plain matrix C on
    A_n, or one per matrix of a stack."""
    q = Q.lattice.q
    coords = linalg.dot_mod(Q.structure.to_coords, np.asarray(C, dtype=np.int64) % q, q, q)
    return linalg.dot_mod(coords, Q.structure.gens, q, q)
