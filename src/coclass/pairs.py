"""Compatible pairs, their action on second cohomology, and the level shift.

A compatible pair on a module V is (beta, eps) with beta a group automorphism
and eps an invertible additive map satisfying M_g eps = eps M_{beta(g)} for the
action matrices M_g.  The pairs act on cocycles by

    (tau . (beta, eps))(g, h) = tau(beta^{-1} g, beta^{-1} h) . eps

and the induced orbits on H^2 classify the extensions up to the relevant
isomorphisms.  This module also builds the complement E_n of the reduced
lattice endomorphisms inside End(A_n), the homomorphisms rho/pi whose images
generate the pair group at deep levels, and the certified orbit bijection
between two consecutive qualifying levels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import CoclassError, cohomology, groups, linalg, modules
from .cohomology import CohomologyGroup
from .modules import CentralChain, FiniteModule, LatticeModule, QuotientModule


class PairError(CoclassError):
    pass


# ---------------------------------------------------------------------------
# the pair group on a finite module


@dataclass
class CompatiblePair:
    """(beta, eps) with eps in hatted coordinates on the finite module, in
    the canonical form of `FiniteModule.canonical`."""

    beta: np.ndarray  # index permutation of the group
    eps_hat: np.ndarray  # hatted matrix, row i reduced mod p^{e_i}


def automorphism_mask(A: FiniteModule, eps_hat) -> np.ndarray:
    """Which hatted matrices of a stack (..., r, r) are automorphisms of A.

    One is exactly when it maps A into A and each diagonal block on the
    coordinates of one exponent is invertible mod p (Hillar and Rhea,
    "Automorphisms of finite abelian groups", 2007): an endomorphism of a
    finite p-group is onto iff it is onto modulo the Frattini subgroup.
    """
    X = np.asarray(eps_hat, dtype=np.int64) % A.q
    s = A.scales()
    ok = ~np.any(linalg.mul_mod(s[:, None], X, A.q) % s, axis=(-2, -1))
    for e in set(A.exps):
        block = np.flatnonzero(np.array(A.exps) == e)
        ok &= linalg.invertible_mod_p(X[..., block[:, None], block], A.p)
    return ok


def satisfies_compatibility(A: FiniteModule, beta, eps_hats) -> np.ndarray:
    """Which hatted matrices of a stack (s, r, r) make a compatible pair with
    beta: M_g eps = eps M_beta(g) for every generator g, one broadcast per
    generator."""
    eps = np.asarray(eps_hats, dtype=np.int64)
    ok = np.ones(eps.shape[:-2], dtype=bool)
    for g in A.group.generators:
        lhs = A.canonical(linalg.dot_mod(A.act[g], eps, A.q, A.q))
        rhs = A.canonical(linalg.dot_mod(eps, A.act[int(beta[g])], A.q, A.q))
        ok &= (lhs == rhs).all(axis=(-2, -1))
    return ok


def compatible_pairs(A: FiniteModule) -> list[CompatiblePair]:
    """All pairs (beta, eps) by exhausting hom(A, A^(beta)) = hom(A, A pulled back along beta);
    the space holds its invertible homs, hatted, so the betas that share it
    share their enumeration and filtering."""
    out = []
    for beta in A.group.automorphisms():
        hs = A.hom_to(A.pullback(A.group, beta))
        def invertible():
            hats = A.hat_matrix(hs.matrices())
            return hats[automorphism_mask(A, hats)]
        hats = hs.derived("automorphisms", invertible)
        if not satisfies_compatibility(A, beta, hats).all():
            raise PairError("hom space produced an incompatible pair")
        out.extend(CompatiblePair(beta, eps_hat) for eps_hat in hats)
    return out


# ---------------------------------------------------------------------------
# action on cochains and on H^2


def act_on_cochain(H: CohomologyGroup, pair: CompatiblePair, row) -> np.ndarray:
    """(tau.(beta, eps))(g_1..g_m) = tau(g_1^{beta^-1}, ..).eps on hatted rows."""
    return act_on_cochains(H, pair.beta, np.asarray(pair.eps_hat)[None],
                           np.asarray(row)[None])[0, 0]


def act_on_cochains(H: CohomologyGroup, beta, eps_hats, rows) -> np.ndarray:
    """The pair (beta, eps_hats[s]) acting on rows[c], at [s, c]: one gather
    of the bar slots and one matmul for the whole stack."""
    A = H.module
    bar = A.group.bar_index(H.m)
    binv = groups.invert_perm(beta)
    rows = np.asarray(rows, dtype=np.int64) % A.q
    slots = rows.reshape(len(rows), len(bar.tuples), A.rank)[:, bar.index(binv[bar.tuples])]
    out = linalg.dot_mod(slots.reshape(len(rows) * len(bar.tuples), A.rank),
                         np.asarray(eps_hats, dtype=np.int64) % A.q, A.q, A.q)
    return out.reshape(len(out), *rows.shape)


def induced_h2_matrix(H: CohomologyGroup, beta, eps_hats) -> np.ndarray:
    """Matrices of the pairs (beta, eps_hats[s]) on H coordinates, at [s]
    (row i = image of gen i): one action on the whole stack, then one
    stacked coordinate solve."""
    k = len(H.structure.exps)
    if not k:
        return np.zeros((len(eps_hats), 0, 0), dtype=np.int64)
    moved = act_on_cochains(H, beta, eps_hats, H.structure.gens)
    return H.coords(moved.reshape(-1, moved.shape[-1])).reshape(len(eps_hats), k, k)


def _h2_matrices(H: CohomologyGroup, pairs: list[CompatiblePair]) -> list[np.ndarray]:
    """The matrix of each pair on H coordinates, one stack per beta."""
    by_beta: dict[bytes, tuple[np.ndarray, list]] = {}
    for pair in pairs:
        by_beta.setdefault(pair.beta.tobytes(), (pair.beta, []))[1].append(pair.eps_hat)
    return [M for beta, eps in by_beta.values() for M in induced_h2_matrix(H, beta, np.stack(eps))]


def _coord_product(H: CohomologyGroup, X, Y) -> np.ndarray:
    """X @ Y on H coordinates, each column reduced mod its own modulus, which
    divides the module's q."""
    q = H.module.q
    return linalg.dot_mod(X, Y, q, q) % H.structure.moduli()


@dataclass
class OrbitPartition:
    classes: list[list[tuple]]  # orbits of H^2 coordinate tuples
    sizes: list[int]
    stabilizer_sizes: list[int]
    acting_order: int  # order of the induced image in GL(H^2)
    orbit_index: dict[tuple, int]  # coordinate tuple -> index of its class

    @property
    def count(self) -> int:
        return len(self.classes)

    def orbit_of(self, coords) -> int:
        t = tuple(int(x) for x in coords)
        if t not in self.orbit_index:
            raise PairError("coordinates not found in any orbit")
        return self.orbit_index[t]


def orbits_on_h2(H: CohomologyGroup, pairs: list[CompatiblePair]) -> OrbitPartition:
    """Exact orbit partition of H under the pairs, by breadth-first closure."""
    gens = list({M.tobytes(): M for M in _h2_matrices(H, pairs)}.values())
    # close the induced image under composition to get the acting order
    mods = H.structure.moduli()
    closed = groups.closure(gens, gens, lambda X, Y: _coord_product(H, X, Y),
                            key=lambda X: X.tobytes())
    acting_order = max(len(closed), 1)
    index: dict[tuple, int] = {}
    classes: list[list[tuple]] = []
    for start in map(tuple, groups.all_coord_rows(mods.tolist()).tolist()):
        if start in index:
            continue
        orbit = groups.closure([start], gens, lambda c, M: tuple(_coord_product(H, c, M).tolist()))
        index.update(dict.fromkeys(orbit, len(classes)))
        classes.append(sorted(orbit))
    sizes = [len(c) for c in classes]
    stabs = []
    for s in sizes:
        if acting_order % s:
            raise PairError("orbit size %d does not divide the acting order %d" % (s, acting_order))
        stabs.append(acting_order // s)
    return OrbitPartition(classes, sizes, stabs, acting_order, index)


# ---------------------------------------------------------------------------
# the lattice pair group, reduced modulo c


def lattice_pairs_mod(T: LatticeModule, c_exp: int):
    """Representatives (beta, eps) of the image of the lattice pair group in
    the pairs of T / p^c T.

    eps runs over the lattice endomorphisms with coefficients mod p^c,
    filtered by invertibility mod p; distinct reductions are kept once, each
    with a full-precision lattice representative.
    """
    qc = T.p**c_exp
    out = []
    for beta in T.group.automorphisms():
        endos = modules.lattice_endomorphisms(T, qc, beta)
        first: dict[bytes, np.ndarray] = {}
        for eps in endos[linalg.invertible_mod_p(endos, T.p)]:
            first.setdefault((eps % qc).tobytes(), eps)
        out.extend((beta, eps) for eps in first.values())
    return out


def reduce_pair(Q: QuotientModule, beta, eps_lattice) -> CompatiblePair:
    """The pair induced on A_n by a lattice pair (beta, eps)."""
    C = modules.endo_to_quotient(Q, eps_lattice)
    return CompatiblePair(np.asarray(beta, dtype=np.int64), Q.module.hat_matrix(C))


# ---------------------------------------------------------------------------
# exponent bounds and qualifying levels


@dataclass
class ExponentBounds:
    """a = max{exp H^2(T), exp H^3(T_n)}, b = exp H^1(stab, T_n), as p-powers.

    v is the least exponent with p^v >= b * max{a, b}; a level n qualifies
    when n >= v*d (the deep-level assumption) and n >= b_exp*d (complement
    hypothesis).
    """

    p: int
    d: int
    a_exp: int
    b_exp: int

    @property
    def c_exp(self) -> int:
        return max(self.a_exp, self.b_exp)

    @property
    def v(self) -> int:
        return self.b_exp + self.c_exp

    def qualifies(self, n: int) -> bool:
        return n >= self.v * self.d and n >= self.b_exp * self.d

    def least_qualifying(self) -> int:
        return max(self.v * self.d, self.b_exp * self.d, 1)


def stabilizer_chain(T: LatticeModule, chain: CentralChain) -> tuple[np.ndarray, CentralChain]:
    """(t0, the chain pulled back to P) for the distinguished generator t0 and
    its stabilizer P; held by the chain."""
    def build():
        t0 = modules.distinguished_generator(T, chain)
        P, elements = groups.restricted_table(T.group, modules.stabilizer(T.act, t0 % T.q, T.q))
        return t0, chain.pullback(P, elements)
    return chain.derived("stabilizer", build)


def exponent_bounds(T: LatticeModule, chain: CentralChain, n: int, d: int) -> ExponentBounds:
    a2 = max(cohomology.lattice_exps(chain, 2), default=0)
    a3 = max(cohomology.lattice_exps(chain, 3, n), default=0)
    _, chain_P = stabilizer_chain(T, chain)
    b = max(cohomology.lattice_exps(chain_P, 1, n), default=0)
    return ExponentBounds(T.p, d, max(a2, a3), b)


# ---------------------------------------------------------------------------
# the complement E_n of the reduced lattice endomorphisms in End(A_n)


@dataclass
class Complement:
    """End(A_n) = (reduced lattice endomorphisms) + E_n, a direct sum.

    E_flat holds hatted flat rows of the complement generators; lattice_lifts
    are integer matrices on the ambient lattice, lift i reducing to row i, as
    `generator_pairs` pairs them.
    """

    h1_invariants: list[int]
    end_space: modules.HomSpace
    endT_flat: np.ndarray
    E_flat: np.ndarray
    lattice_lifts: np.ndarray  # (generators, d, d)

    def invariants(self) -> list[int]:
        A = self.end_space.codomain
        B = np.zeros((0, self.E_flat.shape[1]), dtype=np.int64)
        return linalg.quotient_group(self.E_flat, B, A.p, A.E).invariants()


def complement_En(T: LatticeModule, chain: CentralChain, n: int, period: int) -> Complement:
    """Complement of the reduced lattice endomorphisms inside End(A_n).

    Construction: over the stabilizer P of a distinguished lattice generator
    t0, the fixed points of A_n split as the reduction of the lattice fixed
    points plus a complement isomorphic to H^1(P, T_n); each complement
    generator w yields the unique endomorphism of A_n sending t0 to w.
    """
    Q = chain.quotient(n)
    p = T.p
    A = Q.module
    t0, chain_P = stabilizer_chain(T, chain)
    h1_exps = cohomology.lattice_exps(chain_P, 1, n)
    b_exp = max(h1_exps, default=0)
    if n < b_exp * period:
        raise PairError("level %d below the complement hypothesis %d" % (n, b_exp * period))
    level = cohomology.level_split(chain_P, n, 0)
    t0_hat = Q.hat_of_ambient(t0)
    End = A.hom_to(A, v0_hat=t0_hat)
    t0c = Q.coords(t0)
    # image of t0 under each hom generator, in hatted coordinates
    gens = End.structure.gens
    Rmat = linalg.dot_mod(t0c, gens.reshape(len(gens), A.rank, A.rank), A.q, A.q)
    x = linalg.howell(Rmat, p, A.E, track=True).solve(level.K_hat % A.q)
    if x is None:
        raise PairError("complement generator is not the t0-image of an endomorphism")
    E_gens = linalg.dot_mod(x, End.structure.gens, A.q, A.q)
    E_flat = linalg.howell(E_gens, p, A.E).rows
    # reductions of the lattice endomorphisms, flattened the same way
    endT = modules.lattice_hom_space(T)
    endT_rows = [End.matrix_to_flat(modules.endo_to_quotient(Q, Phi)) for Phi in endT]
    endT_flat = linalg.howell(np.vstack(endT_rows), p, A.E).rows if endT_rows else (
        np.zeros((0, A.rank * A.rank), dtype=np.int64))
    h1_invariants = [p**e for e in sorted(h1_exps, reverse=True)]
    lifts = modules.lift_endo(Q, End.flat_to_matrix(E_flat))
    comp = Complement(h1_invariants, End, endT_flat, E_flat, lifts)
    _verify_complement(comp, Q)
    return comp


def _verify_complement(comp: Complement, Q: QuotientModule):
    A = comp.end_space.codomain
    p, E = A.p, A.E
    if not np.array_equal(modules.endo_to_quotient(Q, comp.lattice_lifts),
                          comp.end_space.flat_to_matrix(comp.E_flat)):
        raise PairError("a complement lift does not reduce to its own generator")
    joint = np.vstack([comp.E_flat, comp.endT_flat])
    # |X + Y| = |X| |Y| exactly when X and Y meet in zero
    orders = [linalg.howell(x, p, E).order_exp() for x in (comp.E_flat, comp.endT_flat, joint)]
    if orders[0] + orders[1] != orders[2]:
        raise PairError("complement intersects the reduced lattice endomorphisms")
    if not linalg.span_equal(joint, comp.end_space.structure.gens, p, E):
        raise PairError("complement plus lattice endomorphisms do not fill End(A_n)")
    if comp.invariants() != comp.h1_invariants:
        raise PairError("complement invariants %s differ from H^1 invariants %s"
                        % (comp.invariants(), comp.h1_invariants))


# ---------------------------------------------------------------------------
# rho / pi images and their interaction


@dataclass
class RhoPiData:
    bounds: ExponentBounds
    complement: Complement
    gamma_mod_c: list  # (beta, lattice eps) reps of the pair group mod p^c


def one_plus(A: FiniteModule, eps_flat) -> CompatiblePair:
    """(1, 1 + eps) from a hatted flat hom row (X[i, j] = C_ij p^{E - e_j})."""
    C = A.unhat(np.asarray(eps_flat, dtype=np.int64).reshape(A.rank, A.rank))
    return CompatiblePair(np.arange(A.group.order, dtype=np.int64),
                          A.hat_matrix(np.eye(A.rank, dtype=np.int64) + C))


def rho_pi_data(T: LatticeModule, chain: CentralChain, n: int, period: int) -> RhoPiData:
    bounds = exponent_bounds(T, chain, n, period)
    if not bounds.qualifies(n):
        raise PairError("level %d does not satisfy the deep-level assumption; need %d"
                        % (n, bounds.least_qualifying()))
    comp = complement_En(T, chain, n, period)
    return RhoPiData(bounds, comp, lattice_pairs_mod(T, bounds.c_exp))


# ---------------------------------------------------------------------------
# the orbit correspondence between levels n and n + d


@dataclass
class GeneratorPair:
    """A generator of the pair group at level n with its partner at n + d."""

    kind: str  # "lattice" or "complement"
    at_n: CompatiblePair
    at_nd: CompatiblePair


@dataclass
class OrbitCorrespondence:
    level: int
    equivariant: bool
    witness: dict | None
    orbits_n: OrbitPartition
    orbits_nd: OrbitPartition
    bijection: list[tuple[int, int]]  # orbit index at n -> orbit index at n+d

    @property
    def ok(self) -> bool:
        return (self.equivariant and len(self.bijection) == self.orbits_n.count
                and self.orbits_n.count == self.orbits_nd.count
                and sorted(self.orbits_n.sizes) == sorted(self.orbits_nd.sizes))


def generator_pairs(T: LatticeModule, Q_n: QuotientModule, Q_nd: QuotientModule,
                    data: RhoPiData) -> list[GeneratorPair]:
    """Matched generators of the pair groups at levels n and n + d.

    Lattice pairs reduce at both levels directly; complement generators
    (1, 1 + eps) map by eps -> p * eps through the fixed integer lifts, and
    both must be compatible pairs.
    """
    p = T.p
    out = []
    for beta, eps in data.gamma_mod_c:
        out.append(GeneratorPair("lattice",
                                 reduce_pair(Q_n, beta, eps),
                                 reduce_pair(Q_nd, beta, eps)))
    A_nd = Q_nd.module
    for row, lift in zip(data.complement.E_flat, data.complement.lattice_lifts):
        at_n = one_plus(Q_n.module, row)
        _require_pair(Q_n.module, at_n, "1 + eps is not a compatible pair")
        C_nd = modules.endo_to_quotient(Q_nd, linalg.mul_mod(p, lift, T.q))
        at_nd = CompatiblePair(at_n.beta, A_nd.hat_matrix(np.eye(A_nd.rank, dtype=np.int64) + C_nd))
        _require_pair(A_nd, at_nd, "shifted complement generator is not a compatible pair")
        out.append(GeneratorPair("complement", at_n, at_nd))
    return out


def _require_pair(A: FiniteModule, pair: CompatiblePair, message: str):
    if not (automorphism_mask(A, pair.eps_hat)
            and satisfies_compatibility(A, pair.beta, pair.eps_hat[None])[0]):
        raise PairError(message)


def orbit_correspondence(T: LatticeModule, chain: CentralChain, n: int,
                         period: int) -> OrbitCorrespondence:
    """Certified orbit bijection H^2(A_n)/pairs -> H^2(A_{n+d})/pairs.

    Checks the equivariance identity shift(tau.g) = shift(tau).partner(g) on
    every H^2 element and every matched generator, then matches the full
    orbit partitions through the shift.
    """
    nd = n + period
    Q_n, Q_nd = chain.quotient(n), chain.quotient(nd)
    data = rho_pi_data(T, chain, n, period)
    lev_n, lev_nd = cohomology.level_split(chain, n), cohomology.level_split(chain, nd)
    H_n, H_nd = lev_n.H, lev_nd.H
    gens = generator_pairs(T, Q_n, Q_nd, data)
    witness = None
    equivariant = True
    elements = [H_n.representative(c)
                for c in groups.all_coord_rows(H_n.structure.moduli().tolist())]
    for gp in gens:
        for tau in elements:
            moved = act_on_cochain(H_n, gp.at_n, tau)
            lhs = H_nd.coords(cohomology.id_oplus_mu(lev_n, lev_nd, moved))
            shifted = cohomology.id_oplus_mu(lev_n, lev_nd, tau)
            rhs = H_nd.coords(act_on_cochain(H_nd, gp.at_nd, shifted))
            if not np.array_equal(lhs, rhs):
                equivariant = False
                witness = {"kind": gp.kind, "tau_coords": H_n.coords(tau).tolist(),
                           "lhs": lhs.tolist(), "rhs": rhs.tolist()}
                break
        if not equivariant:
            break
    pairs_n = compatible_pairs(Q_n.module)
    pairs_nd = compatible_pairs(Q_nd.module)
    orb_n = orbits_on_h2(H_n, pairs_n)
    orb_nd = orbits_on_h2(H_nd, pairs_nd)
    bijection = []
    if equivariant and orb_n.count == orb_nd.count:
        hit = set()
        for i, cl in enumerate(orb_n.classes):
            rep = H_n.representative(cl[0])
            img = H_nd.coords(cohomology.id_oplus_mu(lev_n, lev_nd, rep))
            j = orb_nd.orbit_of(img)
            if j in hit or orb_n.sizes[i] != orb_nd.sizes[j]:
                bijection = []
                break
            hit.add(j)
            bijection.append((i, j))
    return OrbitCorrespondence(n, equivariant, witness, orb_n, orb_nd, bijection)
