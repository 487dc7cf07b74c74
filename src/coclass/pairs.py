"""Compatible pairs, their action on second cohomology, and the level shift.

A compatible pair on a module V is (beta, eps) with beta a group automorphism
and eps an invertible additive map satisfying M_g eps = eps M_{beta(g)} for the
action matrices M_g.  The pairs act on cocycles by

    (tau . (beta, eps))(g, h) = tau(beta^{-1} g, beta^{-1} h) . eps

and the induced orbits on H^2 classify the extensions up to the relevant
isomorphisms.  A set of pairs is held as one (beta, eps stack) entry per
automorphism beta, and every action is `act_on_cochains`, one stack on a
stack of rows.  This module also builds the complement E_n of the reduced
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


def compatible_pairs(A: FiniteModule) -> list[tuple[np.ndarray, np.ndarray]]:
    """All pairs, as (beta, eps_hats) for each automorphism beta that has an
    invertible compatible eps: the (s, r, r) stack of every such eps, hatted
    and canonical, in hom-space enumeration order; the betas come in
    `GroupTable.automorphisms` order.  Each stack exhausts hom(A, A^(beta)) =
    hom(A, A pulled back along beta); the space holds its invertible homs, so
    the betas that share it share their enumeration and filtering."""
    out = []
    for beta in A.group.automorphisms():
        hs = A.hom_to(A.pullback(A.group, beta))
        def invertible():
            hats = A.hat_matrix(hs.matrices())
            return hats[automorphism_mask(A, hats)]
        hats = hs.derived("automorphisms", invertible)
        if not satisfies_compatibility(A, beta, hats).all():
            raise PairError("hom space produced an incompatible pair")
        if len(hats):
            out.append((beta, hats))
    return out


# ---------------------------------------------------------------------------
# action on cochains and on H^2


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


def orbits_on_h2(H: CohomologyGroup, stacks) -> OrbitPartition:
    """Exact orbit partition of H under the pairs of the (beta, eps_hats)
    stacks.

    The matrices of each stack are induced at once and closed once into the
    acting group; the orbit of an element is its image under every matrix of
    that group, and a class is named by the least mixed-radix index in it, so
    classes come in the order of their least member and list their members
    in index order."""
    gens = list({M.tobytes(): M for beta, eps_hats in stacks
                 for M in induced_h2_matrix(H, beta, eps_hats)}.values())
    mods = H.structure.moduli()
    closed = groups.closure(gens, gens, lambda X, Y: _coord_product(H, X, Y),
                            key=lambda X: X.tobytes())
    acting_order = max(len(closed), 1)
    elements = groups.all_coord_rows(mods.tolist())
    least = np.arange(len(elements))
    for M in closed.values():
        image = _coord_product(H, elements, M)
        least = np.minimum(least, np.ravel_multi_index(tuple(image.T), mods.tolist()))
    names, of = np.unique(least, return_inverse=True)
    index = dict(zip(map(tuple, elements.tolist()), of.tolist()))
    classes: list[list[tuple]] = [[] for _ in names]
    for t, c in index.items():
        classes[c].append(t)
    sizes = [len(c) for c in classes]
    for s in sizes:
        if acting_order % s:
            raise PairError("orbit size %d does not divide the acting order %d" % (s, acting_order))
    return OrbitPartition(classes, sizes, [acting_order // s for s in sizes], acting_order, index)


# ---------------------------------------------------------------------------
# the lattice pair group, reduced modulo c


def lattice_pairs_mod(T: LatticeModule, c_exp: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Representatives of the image of the lattice pair group in the pairs of
    T / p^c T, as (beta, lattice eps stack) for each beta that has one.

    eps runs over the lattice endomorphisms with coefficients mod p^c,
    filtered by invertibility mod p; each reduction mod p^c is kept once, by
    its first full-precision lattice representative.
    """
    qc = T.p**c_exp
    out = []
    for beta in T.group.automorphisms():
        endos = modules.lattice_endomorphisms(T, qc, beta)
        endos = endos[linalg.invertible_mod_p(endos, T.p)]
        if len(endos):
            _, first = np.unique((endos % qc).reshape(len(endos), -1), axis=0, return_index=True)
            out.append((beta, endos[np.sort(first)]))
    return out


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
# the data that generates the pair group at deep levels


def rho_pi_data(T: LatticeModule, chain: CentralChain, n: int,
                period: int) -> tuple[ExponentBounds, Complement, list]:
    """(bounds, the complement E_n, the `lattice_pairs_mod` stacks mod p^c)
    at a qualifying level n: the rho images of the complement and the
    lattice pairs generate the pair group there."""
    bounds = exponent_bounds(T, chain, n, period)
    if not bounds.qualifies(n):
        raise PairError("level %d does not satisfy the deep-level assumption; need %d"
                        % (n, bounds.least_qualifying()))
    comp = complement_En(T, chain, n, period)
    return bounds, comp, lattice_pairs_mod(T, bounds.c_exp)


# ---------------------------------------------------------------------------
# the orbit correspondence between levels n and n + d


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
                    data) -> list[tuple[str, np.ndarray, np.ndarray, np.ndarray]]:
    """Matched generators of the pair groups at levels n and n + d, as
    (kind, beta, eps stack at n, partner stack at n + d): pair s of the stack
    at n is matched with pair s at n + d.

    Each lattice stack of `rho_pi_data` reduces at both levels directly; the
    complement generators (1, 1 + eps) make one stack, mapped by
    eps -> p * eps through the fixed integer lifts, and both of its stacks
    must be compatible pairs.
    """
    _, comp, lattice = data
    A_n, A_nd = Q_n.module, Q_nd.module
    out = [("lattice", beta, A_n.hat_matrix(modules.endo_to_quotient(Q_n, eps)),
            A_nd.hat_matrix(modules.endo_to_quotient(Q_nd, eps))) for beta, eps in lattice]
    if len(comp.E_flat):
        ident = np.arange(A_n.group.order, dtype=np.int64)
        C_n = A_n.unhat(comp.E_flat.reshape(-1, A_n.rank, A_n.rank))
        C_nd = modules.endo_to_quotient(Q_nd, linalg.mul_mod(T.p, comp.lattice_lifts, T.q))
        at_n = A_n.hat_matrix(np.eye(A_n.rank, dtype=np.int64) + C_n)
        at_nd = A_nd.hat_matrix(np.eye(A_nd.rank, dtype=np.int64) + C_nd)
        _require_pairs(A_n, ident, at_n, "1 + eps is not a compatible pair")
        _require_pairs(A_nd, ident, at_nd, "shifted complement generator is not a compatible pair")
        out.append(("complement", ident, at_n, at_nd))
    return out


def _require_pairs(A: FiniteModule, beta, eps_hats, message: str):
    if not (automorphism_mask(A, eps_hats) & satisfies_compatibility(A, beta, eps_hats)).all():
        raise PairError(message)


def orbit_correspondence(T: LatticeModule, chain: CentralChain, n: int,
                         period: int) -> OrbitCorrespondence:
    """Certified orbit bijection H^2(A_n)/pairs -> H^2(A_{n+d})/pairs.

    Checks the equivariance identity shift(tau.g) = shift(tau).partner(g) on
    every H^2 element and every matched generator, then matches the full
    orbit partitions through the shift.  The elements are one stack, shifted
    once; each generator stack moves that stack and the shifted one, and the
    witness is the first failure, generators outermost.
    """
    nd = n + period
    Q_n, Q_nd = chain.quotient(n), chain.quotient(nd)
    data = rho_pi_data(T, chain, n, period)
    lev_n, lev_nd = cohomology.level_split(chain, n), cohomology.level_split(chain, nd)
    H_n, H_nd = lev_n.H, lev_nd.H
    gens = generator_pairs(T, Q_n, Q_nd, data)
    elements = H_n.representative(groups.all_coord_rows(H_n.structure.moduli().tolist()))
    shifted = cohomology.id_oplus_mu(lev_n, lev_nd, elements)
    witness = None
    for kind, beta, eps_n, eps_nd in gens:
        moved = act_on_cochains(H_n, beta, eps_n, elements)
        moved = moved.reshape(len(eps_n) * len(elements), moved.shape[-1])
        lhs = H_nd.coords(cohomology.id_oplus_mu(lev_n, lev_nd, moved))
        rhs = act_on_cochains(H_nd, beta, eps_nd, shifted)
        rhs = H_nd.coords(rhs.reshape(len(eps_nd) * len(shifted), rhs.shape[-1]))
        bad = np.flatnonzero((lhs != rhs).any(axis=-1))
        if len(bad):
            i = bad[0]
            tau = elements[i % len(elements)]
            witness = {"kind": kind, "tau_coords": H_n.coords(tau).tolist(),
                       "lhs": lhs[i].tolist(), "rhs": rhs[i].tolist()}
            break
    equivariant = witness is None
    orb_n = orbits_on_h2(H_n, compatible_pairs(Q_n.module))
    orb_nd = orbits_on_h2(H_nd, compatible_pairs(Q_nd.module))
    bijection = []
    if equivariant and orb_n.count == orb_nd.count:
        reps = H_n.representative(np.array([cl[0] for cl in orb_n.classes], dtype=np.int64))
        images = H_nd.coords(cohomology.id_oplus_mu(lev_n, lev_nd, reps))
        hit = set()
        for i, img in enumerate(images):
            j = orb_nd.orbit_of(img)
            if j in hit or orb_n.sizes[i] != orb_nd.sizes[j]:
                bijection = []
                break
            hit.add(j)
            bijection.append((i, j))
    return OrbitCorrespondence(n, equivariant, witness, orb_n, orb_nd, bijection)
