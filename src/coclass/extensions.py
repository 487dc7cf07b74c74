"""Extensions of a finite group by a finite module, certified in coordinates.

A normalised 2-cocycle c on G with values in a finite G-module A defines the
extension E of order |G| |A| with elements (a, g) and the product
(a, g)(b, h) = (a.h + b + c(g, h), gh).  The cocycle identity with the
normalisation is exactly what makes this product associative, with identity
(0, 1), so `certify` checks the cocycle and then reads E without its
|E| x |E| table: its lower central series, held in coordinates, and from it
the nilpotency class, the coclass and the lower-central criterion; a branch
vertex also reads its element-order spectrum.  `lower_central_series` is
the package's one builder of the series: `certify` also reads the class of G
off it, and the lower-central-series check of the scenarios reads it for
each split quotient, the extension by the zero factor set.  A split
extension whose table is needed, a stage group of the scenarios, is built by
`split_table` through the one table builder, `groups.table_from_generators`.
tests/brute_force.py builds every table independently and checks each of
these against it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import CoclassError, cohomology, groups, linalg
from .modules import FiniteModule


class ExtensionError(CoclassError):
    pass


@dataclass(eq=False)
class ExtensionCertificate:
    """What E = (G, A, c) is known to be, for G = module.group."""

    module: FiniteModule
    tau: np.ndarray  # hatted factor set, tau[g, h] = c(g, h)
    lcs_orders: list[int]  # |gamma_i(E)| for i = 1, 2, ... down to the trivial group
    flag: bool  # gamma_l(E) = A

    @property
    def order(self) -> int:
        return self.lcs_orders[0]

    @property
    def nilpotency_class(self) -> int:
        return len(self.lcs_orders) - 1

    @property
    def coclass(self) -> int:
        return groups.order_coclass(self.order, self.nilpotency_class)

    def spectrum(self) -> tuple[tuple[int, int], ...]:
        """(order, count) of the element orders of E, by increasing order.

        For g of order o in G, (a, g)^o = (a N_g + t_g, 1) with
        N_g = 1 + g + ... + g^(o-1) and t_g the factor-set part, so the
        order of (a, g) is o times the order of a N_g + t_g in A, taken for
        every a at once."""
        A, tau, G, q = self.module, self.tau, self.module.group, self.module.q
        every = A.hat(groups.all_coord_rows(A.coord_moduli().tolist()))
        ident = np.eye(A.rank, dtype=np.int64)
        orders = []
        for g, o in enumerate(G.element_orders()):
            N, t, x = ident, np.zeros(A.rank, dtype=np.int64), g  # x = g^j
            for _ in range(int(o) - 1):
                t = (linalg.dot_mod(t, A.act[g], q, q) + tau[x, g]) % q
                N = (linalg.dot_mod(N, A.act[g], q, q) + ident) % q
                x = G.mul[x, g]
            y = (linalg.dot_mod(every, N, q, q) + t) % q
            orders.append(o * (q // np.gcd.reduce(np.c_[y, np.full(len(y), q)], axis=1)))
        values, counts = np.unique(np.concatenate(orders), return_counts=True)
        return tuple(zip(values.tolist(), counts.tolist()))


def certify(A: FiniteModule, tau_hat, l: int | None = None) -> ExtensionCertificate:
    """The certificate of the extension of A.group by A with cocycle tau_hat.

    l is a 1-based lower-central index (gamma_1(E) = E) and defaults to one
    past the nilpotency class of the base, which is the right index when the
    base is the depth-l mainline quotient.  The flag captures the
    lower-central criterion: the extension has the base's coclass exactly
    when gamma_l(E) equals the whole fiber.  The image of gamma_i(E) in G is
    gamma_i(G), so the class of G is the index of the first term of the
    series whose image is trivial.
    """
    G = A.group
    row = np.asarray(tau_hat, dtype=np.int64) % A.q
    if not cohomology.is_cocycle(A, 2, row):
        raise ExtensionError("cochain does not satisfy the cocycle identity")
    T = G.bar_index(2).tuples
    tau = np.zeros((G.order, G.order, A.rank), dtype=np.int64)
    tau[T[:, 0], T[:, 1]] = row.reshape(len(T), A.rank)
    series = lower_central_series(A, tau)
    base_class = next(i for i, (image, _, _) in enumerate(series) if len(image) == 1)
    if l is None:
        l = base_class + 1
    orders = [len(image) * A.p ** K.order_exp() for image, K, _ in series]
    if l <= len(series):  # gamma_l(E) = A iff it lies over 1 and has the order of A
        flag = len(series[l - 1][0]) == 1 and orders[l - 1] == A.order
    else:
        flag = A.order == 1
    cert = ExtensionCertificate(A, tau, orders, flag)
    base_cc = groups.order_coclass(G.order, base_class)
    if A.order > 1 and (cert.coclass == base_cc) != flag:
        raise ExtensionError("coclass criterion disagreement: cc %d vs base %d, flag %s"
                             % (cert.coclass, base_cc, flag))
    return cert


def split_table(A: FiniteModule) -> groups.GroupTable:
    """The table of the split extension of G = A.group by A, built by
    `groups.table_from_generators` from the right multiplications by the
    generators (0, s) and (e_j, 1), read off `_mul` with the zero factor set.

    Element g |A| + i is (a_i, g), a_i the i-th coordinate row in mixed-radix
    order, and the table's generators are its minimal generators.  An order
    above `groups.CLOSURE_CAP` is refused before anything is allocated.
    """
    G = A.group
    na = A.order
    order = G.order * na
    if order > groups.CLOSURE_CAP:
        raise groups.GroupError("extension of order %d exceeds the table cap %d"
                                % (order, groups.CLOSURE_CAP))
    moduli = A.coord_moduli().tolist()
    a = np.tile(A.hat(groups.all_coord_rows(moduli)), (G.order, 1))
    g = np.repeat(np.arange(G.order), na)
    tau = np.zeros((G.order, G.order, A.rank), dtype=np.int64)
    gens = ([(np.zeros(A.rank, dtype=np.int64), s) for s in G.generators]
            + [(row, G.identity) for row in A.member_rows()])
    right = np.empty((len(gens), order), dtype=np.int64)
    for k, (b, h) in enumerate(gens):
        pa, pg = _mul(A, tau, a, g, b, np.full(order, h))
        right[k] = pg.astype(np.int64) * na + groups.mixed_radix_index(A.unhat(pa), moduli)
    table = groups.table_from_generators(right)
    table.generators = table.minimal_generators()
    return table


def _act(A: FiniteModule, a, g) -> np.ndarray:
    """a.g, rowwise: row i of a acted on by element g[i]."""
    return linalg.dot_mod(a[:, None], A.act[g], A.q, A.q)[:, 0]


def _mul(A: FiniteModule, tau, a, g, b, h):
    """(a, g)(b, h) = (a.h + b + c(g, h), gh), rowwise; reduced after each
    sum of two entries, so that it stays in int64 for q <= 2^62."""
    return ((_act(A, a, h) + b) % A.q + tau[g, h]) % A.q, A.group.mul[g, h]


def _commutator(A: FiniteModule, tau, a, g, b, h):
    """[x, y] = (yx)^-1 (xy), rowwise, for x = (a, g) and y = (b, h); the
    inverse of (a, g) is (-(a.g^-1 + c(g, g^-1)), g^-1)."""
    ya, yg = _mul(A, tau, b, h, a, g)
    yi = A.group.inverses[yg]
    inv = -(_act(A, ya, yi) + tau[yg, yi]) % A.q
    return _mul(A, tau, inv, yi, *_mul(A, tau, a, g, b, h))


def lower_central_series(A: FiniteModule, tau) -> list[tuple]:
    """gamma_i(E) as (gamma_i(G), K_i = gamma_i(E) & A, section), from
    gamma_1(E) = E down to the trivial group, where gamma_i(E) is the set of
    (section[j] + k, image[j]) with k in the Howell span K_i.

    For x_u = (section[u], u), every element of gamma_i(E) is x_u k with k
    in K_i, and [x_u k, y] = [x_u, y] [[x_u, y], k] [k, y], whose last two
    factors lie in [K_i, E] = K_i I: K_i is a submodule, so that is the
    span of the k(s - 1), k a Howell row of K_i and s a generator of G.  So
    gamma_{i+1}(E) = [gamma_i(E), E] is generated by K_i I and the [x_u, y]
    over u in gamma_i(G) and y in the generators (0, s) and (e_j, 1) of E.
    Past the class of G, gamma_i(E) = K_i and only K_i I is left.
    """
    G, p, q = A.group, A.p, A.q
    S = G.generators
    ident = np.eye(A.rank, dtype=np.int64)
    gen_a = np.vstack([np.zeros((len(S), A.rank), dtype=np.int64), A.member_rows()])
    gen_g = np.array(S + [G.identity] * A.rank, dtype=np.int64)
    series = [(np.arange(G.order), linalg.howell(A.member_rows(), p, A.E),
               np.zeros((G.order, A.rank), dtype=np.int64))]
    while True:
        image, K, section = series[-1]
        if len(image) == 1 and not K.pivots:
            return series
        # the row count is explicit: at level 0 the rank is 0, and
        # reshape(-1, 0) cannot infer it
        KI = linalg.dot_mod(K.rows, (A.act[S] - ident) % q, q, q).swapaxes(0, 1).reshape(
            len(K.rows) * len(S), A.rank)
        if len(image) == 1:
            nxt = (image, linalg.howell(KI, p, A.E), section)
        else:
            comm = _commutator(A, tau, np.repeat(section, len(gen_g), axis=0),
                               np.repeat(image, len(gen_g)),
                               np.tile(gen_a, (len(image), 1)), np.tile(gen_g, len(image)))
            nxt = _generated(A, tau, *comm, KI)
        if len(nxt[0]) == len(image) and nxt[1].order_exp() == K.order_exp():
            raise groups.GroupError("group is not nilpotent")
        series.append(nxt)


def _generated(A: FiniteModule, tau, gen_a, gen_g, rows) -> tuple:
    """(image, K, section) of the subgroup of E generated by the elements
    (gen_a[i], gen_g[i]) and the span of `rows`, which must be a submodule
    of A that the subgroup holds.

    A breadth-first search over the image lifts each element u reached to
    l(u) = l(v) y, and by Schreier's lemma the subgroup meets A in the span
    of l(u) y l(uh)^-1 = ((l(u) y)_A - l(uh)_A).(uh)^-1 over every u and
    generator y = (b, h), with the rows."""
    G = A.group
    found = np.zeros(G.order, dtype=bool)
    found[G.identity] = True
    lifts = np.zeros((G.order, A.rank), dtype=np.int64)
    schreier = [rows]
    frontier = np.array([G.identity])
    while frontier.size:
        u = np.repeat(frontier, len(gen_g))
        pa, pg = _mul(A, tau, lifts[u], u, np.tile(gen_a, (len(frontier), 1)),
                      np.tile(gen_g, len(frontier)))
        _, first = np.unique(pg, return_index=True)
        fresh = first[~found[pg[first]]]
        lifts[pg[fresh]] = pa[fresh]
        found[pg[fresh]] = True
        schreier.append(_act(A, (pa - lifts[pg]) % A.q, G.inverses[pg]))
        frontier = pg[fresh]
    image = np.flatnonzero(found)
    return image, linalg.howell(np.vstack(schreier), A.p, A.E), lifts[image]
