"""Independent literal-enumeration oracles used to pin down small cases.

Everything here is deliberately naive: cochains are dicts, the coboundary is
evaluated straight from its defining formula, and groups are compared by
order statistics.  Keep it slow and obviously correct.
"""

import itertools
from dataclasses import dataclass

import numpy as np

from coclass import cohomology, extensions, groups, linalg, modules, pairs, scenarios


def module_elements(moduli):
    return [np.array(v, dtype=np.int64) for v in itertools.product(*[range(m) for m in moduli])]


def brute_cochains(nonid, module_elems, m):
    """All normalized m-cochains as dicts tuple -> element index."""
    tuples = list(itertools.product(nonid, repeat=m))
    for assignment in itertools.product(range(len(module_elems)), repeat=len(tuples)):
        yield {t: module_elems[i] for t, i in zip(tuples, assignment)}


def brute_coboundary(mul, identity, act, moduli, f, tau, m):
    """(d f)(tau) for a normalized m-cochain dict f (right-module formula)."""
    mods = np.array(moduli, dtype=np.int64)

    def val(t):
        if identity in t:
            return np.zeros(len(moduli), dtype=np.int64)
        return f[t]

    total = val(tau[1:]).copy()
    for i in range(1, m + 1):
        u = int(mul[tau[i - 1], tau[i]])
        merged = tau[: i - 1] + (u,) + tau[i + 1 :]
        sign = -1 if i % 2 else 1
        total = total + sign * val(merged)
    sign = -1 if (m + 1) % 2 else 1
    tail = (val(tau[:m]) @ np.asarray(act[tau[m]], dtype=np.int64)) % mods
    total = total + sign * tail
    return total % mods


def brute_cocycles_and_boundaries(mul, identity, moduli, act, m):
    """Explicit element lists of Z^m and B^m for a tiny module."""
    n = len(mul)
    nonid = [g for g in range(n) if g != identity]
    elems = module_elements(moduli)
    tuples_m1 = list(itertools.product(nonid, repeat=m + 1))
    cocycles = []
    for f in brute_cochains(nonid, elems, m):
        if all(not np.any(brute_coboundary(mul, identity, act, moduli, f, t, m))
               for t in tuples_m1):
            cocycles.append(f)
    boundaries = set()
    tuples_m = list(itertools.product(nonid, repeat=m))
    for g in brute_cochains(nonid, elems, m - 1) if m >= 1 else []:
        df = tuple(
            tuple(int(x) for x in brute_coboundary(mul, identity, act, moduli, g, t, m - 1))
            for t in tuples_m
        )
        boundaries.add(df)
    return cocycles, boundaries, tuples_m


def order_statistics(cocycles, boundaries, tuples_m, moduli):
    """Multiset {order of z + B^m} for every cocycle z; determines H^m."""
    mods = np.array(moduli, dtype=np.int64)

    def key(f):
        return tuple(tuple(int(x) for x in f[t]) for t in tuples_m)

    stats = {}
    for z in cocycles:
        k = 1
        acc = {t: z[t].copy() for t in tuples_m}
        while key(acc) not in boundaries:
            for t in tuples_m:
                acc[t] = (acc[t] + z[t]) % mods
            k += 1
        stats[k] = stats.get(k, 0) + 1
    return stats


def stats_from_invariants(invariants):
    """Order statistics of the abelian group with the given invariant factors."""
    stats = {}
    for combo in itertools.product(*[range(q) for q in invariants]):
        k = 1
        for q, c in zip(invariants, combo):
            if c:
                o = q // np.gcd(q, c)
                k = k * o // np.gcd(k, o)
        stats[k] = stats.get(k, 0) + 1
    if not invariants:
        stats = {1: 1}
    return stats


def is_associative(mul):
    """(ab)c == a(bc) for every triple, one triple at a time."""
    n = len(mul)
    return all(mul[mul[a][b]][c] == mul[a][mul[b][c]]
               for a in range(n) for b in range(n) for c in range(n))


def closure_table_fill(gen_elems, multiply, identity_elem):
    """The closure of gen_elems under multiply, breadth first from the
    identity, and its table filled one product of two elements at a time.
    Returns (mul, generator indices, elements in index order)."""
    elems = [identity_elem]
    index = {identity_elem: 0}
    for x in elems:  # the list grows as new elements are found
        for g in gen_elems:
            y = multiply(x, g)
            if y not in index:
                index[y] = len(elems)
                elems.append(y)
    n = len(elems)
    mul = np.zeros((n, n), dtype=np.int64)
    for i, x in enumerate(elems):
        for j, y in enumerate(elems):
            mul[i, j] = index[multiply(x, y)]
    gens = [index[g] for g in gen_elems if g in index]
    return mul, gens, elems


def permutation_table(perms):
    """The group generated by permutations of range(degree), all of one
    degree, as a validated table over `closure_table_fill`, with its
    elements in index order."""
    identity = tuple(range(len(perms[0]) if perms else 1))
    mul, gens, elems = closure_table_fill([tuple(p) for p in perms], compose_permutations,
                                          identity)
    return groups.make_table(mul, generators=gens), elems


def commutator_subgroup(G, a_elems, b_elems):
    """The subgroup generated by the commutators [a, b], from all |a||b| of them.

    A finite set containing the identity generates a subgroup once it is closed
    under products, so the mask of the commutators is squared, S -> S.S,
    until it stops growing.
    """
    a = np.asarray(list(a_elems), dtype=np.int64)
    b = np.asarray(list(b_elems), dtype=np.int64)
    xy = G.mul[a[:, None], b[None, :]]
    comms = G.mul[G.mul[G.inverses[a][:, None], G.inverses[b][None, :]], xy]
    mask = np.zeros(G.order, dtype=bool)
    mask[comms] = True
    mask[G.identity] = True
    while True:
        idx = np.flatnonzero(mask)
        mask = np.zeros(G.order, dtype=bool)
        mask[G.mul[np.ix_(idx, idx)]] = True
        if np.count_nonzero(mask) == idx.size:
            return idx.tolist()


def lower_central_series_terms(G):
    """gamma_{i+1} = [G, gamma_i] from every commutator of an element of G with
    one of gamma_i, until the series stabilizes or reaches the identity."""
    terms = [list(range(G.order))]
    while True:
        nxt = commutator_subgroup(G, range(G.order), terms[-1])
        if nxt == terms[-1]:
            break
        terms.append(nxt)
        if len(nxt) == 1:
            break
    return terms


def table_lcs(G):
    """`lower_central_series_terms`, held by the table."""
    return G.derived("lower_central_series_terms", lambda: lower_central_series_terms(G))


def table_class(G):
    """The nilpotency class, read off `table_lcs`."""
    terms = table_lcs(G)
    if len(terms[-1]) != 1:
        raise groups.GroupError("group is not nilpotent")
    return len(terms) - 1


def table_coclass(G):
    return groups.order_coclass(G.order, table_class(G))


def series_images(G):
    """The images in G of `extensions.lower_central_series` of G x Z/2, the
    extension by the trivial rank-1 module with the zero cocycle, up to the
    first trivial one: gamma_i(G), to be compared with
    `lower_central_series_terms`."""
    A = modules.finite_module_from_plain(G, 2, [1], np.ones((G.order, 1, 1), dtype=np.int64))
    series = extensions.lower_central_series(A, np.zeros((G.order, G.order, 1), dtype=np.int64))
    images = [image.tolist() for image, _, _ in series]
    return images[:next(i for i, image in enumerate(images) if len(image) == 1) + 1]


def element_orders_by_steps(mul, identity):
    """The order of each element, by stepping all powers g^k at once."""
    elems = np.arange(len(mul))
    out = np.zeros(len(mul), dtype=np.int64)
    x, k = elems, 1
    while not out.all():
        out[(x == identity) & (out == 0)] = k
        x = mul[x, elems]
        k += 1
    return out


def center_of_table(mul):
    """The elements that commute with every element."""
    return np.flatnonzero((mul == mul.T).all(axis=1)).tolist()


def compose_permutations(a, b):
    """a then b, as tuples."""
    return tuple(b[a[i]] for i in range(len(a)))


def brute_is_subgroup(mul, identity, elems):
    s = set(elems)
    return identity in s and all(mul[a][b] in s for a in s for b in s)


def brute_is_normal(mul, inverses, elems):
    s = set(elems)
    return all(mul[mul[inverses[g]][x]][g] in s for x in s for g in range(len(mul)))


def brute_isomorphisms(mul_a, mul_b):
    """Every bijection that preserves all products, sorted, by trying each
    permutation of the elements."""
    n = len(mul_a)
    if len(mul_b) != n:
        return []
    return sorted(list(f) for f in itertools.permutations(range(n))
                  if all(f[mul_a[x][y]] == mul_b[f[x]][f[y]]
                         for x in range(n) for y in range(n)))


# ---------------------------------------------------------------------------
# A second, still-naive oracle that scales to groups of order 8.  Literal
# cochain enumeration dies at |A|^49 for m = 2, so instead we build the
# coboundary matrices column by column from the defining formula above and
# reduce them with a textbook two-sided elimination mod p^K.  No Howell forms,
# no transform bookkeeping tricks: minimal-valuation pivoting only.
# ---------------------------------------------------------------------------


def coboundary_matrix_naive(mul, identity, act, moduli, m):
    """Matrix of d_m on normalized m-cochains, one row per (tuple, slot).

    Every entry comes from evaluating brute_coboundary on a basis cochain,
    so this shares no code with the library's matrix builder.
    """
    n = len(mul)
    nonid = [g for g in range(n) if g != identity]
    r = len(moduli)
    tuples_m = list(itertools.product(nonid, repeat=m))
    tuples_m1 = list(itertools.product(nonid, repeat=m + 1))
    rows = []
    for t in tuples_m:
        for i in range(r):
            f = {s: np.zeros(r, dtype=np.int64) for s in tuples_m}
            f[t][i] = 1
            parts = [brute_coboundary(mul, identity, act, moduli, f, tau, m)
                     for tau in tuples_m1]
            rows.append(np.concatenate(parts) if parts
                        else np.zeros(0, dtype=np.int64))
    if not rows:
        return np.zeros((0, len(tuples_m1) * r), dtype=np.int64)
    return np.array(rows, dtype=np.int64)


def _valuation(x, p, K):
    x = int(x) % (p**K)
    if x == 0:
        return K
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


def diagonalize_mod(M, p, K, want_u=False, want_v=False):
    """U M V = diag(p^exps) over Z/p^K by plain minimal-valuation pivoting.

    Returns (exps, U, V); U or V is None when not requested.
    """
    q = p**K
    A = np.array(M, dtype=np.int64) % q
    n, m = A.shape
    U = np.eye(n, dtype=np.int64) if want_u else None
    V = np.eye(m, dtype=np.int64) if want_v else None
    exps = []
    r = 0
    while r < min(n, m):
        sub = A[r:, r:] % q
        if not np.any(sub):
            break
        # pick any entry of minimal p-valuation in the remaining block
        best, bi, bj = K + 1, -1, -1
        for i in range(sub.shape[0]):
            for j in range(sub.shape[1]):
                if sub[i, j]:
                    v = _valuation(sub[i, j], p, K)
                    if v < best:
                        best, bi, bj = v, r + i, r + j
            if best == 0:
                break
        A[[r, bi]] = A[[bi, r]]
        A[:, [r, bj]] = A[:, [bj, r]]
        if U is not None:
            U[[r, bi]] = U[[bi, r]]
        if V is not None:
            V[:, [r, bj]] = V[:, [bj, r]]
        a = best
        unit = (int(A[r, r]) % q) // p**a
        inv = pow(unit, -1, q)
        A[r] = (A[r] * inv) % q
        if U is not None:
            U[r] = (U[r] * inv) % q
        # clear the column with row operations, then the row with column ops
        for i in range(n):
            if i != r and A[i, r] % q:
                f = (int(A[i, r]) % q) // p**a
                A[i] = (A[i] - f * A[r]) % q
                if U is not None:
                    U[i] = (U[i] - f * U[r]) % q
        for j in range(r + 1, m):
            if A[r, j] % q:
                f = (int(A[r, j]) % q) // p**a
                A[:, j] = (A[:, j] - f * A[:, r]) % q
                if V is not None:
                    V[:, j] = (V[:, j] - f * V[:, r]) % q
        exps.append(a)
        r += 1
    return exps, U, V


def invert(A, p, K):
    """Inverse of a square matrix over Z/p^K from `diagonalize_mod`: U A V = 1
    gives A^-1 = V U.  Raises ValueError when A is not invertible."""
    A = np.asarray(A)
    exps, U, V = diagonalize_mod(A, p, K, want_u=True, want_v=True)
    if A.shape[0] != A.shape[1] or len(exps) != A.shape[0] or any(exps):
        raise ValueError("matrix not invertible mod %d^%d" % (p, K))
    return (V @ U) % p**K


def kernel_gens_mod(M, p, K):
    """Generators of {x : x M = 0 mod p^K} as rows mod p^K."""
    q = p**K
    M = np.asarray(M, dtype=np.int64)
    if M.shape[0] == 0:
        return np.zeros((0, 0), dtype=np.int64)
    exps, U, _ = diagonalize_mod(M, p, K, want_u=True)
    gens = []
    for i, a in enumerate(exps):
        if a:
            gens.append((p ** (K - a) * U[i]) % q)
    for i in range(len(exps), M.shape[0]):
        gens.append(U[i] % q)
    if not gens:
        return np.zeros((0, M.shape[0]), dtype=np.int64)
    return np.array(gens, dtype=np.int64)


class SubgroupLabeller:
    """Canonical labels for cosets of the row span of B inside prod Z/moduli.

    Labels come from the column transform of a diagonalization: y is in the
    span iff every slot of y V is divisible by the matching diagonal entry.
    """

    def __init__(self, Bgens, moduli, p, K):
        self.p, self.K = p, K
        self.q = p**K
        mods = np.asarray(moduli, dtype=np.int64)
        self.scale = self.q // mods
        ncols = len(mods)
        B = np.asarray(Bgens, dtype=np.int64).reshape(-1, ncols)
        Bu = (B * self.scale) % self.q
        if Bu.shape[0] == 0:
            Bu = np.zeros((1, ncols), dtype=np.int64)
        self.exps, _, self.V = diagonalize_mod(Bu, p, K, want_v=True)

    def label(self, y):
        t = (np.asarray(y, dtype=np.int64) * self.scale % self.q) @ self.V % self.q
        out = []
        for j in range(len(t)):
            d = self.p ** self.exps[j] if j < len(self.exps) else self.q
            out.append(int(t[j]) % d)
        return tuple(out)


def semi_brute_h_stats(mul, identity, moduli, act, m, p):
    """Multiset {order of z + B^m} over one representative per H^m coset."""
    mods = np.asarray(moduli, dtype=np.int64)
    K = max(_valuation(int(mo), p, 64) for mo in mods)
    q = p**K
    n = len(mul)
    nonid = [g for g in range(n) if g != identity]
    r = len(moduli)
    ncols_m = max(len(list(itertools.product(nonid, repeat=m))) * r, 0)
    src_mods = np.tile(mods, ncols_m // r) if ncols_m else mods[:0]
    Dm = coboundary_matrix_naive(mul, identity, act, moduli, m)
    tgt_mods = np.tile(mods, Dm.shape[1] // r) if Dm.shape[1] else mods[:0]
    if ncols_m == 0:
        return {1: 1}
    # cocycles: x.D = 0 mod tgt_mods is well defined on coordinates mod q
    # because tgt_b divides m_a D_ab (generators map to elements of their
    # own order), so the kernel mod q surjects onto the plain solution set
    M = (Dm * (q // tgt_mods)[None, :]) % q
    kgens = kernel_gens_mod(M, p, K)
    zgens = kgens % src_mods[None, :]
    # coboundaries: images of the generators of C^{m-1}
    if m >= 1:
        Dprev = coboundary_matrix_naive(mul, identity, act, moduli, m - 1)
        bgens = Dprev % src_mods[None, :] \
            if Dprev.shape[0] else np.zeros((0, ncols_m), dtype=np.int64)
    else:
        bgens = np.zeros((0, ncols_m), dtype=np.int64)
    lab = SubgroupLabeller(bgens, src_mods, p, K)
    reps = {lab.label(np.zeros(ncols_m, dtype=np.int64)): np.zeros(ncols_m, dtype=np.int64)}
    frontier = list(reps.values())
    while frontier:
        nxt = []
        for rep in frontier:
            for g in zgens:
                cand = (rep + g) % src_mods
                key = lab.label(cand)
                if key not in reps:
                    reps[key] = cand
                    nxt.append(cand)
        frontier = nxt
    zero = lab.label(np.zeros(ncols_m, dtype=np.int64))
    stats = {}
    for rep in reps.values():
        k, acc = 1, rep.copy()
        while lab.label(acc) != zero:
            acc = (acc + rep) % src_mods
            k += 1
        stats[k] = stats.get(k, 0) + 1
    return stats


def flat_pairs(stacks) -> list[tuple]:
    """The pairs (beta, eps_hat) of (beta, eps stack) entries, one by one in
    stack order."""
    return [(beta, eps) for beta, stack in stacks for eps in stack]


def act_on_row(H, pair, row):
    """One pair acting on one cochain row, through the package's stacked action."""
    beta, eps = pair
    return pairs.act_on_cochains(H, beta, eps[None], np.asarray(row)[None])[0, 0]


def brute_act_on_cochain(H, pair, row):
    """(tau.(beta, eps))(g_1..g_m) = tau(g_1^{beta^-1}, ..).eps, one tuple at a time."""
    A = H.module
    m = H.m
    nonid = [g for g in range(A.group.order) if g != A.group.identity]
    tuples = list(itertools.product(nonid, repeat=m))
    index = {t: i for i, t in enumerate(tuples)}
    beta, eps = pair
    binv = np.argsort(beta)
    r = A.rank
    row = np.asarray(row, dtype=np.int64) % A.q
    out = np.zeros_like(row)
    for i, t in enumerate(tuples):
        src = index[tuple(int(binv[g]) for g in t)]
        out[i * r : (i + 1) * r] = (row[src * r : (src + 1) * r] @ eps) % A.q
    return out


def extension_table_by_formula(gmul, moduli, act_coords, tau_coords):
    """The table of A x G with (a, g)(b, h) = (a.h + b + tau(g, h), gh), read
    from the flat pair index x * n + y of every entry, all in int64.  Element
    g * |A| + i is (a, g) for the i-th coordinate row a in mixed radix."""
    gmul = np.asarray(gmul, dtype=np.int64)
    moduli = np.asarray(moduli, dtype=np.int64)
    place = np.array([int(np.prod(moduli[j + 1:])) for j in range(len(moduli))], dtype=np.int64)
    na = int(np.prod(moduli))
    n = gmul.shape[0] * na
    x, y = np.divmod(np.arange(n * n, dtype=np.int64), n)
    g, a = np.divmod(x, na)
    h, b = np.divmod(y, na)
    a_coords = a[:, None] // place % moduli
    b_coords = b[:, None] // place % moduli
    act = np.asarray(act_coords, dtype=np.int64)
    tau = np.asarray(tau_coords, dtype=np.int64)
    s = (np.einsum("ki,kij->kj", a_coords, act[h]) + b_coords + tau[g, h]) % moduli
    return (gmul[g, h] * na + s @ place).reshape(n, n)


# ---------------------------------------------------------------------------
# The slower paths the package replaced, kept to pin the faster ones down.
# ---------------------------------------------------------------------------


def extension_mul_by_blocks(gmul, moduli, act_coords, tau_coords=None):
    """The raw table of A x G with (a, g)(b, h) = (a.h + b + tau(g, h), gh),
    each (g, h) block as the coordinates of a.h + b + tau(g, h) in int64,
    indexed by `mixed_radix_index` and cast as it is stored."""
    gmul = np.asarray(gmul)
    ng = gmul.shape[0]
    V = groups.all_coord_rows(moduli)
    na = V.shape[0]
    mul = np.empty((ng * na, ng * na), dtype=groups.index_dtype(ng * na))
    for h in range(ng):
        AV = V @ np.asarray(act_coords[h], dtype=np.int64)  # a.h for every a
        for g in range(ng):
            # coordinates of a.h + b + tau(g, h) for every a and b, one block
            # at a time to keep the temporaries small; mixed_radix_index
            # reduces them
            s = AV[:, None, :] + V
            if tau_coords is not None:
                s += np.asarray(tau_coords[g][h], dtype=np.int64)
            mul[g * na:(g + 1) * na, h * na:(h + 1) * na] = (
                int(gmul[g, h]) * na + groups.mixed_radix_index(s, moduli))
    return mul


def extension_table_by_blocks(G, A, tau_coords=None):
    """The validated table of the extension of G by the finite module A with
    factor set tau_coords (omit for the split one), from
    `extension_mul_by_blocks` on A's plain action; an order above
    `groups.CLOSURE_CAP` is refused before anything is allocated."""
    order = G.order * A.order
    if order > groups.CLOSURE_CAP:
        raise groups.GroupError("extension of order %d exceeds the table cap %d"
                                % (order, groups.CLOSURE_CAP))
    moduli = [int(m) for m in A.coord_moduli()]
    return groups.make_table(extension_mul_by_blocks(G.mul, moduli, plain_action_entries(A),
                                                     tau_coords))


def span_automorphism(A, eps_hat):
    """A hatted matrix is an automorphism of A iff the images of the module's
    generator rows span the module again (both spans in Howell form)."""
    img = (A.member_rows() @ (np.asarray(eps_hat) % A.q)) % A.q
    return linalg.span_equal(img, A.member_rows(), A.p, A.E)


def all_pairs_by_search(A):
    """Every compatible pair (beta, eps_hat) of A, found by trying every
    plain coordinate matrix C against every automorphism beta: a pair when C
    is a well-defined map (p^{e_i} C[i, j] = 0 mod p^{e_j}), its images of
    the module's generators span A again, and P_g C = C P_beta(g) for the
    plain action P_g of every group element.  The pairs come in
    `GroupTable.automorphisms` order and, for each beta, in the enumeration
    order of hom(A, A^(beta)); a pair that space misses comes after them."""
    mods = A.coord_moduli()
    plain = [A.unhat(A.member_rows() @ A.act[g] % A.q) for g in range(A.group.order)]
    units = []
    for entries in groups.all_coord_rows([int(m) for m in mods] * A.rank):
        C = entries.reshape(A.rank, A.rank)
        if not np.any(C * mods[:, None] % mods) and span_automorphism(A, A.hat_matrix(C)):
            units.append((C, A.hat_matrix(C)))
    out = []
    for beta in A.group.automorphisms():
        found = {X.tobytes(): X for C, X in units
                 if all(np.array_equal(plain[g] @ C % mods, C @ plain[int(beta[g])] % mods)
                        for g in range(A.group.order))}
        homs = A.hat_matrix(A.hom_to(A.pullback(A.group, beta)).matrices())
        order = [X.tobytes() for X in homs if X.tobytes() in found]
        order += [key for key in found if key not in order]
        out.extend((beta, found[key]) for key in order)
    return out


def span_intersection(gens_a, gens_b, p, M):
    """Generators of span(a) ∩ span(b) over Z/p^M, from the kernel of the
    stacked generators: the rows (x, y) with x @ A = y @ B."""
    q = p**M
    A = np.asarray(gens_a, dtype=np.int64) % q
    B = np.asarray(gens_b, dtype=np.int64) % q
    if A.shape[0] == 0 or B.shape[0] == 0:
        return np.zeros((0, A.shape[1]), dtype=np.int64)
    K = linalg.row_kernel(np.vstack([A, (-B) % q]), p, M)
    return (K[:, : A.shape[0]] @ A) % q


def span_elements(gens, q):
    """Every element of the row span of gens mod q, as a set of tuples.  The
    span grows by one generator g at a time: S + <g> is the union of the
    cosets S + t g for t up to the first t with t g in S."""
    zero = (0,) * np.shape(gens)[1]
    span = {zero}
    for g in np.asarray(gens, dtype=object).tolist():
        g = tuple(x % q for x in g)
        shifts, t = [zero], g
        while t not in span:
            shifts.append(t)
            t = tuple((a + b) % q for a, b in zip(t, g))
        span = {tuple((a + b) % q for a, b in zip(s, t)) for s in span for t in shifts}
    return span


def generator_columns(A, m):
    """Columns of the full d^m whose (m+1)-tuple ends in a group generator,
    picked out of the `bar_index(m + 1)` tuples."""
    G = A.group
    is_gen = np.zeros(G.order, dtype=bool)
    is_gen[G.generators] = True
    tuples = np.flatnonzero(is_gen[G.bar_index(m + 1).tuples[:, m]])
    return (tuples[:, None] * A.rank + np.arange(A.rank)).reshape(-1)


def full_lattice_cocycles(A, m):
    """The lattice Z^m and its precision, from the Smith form of all of d^m."""
    D = cohomology.coboundary_matrix(A, m)
    return linalg.lattice_kernel(linalg.smith(D, A.p, A.E))


def cocycles_by_intersection(A, m):
    """Z^m(A) as the full kernel of d^m intersected with the A-valued cochains."""
    K = linalg.row_kernel(cohomology.coboundary_matrix(A, m), A.p, A.E)
    legal = np.diag(np.tile(A.scales(), (A.group.order - 1) ** m)).astype(np.int64)
    return linalg.howell(span_intersection(K, legal, A.p, A.E), A.p, A.E).rows


def smith_dense_update(F, p, M, want_right=False):
    """linalg.smith with every pivot's column clearing applied to the whole
    block below the pivot row; returns (exps, U, V)."""
    q = p**M
    A = np.array(F, dtype=np.int64) % q
    r, c = A.shape
    U = np.eye(r, dtype=np.int64)
    V = np.eye(c, dtype=np.int64) if want_right else None
    exps = []
    vcur = 0
    for k in range(min(r, c)):
        colmask = A[k:, k] % p ** (vcur + 1) != 0
        if colmask.any():
            i, j = k + int(np.argmax(colmask)), k
        else:
            sub, mask = A[k:, k:], None
            while vcur < M:
                mask = sub % p ** (vcur + 1) != 0
                if mask.any():
                    break
                mask = None
                vcur += 1
            if mask is None:
                break
            ii, jj = np.unravel_index(int(np.argmax(mask)), mask.shape)
            i, j = k + int(ii), k + int(jj)
        pa = p**vcur
        A[[k, i]], U[[k, i]] = A[[i, k]], U[[i, k]]
        A[:, [k, j]] = A[:, [j, k]]
        if V is not None:
            V[:, [k, j]] = V[:, [j, k]]
        winv = pow(int(A[k, k]) // pa, -1, q)
        A[k], U[k] = (A[k] * winv) % q, (U[k] * winv) % q
        m = A[k + 1:, k] // pa
        A[k + 1:, k:] = (A[k + 1:, k:] - m[:, None] * A[k, k:][None, :]) % q
        U[k + 1:] = (U[k + 1:] - m[:, None] * U[k][None, :]) % q
        m = A[k, k + 1:] // pa
        if V is not None:
            V[:, k + 1:] = (V[:, k + 1:] - V[:, k][:, None] * m[None, :]) % q
        A[k, k + 1:] = 0
        exps.append(vcur)
    exps.extend([M] * (min(r, c) - len(exps)))
    return exps, U, V


def smith_rescan(F, p, M, *, want_left=True, want_right=False):
    """linalg.smith with its pivot found by rescanning the trailing block
    once per candidate valuation vcur, a divisibility mask by p^(vcur + 1)
    each time, instead of keeping the gcd of each row; it works in Python
    ints whatever the modulus, and returns int64 like smith."""
    q = p**M
    F = linalg.as_matrix(F).astype(object) % q
    r, c = F.shape
    W = np.concatenate([F, np.eye(r, dtype=object)], axis=1) if want_left else F
    A = W[:, :c]
    V = np.eye(c, dtype=object) if want_right else None
    Vinv = np.eye(c, dtype=object) if want_right else None
    exps = []
    n = min(r, c)
    vcur = 0
    for k in range(n):
        colmask = A[k:, k] % p ** (vcur + 1) != 0
        if colmask.any():
            ii, jj = int(np.argmax(colmask)), 0
        else:
            sub, mask = A[k:, k:], None
            while vcur < M:
                mask = sub % p ** (vcur + 1) != 0
                if mask.any():
                    break
                mask = None
                vcur += 1
            if mask is None:
                break
            ii, jj = np.unravel_index(int(np.argmax(mask)), mask.shape)
        i, j = k + int(ii), k + int(jj)
        pa = p**vcur
        if i != k:
            W[[k, i]] = W[[i, k]]
        if j != k:
            A[:, [k, j]] = A[:, [j, k]]
            if V is not None:
                V[:, [k, j]] = V[:, [j, k]]
                Vinv[[k, j]] = Vinv[[j, k]]
        pivot = W[k, k:]
        pivot *= pow(int(A[k, k]) // pa, -1, q)
        pivot %= q
        rows = k + 1 + np.flatnonzero(A[k + 1:, k])
        if rows.size:
            block = W[rows, k:]
            block -= (block[:, 0] // pa)[:, None] * pivot[None, :]
            W[rows, k:] = block % q
        if V is not None:
            m = A[k, k + 1:] // pa
            if m.any():
                V[:, k + 1:] = (V[:, k + 1:] - V[:, k][:, None] * m[None, :]) % q
                Vinv[k] = (Vinv[k] + m @ Vinv[k + 1:]) % q
        exps.append(vcur)
    exps.extend([M] * (n - len(exps)))
    U = np.ascontiguousarray(W[:, c:], dtype=np.int64) if want_left else None
    if V is not None:
        V, Vinv = V.astype(np.int64), Vinv.astype(np.int64)
    return linalg.Smith(p, M, (r, c), exps, U, V, Vinv)


def reduce_one_row(H, v):
    """Howell.reduce on a single row, one pivot and one Python integer at a time."""
    q = H.q
    v = np.array(v, dtype=np.int64) % q
    for i, (j, a) in enumerate(H.pivots):
        m = int(v[j]) // H.p**a
        if m:
            v = (v - m * H.rows[i]) % q
    return v


def split_frame_per_level(chain, n, m=2):
    """The split frame of level n alone, built without the chain's memo: the
    level's own conjugation into its primitive basis B' = B_n / p^c, its own
    Smith form with U of the full d^m, and lifts p^{f - a} U_i B' for the
    divisors p^a up to f = exp H^{m+1}(R, T_n).  It raises the errors the
    class frame raises at level n."""
    T = chain.lattice
    p, q, d = T.p, T.q, T.rank
    basis, c = cohomology.primitive_basis(chain, n)
    A = cohomology.lattice_coefficients(T, basis)
    next_exps = cohomology.lattice_invariants(A, m + 1)
    vf = max(next_exps, default=0)
    if c < vf:
        raise cohomology.CohomologyError(
            "T_%d is not contained in %d.T; the level is too small for the split" % (n, p**vf))
    theta, theta_prec = full_lattice_cocycles(lattice_coefficients(T), m)
    D = cohomology.coboundary_matrix(A, m)
    s = linalg.smith(D, p, A.E, want_left=True)
    lifts, divisors = [], []
    for i, a in enumerate(s.exps):
        if 0 < a < A.E:
            delta = (p ** (vf - a) * s.U[i]) % q
            lifts.append(((delta.reshape(-1, d) @ basis) % q).reshape(-1))
            divisors.append(a)
    assert sorted(divisors) == sorted(next_exps), (divisors, next_exps)
    lifts = np.vstack(lifts) if lifts else np.zeros((0, D.shape[0]), dtype=np.int64)
    return cohomology.SplitFrame(m, basis, vf, theta, theta_prec, lifts, divisors)


def summand_scan_per_level_frames(scn):
    """scenarios.summand_instability_witness with the split frame of
    `split_frame_per_level` built at every level rather than one per residue
    class; returns its report."""
    scanned, skipped = [], []
    witness = None
    lifted_ok = True
    for k in scenarios.SCAN_STAGES:
        stage = scn.stage(k)
        if stage.group.order > scenarios.SCAN_GROUP_CAP:
            skipped.append({"k": k, "group_order": stage.group.order,
                            "reason": "group order exceeds the scan cap %d"
                            % scenarios.SCAN_GROUP_CAP})
            continue
        chain_k = stage.chain
        for n in scenarios.SCAN_LEVELS:
            if n > chain_k.depth - 1:
                break
            try:
                frame = split_frame_per_level(chain_k, n)
            except cohomology.CohomologyError as exc:
                skipped.append({"k": k, "n": n, "reason": str(exc)})
                continue
            level = cohomology.split_at_level(frame, chain_k, n)
            H, Q = level.H, level.Q
            member = scenarios._summand_membership_solver(level, H)
            classes = scenarios._summand_classes(level)
            lifted_ok = lifted_ok and scenarios._lifted_endos_stable(
                stage.lattice, Q, H, member, classes)
            scanned.append({"k": k, "n": n, "summand_classes": len(classes),
                            "h2_order": H.order})
            if witness is None:
                witness = scenarios._scan_level(k, n, level, H, Q.module, member, classes)
            if witness is not None:
                break
        if witness is not None:
            break
    return {"scenario": scn.name, "found": witness is not None, "witness": witness,
            "lifted_endomorphisms_stable": lifted_ok, "scanned": scanned, "skipped": skipped}


def stage_chain_by_rebuild(scn, k):
    """Stage k's chain built from scratch: the lattice with the action lifted
    to the stage group R, and R's own central series over it."""
    T = scn.lattice()
    if k == 0:
        R, act = scn.group(), T.act
    else:
        R = extension_table_by_blocks(scn.group(), scn.quotient(k * scn.period()).module)
        act = T.act[np.arange(R.order) // (R.order // scn.group().order)]
    return modules.g_central_series(modules.LatticeModule(R, T.p, T.N, T.rank, act), scn.depth)


def stabilizer_chain_by_restriction(T, chain):
    """The chain of T as a lattice for the stabilizer P of the distinguished
    generator: the action restricted to P's own table, the bases kept, and
    each level quotient built again by `modules.quotient`."""
    t0 = modules.distinguished_generator(T, chain)
    P, elements = groups.restricted_table(T.group, modules.stabilizer(T.act, t0 % T.q, T.q))
    TP = modules.LatticeModule(P, T.p, T.N, T.rank, T.act[np.array(elements)].copy())
    return modules.CentralChain(TP, chain.bases, chain.index_exponents, chain.stopped)


def finite_module_from_plain_entries(group, p, exps, plain_act):
    """modules.finite_module_from_plain with each hatted entry
    A_ij p^{E-e_j} / p^{E-e_i}, for A_ij reduced mod p^{e_j}, worked out in
    Python integers, one entry at a time."""
    exps = [int(e) for e in exps]
    E = max(exps) if exps else 1
    q = p**E
    r = len(exps)
    act = np.zeros((group.order, r, r), dtype=np.int64)
    mods = np.array([p**e for e in exps], dtype=np.int64).reshape(1, r)
    for g in range(group.order):
        A = np.asarray(plain_act[g], dtype=np.int64) % mods
        M = np.zeros((r, r), dtype=np.int64)
        for i in range(r):
            for j in range(r):
                num = int(A[i, j]) * p ** (E - exps[j])
                den = p ** (E - exps[i])
                if num % den:
                    raise modules.ModuleError("action matrix is not a well defined module map")
                M[i, j] = (num // den) % q
        act[g] = M
    fm = modules.FiniteModule(group, p, exps, E, act)
    modules._validate_finite_action(fm)
    return fm


def plain_action_entries(A):
    """The plain coordinate matrices of A's action, entry ij mod p^{e_j},
    read from the hatted matrices one entry at a time in Python integers:
    the hatted entry H_ij stands for H_ij p^{E-e_i} / p^{E-e_j}."""
    p, E, exps = A.p, A.E, A.exps
    r = len(exps)
    out = np.zeros((A.group.order, r, r), dtype=np.int64)
    for g, i, j in itertools.product(range(A.group.order), range(r), range(r)):
        num = int(A.act[g, i, j]) * p ** (E - exps[i]) % p**E
        den = p ** (E - exps[j])
        assert num % den == 0, "the action leaves the hatted module"
        out[g, i, j] = num // den % p ** exps[j]
    return out


def _commuting_columns_by_kron(A, B):
    """Condition columns of A C - C B = 0 in the row-major entries of C."""
    A = np.asarray(A, dtype=np.int64)
    B = np.asarray(B, dtype=np.int64)
    return (np.kron(A, np.eye(B.shape[0], dtype=np.int64))
            - np.kron(np.eye(A.shape[0], dtype=np.int64), B.T)).T


def _solve_homogeneous(F, unknown_exps, target_exps, p):
    """Howell rows, hatted at p^max(unknown_exps), of the c in
    sum Z/p^{m_u} with (c @ F) column t = 0 mod p^{f_t}."""
    u = len(unknown_exps)
    Eu = max(unknown_exps) if unknown_exps else 1
    qu = p**Eu
    if u == 0:
        return np.zeros((0, 0), dtype=np.int64)
    if len(target_exps) == 0:
        K = np.eye(u, dtype=np.int64)
    else:
        Es = max(target_exps)
        qs = p**Es
        F = np.asarray(F, dtype=np.int64)
        scale = np.array([p ** (Es - f) for f in target_exps], dtype=np.int64)
        K = linalg.row_kernel((F % qs * scale[None, :]) % qs, p, Es)
    mods = np.array([p**m for m in unknown_exps], dtype=np.int64)
    hat_scale = np.array([p ** (Eu - m) for m in unknown_exps], dtype=np.int64)
    rows = ((K % mods[None, :]) * hat_scale[None, :]) % qu
    return linalg.howell(rows, p, Eu).rows


def hom_space_flat_by_plain_solve(V, W):
    """`modules.hom_space_flat` as the package once solved it: the unknown is
    the plain matrix C (entry ij mod p^{f_j}), the conditions are
    P_g C = C Q_g mod p^{f_b} on the plain action matrices and
    p^{e_a} C[a, b] = 0 mod p^{f_b}, each column reduced at its own
    modulus, and the kernel is hatted at p^{E_W} afterwards."""
    p = V.p
    r, rw = V.rank, W.rank
    u = r * rw
    if u == 0:
        return np.zeros((0, u), dtype=np.int64)
    PV, PW = plain_action_entries(V), plain_action_entries(W)
    cols, target_exps = [], []
    for g in V.group.generators:
        cols.extend(_commuting_columns_by_kron(PV[g], PW[g]).T)
        target_exps.extend(W.exps * r)
    for a in range(r):
        for b in range(rw):
            col = np.zeros(u, dtype=np.int64)
            col[a * rw + b] = p ** V.exps[a]
            cols.append(col)
            target_exps.append(W.exps[b])
    unknown_exps = [W.exps[j] for _ in range(r) for j in range(rw)]
    return _solve_homogeneous(np.stack(cols, axis=1), unknown_exps, target_exps, p)


# ---------------------------------------------------------------------------
# Checks and conveniences only the tests use.
# ---------------------------------------------------------------------------


def contains(H, v):
    """Whether v lies in the span of the Howell form H."""
    return not np.any(H.reduce(v))


def is_coboundary(H, cocycle_row):
    """Whether a cocycle is zero in the cohomology group H."""
    return not np.any(H.coords(cocycle_row))


def at_distance(branch, j):
    """The vertices of a branch at edge distance j from its root."""
    return [v for v in branch.vertices if v.distance == j]


def vertex_table(scn, v):
    """The extension table of a branch vertex, rebuilt from its level and
    class coordinates through `build_extension`, so that a test does not
    read what the branch kept of it."""
    top = scn.top()
    H = cohomology.finite_cohomology(top.quotient(v.level).module, 2)
    row = H.representative(np.array(v.class_coords, dtype=np.int64))
    return build_extension(top.group, top.quotient(v.level).module, row).table


def lattice_coefficients(T, basis=None):
    """`cohomology.lattice_coefficients` in the given basis rows, or in the
    identity basis of T itself."""
    return cohomology.lattice_coefficients(
        T, np.eye(T.rank, dtype=np.int64) if basis is None else basis)


def lattice_cohomology(T, m, basis=None):
    """Lattice H^m(R, T), or of the sublattice with the given basis rows, by
    kernel and quotient: the exact p-adic cocycles, read off the full d^m,
    modulo the coboundaries, at the reduced precision p^Ee the kernel holds
    at.  `cohomology.lattice_invariants` reads the same exponents from
    d^{m-1}."""
    A = lattice_coefficients(T, basis)
    Z, Ee = full_lattice_cocycles(A, m)
    qe = A.p**Ee
    B = cohomology.coboundary_rows(A, m) % qe
    H = cohomology.CohomologyGroup(A, m, Z, B, linalg.quotient_group(Z % qe, B, A.p, Ee))
    if m >= 1:
        cohomology._check_group_order_bound(A, m, H.structure.exps)
    return H


def id_oplus_mu_inverse(src, dst, tau_hat):
    """Preimage under the shift `cohomology.id_oplus_mu`, on cocycle
    representatives (dst is the deeper level).  Both levels share the
    complement frame, so the complement coefficients transfer directly."""
    if dst.frame is not src.frame:
        raise cohomology.CohomologyError("source and destination must share a split frame")
    gamma, c = dst.decompose(tau_hat)
    lifted = (gamma + src.k_lift(c)) % src.Q.lattice.q
    return cohomology.lattice_row_to_quotient(src.Q, lifted)


def compose_perms(a, b):
    """(a then b) as index maps: x -> b[a[x]]."""
    return b[a]


def pair_compose(A, x, y):
    """Product of compatible pairs (beta, eps_hat) in action order:
    tau.(x y) = (tau.x).y."""
    return compose_perms(x[0], y[0]), A.canonical(x[1] @ y[1])


def pair_key(pair) -> tuple:
    """A hashable key of a compatible pair, equal for equal pairs in
    canonical form."""
    return (pair[0].tobytes(), pair[1].tobytes())


def pair_identity(A):
    return (np.arange(A.group.order, dtype=np.int64),
            A.canonical(np.eye(A.rank, dtype=np.int64)))


def one_plus(A, eps_flat):
    """(1, 1 + eps) from a hatted flat hom row (X[i, j] = C_ij p^{E - e_j})."""
    C = A.unhat(np.asarray(eps_flat, dtype=np.int64).reshape(A.rank, A.rank))
    return (np.arange(A.group.order, dtype=np.int64),
            A.hat_matrix(np.eye(A.rank, dtype=np.int64) + C))


def reduce_pair(Q, beta, eps_lattice):
    """The pair induced on A_n by a lattice pair (beta, eps)."""
    C = modules.endo_to_quotient(Q, eps_lattice)
    return np.asarray(beta, dtype=np.int64), Q.module.hat_matrix(C)


def pair_inverse(A, x):
    """Inverse of a compatible pair by its finite order."""
    ident = pair_identity(A)
    acc, prev = x, ident
    for _ in range(4 * A.order * A.group.order + 4):
        if pair_key(acc) == pair_key(ident):
            return prev
        prev = acc
        acc = pair_compose(A, acc, x)
    raise pairs.PairError("pair order not found; eps may not be invertible")


@dataclass
class RhoPiPairs:
    rho_pairs: list  # (1, 1 + eps) for the complement basis
    pi_rho_pairs: list  # closure of (1, (1 + p^c phi)_{A_n})


def rho_pi_pairs(T, chain, n, data):
    """The rho images of the complement basis and the closure of the pi-rho
    images of the lattice endomorphisms at level n, for `pairs.rho_pi_data`'s
    data."""
    bounds, comp, _ = data
    Q = chain.quotient(n)
    A = Q.module
    rho = [one_plus(A, row) for row in comp.E_flat]
    c = T.p**bounds.c_exp
    ident = np.arange(T.group.order, dtype=np.int64)
    gens = [reduce_pair(Q, ident, (np.eye(T.rank, dtype=np.int64) + c * Phi) % T.q)
            for Phi in modules.lattice_hom_space(T)]
    closed = groups.closure([pair_identity(A)], gens,
                            lambda x, g: pair_compose(A, x, g),
                            key=pair_key)
    return RhoPiPairs(rho, list(closed.values()))


def check_rho_additivity(A, comp):
    """(1 + eps)(1 + eps') = 1 + eps + eps' on the complement at deep levels."""
    rows = list(comp.E_flat)
    for x in rows:
        for y in rows:
            lhs = pair_compose(A, one_plus(A, x), one_plus(A, y))
            rhs = one_plus(A, (np.asarray(x) + np.asarray(y)) % A.q)
            if not np.array_equal(lhs[1], rhs[1]):
                return False
    return True


def check_centralizing(A, rp):
    """The rho images centralize the pi-rho closure."""
    return all(pair_key(pair_compose(A, x, y)) == pair_key(pair_compose(A, y, x))
               for x in rp.rho_pairs for y in rp.pi_rho_pairs)


def check_pi_rho_trivial_on_h2(H, rp):
    """The pi-rho closure acts trivially on H^2."""
    mods = H.structure.moduli()
    ident = np.eye(len(mods), dtype=np.int64) % mods[None, :]
    return all(np.array_equal(pairs.induced_h2_matrix(H, beta, eps[None])[0] % mods[None, :],
                              ident)
               for beta, eps in rp.pi_rho_pairs)


def orbits_by_permutations(H, ps):
    """(classes, stabiliser sizes, acting order) of the pairs (beta, eps_hat)
    on H, read from
    the permutation each pair induces on the coordinate tuples: the classes
    by reachability along those permutations, each sorted, in the order of
    their least member; the acting group by closing the permutations under
    composition (the action of GL(H) on the elements of H is faithful), and
    each stabiliser by counting the permutations that fix the class's least
    member."""
    coords = [tuple(c) for c in groups.all_coord_rows(H.structure.moduli().tolist()).tolist()]
    where = {c: i for i, c in enumerate(coords)}
    reps = H.representative(np.array(coords, dtype=np.int64).reshape(len(coords), -1))
    gens = set()
    for beta, eps in ps:
        moved = H.coords(pairs.act_on_cochains(H, beta, eps[None], reps)[0])
        gens.add(tuple(where[tuple(c)] for c in moved.tolist()))
    group = {tuple(range(len(coords)))}
    frontier = list(group)
    while frontier:
        nxt = []
        for a in frontier:
            for g in gens:
                b = tuple(g[i] for i in a)
                if b not in group:
                    group.add(b)
                    nxt.append(b)
        frontier = nxt
    seen, classes = set(), []
    for i in range(len(coords)):
        if i in seen:
            continue
        orbit, frontier = {i}, [i]
        while frontier:
            frontier = [g[j] for j in frontier for g in gens if g[j] not in orbit]
            orbit.update(frontier)
        seen |= orbit
        classes.append([coords[j] for j in sorted(orbit)])
    stabs = [sum(g[where[cl[0]]] == where[cl[0]] for g in group) for cl in classes]
    return classes, stabs, len(group)


def equivariance_by_element(src, dst, gens):
    """(verdict, witness) of shift(tau.g) = shift(tau).partner(g) for the
    (kind, beta, eps stack at n, partner stack) entries of
    `pairs.generator_pairs`, checked one H^2 element and one generator pair
    at a time, generators outermost in stack order, with the per-tuple
    action; the witness is the first failure, in the form of
    `pairs.OrbitCorrespondence.witness`."""
    H_n, H_nd = src.H, dst.H
    flat = [(kind, beta, x, y) for kind, beta, eps_n, eps_nd in gens
            for x, y in zip(eps_n, eps_nd)]
    for kind, beta, at_n, at_nd in flat:
        for c in groups.all_coord_rows(H_n.structure.moduli().tolist()):
            tau = H_n.representative(c)
            moved = brute_act_on_cochain(H_n, (beta, at_n), tau)
            lhs = H_nd.coords(cohomology.id_oplus_mu(src, dst, moved))
            shifted = cohomology.id_oplus_mu(src, dst, tau)
            rhs = H_nd.coords(brute_act_on_cochain(H_nd, (beta, at_nd), shifted))
            if not np.array_equal(lhs, rhs):
                return False, {"kind": kind, "tau_coords": H_n.coords(tau).tolist(),
                               "lhs": lhs.tolist(), "rhs": rhs.tolist()}
    return True, None


@dataclass
class OrbitIsomorphismReport:
    level_order: int
    checked_pairs: int
    skipped_classes: int  # classes whose extension does not have the base coclass
    ok: bool
    witness: dict | None


def orbit_isomorphism_check(H, A, partition):
    """Verify (same orbit <=> isomorphic extensions) over all qualifying classes.

    Classes whose extension does not share the base's coclass fall outside
    the hypothesis and are skipped (counted in the report).
    """
    R = A.group
    exts = {}
    skipped = 0
    for i, cl in enumerate(partition.classes):
        for c in cl:
            ext = build_extension(R, A, H.representative(c))
            cc, flag = coclass_of_extension(ext)
            if flag:
                exts[c] = (i, ext)
            else:
                skipped += 1
    items = sorted(exts.items())
    checked = 0
    for (c1, (i1, e1)), (c2, (i2, e2)) in itertools.combinations(items, 2):
        iso = are_isomorphic(e1.table, e2.table)
        same_orbit = i1 == i2
        checked += 1
        if iso != same_orbit:
            return OrbitIsomorphismReport(A.order, checked, skipped, False,
                                          {"class_a": list(c1), "class_b": list(c2),
                                           "same_orbit": same_orbit, "isomorphic": iso})
    return OrbitIsomorphismReport(A.order, checked, skipped, True, None)


# ---------------------------------------------------------------------------
# Extensions as validated tables: the oracle for `extensions.certify`.
# ---------------------------------------------------------------------------

ISOMORPHISM_CAP = 512  # the generator-image search is refused above this order


def center(G):
    """The elements that commute with every generator, so with every element."""
    S = G.generators
    return np.flatnonzero((G.mul[:, S] == G.mul[S].T).all(axis=1)).tolist()


@dataclass
class ExtensionGroup:
    base: groups.GroupTable
    fiber: modules.FiniteModule
    table: groups.GroupTable  # the fiber, the kernel onto the base, is indices 0 to |fiber| - 1

    @property
    def order(self) -> int:
        return self.table.order


def cocycle_value_table(A, tau_hat):
    """Plain coordinate values tau[g, h] for all pairs, zero on the identity."""
    G = A.group
    T = G.bar_index(2).tuples
    out = np.zeros((G.order, G.order, A.rank), dtype=np.int64)
    out[T[:, 0], T[:, 1]] = A.unhat(np.asarray(tau_hat, dtype=np.int64).reshape(len(T), A.rank))
    return out


def build_extension(R, A, tau_hat):
    """Validated multiplication table of the extension defined by tau, up to
    `groups.CLOSURE_CAP`."""
    if A.group is not R and A.group.order != R.order:
        raise extensions.ExtensionError("cocycle module must be an R-module")
    row = np.asarray(tau_hat, dtype=np.int64) % A.q
    if not cohomology.is_cocycle(A, 2, row):
        raise extensions.ExtensionError("cochain does not satisfy the cocycle identity")
    ext = ExtensionGroup(R, A, extension_table_by_blocks(R, A, cocycle_value_table(A, row)))
    validate_extension(ext)
    return ext


def validate_extension(ext):
    """The block projection onto R is a homomorphism by construction;
    `groups.is_homomorphism` checks it on the generator edges.  The fiber
    is its kernel, hence a normal subgroup."""
    E, R = ext.table, ext.base
    if E.order != R.order * ext.fiber.order:
        raise extensions.ExtensionError("extension order mismatch")
    if not groups.is_homomorphism(E, R, np.arange(E.order) // ext.fiber.order):
        raise extensions.ExtensionError("projection to the base is not a homomorphism")


def coclass_of_extension(ext, l=None):
    """(coclass of the extension, gamma_l(E) = fiber flag), read off the
    table; l defaults to one past the nilpotency class of the base."""
    if l is None:
        l = table_class(ext.base) + 1
    cc = table_coclass(ext.table)
    series = table_lcs(ext.table)
    gamma_l = series[l - 1] if l - 1 < len(series) else [ext.table.identity]
    flag = gamma_l == list(range(ext.fiber.order))
    base_cc = table_coclass(ext.base)
    if ext.fiber.order > 1 and (cc == base_cc) != flag:
        raise extensions.ExtensionError(
            "coclass criterion disagreement: cc %d vs base %d, flag %s" % (cc, base_cc, flag))
    return cc, flag


def fingerprint(G):
    """Cheap isomorphism invariants: order, spectrum, center, central series."""
    def build():
        spectrum = tuple(sorted(int(x) for x in G.element_orders()))
        lcs = tuple(len(t) for t in table_lcs(G))
        return (G.order, spectrum, len(center(G)), lcs)
    return G.derived("fingerprint", build)


def are_isomorphic(G1, G2):
    """Brute-force isomorphism test with invariant prefilters."""
    if G1.order != G2.order:
        return False
    if G1.order > ISOMORPHISM_CAP:
        raise extensions.ExtensionError("isomorphism test capped at order %d" % ISOMORPHISM_CAP)
    if fingerprint(G1) != fingerprint(G2):
        return False
    return next(groups.isomorphisms(G1, G2), None) is not None


def table_spectrum(G):
    """(order, count) of the element orders of a table, by increasing order."""
    values, counts = np.unique(G.element_orders(), return_counts=True)
    return tuple(zip(values.tolist(), counts.tolist()))


def check_certificate(A, row, l=None):
    """Certify the extension of A by the cocycle row and compare it with the
    table of the same extension: order, the size of every lower-central
    term, class, coclass, the flag and the element-order spectrum.  A
    coclass-criterion refusal must be the table's refusal too.  Returns the
    certificate, or None after a matching refusal."""
    ext = build_extension(A.group, A, row)
    try:
        cert = extensions.certify(A, row, l)
    except extensions.ExtensionError as exc:
        try:
            coclass_of_extension(ext, l)
        except extensions.ExtensionError as table_exc:
            assert str(table_exc) == str(exc)
            return None
        raise
    cc, flag = coclass_of_extension(ext, l)
    assert cert.order == ext.order
    assert cert.lcs_orders == [len(t) for t in table_lcs(ext.table)]
    assert cert.nilpotency_class == table_class(ext.table)
    assert (cert.coclass, cert.flag) == (cc, flag)
    assert cert.spectrum() == table_spectrum(ext.table)
    return cert


# ---------------------------------------------------------------------------
# The lower central series of the split quotients, read off their tables:
# the oracle for `scenarios.check_lower_central_series`.
# ---------------------------------------------------------------------------


def _fiber_term_indices(scn, Qm, j):
    """Table indices of the image of 1 x T_j inside G0 x (T / T_m), each
    element of T_j enumerated."""
    T = scn.lattice()
    chain = scn.chain()
    Bj = chain.bases[j]
    m = Qm.level
    steps = chain.index_exponents
    count = scn.p ** (steps[m] - steps[j])
    moduli = [int(x) for x in Qm.module.coord_moduli()]
    amb = (groups.all_coord_rows([count] * scn.rank) @ Bj) % T.q
    plain = Qm.module.unhat(Qm.hat_of_ambient(amb))
    coset = scn.group().identity * Qm.module.order
    found = set((coset + groups.mixed_radix_index(plain, moduli)).tolist())
    assert len(found) == count, "fiber sublattice enumeration produced %d of %d elements" % (
        len(found), count)
    return sorted(found)


def lcs_report_by_table(scn, max_order):
    """The report of `scenarios.check_lower_central_series`, with each split
    quotient built as a table (`extension_table_by_blocks`, up to
    `groups.CLOSURE_CAP`) and each lower central term compared element by
    element with the enumerated fiber sublattice."""
    G0 = scn.group()
    chain = scn.chain()
    failures, identified, coclasses, orders = [], [], [], []
    m = 1
    while m <= chain.depth and G0.order * scn.p ** chain.index_exponents[m] <= max_order:
        Qm = scn.quotient(m)
        table = extension_table_by_blocks(G0, Qm.module)
        orders.append(table.order)
        series = table_lcs(table)
        for j in range(scn.top_offset, m + 1):
            expected = _fiber_term_indices(scn, Qm, j)
            li = 1 + j
            actual = series[li - 1] if li - 1 < len(series) else [table.identity]
            if sorted(actual) == expected:
                identified.append({"chain_index": m, "lcs_index": li, "size": len(expected)})
            else:
                failures.append(
                    "chain index %d: lcs term %d has size %d, expected the "
                    "image of the depth-%d sublattice (size %d)"
                    % (m, li, len(actual), j, len(expected)))
        coclasses.append((m, table_coclass(table)))
        m += 1
    last_m = m - 1
    if last_m < scn.top_offset + 1:
        failures.append("no quotient deep enough to test the identification")
    stabilized = [c for mm, c in coclasses if mm >= scn.top_offset + scn.period()]
    limit = stabilized[-1] if stabilized else -1
    if limit != scn.pro_coclass:
        failures.append("quotient coclass %d does not stabilize at the declared %d"
                        % (limit, scn.pro_coclass))
    elif any(c != limit for c in stabilized):
        failures.append("quotient coclass has not stabilized: %s" % coclasses)
    return {"scenario": scn.name, "max_chain_index": last_m, "quotient_orders": orders,
            "identified_terms": identified,
            "coclasses": [{"chain_index": mm, "coclass": c} for mm, c in coclasses],
            "limit_coclass": limit, "ok": not failures, "failures": failures}
