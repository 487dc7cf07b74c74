"""Independent literal-enumeration oracles used to pin down small cases.

Everything here is deliberately naive: cochains are dicts, the coboundary is
evaluated straight from its defining formula, and groups are compared by
order statistics.  Keep it slow and obviously correct.
"""

import itertools

import numpy as np

from coclass import cohomology, linalg, scenarios


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


def brute_act_on_cochain(H, pair, row):
    """(tau.(beta, eps))(g_1..g_m) = tau(g_1^{beta^-1}, ..).eps, one tuple at a time."""
    spec = H.spec
    m = H.m
    nonid = [g for g in range(spec.group.order) if g != spec.group.identity]
    tuples = list(itertools.product(nonid, repeat=m))
    index = {t: i for i, t in enumerate(tuples)}
    binv = np.argsort(pair.beta)
    r = spec.rank
    row = np.asarray(row, dtype=np.int64) % spec.q
    out = np.zeros_like(row)
    for i, t in enumerate(tuples):
        src = index[tuple(int(binv[g]) for g in t)]
        out[i * r : (i + 1) * r] = (row[src * r : (src + 1) * r] @ pair.eps_hat) % spec.q
    return out


# ---------------------------------------------------------------------------
# The slower paths the package replaced, kept to pin the faster ones down.
# ---------------------------------------------------------------------------


def span_automorphism(A, eps_hat):
    """A hatted matrix is an automorphism of A iff the images of the module's
    generator rows span the module again (both spans in Howell form)."""
    img = (A.member_rows() @ (np.asarray(eps_hat) % A.q)) % A.q
    return linalg.span_equal(img, A.member_rows(), A.p, A.E)


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


def cocycles_by_intersection(spec, m):
    """Z^m(A) as the full kernel of d^m intersected with the A-valued cochains."""
    K = linalg.row_kernel(cohomology.coboundary_matrix(spec, m), spec.p, spec.E)
    legal = np.diag(np.tile(spec.scales, (spec.group.order - 1) ** m)).astype(np.int64)
    return linalg.howell(span_intersection(K, legal, spec.p, spec.E),
                         spec.p, spec.E).rows


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


def reduce_one_row(H, v):
    """Howell.reduce on a single row, one pivot and one Python integer at a time."""
    q = H.q
    v = np.array(v, dtype=np.int64) % q
    for i, (j, a) in enumerate(H.pivots):
        m = int(v[j]) // H.p**a
        if m:
            v = (v - m * H.rows[i]) % q
    return v


def summand_scan_per_level_frames(scn, n_range=range(1, 7), k_range=(0, 1, 2), group_cap=8):
    """scenarios.summand_instability_witness with a split frame built at
    every level rather than one per residue class; returns its report."""
    scanned, skipped = [], []
    witness = None
    lifted_ok = True
    for k in k_range:
        stage = scn.stage(k)
        if stage.group.order > group_cap:
            skipped.append({"k": str(k), "group_order": str(stage.group.order),
                            "reason": "group order exceeds the scan cap %d" % group_cap})
            continue
        chain_k = stage.chain
        for n in n_range:
            if n > chain_k.depth - 1:
                break
            try:
                cohomology.level_frame(chain_k, n)
            except cohomology.CohomologyError as exc:
                skipped.append({"k": str(k), "n": str(n), "reason": str(exc)})
                continue
            level = cohomology.level_split(chain_k, n, n, stage.period)
            H, Q = level.H, level.Q
            member = scenarios._summand_membership_solver(level, H)
            classes = scenarios._summand_classes(level)
            lifted_ok = lifted_ok and scenarios._lifted_endos_stable(
                stage.lattice, Q, H, member, classes)
            scanned.append({"k": str(k), "n": str(n),
                            "summand_classes": str(len(classes)),
                            "h2_order": str(H.order)})
            if witness is None:
                witness = scenarios._scan_level(scn, k, n, level, H, Q.module, member, classes)
            if witness is not None:
                break
        if witness is not None:
            break
    return scenarios.SummandScanReport(scn.name, witness is not None, witness,
                                       lifted_ok, scanned, skipped)
