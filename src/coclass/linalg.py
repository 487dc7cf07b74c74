"""Exact linear algebra over Z/p^M.

Everything downstream (lattice chains, cochain complexes, orbit machinery)
reduces to Smith/Howell normal forms over the local ring Z/p^M.  Row
convention throughout: a linear map is a matrix F acting on row vectors,
f(x) = x @ F, and subgroups of (Z/p^M)^n are given by matrices whose rows
generate them.

Matrices are numpy int64 arrays when p^M fits comfortably (products must not
overflow), with a python-int (object dtype) fallback for larger moduli.

Every integer combination of rows mod q goes through `dot_mod(x, A, bound,
q)`, exact for entries in [0, bound): it sums in int64 while rows * (bound -
1)^2 < 2^63, so that no partial sum can overflow, and in Python ints otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

INT64_SAFE_MODULUS = 1 << 31


def as_matrix(rows, q: int):
    """Coerce to a 2-D array with dtype suited to modulus q."""
    dtype = np.int64 if q <= INT64_SAFE_MODULUS else object
    a = np.array(rows, dtype=dtype)
    if a.ndim == 1:
        a = a.reshape(1, -1)
    return a % q


def zeros(shape, q: int):
    dtype = np.int64 if q <= INT64_SAFE_MODULUS else object
    z = np.zeros(shape, dtype=dtype)
    return z


def eye(n: int, q: int):
    dtype = np.int64 if q <= INT64_SAFE_MODULUS else object
    return np.eye(n, dtype=np.int64).astype(dtype)


def _reduce_inplace(a, q: int, p: int):
    """a %= q, using the cheap bitwise form when the modulus is a 2-power."""
    if p == 2 and a.dtype == np.int64:
        a &= q - 1
    else:
        a %= q


def _nonzero_mod(a, pv: int, p: int):
    """Boolean mask of entries not divisible by pv."""
    if p == 2 and a.dtype == np.int64:
        return (a & (pv - 1)) != 0
    return (a % pv) != 0


def valuation(x: int, p: int) -> int:
    """p-adic valuation of a nonzero integer x."""
    x = int(x)
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


@dataclass
class Smith:
    """U @ F @ V = diag(p^exps) over Z/p^M (U, V invertible mod p^M), with
    Vinv the inverse of V whenever V was asked for."""

    p: int
    M: int
    shape: tuple[int, int]
    exps: list[int]  # length min(shape), nondecreasing; M encodes a zero diagonal entry
    U: np.ndarray | None
    V: np.ndarray | None
    Vinv: np.ndarray | None


def smith(F, p: int, M: int, *, want_left: bool = True, want_right: bool = False) -> Smith:
    """Smith normal form over Z/p^M by minimal-valuation pivoting.

    Over the local ring the diagonal comes out as p-powers in nondecreasing
    valuation order without any extra gcd passes.  Each column operation on
    V is the inverse row operation on Vinv, so V and its inverse come out of
    the same elimination.
    """
    q = p**M
    F = as_matrix(F, q)
    r, c = F.shape
    # W = [A | U]: a row operation on A carries its U part along in one pass
    W = np.concatenate([F, eye(r, q)], axis=1) if want_left else F
    A = W[:, :c]
    V = eye(c, q) if want_right else None
    Vinv = eye(c, q) if want_right else None
    exps: list[int] = []
    n = min(r, c)
    # Divisor valuations are nondecreasing over the local ring, so the search
    # for a minimal-valuation pivot can start where the previous one left off
    # and use a cheap divisibility mask instead of gcd passes.
    vcur = 0
    for k in range(n):
        # fast path: a valuation-vcur entry in the current column, if any
        pv = p ** (vcur + 1)
        colmask = _nonzero_mod(A[k:, k], pv, p)
        if colmask.any():
            ii, jj = int(np.argmax(colmask)), 0
        else:
            sub = A[k:, k:]
            mask = None
            while vcur < M:
                pv = p ** (vcur + 1)
                mask = _nonzero_mod(sub, pv, p)
                if mask.any():
                    break
                mask = None
                vcur += 1
            if mask is None:
                break  # remaining submatrix is zero mod p^M
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
        # scale the pivot row (and its U part) so the pivot is exactly p^a;
        # columns left of k are zero in A
        pivot = W[k, k:]
        pivot *= pow(int(A[k, k]) // pa, -1, q)
        _reduce_inplace(pivot, q, p)
        # clear column k below the pivot (rows above are already clear); only
        # the rows with a nonzero entry in column k change
        rows = k + 1 + np.flatnonzero(A[k + 1 :, k])
        if rows.size:
            block = W[rows, k:]
            block -= (block[:, 0] // pa)[:, None] * pivot[None, :]
            _reduce_inplace(block, q, p)
            W[rows, k:] = block
        # clearing row k right of the pivot touches only V, since column k is
        # now p^a e_k and row k is never read again; subtracting m_j times
        # column k of V from column j adds m_j times row j of Vinv to row k
        if V is not None:
            m = A[k, k + 1 :] // pa
            if m.any():
                V[:, k + 1 :] = (V[:, k + 1 :] - V[:, k][:, None] * m[None, :]) % q
                Vinv[k] = (Vinv[k] + dot_mod(m, Vinv[k + 1 :], q, q)) % q
        exps.append(vcur)
    exps.extend([M] * (n - len(exps)))
    U = np.ascontiguousarray(W[:, c:]) if want_left else None
    return Smith(p, M, (r, c), exps, U, V, Vinv)


def invertible_mod_p(X, p: int) -> np.ndarray:
    """Which square matrices of a stack (..., k, k) are invertible mod p, and
    so mod every power of p.  Fraction-free elimination over F_p: each row
    below the pivot becomes pivot * row - entry * pivot row."""
    k = np.shape(X)[-1]
    A = (np.asarray(X) % p).astype(np.int64 if p <= INT64_SAFE_MODULUS else object)
    A = A.reshape(-1, k, k)
    ok = np.ones(len(A), dtype=bool)
    stack = np.arange(len(A))
    for c in range(k):
        nonzero = A[:, c:, c] != 0
        ok &= nonzero.any(axis=1)
        piv = c + np.argmax(nonzero, axis=1)
        top = A[stack, piv]
        A[stack, piv] = A[:, c]
        A[:, c] = top
        A[:, c + 1:] = (top[:, c, None, None] * A[:, c + 1:]
                        - A[:, c + 1:, c, None] * top[:, None, :]) % p
    return ok.reshape(np.shape(X)[:-2])


def row_kernel(F, p: int, M: int):
    """Generators of {x : x @ F = 0 mod p^M}.

    For maps of free modules read at finite precision, `lattice_kernel`
    drops the p^{M-a}-scaled rows that exist only because of the modulus.
    """
    q = p**M
    s = smith(F, p, M, want_left=True, want_right=False)
    r = s.shape[0]
    rows = []
    for i, a in enumerate(s.exps):
        if a >= M:
            rows.append(s.U[i])
        elif a > 0:
            rows.append((p ** (M - a) * s.U[i]) % q)
    for i in range(len(s.exps), r):
        rows.append(s.U[i])
    if not rows:
        return zeros((0, r), q)
    return np.vstack(rows) % q


def lattice_kernel(s: Smith):
    """Kernel of a map F of free modules read at precision p^M, from its Smith form s.

    Returns (rows, M_eff): generator rows of the reduction of the exact
    p-adic kernel, valid modulo p^{M_eff}.  Each finite nonzero divisor of F
    costs its exponent in precision, because eliminating past a pivot p^a
    determines the transform only mod p^{M-a}.  An empty kernel has no
    transform rows to lose precision in, so it holds at p^M.
    """
    p, M, r = s.p, s.M, s.shape[0]
    rows = [s.U[i] for i, a in enumerate(s.exps) if a >= M]
    rows.extend(s.U[i] for i in range(len(s.exps), r))
    if not rows:
        return zeros((0, r), p**M), M
    loss = sum(a for a in s.exps if 0 < a < M)
    Me = M - loss
    if Me <= 0:
        raise ValueError("no precision left for the kernel (loss %d >= %d)" % (loss, M))
    return np.vstack(rows) % p**Me, Me


@dataclass
class Howell:
    """Canonical generating rows for a subgroup of (Z/p^M)^n.

    transform @ original_gens = rows (mod p^M) when transform tracking was
    requested; pivots[i] = (column, valuation) for rows[i].
    """

    p: int
    M: int
    ncols: int
    rows: np.ndarray
    pivots: list[tuple[int, int]]
    transform: np.ndarray | None

    @property
    def q(self) -> int:
        return self.p**self.M

    def reduce(self, v, coeffs_out: list | None = None):
        """Reduce a row vector, or each row of a stack, by the basis; returns
        the residue.

        A residue is zero iff its row lies in the span.  If coeffs_out is
        given it receives the multiple of each basis row taken, in order.
        """
        q = self.q
        v = np.array(v, dtype=self.rows.dtype if self.rows.size else None) % q
        # t[j] is entry j of the row, or column j of the stack as a row
        t = v if v.ndim == 1 else v.reshape(-1, v.shape[-1]).T
        for i, (j, a) in enumerate(self.pivots):
            # reduce by the floor multiple; a leftover entry below p^a stays
            # in the residue and marks the row as outside the span
            m = t[j] // self.p**a
            if coeffs_out is not None:
                coeffs_out.append(m)
            if m.any() if t.ndim > 1 else m:
                t = (t - np.multiply.outer(self.rows[i], m)) % q
        return t if v.ndim == 1 else t.T.reshape(v.shape)

    def solve(self, v, modulus: int | None = None):
        """One x with x @ gens = v, or None when v is outside the span; for
        a stack of rows, the stack of solutions, or None when any row is out.

        gens are the generators the form was built from when the transform
        was tracked, and the form's own rows otherwise.  x is the integer
        combination of transform rows reduced mod `modulus` (default: the
        form's modulus), so a larger modulus keeps that integer lift.
        """
        coeffs: list = []
        if np.any(self.reduce(v, coeffs_out=coeffs)):
            return None
        q = self.q if modulus is None else modulus
        # one coefficient per pivot, moved behind the stack axes of v
        x = np.moveaxis(np.array(coeffs, dtype=self.rows.dtype).reshape(
            len(coeffs), *np.shape(v)[:-1]), 0, -1)
        if self.transform is None:
            return x % q
        return dot_mod(x, self.transform, self.q, q)

    def index_exponent(self) -> int:
        """v_p of the index of the span in (Z/p^M)^ncols."""
        tot = self.M * self.ncols
        for _, a in self.pivots:
            tot -= self.M - a
        return tot

    def order_exp(self) -> int:
        """v_p of the order of the span."""
        return self.M * self.ncols - self.index_exponent()

    def same_span(self, other: "Howell") -> bool:
        """Whether two forms over the same ring span the same subgroup; the
        form is canonical, so this compares rows and pivots."""
        return self.pivots == other.pivots and bool(np.array_equal(self.rows, other.rows))


def howell(gens, p: int, M: int, *, track: bool = False) -> Howell:
    """Howell canonical form of the row span of gens over Z/p^M."""
    q = p**M
    G = as_matrix(gens, q)
    nrows, ncols = G.shape
    work: list[np.ndarray] = [G[i].copy() for i in range(nrows)]
    trans: list[np.ndarray] = [eye(max(nrows, 1), q)[i] for i in range(nrows)] if track else []
    ntrack = nrows
    done_rows: list[np.ndarray] = []
    done_trans: list[np.ndarray] = []
    pivots: list[tuple[int, int]] = []
    for j in range(ncols):
        cand = [i for i, w in enumerate(work) if int(w[j]) % q != 0]
        if not cand:
            continue
        best = min(cand, key=lambda i: math.gcd(int(work[i][j]), q))
        pa = math.gcd(int(work[best][j]), q)
        a = valuation(pa, p)
        piv = work.pop(best)
        tpiv = trans.pop(best) if track else None
        w = int(piv[j]) // pa
        winv = pow(w, -1, q)
        piv = (piv * winv) % q
        if track:
            tpiv = (tpiv * winv) % q
        # eliminate from remaining working rows (their entries at j have val >= a)
        for i, wrow in enumerate(work):
            x = int(wrow[j])
            if x:
                m = x // pa
                work[i] = (wrow - m * piv) % q
                if track:
                    trans[i] = (trans[i] - m * tpiv) % q
        # canonicalize entries above the pivot into [0, p^a)
        for i, drow in enumerate(done_rows):
            x = int(drow[j])
            if x // pa:
                m = x // pa
                done_rows[i] = (drow - m * piv) % q
                if track:
                    done_trans[i] = (done_trans[i] - m * tpiv) % q
        # annihilator tail: p^{M-a} * pivot row still generates span elements
        if a > 0:
            ann = (p ** (M - a) * piv) % q
            if np.any(ann):
                work.append(ann)
                if track:
                    trans.append((p ** (M - a) * tpiv) % q)
        done_rows.append(piv)
        if track:
            done_trans.append(tpiv)
        pivots.append((j, a))
    if done_rows:
        rows = np.vstack(done_rows) % q
    else:
        rows = zeros((0, ncols), q)
    tr = None
    if track:
        tr = np.vstack(done_trans) % q if done_trans else zeros((0, ntrack), q)
        if tr.shape[1] != nrows:  # pragma: no cover - only for degenerate nrows=0
            tr = tr[:, :nrows]
    return Howell(p, M, ncols, rows, pivots, tr)


def dot_mod(x, A, bound: int, q: int):
    """x @ A mod q, exact for entries in [0, bound), by the rule in the
    module docstring."""
    if A.dtype != object and A.shape[0] * (bound - 1) ** 2 < 1 << 63:
        return (x.astype(np.int64) @ A) % q
    return ((np.asarray(x, dtype=object) @ A.astype(object)) % q).astype(A.dtype)


def span_order_exp(rows, p: int, M: int) -> int:
    """v_p of the order of the row span over Z/p^M."""
    rows = np.asarray(rows)
    if rows.shape[0] == 0:
        return 0
    return howell(rows, p, M).order_exp()


def span_equal(gens_a, gens_b, p: int, M: int) -> bool:
    return howell(gens_a, p, M).same_span(howell(gens_b, p, M))


@dataclass
class QuotientGroup:
    """Finite abelian group K/B for subgroups B <= K <= (Z/p^M)^n.

    Exposes invariant exponents, generator representatives (rows in the
    ambient space), and a coordinate map for arbitrary elements of K.
    """

    p: int
    M: int
    exps: list[int]  # invariant factor exponents, > 0, nondecreasing
    gens: np.ndarray  # one ambient row per invariant factor
    _K: Howell  # untracked, so solving gives coordinates over its own rows
    _V: np.ndarray  # right transform sending K-coordinates to SNF coordinates
    _kept: list[int]

    @property
    def order(self) -> int:
        return self.p ** sum(self.exps)

    def coords(self, v) -> np.ndarray:
        """Coordinates of v + B in the invariant-factor decomposition, for one
        element of K or for each row of a stack."""
        q = self.p**self.M
        x = self._K.solve(v)
        if x is None:
            raise ValueError("element not in the subgroup K")
        z = dot_mod(x, self._V, q, q)[..., self._kept]
        return (z % self.moduli()).astype(np.int64)

    def moduli(self) -> np.ndarray:
        """p^e for each invariant exponent, in coordinate order."""
        return np.array([self.p**e for e in self.exps], dtype=np.int64)

    def element(self, coords) -> np.ndarray:
        """An ambient representative with the given coordinates."""
        q = self.p**self.M
        return dot_mod(np.asarray(coords, dtype=object) % q, self.gens, q, q)

    def all_coords(self):
        """Iterate over all coordinate tuples (desk scale only)."""
        import itertools

        ranges = [range(self.p**e) for e in self.exps]
        yield from itertools.product(*ranges)

    def invariants(self) -> list[int]:
        return [self.p**e for e in sorted(self.exps, reverse=True)]


def quotient_group(K_rows, B_rows, p: int, M: int) -> QuotientGroup:
    """Structure of span(K)/span(B) over Z/p^M (B must lie in span(K))."""
    q = p**M
    HK = howell(K_rows, p, M)
    # keep the howell rows as the working generating set of K
    Kb = HK.rows
    g = Kb.shape[0]
    if g == 0:
        return QuotientGroup(p, M, [], zeros((0, np.shape(K_rows)[1]), q), HK, eye(0, q), [])
    rel = row_kernel(Kb, p, M)
    bcoords = HK.solve(as_matrix(B_rows, q))
    if bcoords is None:
        raise ValueError("B is not contained in K")
    pieces = [x for x in (rel, bcoords) if x.shape[0] > 0]
    L = np.vstack(pieces) if pieces else zeros((0, g), q)
    s = smith(L, p, M, want_left=False, want_right=True)
    Vinv = s.Vinv
    exps = list(s.exps) + [M] * (g - len(s.exps))
    kept = [i for i, a in enumerate(exps) if a > 0]
    gens = []
    new_exps = []
    for i in kept:
        x = (Vinv[i] if i < Vinv.shape[0] else zeros((g,), q)) % q
        amb = (x @ Kb) % q
        gens.append(amb)
        new_exps.append(exps[i])
    qg = QuotientGroup(
        p,
        M,
        new_exps,
        np.vstack(gens) % q if gens else zeros((0, Kb.shape[1]), q),
        HK,
        s.V,
        kept,
    )
    return qg

