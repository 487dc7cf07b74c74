"""Exact linear algebra over Z/p^M.

Everything downstream (lattice chains, cochain complexes, orbit machinery)
reduces to row spans over the local ring Z/p^M.  Row convention throughout:
a linear map is a matrix F acting on row vectors, f(x) = x @ F, and
subgroups of (Z/p^M)^n are given by matrices whose rows generate them.

Both normal forms are one array elimination by least-valuation pivots, with
the row transform carried as the right-hand block of a single array
[A | U], and both read a valuation by one rule, as gcd(x, p^M): `smith`
also pivots on columns and gives the invariant exponents and kernels;
`howell` pivots on rows only, column by column, and gives the canonical
rows of a span (J. A. Howell, "Spans in the module (Z_m)^s", 1986), against
which membership is tested and equations are solved.

One ring rule holds for Z/p^M, q = p^M < 2^63: every ring array is int64
with entries in [0, q), and this module forms every product of ring
elements.  `dot_mod(x, A, bound, q)` is x @ A mod q and `mul_mod(x, y, q)`
the elementwise x * y mod q; each works in int64 while k * (bound - 1)^2 <
2^63 for k terms in a sum (k = 1 and bound = q elementwise), so that no
partial sum can overflow, in Python ints past it, and returns int64.
`smith`, `howell` and `invertible_mod_p` work in an array chosen by the same
bound, (q - 1)^2 < 2^63, and return int64.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

def _fits(k: int, bound: int) -> bool:
    """Whether a sum of k products of entries below `bound` fits int64."""
    return k * (bound - 1) ** 2 < 1 << 63


def _work(a, q: int):
    """a as the array an elimination mod q works in: itself while a product
    of two entries below q fits int64, else a copy in Python ints."""
    return a if _fits(1, q) else a.astype(object)


def as_matrix(rows):
    """rows as a 2-D int64 array."""
    a = np.array(rows, dtype=np.int64)
    return a.reshape(1, -1) if a.ndim == 1 else a


def _reduce_inplace(a, q: int, p: int):
    """a %= q, using the cheap bitwise form when the modulus is a 2-power."""
    if p == 2 and a.dtype == np.int64:
        a &= q - 1
    else:
        a %= q


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
    """Smith normal form over Z/p^M by least-valuation pivoting.

    Valuations are read as in `howell`, as gcd(x, p^M): g[i] is gcd(row i,
    p^M) over the trailing columns, kept for the rows still in play and
    recomputed only on the rows that a block update touches.  The pivot is
    an entry of least valuation p^a = min g: the first one in column k while
    a equals the previous pivot's (0 before the first), and otherwise the
    first one in row order.  Over the local ring that pivot divides its whole
    block, so the diagonal comes out as p-powers in nondecreasing order with
    no Bezout steps.  Each column operation on V is the inverse row
    operation on Vinv, so V and its inverse come out of the same elimination.
    """
    q = p**M
    F = as_matrix(F) % q
    r, c = F.shape
    # W = [A | U]: a row operation on A carries its U part along in one pass
    W = _work(np.concatenate([F, np.eye(r, dtype=np.int64)], axis=1) if want_left else F, q)
    A = W[:, :c]
    V = _work(np.eye(c, dtype=np.int64), q) if want_right else None
    Vinv = _work(np.eye(c, dtype=np.int64), q) if want_right else None
    exps: list[int] = []
    n = min(r, c)
    g = np.gcd.reduce(A, axis=1, initial=q)
    last = 1  # p^a of the previous pivot
    for k in range(n):
        pa = int(g[k:].min())
        if pa == q:
            break  # remaining submatrix is zero mod p^M
        hits = np.gcd(A[k:, k], q) == pa
        if pa == last and hits.any():
            i, j = k + int(hits.argmax()), k
        else:
            i = k + int((g[k:] == pa).argmax())
            j = k + int((np.gcd(A[i, k:], q) == pa).argmax())
        if i != k:
            W[[k, i]] = W[[i, k]]
            g[[k, i]] = g[[i, k]]
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
        # the rows with a nonzero entry in column k change, so only their g
        rows = k + 1 + np.flatnonzero(A[k + 1 :, k])
        if rows.size:
            block = W[rows, k:]
            block -= (block[:, 0] // pa)[:, None] * pivot[None, :]
            _reduce_inplace(block, q, p)
            W[rows, k:] = block
            g[rows] = np.gcd.reduce(block[:, 1 : c - k], axis=1, initial=q)
        # clearing row k right of the pivot touches only V, since column k is
        # now p^a e_k and row k is never read again; subtracting m_j times
        # column k of V from column j adds m_j times row j of Vinv to row k
        if V is not None:
            m = A[k, k + 1 :] // pa
            if m.any():
                V[:, k + 1 :] = (V[:, k + 1 :] - V[:, k][:, None] * m[None, :]) % q
                Vinv[k] = (Vinv[k] + dot_mod(m, Vinv[k + 1 :], q, q)) % q
        exps.append(valuation(pa, p))
        last = pa
    exps.extend([M] * (n - len(exps)))
    U = np.ascontiguousarray(W[:, c:], dtype=np.int64) if want_left else None
    V, Vinv = (None, None) if V is None else (V.astype(np.int64), Vinv.astype(np.int64))
    return Smith(p, M, (r, c), exps, U, V, Vinv)


def invertible_mod_p(X, p: int) -> np.ndarray:
    """Which square matrices of a stack (..., k, k) are invertible mod p, and
    so mod every power of p.  Fraction-free elimination over F_p: each row
    below the pivot becomes pivot * row - entry * pivot row."""
    k = np.shape(X)[-1]
    A = _work((np.asarray(X) % p).astype(np.int64), p)
    A = A.reshape(math.prod(np.shape(X)[:-2]), k, k)
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


def _padded_exps(s: Smith) -> list[int]:
    """The divisor exponent of each row of U: M past the diagonal."""
    return s.exps + [s.M] * (s.shape[0] - len(s.exps))


def row_kernel(F, p: int, M: int):
    """Generators of {x : x @ F = 0 mod p^M}.

    For maps of free modules read at finite precision, `lattice_kernel`
    drops the p^{M-a}-scaled rows that exist only because of the modulus.
    """
    s = smith(F, p, M, want_left=True, want_right=False)
    # row i of U times p^{M-a} for each divisor p^a with a > 0; the rows of U
    # past the diagonal have a = M
    exps = _padded_exps(s)
    keep = [i for i, a in enumerate(exps) if a > 0]
    scale = np.array([p ** (M - exps[i]) for i in keep], dtype=np.int64)
    return mul_mod(scale[:, None], s.U[keep], p**M)


def scaled_kernel(F, scales, p: int, M: int) -> np.ndarray:
    """Howell rows of { x in the span of diag(scales) : x @ F = 0 mod p^M }.

    x = c * scales for each c in the row kernel of scales * F, which is how
    the kernel of a map is read on a finite module held in hatted
    coordinates, with the hat scale of each coordinate in `scales`.
    """
    q = p**M
    K = row_kernel(mul_mod(scales[:, None], F, q), p, M)
    return howell(mul_mod(K, scales, q), p, M).rows


def lattice_kernel(s: Smith):
    """Kernel of a map F of free modules read at precision p^M, from its Smith form s.

    Returns (rows, M_eff): generator rows of the reduction of the exact
    p-adic kernel, valid modulo p^{M_eff}.  Each finite nonzero divisor of F
    costs its exponent in precision, because eliminating past a pivot p^a
    determines the transform only mod p^{M-a}.  An empty kernel has no
    transform rows to lose precision in, so it holds at p^M.
    """
    p, M = s.p, s.M
    rows = s.U[[i for i, a in enumerate(_padded_exps(s)) if a >= M]]
    if not len(rows):
        return rows, M
    loss = sum(a for a in s.exps if 0 < a < M)
    Me = M - loss
    if Me <= 0:
        raise ValueError("no precision left for the kernel (loss %d >= %d)" % (loss, M))
    return rows % p**Me, Me


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
        v = np.array(v, dtype=np.int64) % q
        rows = _work(self.rows, q)
        # t[j] is entry j of the row, or column j of the stack as a row
        t = _work(v if v.ndim == 1 else v.reshape(math.prod(v.shape[:-1]), v.shape[-1]).T, q)
        for i, (j, a) in enumerate(self.pivots):
            # reduce by the floor multiple; a leftover entry below p^a stays
            # in the residue and marks the row as outside the span
            m = t[j] // self.p**a
            if coeffs_out is not None:
                coeffs_out.append(m)
            if m.any() if t.ndim > 1 else m:
                t = (t - np.multiply.outer(rows[i], m)) % q
        return np.asarray(t if v.ndim == 1 else t.T.reshape(v.shape), dtype=np.int64)

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
        x = np.moveaxis(np.array(coeffs, dtype=np.int64).reshape(
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
    """Howell canonical form of the row span of gens over Z/p^M.

    One elimination on W = [gens | I], the identity part only when `track`
    is set, so a row operation carries its transform along.  W[:k] are the
    k finished rows and W[k:live] the rows still in play, in the order they
    entered.  In each column the first row in play of least valuation
    becomes pivot k, scaled to p^a; one block update clears the column in
    the rows still in play and reduces the finished rows into [0, p^a); and
    p^{M-a} times the pivot row, which the span still holds, joins the rows
    in play.  W has room for that annihilator tail of every pivot.
    """
    q = p**M
    G = as_matrix(gens) % q
    nrows, ncols = G.shape
    W = _work(np.zeros((nrows + ncols, ncols + (nrows if track else 0)), dtype=np.int64), q)
    W[:nrows, :ncols] = G
    if track:
        W[:nrows, ncols:] = np.eye(nrows, dtype=np.int64)
    live = nrows
    pivots: list[tuple[int, int]] = []
    for j in range(ncols):
        k = len(pivots)
        if k == live:
            break
        g = np.gcd(W[k:live, j], q)
        i = int(g.argmin())
        pa = int(g[i])
        if pa == q:
            continue
        if i:
            W[k:k + i + 1] = W[[k + i, *range(k, k + i)]]
        # columns left of j are zero in the pivot row
        piv = W[k, j:]
        unit = int(piv[0]) // pa
        if unit != 1:
            piv *= pow(unit, -1, q)
            _reduce_inplace(piv, q, p)
        m = W[:live, j] // pa
        m[k] = 0
        rows = m.nonzero()[0]
        if rows.size:
            block = W[rows, j:] - np.multiply.outer(m[rows], piv)
            _reduce_inplace(block, q, p)
            W[rows, j:] = block
        a = valuation(pa, p)
        if a and j + 1 < ncols:
            tail = piv * p ** (M - a)
            _reduce_inplace(tail, q, p)
            if tail[1:ncols - j].any():
                W[live, j:] = tail
                live += 1
        pivots.append((j, a))
    k = len(pivots)
    return Howell(p, M, ncols, W[:k, :ncols].astype(np.int64), pivots,
                  W[:k, ncols:].astype(np.int64) if track else None)


def dot_mod(x, A, bound: int, q: int) -> np.ndarray:
    """x @ A mod q, exact for entries in [0, bound), by the rule in the
    module docstring; either side may be a stack, as for `@`."""
    x, A = np.asarray(x), np.asarray(A)
    if _fits(x.shape[-1], bound):
        return (x.astype(np.int64, copy=False) @ A.astype(np.int64, copy=False)) % q
    return ((x.astype(object) @ A.astype(object)) % q).astype(np.int64)


def mul_mod(x, y, q: int) -> np.ndarray:
    """x * y mod q elementwise, broadcast as for `*`, exact for entries in
    [0, q), by the rule in the module docstring."""
    x, y = np.asarray(x), np.asarray(y)
    if _fits(1, q):
        return (x.astype(np.int64, copy=False) * y.astype(np.int64, copy=False)) % q
    return ((x.astype(object) * y.astype(object)) % q).astype(np.int64)


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
    K: Howell  # untracked, so solving gives coordinates over its own rows
    to_coords: np.ndarray  # K-coordinates -> coordinates: the kept columns of the Smith V

    @property
    def order(self) -> int:
        return self.p ** sum(self.exps)

    def coords(self, v) -> np.ndarray:
        """Coordinates of v + B in the invariant-factor decomposition, for one
        element of K or for each row of a stack."""
        q = self.p**self.M
        x = self.K.solve(v)
        if x is None:
            raise ValueError("element not in the subgroup K")
        return dot_mod(x, self.to_coords, q, q) % self.moduli()

    def moduli(self) -> np.ndarray:
        """p^e for each invariant exponent, in coordinate order."""
        return np.array([self.p**e for e in self.exps], dtype=np.int64)

    def element(self, coords) -> np.ndarray:
        """An ambient representative with the given coordinates."""
        q = self.p**self.M
        return dot_mod(np.asarray(coords) % q, self.gens, q, q)

    def invariants(self) -> list[int]:
        return [self.p**e for e in sorted(self.exps, reverse=True)]


def quotient_group(K_rows, B_rows, p: int, M: int) -> QuotientGroup:
    """Structure of span(K)/span(B) over Z/p^M (B must lie in span(K))."""
    q = p**M
    HK = howell(K_rows, p, M)
    # keep the howell rows as the working generating set of K
    Kb = HK.rows
    bcoords = HK.solve(as_matrix(B_rows))
    if bcoords is None:
        raise ValueError("B is not contained in K")
    # the relations of Kb and the coordinates of B, one column per row of Kb
    s = smith(np.vstack([row_kernel(Kb, p, M), bcoords]), p, M, want_left=False, want_right=True)
    # each column past the diagonal has exponent M
    exps = s.exps + [M] * (len(Kb) - len(s.exps))
    kept = [i for i, a in enumerate(exps) if a > 0]
    gens = dot_mod(s.Vinv[kept], Kb, q, q)
    return QuotientGroup(p, M, [exps[i] for i in kept], gens, HK, s.V[:, kept])

