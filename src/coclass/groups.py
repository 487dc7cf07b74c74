"""Small finite groups as validated multiplication tables.

Everything here runs on groups of order at most a few thousand, stored as
dense numpy multiplication tables with identity at index 0.  Validation
keeps the rest of the toolkit honest: a table that passes construction
satisfies the group axioms, full stop.  Associativity is proven exactly at
every order by Light's test on a generating set, in |S| n^2 steps.

A table stores its entries in the narrowest signed type that holds every
index, `index_dtype(order)`: int16 up to order 2^15, int32 above.  NumPy
keeps that type through arithmetic (`int16_array * k` is int16), so any
arithmetic on table entries other than indexing goes through int64 first.

A scenario's group is a table or a presentation.  Presentations and split
extensions (`extensions.split_table`) reach their table through one builder,
`table_from_generators`, from the generators' right multiplications.  No
table builds its lower central series: the package reads every series in
coordinates, with `extensions.lower_central_series`.

Convention: all module actions in this package are right actions, written
v.g, and a homomorphism of tables preserves products in the given order.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import CoclassError, Owner

CLOSURE_CAP = 4096
AUT_CAP = 64


class GroupError(CoclassError):
    pass


def index_dtype(n: int) -> np.dtype:
    """The type of the entries of an order-n table: int16 while every index
    below n fits (n <= 2^15), int32 above."""
    return np.dtype(np.int16) if n <= 1 << 15 else np.dtype(np.int32)


@dataclass(eq=False)
class GroupTable(Owner):
    """A validated table; it owns its element orders, minimal generators,
    bar-complex index arrays and automorphisms, each built once.  mul holds
    `index_dtype(order)` entries; any other type is refused."""

    mul: np.ndarray  # order x order element indices
    identity: int
    inverses: np.ndarray
    generators: list[int]

    def __post_init__(self):
        if self.mul.dtype != index_dtype(self.order):
            raise GroupError("a table of order %d holds %s entries, not %s"
                             % (self.order, index_dtype(self.order), self.mul.dtype))

    @property
    def order(self) -> int:
        return self.mul.shape[0]

    def element_orders(self) -> np.ndarray:
        return self.derived("element_orders", lambda: _element_orders(self.mul, self.identity))

    def minimal_generators(self) -> list[int]:
        return self.derived("minimal_generators",
                            lambda: _minimal_generators(self.mul, self.identity))

    def bar_index(self, m: int) -> "BarIndex":
        """The normalized bar m-tuples, built once by `bar_index`."""
        return self.derived(("bar_index", m), lambda: bar_index(self, m))

    def automorphisms(self) -> list[np.ndarray]:
        """Every automorphism, found once by `automorphism_group`."""
        return self.derived("automorphisms", lambda: automorphism_group(self))


@dataclass(eq=False)
class BarIndex:
    """The nonidentity m-tuples in itertools.product order, one per block of a
    normalized bar m-cochain.  pos is an element's place among the nonidentity
    elements (-1 for the identity) and radix the mixed-radix place values."""

    tuples: np.ndarray  # (s, m) element indices, s = (|G| - 1)^m
    pos: np.ndarray
    radix: np.ndarray

    def index(self, T: np.ndarray) -> np.ndarray:
        """Positions in `tuples` of the rows of T, none of which holds the identity."""
        return self.pos[T] @ self.radix


def bar_index(G: GroupTable, m: int) -> BarIndex:
    nonid = np.flatnonzero(np.arange(G.order) != G.identity)
    s = nonid.size
    pos = np.full(G.order, -1, dtype=np.int64)
    pos[nonid] = np.arange(s)
    places = np.indices((s,) * m, dtype=np.int64).reshape(m, s**m).T
    return BarIndex(nonid[places], pos, s ** np.arange(m - 1, -1, -1, dtype=np.int64))


def _element_orders(mul: np.ndarray, identity: int) -> np.ndarray:
    """Every element's order, one prime at a time.  For p^e exactly dividing
    n = |G|, the order of x^(n/p^e) is the p-part of the order of x, read off
    by raising to the p-th power until the identity."""
    n = mul.shape[0]
    out = np.ones(n, dtype=np.int64)
    for p, e in _factorization(n).items():
        x = _powers(mul, np.arange(n), n // p**e)
        while (moved := x != identity).any():
            out[moved] *= p
            x = _powers(mul, x, p)
    return out


def _powers(mul: np.ndarray, x: np.ndarray, k: int) -> np.ndarray:
    """x^k for an array of elements and k >= 1, by square-and-multiply."""
    out = None
    while True:
        if k & 1:
            out = x if out is None else mul[out, x]
        k >>= 1
        if not k:
            return out
        x = mul[x, x]


def _validate_table(mul: np.ndarray, identity: int) -> np.ndarray:
    """Range, identity and inverses, checked in `_row_blocks` blocks so that
    no n x n temporary is made; returns the inverse of each element."""
    n = mul.shape[0]
    if mul.shape != (n, n):
        raise GroupError("multiplication table must be square")
    inverses = np.empty(n, dtype=np.int64)
    unique = np.empty(n, dtype=bool)  # exactly one right inverse in the row
    x0 = 0
    for block in _row_blocks(mul):
        if np.any(block < 0) or np.any(block >= n):
            raise GroupError("table entries out of range")
        hits = block == identity
        inverses[x0:x0 + len(block)] = np.argmax(hits, axis=1)
        unique[x0:x0 + len(block)] = np.count_nonzero(hits, axis=1) == 1
        x0 += len(block)
    if not np.array_equal(mul[identity], np.arange(n)):
        raise GroupError("identity is not a left identity")
    if not np.array_equal(mul[:, identity], np.arange(n)):
        raise GroupError("identity is not a right identity")
    lacking = ~unique | (mul[inverses, np.arange(n)] != identity)
    if lacking.any():
        raise GroupError("element %d lacks a two-sided inverse" % np.argmax(lacking))
    return inverses


def _row_blocks(mul: np.ndarray):
    """Row blocks of an n x n table, each at most 2^13 entries (16 KiB of
    int16 entries), so the temporaries of a check stay in cache."""
    n = mul.shape[0]
    rows = max(1, (1 << 13) // n)
    return (mul[x0:x0 + rows] for x0 in range(0, n, rows))


def _check_edges(mul: np.ndarray, right, message: str) -> None:
    """(yx)s = y(xs) on every generator edge, where right[s, x] is x.s.

    With right[s] = mul[:, s] this is Light's associativity test with s on
    the right.  The set A = {a : (yx)a = y(xa) for all x, y} holds the
    identity and is closed under the product: for a, b in A,
    (yx)(ab) = ((yx)a)b = (y(xa))b = y((xa)b) = y(x(ab)).
    Right multiplication by the generators reaches every element from the
    identity, so A is the whole table once it holds them.
    """
    for r in right:
        for block in _row_blocks(mul):
            if not np.array_equal(block.take(r, axis=1), r.take(block)):
                raise GroupError(message)


def _checked_generators(generators, n: int) -> list[int]:
    gens = list(generators)
    for g in gens:
        if isinstance(g, bool) or not isinstance(g, (int, np.integer)) or not 0 <= g < n:
            raise GroupError("generator %r is not an element index in [0, %d)" % (g, n))
    return [int(g) for g in gens]


def make_table(mul, generators: list[int] | None = None) -> GroupTable:
    """Validate a raw multiplication table (identity must be index 0).

    Range, identity and inverses are checked at the integer type the table
    was given, so an entry that would wrap to a valid index in the narrow
    type is still refused; only then is it stored as `index_dtype`."""
    mul = np.asarray(mul)
    if mul.dtype.kind not in "iu":
        mul = mul.astype(np.int64)
    identity = 0
    inverses = _validate_table(mul, identity)
    mul = mul.astype(index_dtype(mul.shape[0]), copy=False)
    table = GroupTable(mul, identity, inverses, [])
    if generators is None:
        table.generators = table.minimal_generators()
    else:
        table.generators = _checked_generators(generators, table.order)
        if len(subgroup_closure_table(mul, identity, table.generators)) != table.order:
            raise GroupError("given generators do not generate the table")
    _check_edges(mul, mul[:, table.generators].T, "table is not associative")
    return table


def closure(seeds, gens, step, key=None) -> dict:
    """Everything reached from the seeds by repeated step(x, g), g in gens.

    Returns {key(x): x} in breadth-first order, seeds first; each key keeps
    the first value that reached it.
    """
    key = key or (lambda x: x)
    gens = list(gens)
    found = {}
    for x in seeds:
        found.setdefault(key(x), x)
    frontier = list(found.values())
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = step(x, g)
                k = key(y)
                if k not in found:
                    found[k] = y
                    nxt.append(y)
        frontier = nxt
    return found


def table_from_generators(right) -> GroupTable:
    """The table of the group generated by the permutations right[s], where
    right[s, x] is the index of x.s and the identity is 0, so generator s is
    the element right[s, 0].  Column x.s is right[s] applied to column x, as
    y(xs) = (yx)s, filled along a breadth-first tree; then (yx)s = y(xs) on
    every generator edge proves that the table agrees with right and, by
    Light's argument with s on the right, that it is associative.
    """
    right = np.asarray(right, dtype=np.int64)
    n = right.shape[1]
    mul = np.empty((n, n), dtype=index_dtype(n))
    mul[:, 0] = np.arange(n)
    filled = np.zeros(n, dtype=bool)
    filled[0] = True

    def step(x: int, s: int) -> int:
        y = int(right[s, x])
        if not filled[y]:
            mul[:, y] = right[s][mul[:, x]]
            filled[y] = True
        return y

    if len(closure([0], range(len(right)), step)) != n:
        raise GroupError("generators do not reach every element")
    _check_edges(mul, right, "generator permutations disagree with the table")
    return GroupTable(mul, 0, _validate_table(mul, 0), right[:, 0].tolist())


# ---------------------------------------------------------------------------
# presentations


def _parse_word(word: str, gen_names: list[str]) -> list[tuple[int, int]]:
    """Parse 'a^-1 b a^3' into (signed generator index, exponent) powers, the
    index 1-based and negative for an inverse."""
    powers: list[tuple[int, int]] = []
    for tok in word.replace("*", " ").split():
        if "^" in tok:
            name, expo = tok.split("^")
            e = int(expo)
        else:
            name, e = tok, 1
        if name not in gen_names:
            raise GroupError("unknown generator %r in word %r" % (name, word))
        idx = gen_names.index(name) + 1
        powers.append((idx if e > 0 else -idx, abs(e)))
    return powers


def from_presentation(gen_names: list[str], relator_words: list[str]) -> GroupTable:
    """Finite group from a presentation via coset enumeration over the trivial
    subgroup.  Relators longer in all than the coset-table cap of
    4 * CLOSURE_CAP letters are refused before they are expanded, and an
    order above CLOSURE_CAP before the table is built."""
    words = [_parse_word(w, gen_names) for w in relator_words]
    length = 0
    for word, powers in zip(relator_words, words):
        length += sum(e for _, e in powers)
        if length > 4 * CLOSURE_CAP:
            raise GroupError("relator %r takes the relators past %d letters, the coset-table cap"
                             % (word, 4 * CLOSURE_CAP))
    relators = [[s for s, e in powers for _ in range(e)] for powers in words]
    ngens = len(gen_names)
    cols = 2 * ngens  # generator g -> column 2(g-1), inverse -> 2(g-1)+1

    def col(s: int) -> int:
        return 2 * (abs(s) - 1) + (0 if s > 0 else 1)

    def invcol(c: int) -> int:
        return c ^ 1

    table: list[list[int]] = [[-1] * cols]
    reps: list[int] = [0]  # union-find for coincidences

    def find(x: int) -> int:
        while reps[x] != x:
            reps[x] = reps[reps[x]]
            x = reps[x]
        return x

    pending: list[tuple[int, int]] = []

    def merge(a: int, b: int):
        a, b = find(a), find(b)
        if a == b:
            return
        if a > b:
            a, b = b, a
        reps[b] = a
        for c in range(cols):
            if table[b][c] != -1:
                pending.append((b, c))

    def deduce(a: int, c: int, b: int):
        a, b = find(a), find(b)
        ta, tb = table[a][c], table[b][invcol(c)]
        if ta != -1 and find(ta) != b:
            merge(ta, b)
        if tb != -1 and find(tb) != a:
            merge(tb, a)
        table[a][c] = b
        table[b][invcol(c)] = a

    def define(a: int, c: int) -> int:
        if len(table) >= CLOSURE_CAP * 4:
            raise GroupError("coset enumeration exceeded cap")
        table.append([-1] * cols)
        reps.append(len(table) - 1)
        b = len(table) - 1
        deduce(a, c, b)
        return b

    def trace(start: int, word: list[int], fill: bool) -> int | None:
        x = find(start)
        for s in word:
            c = col(s)
            x = find(x)
            nxt = table[x][c]
            if nxt == -1:
                if not fill:
                    return None
                nxt = define(x, c)
            x = find(nxt)
        return x

    # HLT main loop
    i = 0
    while i < len(table):
        if find(i) != i:
            i += 1
            continue
        for rel in relators:
            end = trace(i, rel, True)
            merge(end, i)
            while pending:
                b, c = pending.pop()
                tgt = table[b][c]
                table[b][c] = -1
                if tgt != -1:
                    deduce(find(b), c, find(tgt))
        for c in range(cols):
            if find(i) == i and table[i][c] == -1:
                define(i, c)
        i += 1
    # cosets of the trivial subgroup are the elements, coset 0 the identity;
    # they are numbered breadth first, as closing their permutations would
    order = list(closure([0], range(ngens), lambda x, g: find(table[x][2 * g])))
    if len(order) > CLOSURE_CAP:
        raise GroupError("group of order %d exceeds the table cap %d" % (len(order), CLOSURE_CAP))
    index = {x: k for k, x in enumerate(order)}
    right = [[index[find(table[x][2 * g])] for x in order] for g in range(ngens)]
    return table_from_generators(np.array(right, dtype=np.int64).reshape(ngens, len(order)))


def build_group(spec) -> GroupTable:
    """Build and validate a group from a scenario's group spec: a dict with
    "table" (and optional "generators"), or "presentation" with "generators"
    and "relators"."""
    if isinstance(spec, dict) and "table" in spec:
        return make_table(spec["table"], generators=spec.get("generators"))
    if isinstance(spec, dict) and "presentation" in spec:
        pres = spec["presentation"]
        return from_presentation(list(pres["generators"]), list(pres["relators"]))
    raise GroupError("group spec must contain table or presentation")


# ---------------------------------------------------------------------------
# subgroups and orders


def subgroup_closure_table(mul: np.ndarray, identity: int, gens) -> list[int]:
    return sorted(closure([identity], gens, lambda x, g: int(mul[x, g])))


def restricted_table(G: GroupTable, elems) -> tuple[GroupTable, list[int]]:
    """Multiplication table of a subgroup on its own indices.

    elems must be closed under the product.  Returns (table, elements) with
    the ambient identity first, so table index i names ambient elements[i].
    """
    rest = sorted(set(int(e) for e in elems) - {G.identity})
    elements = [G.identity] + rest
    idx = np.full(G.order, -1, dtype=index_dtype(len(elements)))
    idx[elements] = np.arange(len(elements))
    mul = idx[G.mul[np.ix_(elements, elements)]]
    if np.any(mul < 0):
        raise GroupError("element set is not closed under multiplication")
    return make_table(mul), elements


def _factorization(n: int) -> dict[int, int]:
    """{p: e} for each prime power p^e exactly dividing n."""
    out, p = {}, 2
    while n > 1:
        while n % p == 0:
            n //= p
            out[p] = out.get(p, 0) + 1
        p += 1
    return out


def order_coclass(order: int, cls: int) -> int:
    """n - c for a p-group of order p^n and nilpotency class c."""
    if order == 1:
        return 0
    exps = list(_factorization(order).values())
    if len(exps) != 1:
        raise GroupError("order %d is not a prime power" % order)
    return exps[0] - cls


# ---------------------------------------------------------------------------
# automorphisms


def _minimal_generators(mul: np.ndarray, identity: int) -> list[int]:
    n = mul.shape[0]
    gens: list[int] = []
    reached = {identity}
    # deterministic greedy: always extend by the smallest element not yet reached
    while len(reached) < n:
        gens.append(next(x for x in range(n) if x not in reached))
        reached = set(subgroup_closure_table(mul, identity, gens))
    return gens


def _extend_hom(G: GroupTable, H: GroupTable, gen_src: list[int], gen_img: list[int]):
    """Extend generator images to a homomorphism G -> H, or return None.

    Every element of G is reached as a product of generators; images follow
    the same words, and a conflict kills the candidate.  Every edge x -> xs
    is checked, so img(xs) = img(x)t for each generator s with image t, and
    img(xy) = img(x)img(y) follows by induction on the length of y as a
    word in the generators: img(x(ys)) = img((xy)s) = img(xy)t
    = img(x)img(y)t = img(x)img(ys).
    """
    img = np.full(G.order, -1, dtype=np.int64)
    img[G.identity] = H.identity
    frontier = [G.identity]
    while frontier:
        nxt = []
        for x in frontier:
            for s, t in zip(gen_src, gen_img):
                y = int(G.mul[x, s])
                iy = int(H.mul[img[x], t])
                if img[y] == -1:
                    img[y] = iy
                    nxt.append(y)
                elif img[y] != iy:
                    return None
        frontier = nxt
    if np.any(img == -1):
        return None
    return img


def is_homomorphism(G: GroupTable, H: GroupTable, img) -> bool:
    """Whether x -> img[x] is a homomorphism G -> H, checked on the identity
    and on every generator edge x -> xs.  Then the y with img(xy) =
    img(x)img(y) for every x hold the identity and are closed under right
    multiplication by the generators: img(x(ys)) = img(xy)img(s) = img(x)img(ys)."""
    img = np.asarray(img, dtype=np.int64)
    if img.shape != (G.order,) or not np.all((img >= 0) & (img < H.order)):
        return False
    S = G.generators
    return bool(img[G.identity] == H.identity
                and np.array_equal(img[G.mul[:, S]], H.mul[img[:, None], img[S]]))


def isomorphisms(G: GroupTable, H: GroupTable):
    """Yield every isomorphism G -> H as an index map, by generator-image
    search: each minimal generator of G goes to an element of H of its order."""
    if G.order != H.order:
        return
    gens = G.minimal_generators()
    og, oh = G.element_orders(), H.element_orders()
    candidates = [np.flatnonzero(oh == og[g]).tolist() for g in gens]
    for images in itertools.product(*candidates):
        img = _extend_hom(G, H, gens, list(images))
        if img is not None and np.bincount(img, minlength=G.order).all():
            yield img


def automorphism_group(G: GroupTable) -> list[np.ndarray]:
    """All automorphisms as index permutations, for groups up to order AUT_CAP."""
    if G.order > AUT_CAP:
        raise GroupError("automorphism search capped at order %d" % AUT_CAP)
    return list(isomorphisms(G, G))


def invert_perm(a: np.ndarray) -> np.ndarray:
    out = np.empty_like(a)
    out[a] = np.arange(len(a))
    return out


# ---------------------------------------------------------------------------
# coordinate rows of abelian fibers


def mixed_radix_index(coords: np.ndarray, moduli: list[int]) -> np.ndarray:
    """Index of coordinate rows in lexicographic mixed-radix order."""
    idx = np.zeros(coords.shape[:-1], dtype=np.int64)
    for j, m in enumerate(moduli):
        idx = idx * m + (coords[..., j] % m)
    return idx


def all_coord_rows(moduli: list[int]) -> np.ndarray:
    """All coordinate vectors in mixed-radix index order, one per row."""
    total = 1
    for m in moduli:
        total *= m
    out = np.zeros((total, len(moduli)), dtype=np.int64)
    rep = total
    for j, m in enumerate(moduli):
        rep //= m
        out[:, j] = np.tile(np.repeat(np.arange(m), rep), total // (rep * m))
    return out
