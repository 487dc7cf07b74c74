"""Branches of the descendant tree of a uniserial semidirect product, and
the shift isomorphism between branches one period apart.

Vertices of branch i are isomorphism classes of finite groups that are
descendants of the depth-i mainline quotient but not of the next one,
realized as extension classes in H^2(R, A_n) over the finite top quotient R.
Classes are identified up to compatible-pair orbits, and the branch-to-branch
shift is induced by the summand-preserving level shift on cohomology.

No vertex builds its extension table: `extensions.certify` reads the
order, the coclass flag and the element-order spectrum off the cocycle in
coordinates.  The top quotient keeps each certificate, keyed by (level,
class coordinates), so a class that two branches share is certified once.
Vertices at one level are non-isomorphic by theorem, with no search: see
`_check_orbit_isomorphism`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import CoclassError, cohomology, extensions, modules, pairs
from .scenarios import Scenario, TopQuotient

EXTENSION_CAP = 512  # the largest extension a branch may reach


class BranchError(CoclassError):
    pass


@dataclass
class BranchVertex:
    index: int
    level: int  # chain level of the fiber
    distance: int  # edge distance from the root, 0 for the root itself
    class_coords: tuple  # coordinates of the orbit representative in H^2
    orbit: int  # orbit index within its level's partition
    order: int
    mainline: bool
    parent: int | None
    spectrum: tuple  # (order, count) of the element orders of the vertex's group


@dataclass
class BranchGraph:
    """Vertices and edges of one branch.  No vertex has an extension
    table: its spectrum stands for it in the DOT label."""

    scenario: str
    i: int  # branch index: the root is the depth-i mainline quotient
    k: int  # distance cap
    root_level: int
    vertices: list[BranchVertex]
    edges: list[tuple[int, int]]  # (parent index, child index)

    @property
    def root(self) -> BranchVertex:
        return self.vertices[0]


@dataclass
class LevelData:
    n: int
    Q: modules.QuotientModule
    H: cohomology.CohomologyGroup
    partition: pairs.OrbitPartition
    mainline_coords: tuple


def _level_data(top: TopQuotient, n: int) -> LevelData:
    """The level-n orbits and mainline class, held by the top quotient."""
    def build():
        Q = top.quotient(n)
        H = cohomology.finite_cohomology(Q.module, 2)
        partition = pairs.orbits_on_h2(H, pairs.compatible_pairs(Q.module))
        lam = top.mainline_cocycle(n)
        return LevelData(n, Q, H, partition, tuple(int(x) for x in H.coords(lam)))
    return top.derived(("level", n), build)


def _vertex_extension(top: TopQuotient, lv: LevelData, coords) -> extensions.ExtensionCertificate:
    """The certificate of the extension of a class at level lv.n, held by
    the top quotient."""
    def build():
        row = lv.H.representative(np.array(coords, dtype=np.int64))
        return extensions.certify(lv.Q.module, row, top.l)
    return top.derived(("extension", lv.n, tuple(coords)), build)


def _reduced_coords(levels: dict[int, LevelData], n_from: int, n_to: int,
                    row) -> tuple:
    src, dst = levels[n_from], levels[n_to]
    red = cohomology.restrict_level(src.Q, dst.Q, row)
    return tuple(int(x) for x in dst.H.coords(red))


def build_branch(scn: Scenario, i: int, k: int = 1) -> BranchGraph:
    """Branch i of the descendant tree, shaved at distance k.

    The root is the depth-i mainline quotient, realized as the mainline
    cocycle class at level i - l.  Children at distance j are the
    compatible-pair orbits at level i - l + j whose extensions keep the
    top quotient's coclass, reduce into the root's orbit, and do not reduce
    into the next mainline class (those belong to branch i + 1).
    """
    if k < 0:
        raise BranchError("distance cap k = %d is negative" % k)
    top = scn.top()
    n0 = i - top.l
    if n0 < 1:
        raise BranchError("branch %d needs root level %d >= 1" % (i, n0))
    if n0 + k > top.chain.depth - 1:
        raise BranchError("chain depth %d cannot host level %d" % (top.chain.depth, n0 + k))
    if top.group.order * scn.p ** (n0 + k) > EXTENSION_CAP:
        raise BranchError("extensions at level %d exceed the order cap %d"
                          % (n0 + k, EXTENSION_CAP))
    for n in range(n0, n0 + k + 1):  # refuse a level's cocycles before any level is computed
        cohomology.coboundary_shape(top.group, top.quotient(n).module.rank, 2, top.group.generators)
    levels = {n: _level_data(top, n) for n in range(n0, n0 + k + 1)}
    root_lv = levels[n0]
    root_orbit = root_lv.partition.orbit_of(root_lv.mainline_coords)
    root = _vertex_extension(top, root_lv, root_lv.mainline_coords)
    if not root.flag:
        raise BranchError("mainline quotient at level %d fails the coclass criterion" % n0)
    vertices = [BranchVertex(0, n0, 0, root_lv.mainline_coords, root_orbit,
                             root.order, True, None, root.spectrum())]
    edges: list[tuple[int, int]] = []
    by_level_orbit = {(n0, root_orbit): 0}
    for j in range(1, k + 1):
        n = n0 + j
        lv = levels[n]
        main_orbit = lv.partition.orbit_of(lv.mainline_coords)
        lv1 = levels[n0 + 1]
        main_orbit_1 = lv1.partition.orbit_of(lv1.mainline_coords)
        for oi, cl in enumerate(lv.partition.classes):
            coords = cl[0]
            row = lv.H.representative(np.array(coords, dtype=np.int64))
            down = _reduced_coords(levels, n, n - 1, row)
            parent_key = (n - 1, levels[n - 1].partition.orbit_of(down))
            is_main = oi == main_orbit
            if j == 1:
                descends = parent_key == (n0, root_orbit)
            else:
                descends = parent_key in by_level_orbit
                # everything strictly below the next mainline quotient
                # belongs to the next branch; the mainline child stays
                red1 = _reduced_coords(levels, n, n0 + 1, row)
                if lv1.partition.orbit_of(red1) == main_orbit_1:
                    continue
            if not descends:
                continue
            cert = _vertex_extension(top, lv, coords)
            if not cert.flag:
                continue
            idx = len(vertices)
            parent = by_level_orbit[parent_key]
            vertices.append(BranchVertex(idx, n, j, tuple(coords), oi,
                                         cert.order, is_main, parent, cert.spectrum()))
            edges.append((parent, idx))
            by_level_orbit[(n, oi)] = idx
    _check_orbit_isomorphism(top, levels, vertices)
    return BranchGraph(scn.name, i, k, n0, vertices, edges)


def _check_orbit_isomorphism(top: TopQuotient, levels: dict[int, LevelData], vertices):
    """Distinct vertices at one level are pairwise non-isomorphic, by theorem.

    If gamma_l(E) = A for the extension E of a class c, then A is
    characteristic in E, so an isomorphism E_c -> E_c' maps A onto A and
    induces a compatible pair (beta, eps) with [c'] = [c].(beta, eps).
    `pairs.compatible_pairs` holds every automorphism beta of G with every
    invertible compatible eps, so classes in distinct orbits give
    non-isomorphic groups (Eick and O'Brien, "Enumerating p-groups", 1999).
    This checks the premises that vary by vertex: each one's certificate
    has gamma_l(E) = A, and no two vertices of a level share an orbit.
    """
    seen: dict[tuple[int, int], int] = {}
    for v in vertices:
        lv = levels[v.level]
        if not _vertex_extension(top, lv, v.class_coords).flag:
            raise BranchError("vertex %d at level %d does not have gamma_l(E) = A"
                              % (v.index, v.level))
        key = (v.level, lv.partition.orbit_of(v.class_coords))
        if key in seen:
            raise BranchError("vertices %d and %d at level %d are one orbit"
                              % (seen[key], v.index, v.level))
        seen[key] = v.index


# ---------------------------------------------------------------------------
# the branch shift


def nu_shift(scn: Scenario, src: BranchGraph,
             dst: BranchGraph | None = None) -> tuple[dict, BranchGraph]:
    """Map branch i onto the independently built branch i + period.

    Every vertex class is pushed through the level shift that fixes the
    lattice summand and multiplies the complement by p; the report,
    {"ok", "vertex_map", "failures"}, certifies that the induced vertex map
    (source index -> target index) is a bijection preserving root,
    distances, and edges.
    """
    top = scn.top()
    d = top.period
    bounds = scn.bounds()
    if src.i - top.l < bounds.v * d:
        raise BranchError("branch %d violates the shift hypothesis i - l >= %d"
                          % (src.i, bounds.v * d))
    if dst is None:
        dst = build_branch(scn, src.i + d, src.k)
    if dst.i != src.i + d or dst.k != src.k:
        raise BranchError("target branch must be built at i + period with the same k")
    failures: list[str] = []
    vmap: list[tuple[int, int]] = []
    dst_by_orbit = {(v.level, v.orbit): v.index for v in dst.vertices}
    chain = top.chain
    for v in src.vertices:
        n = v.level
        lev_n, lev_nd = cohomology.level_split(chain, n), cohomology.level_split(chain, n + d)
        row = lev_n.H.representative(np.array(v.class_coords, dtype=np.int64))
        shifted = cohomology.id_oplus_mu(lev_n, lev_nd, row)
        lv_t = _level_data(top, n + d)
        orbit = lv_t.partition.orbit_of(lv_t.H.coords(shifted))
        key = (n + d, orbit)
        if key not in dst_by_orbit:
            failures.append("vertex %d shifted outside the target branch" % v.index)
            continue
        w = dst.vertices[dst_by_orbit[key]]
        vmap.append((v.index, w.index))
        if w.distance != v.distance:
            failures.append("vertex %d changed distance %d -> %d"
                            % (v.index, v.distance, w.distance))
    mapped = dict(vmap)
    if len(mapped) != len(src.vertices) or len(set(mapped.values())) != len(dst.vertices):
        failures.append("vertex map is not a bijection (%d -> %d of %d)"
                        % (len(mapped), len(set(mapped.values())), len(dst.vertices)))
    else:
        src_edges = sorted((mapped[a], mapped[b]) for a, b in src.edges)
        if src_edges != sorted(dst.edges):
            failures.append("edges are not preserved")
        if mapped[src.root.index] != dst.root.index:
            failures.append("root does not map to the root")
    return {"ok": not failures, "vertex_map": vmap, "failures": failures}, dst


# ---------------------------------------------------------------------------
# DOT export


def _vertex_label(v: BranchVertex) -> str:
    """Involutions and exponent, read off the vertex's element-order spectrum."""
    return "order %d | inv %d | exp %d%s" % (
        v.order, dict(v.spectrum).get(2, 0), v.spectrum[-1][0],
        " | mainline" if v.mainline else "")


def export_dot(branch: BranchGraph, nu: dict | None = None) -> str:
    """Deterministic DOT text for a branch, optionally annotated with the
    shift's vertex map."""
    lines = ["digraph branch_%d {" % branch.i,
             '  rankdir=TB;',
             '  node [shape=box];']
    shift_of = dict(nu["vertex_map"]) if nu is not None else {}
    for v in branch.vertices:
        label = _vertex_label(v)
        if v.index in shift_of:
            label += " | nu -> %d" % shift_of[v.index]
        lines.append('  v%d [label="%s"];' % (v.index, label))
    for a, b in sorted(branch.edges):
        lines.append("  v%d -> v%d;" % (a, b))
    lines.append("}")
    return "\n".join(lines) + "\n"
