"""Finite group extensions from 2-cocycles and their classification.

A degree-2 cocycle tau on a group R with values in a finite module A defines
the extension with multiplication (a, g)(b, h) = (a.h + b + tau(g, h), gh).
This module builds the extension table, computes its coclass together with
the lower-central criterion, and tests isomorphism of small tables.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import CoclassError, cohomology, groups
from .groups import GroupTable
from .modules import FiniteModule

EXTENSION_CAP = 512


class ExtensionError(CoclassError):
    pass


@dataclass
class ExtensionGroup:
    base: GroupTable
    fiber: FiniteModule
    table: GroupTable  # the fiber, the kernel onto the base, is indices 0 to |fiber| - 1

    @property
    def order(self) -> int:
        return self.table.order


def cocycle_value_table(A: FiniteModule, tau_hat) -> np.ndarray:
    """Plain coordinate values tau[g, h] for all pairs, zero on the identity."""
    G = A.group
    T = G.bar_index(2).tuples
    out = np.zeros((G.order, G.order, A.rank), dtype=np.int64)
    out[T[:, 0], T[:, 1]] = A.unhat(np.asarray(tau_hat, dtype=np.int64).reshape(len(T), A.rank))
    return out


def build_extension(R: GroupTable, A: FiniteModule, tau_hat) -> ExtensionGroup:
    """Validated multiplication table of the extension defined by tau."""
    if A.group is not R and A.group.order != R.order:
        raise ExtensionError("cocycle module must be an R-module")
    total = R.order * A.order
    if total > EXTENSION_CAP:
        raise ExtensionError("extension order %d exceeds the cap %d" % (total, EXTENSION_CAP))
    row = np.asarray(tau_hat, dtype=np.int64) % A.q
    if not cohomology.is_cocycle(A, 2, row):
        raise ExtensionError("cochain does not satisfy the cocycle identity")
    tau = cocycle_value_table(A, row)
    moduli = [int(m) for m in A.coord_moduli()]
    table = groups.abelian_extension_table(R.mul, moduli, A.plain, tau)
    ext = ExtensionGroup(R, A, table)
    _validate_extension(ext)
    return ext


def _validate_extension(ext: ExtensionGroup):
    """The block projection onto R is a homomorphism by construction;
    `groups.is_homomorphism` checks it on the generator edges.  The fiber
    is its kernel, hence a normal subgroup."""
    E, R = ext.table, ext.base
    if E.order != R.order * ext.fiber.order:
        raise ExtensionError("extension order mismatch")
    if not groups.is_homomorphism(E, R, np.arange(E.order) // ext.fiber.order):
        raise ExtensionError("projection to the base is not a homomorphism")


# ---------------------------------------------------------------------------
# coclass and the lower-central criterion


def coclass_of_extension(ext: ExtensionGroup, l: int | None = None) -> tuple[int, bool]:
    """(coclass of the extension, gamma_l(E) = fiber flag).

    l is a 1-based lower-central index (gamma_1(E) = E) and defaults to one
    past the nilpotency class of the base, which is the right index when the
    base is the depth-l mainline quotient.  The flag captures the
    lower-central criterion: the extension has the base's coclass exactly
    when gamma_l(E) equals the whole fiber.
    """
    if l is None:
        l = groups.nilpotency_class(ext.base) + 1
    cc = groups.coclass(ext.table)
    series = ext.table.lcs()
    gamma_l = series[l - 1] if l - 1 < len(series) else [ext.table.identity]
    flag = gamma_l == list(range(ext.fiber.order))
    base_cc = groups.coclass(ext.base)
    if ext.fiber.order > 1 and (cc == base_cc) != flag:
        raise ExtensionError(
            "coclass criterion disagreement: cc %d vs base %d, flag %s" % (cc, base_cc, flag))
    return cc, flag


# ---------------------------------------------------------------------------
# isomorphism testing for small tables


def fingerprint(G: GroupTable) -> tuple:
    """Cheap isomorphism invariants: order, spectrum, center, central series."""
    def build():
        spectrum = tuple(sorted(int(x) for x in G.element_orders()))
        lcs = tuple(len(t) for t in G.lcs())
        return (G.order, spectrum, len(groups.center(G)), lcs)
    return G.derived("fingerprint", build)


def are_isomorphic(G1: GroupTable, G2: GroupTable) -> bool:
    """Brute-force isomorphism test with invariant prefilters."""
    if G1.order != G2.order:
        return False
    if G1.order > EXTENSION_CAP:
        raise ExtensionError("isomorphism test capped at order %d" % EXTENSION_CAP)
    if fingerprint(G1) != fingerprint(G2):
        return False
    return next(groups.isomorphisms(G1, G2), None) is not None

