"""Every public function, class and method of the package is used by the package.

A public name defined in `src/coclass` must be referenced there somewhere
other than its own definition, or be listed in ORACLES with the reason it is
kept although only the tests call it.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "coclass"

ORACLES = {
    "lattice_cohomology": "kernel-and-quotient lattice H^m, checked against lattice_invariants",
    "orbit_isomorphism_check": "orbits on H^2 against isomorphism classes of the extensions",
    "check_rho_additivity": "(1 + eps)(1 + eps') = 1 + eps + eps' on the complement",
    "check_centralizing": "the rho images centralize the pi-rho closure",
    "check_pi_rho_trivial_on_h2": "the pi-rho closure acts trivially on H^2",
    "pair_inverse": "pair inverse by finite order, for the group-action tests",
    "id_oplus_mu_inverse": "preimage of the level shift, for the round-trip tests",
    "is_coboundary": "test convenience: a class is zero",
    "at_distance": "test convenience: the vertices of a branch at one distance",
    "contains": "test convenience: membership in a Howell span",
}


def _definitions(tree):
    """(name, node) of each public module-level function or class and each
    public method of a module-level class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield item.name, item


def _references(tree) -> set[str]:
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
    return out


def test_every_public_name_is_used_by_the_package_or_is_an_oracle():
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    referenced = set().union(*(_references(t) for t in trees.values()))
    unused = sorted("%s:%s" % (fname, name)
                    for fname, tree in trees.items()
                    for name, _ in _definitions(tree)
                    if name not in referenced and name not in ORACLES)
    assert not unused, "public names that only tests reach: %s" % unused


def test_every_oracle_is_still_defined():
    trees = [ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))]
    defined = {name for tree in trees for name, _ in _definitions(tree)}
    assert set(ORACLES) <= defined, set(ORACLES) - defined
