"""Every public function, class and method of the package is used by the package,
every dataclass field is read, and each object's private fields are read by the
module that owns them.

A public name defined in `src/coclass` must be referenced there somewhere
other than its own definition, or be listed in ORACLES with the reason it is
kept although only the tests call it; the checks only tests use live in
`tests/brute_force.py`.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "coclass"

ORACLES: dict[str, str] = {}

# fields of a QuotientModule that only `modules` reads: its Smith transforms
# and the coordinates they keep
QUOTIENT_PRIVATE = {"_V", "_Vinv", "_kept"}


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


def _dataclass_fields(tree):
    """(class, field) of each annotated field of a class decorated with
    `dataclass` or `dataclass(...)`."""
    for node in ast.walk(tree):
        decorators = [d.func if isinstance(d, ast.Call) else d
                      for d in getattr(node, "decorator_list", [])]
        if isinstance(node, ast.ClassDef) and any(
                getattr(d, "id", getattr(d, "attr", None)) == "dataclass" for d in decorators):
            for item in node.body:
                if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    yield node.name, item.target.id


def test_every_dataclass_field_is_read_by_the_package():
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    reads = {node.attr for tree in trees.values() for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    unread = sorted("%s:%s.%s" % (fname, cls, field)
                    for fname, tree in trees.items()
                    for cls, field in _dataclass_fields(tree) if field not in reads)
    assert not unread, "dataclass fields that nothing reads: %s" % unread


def test_only_modules_reads_the_smith_data_of_a_quotient():
    # outside modules.py an object may read these names only from itself, as
    # linalg.QuotientGroup reads its own
    reads = sorted("%s:%d" % (path.name, node.lineno)
                   for path in sorted(SRC.glob("*.py")) if path.name != "modules.py"
                   for node in ast.walk(ast.parse(path.read_text()))
                   if isinstance(node, ast.Attribute) and node.attr in QUOTIENT_PRIVATE
                   and not (isinstance(node.value, ast.Name) and node.value.id == "self"))
    assert not reads, "QuotientModule internals read outside modules.py: %s" % reads
