"""Every function and method of the package is entered by some command-line
run, every public name is used by the package, every parameter is read and
every dataclass field is read, `linalg` forms every matrix product, and
every report is the dict its builder returns.

`test_every_function_is_entered_by_a_cli_run` runs the subcommands in process
under `sys.setprofile` and fails on any function or method of `src/coclass`
that none of them enters, unless NOT_ENTERED names it with the reason it is
kept; the checks only tests use live in `tests/brute_force.py`.  It also
fails when a report of these runs holds a JSON number.  A public name
must also be referenced in `src/coclass` other than at its own definition, so
a class that nothing builds is caught too.
"""

import ast
import contextlib
import io
import json
import sys
from pathlib import Path

from coclass import cli, scenarios

SRC = Path(__file__).resolve().parent.parent / "src" / "coclass"
DATA = Path(__file__).resolve().parent / "data"

# functions and methods, as module.name or module.Class.name, that no run of
# `_cli_runs` enters, with the reason each is kept
NOT_ENTERED: dict[str, str] = {
    "modules.LatticeModule.ctx":
        "read only by perfbench/tracer.py, which keys lattice inputs by T.ctx.N",
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
    kept = {name.rsplit(".", 1)[-1] for name in NOT_ENTERED}
    unused = sorted("%s:%s" % (fname, name)
                    for fname, tree in trees.items()
                    for name, _ in _definitions(tree)
                    if name not in referenced and name not in kept)
    assert not unused, "public names that only tests reach: %s" % unused


def _functions():
    """(file, module.name or module.Class.name, first lines) of each function
    of a module and each method of a module-level class.  A code object's
    first line is its first decorator's, if it has one, and else its def's."""
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef):
                owned = [("", node)]
            elif isinstance(node, ast.ClassDef):
                owned = [(node.name + ".", item) for item in node.body
                         if isinstance(item, ast.FunctionDef)]
            else:
                continue
            for prefix, fn in owned:
                firsts = {fn.lineno} | {d.lineno for d in fn.decorator_list}
                yield path, "%s.%s%s" % (path.stem, prefix, fn.name), firsts


def test_every_oracle_is_still_defined():
    defined = {name for _, name, _ in _functions()}
    assert set(NOT_ENTERED) <= defined, set(NOT_ENTERED) - defined


def _cli_runs(tmp: Path) -> list[tuple[list[str], int]]:
    """Each subcommand on the built-in scenarios and the C3 file, and a group
    given as a table (the built-ins give presentations), with the exit code
    it must end with."""
    def write(name, data):
        (tmp / name).write_text(json.dumps(data))
        return str(tmp / name)

    D = "dihedral_mainline"
    runs = [(["run-all", "--scenario", s], 0)
            for s in (D, "d8_gaussian", str(DATA / "c3_eisenstein.json"))]
    runs.append((["branch", "--scenario", D, "--i", "5", "--k", "2", "--shift",
                  "--dot", str(tmp / "b.dot")], 0))
    for i, cocycle in enumerate(({"level": 1, "mainline": True}, {"level": 1, "coords": [1, 0, 1]},
                                 {"level": 1, "row": [0] * 9})):
        runs.append((["extend", "--scenario", D, "--cocycle", write("c%d.json" % i, cocycle)], 0))
    runs += [(["orbits", "--scenario", D, "--n", "2"], 0),
             (["correspondence", "--scenario", D], 0),
             (["verify-counterexample", "--scenario", D], 1),  # no witness on dihedral
             (["verify-lcs", "--scenario", D], 0)]
    runs += [(["cohomology", "--scenario", D, "--n", "2", "--degree", str(m)], 0)
             for m in range(4)]
    table = {"table": [[0, 1], [1, 0]], "generators": [1]}
    data = dict(scenarios.BUILTIN_SCENARIOS[D], group=table)
    runs.append((["cohomology", "--scenario", write("s.json", data), "--n", "1"], 0))
    return runs


def test_every_function_is_entered_by_a_cli_run(tmp_path):
    entered = set()  # (file, first line) of each code object called

    def profile(frame, event, arg):
        if event == "call":
            entered.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    def number(text):
        raise AssertionError("%s printed the JSON number %s" % (" ".join(argv), text))

    previous = sys.getprofile()
    for argv, code in _cli_runs(tmp_path):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            sys.setprofile(profile)
            try:
                got = cli.main(argv)
            finally:
                sys.setprofile(previous)
        assert got == code, argv
        # every number of a report is printed as a decimal string
        json.loads(out.getvalue(), parse_int=number, parse_float=number, parse_constant=number)
    lines: dict[Path, set[int]] = {}
    for filename, line in entered:
        lines.setdefault(Path(filename).resolve(), set()).add(line)
    missed = [name for path, name, firsts in _functions()
              if not firsts & lines.get(path, set()) and name not in NOT_ENTERED]
    assert not missed, "functions that no command-line run enters: %s" % missed


def _dataclasses(tree):
    """(name, node) of each class decorated with `dataclass` or
    `dataclass(...)`."""
    for node in ast.walk(tree):
        decorators = [d.func if isinstance(d, ast.Call) else d
                      for d in getattr(node, "decorator_list", [])]
        if isinstance(node, ast.ClassDef) and any(
                getattr(d, "id", getattr(d, "attr", None)) == "dataclass" for d in decorators):
            yield node.name, node


def _dataclass_fields(tree):
    """(class, field) of each annotated field of a dataclass."""
    for name, node in _dataclasses(tree):
        for item in node.body:
            if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                yield name, item.target.id


def test_every_dataclass_field_is_read_by_the_package():
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    reads = {node.attr for tree in trees.values() for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    unread = sorted("%s:%s.%s" % (fname, cls, field)
                    for fname, tree in trees.items()
                    for cls, field in _dataclass_fields(tree) if field not in reads)
    assert not unread, "dataclass fields that nothing reads: %s" % unread


def test_every_parameter_is_read():
    # each parameter of a function, method or lambda is named in its own
    # body, nested functions included
    unread = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, (ast.FunctionDef, ast.Lambda)):
                continue
            a = node.args
            body = node.body if isinstance(node.body, list) else [node.body]
            named = {n.id for stmt in body for n in ast.walk(stmt) if isinstance(n, ast.Name)}
            unread += ["%s:%d %s" % (path.name, node.lineno, arg.arg)
                       for arg in a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg]
                       if arg is not None and arg.arg not in named]
    assert not unread, "parameters that their function never reads: %s" % unread


# functions outside linalg.py, as module.name or module.Class.name, whose `@`
# is not a product of ring elements, with the reason each is kept
MATMUL_OUTSIDE_LINALG: dict[str, str] = {
    "groups.BarIndex.index": "multiplies table indices by their radix, not ring elements",
}


def _matmul_owners(tree, prefix):
    """The qualified name of the function around each `@` in a module."""
    def walk(node, name):
        for child in ast.iter_child_nodes(node):
            inner = name
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                inner = "%s.%s" % (name, child.name)
            if isinstance(child, ast.BinOp) and isinstance(child.op, ast.MatMult):
                yield name, child.lineno
            yield from walk(child, inner)
    yield from walk(tree, prefix)


def test_every_matrix_product_is_formed_by_linalg():
    # one ring rule: a product of ring elements outside linalg goes through
    # linalg.dot_mod, which picks int64 or Python ints by its bound
    found = sorted((name, line)
                   for path in sorted(SRC.glob("*.py")) if path.name != "linalg.py"
                   for name, line in _matmul_owners(ast.parse(path.read_text()), path.stem))
    assert [name for name, _ in found] == sorted(MATMUL_OUTSIDE_LINALG), found


def test_every_report_is_the_dict_its_builder_returns():
    # one report path: a report is the dict returned by the function that
    # computes its numbers, and `cli._emit` renders it; no report class or
    # `as_dict` copies its keys a second time
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        found += ["%s:%d def as_dict" % (path.name, node.lineno) for node in ast.walk(tree)
                  if isinstance(node, ast.FunctionDef) and node.name == "as_dict"]
        found += ["%s:%d class %s" % (path.name, node.lineno, cls)
                  for cls, node in _dataclasses(tree) if cls.endswith("Report")]
    assert not found, "report classes beside the report dicts: %s" % found
