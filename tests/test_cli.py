import collections
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import coclass
from coclass import cli, cohomology, extensions, groups, modules, pairs, scenarios

from brute_force import table_class

DATA = Path(__file__).resolve().parent / "data"


def run(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, out


def test_no_arguments_is_a_usage_error(capsys):
    code = cli.main([])
    assert code == 2


def test_unknown_scenario_is_a_usage_error(capsys):
    code = cli.main(["cohomology", "--scenario", "no_such_thing", "--n", "1"])
    assert code == 2


def test_cohomology_json(capsys):
    code, out = run(["cohomology", "--scenario", "dihedral_mainline",
                     "--n", "2", "--degree", "2"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["invariants"] == ["2"]
    assert data["stable"] is True
    # all numerics are decimal strings
    assert isinstance(data["order"], str)


def test_emit_renders_each_integer_as_a_decimal_string(capsys):
    table = groups.make_table([[0, 1], [1, 0]]).mul  # np.int16 entries
    assert table.dtype == np.int16
    cli._emit({
        "int": 7, "big": 2**70, "int64": np.int64(-3), "table": table,
        "entry": table[0, 1], "nested": (1, (2, (np.int16(3),)), []),
        "array": np.arange(3), "flags": [True, False, np.bool_(True), np.bool_(False)],
        "mask": np.array([True, False]), "none": None, "text": "7", "dict": {"k": (np.int64(5),)},
    }, None)
    data = json.loads(capsys.readouterr().out)
    assert data == {
        "int": "7", "big": str(2**70), "int64": "-3", "table": [["0", "1"], ["1", "0"]],
        "entry": "1", "nested": ["1", ["2", ["3"]], []],
        "array": ["0", "1", "2"], "flags": [True, False, True, False],
        "mask": [True, False], "none": None, "text": "7", "dict": {"k": ["5"]},
    }
    # True == 1 in Python, so the types are checked too: booleans stay booleans
    assert [type(x) for x in data["flags"] + data["mask"]] == [bool] * 6


def test_identical_invocations_are_byte_identical(capsys):
    _, out1 = run(["orbits", "--scenario", "dihedral_mainline", "--n", "3"], capsys)
    _, out2 = run(["orbits", "--scenario", "dihedral_mainline", "--n", "3"], capsys)
    assert out1 == out2
    data = json.loads(out1)
    assert data["orbit_count"] == "2"


def test_correspondence_exit_codes(capsys):
    code, out = run(["correspondence", "--scenario", "dihedral_mainline"], capsys)
    assert code == 0
    assert json.loads(out)["ok"] is True
    code, out = run(["correspondence", "--scenario", "dihedral_mainline",
                     "--n", "0"], capsys)
    assert code == 1
    assert json.loads(out)["qualified"] is False


def test_a_non_equivariant_generator_is_reported_in_strings(monkeypatch, capsys):
    # the first pair of the first generator stack gets a partner at n + d
    # that moves every cochain by one more nonzero class, so that generator
    # pair is no longer equivariant; the partner stack is a copy, which the
    # action recognises by identity
    partners = []

    def generator_pairs(T, Q_n, Q_nd, data, _fn=pairs.generator_pairs):
        gens = _fn(T, Q_n, Q_nd, data)
        kind, beta, eps_n, eps_nd = gens[0]
        partners.append(eps_nd.copy())
        return [(kind, beta, eps_n, partners[0])] + gens[1:]

    def act(H, beta, eps_hats, rows, _fn=pairs.act_on_cochains):
        moved = _fn(H, beta, eps_hats, rows)
        if partners and eps_hats is partners[0]:
            first = np.eye(1, len(H.structure.exps), dtype=np.int64)[0]
            moved[0] = (moved[0] + H.representative(first)) % H.module.q
        return moved
    monkeypatch.setattr(pairs, "generator_pairs", generator_pairs)
    monkeypatch.setattr(pairs, "act_on_cochains", act)
    code, out = run(["correspondence", "--scenario", "dihedral_mainline"], capsys)
    assert code == 1
    data = json.loads(out)
    assert data["equivariant"] is False
    witness = data["witness"]
    assert witness["lhs"] != witness["rhs"]
    values = [witness["kind"]] + witness["tau_coords"] + witness["lhs"] + witness["rhs"]
    assert all(isinstance(x, str) for x in values), witness


def test_extend_mainline(tmp_path, capsys):
    cfile = tmp_path / "c.json"
    cfile.write_text(json.dumps({"level": 1, "mainline": True}))
    code, out = run(["extend", "--scenario", "dihedral_mainline",
                     "--cocycle", str(cfile)], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["order"] == "8"
    assert data["coclass"] == "1"
    assert data["has_top_coclass"] is True


def test_extend_coords(tmp_path, capsys):
    cfile = tmp_path / "c.json"
    cfile.write_text(json.dumps({"level": 1, "coords": [0, 0, 0]}))
    code, out = run(["extend", "--scenario", "dihedral_mainline",
                     "--cocycle", str(cfile)], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["order"] == "8"
    assert data["has_top_coclass"] is False  # the split extension is D4 x C2


@pytest.mark.parametrize("scenario", ["dihedral_mainline", "d8_gaussian",
                                      str(DATA / "c3_eisenstein.json")],
                         ids=["dihedral_mainline", "d8_gaussian", "c3_eisenstein"])
@pytest.mark.parametrize("form", ["coords", "row"])
def test_extend_at_level_0_certifies_the_top_quotient(tmp_path, capsys, scenario, form):
    # A_0 is zero, so the only extension at level 0 is the top quotient itself
    cfile = tmp_path / "c.json"
    cfile.write_text(json.dumps({"level": 0, form: []}))
    code, out = run(["extend", "--scenario", scenario, "--cocycle", str(cfile)], capsys)
    assert code == 0
    data = json.loads(out)
    top = scenarios.load_scenario(scenario).top()
    assert data["order"] == str(top.group.order)
    assert data["nilpotency_class"] == str(table_class(top.group))
    assert data["has_top_coclass"] is True


def test_extend_bad_file(tmp_path, capsys):
    cfile = tmp_path / "c.json"
    cfile.write_text(json.dumps({"coords": [0]}))
    code = cli.main(["extend", "--scenario", "dihedral_mainline",
                     "--cocycle", str(cfile)])
    assert code == 2


@pytest.mark.parametrize("cocycle", [
    {"level": "x", "mainline": True},
    {"level": 0, "mainline": True},
    {"level": -1, "mainline": True},
    {"level": 3, "coords": ["a"]},
    {"level": 3, "coords": [1, 0, 1, 0, 1]},
    {"level": 3, "row": [1, 2]},
    {"level": 3, "row": "ab"},
    [{"level": 3, "mainline": True}],
])
def test_malformed_cocycle_is_a_one_line_error(tmp_path, capsys, cocycle):
    cfile = tmp_path / "c.json"
    cfile.write_text(json.dumps(cocycle))
    code = cli.main(["extend", "--scenario", "dihedral_mainline", "--cocycle", str(cfile)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["cohomology", "orbits", "correspondence"])
def test_a_negative_level_is_a_usage_error(capsys, command):
    code = cli.main([command, "--scenario", "d8_gaussian", "--n", "-1"])
    out, err = capsys.readouterr()
    assert (code, out, err) == (2, "", "error: chain level -1 is negative\n")


def test_oversized_coboundary_is_a_one_line_error(tmp_path, capsys):
    # level 2 of the order-32 top group of d8 needs a 1922 x 59582 bar coboundary
    cfile = tmp_path / "c.json"
    cfile.write_text(json.dumps({"level": 2, "mainline": True}))
    code = cli.main(["extend", "--scenario", "d8_gaussian", "--cocycle", str(cfile)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: coboundary d^2") and err.count("\n") == 1


def test_oversized_extension_table_is_refused_before_it_is_allocated(tmp_path, capsys):
    # at depth 17 the lower central series check reaches split quotients of
    # order 8192 to 131072, which it reads in coordinates, with no table
    data = dict(scenarios.BUILTIN_SCENARIOS["dihedral_mainline"], depth=17, precision=20)
    path = tmp_path / "deep.json"
    path.write_text(json.dumps(data))
    code, out = run(["verify-lcs", "--scenario", str(path), "--max-order", "200000"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["ok"] is True and report["quotient_orders"][-1] == "131072"
    # where a split table is still built, an order above the cap is refused
    # before it is allocated: 8192^2 int16 entries would be 128 MiB
    C2 = groups.make_table([[0, 1], [1, 0]])
    A = modules.finite_module_from_plain(C2, 2, [12], [[[1]], [[-1]]])
    with pytest.raises(groups.GroupError) as exc:
        extensions.split_table(A)
    assert str(exc.value) == "extension of order 8192 exceeds the table cap %d" % groups.CLOSURE_CAP


_BELOW_FIRST = ("--max-order %d is below %d, the order of the first quotient of %s deep enough "
                "to test the identification")
_BELOW_COCLASS = ("--max-order %d is below %d, the order of the first quotient of %s deep enough "
                  "to check the coclass")


@pytest.mark.parametrize("command", ["verify-lcs", "run-all"])
@pytest.mark.parametrize("scenario, max_order, reason", [
    pytest.param("dihedral_mainline", "0", "--max-order must be positive, not 0", id="0"),
    pytest.param("dihedral_mainline", "-4", "--max-order must be positive, not -4", id="-4"),
    # the first quotient deep enough, G0 x (T / T_(top_offset + 1)), has
    # order 2 * 2^2 for dihedral and 8 * 2^3 for d8, read off the chain
    pytest.param("dihedral_mainline", "4", _BELOW_FIRST % (4, 8, "dihedral_mainline"),
                 id="dihedral_mainline-4"),
    pytest.param("d8_gaussian", "32", _BELOW_FIRST % (32, 64, "d8_gaussian"),
                 id="d8_gaussian-32"),
    # the first quotient whose coclass is checked, at m = top_offset + period,
    # has order 8 * 2^4 for d8 and 3 * 3^4 for C3
    pytest.param("d8_gaussian", "64", _BELOW_COCLASS % (64, 128, "d8_gaussian"),
                 id="d8_gaussian-64"),
    pytest.param(str(DATA / "c3_eisenstein.json"), "81",
                 _BELOW_COCLASS % (81, 243, "c3_eisenstein"), id="c3_eisenstein-81"),
])
def test_a_max_order_below_one_is_a_usage_error(capsys, command, scenario, max_order, reason):
    # below the first quotient deep enough no claim would be checked
    code = cli.main([command, "--scenario", scenario, "--max-order", max_order])
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert err == "error: %s\n" % reason


def test_a_chain_too_shallow_for_the_identification_still_fails_the_check(tmp_path, capsys):
    # at depth 1 there is no T_2 to size the first quotient deep enough by,
    # so the report, and not the option check, says that none was tested
    path = tmp_path / "shallow.json"
    path.write_text(json.dumps(dict(scenarios.BUILTIN_SCENARIOS["dihedral_mainline"], depth=1)))
    code, out = run(["verify-lcs", "--scenario", str(path), "--max-order", "4"], capsys)
    assert code == 1
    assert "no quotient deep enough to test the identification" in json.loads(out)["failures"]


def test_branch_with_shift_and_dot(tmp_path, capsys):
    dot = tmp_path / "b.dot"
    code, out = run(["branch", "--scenario", "dihedral_mainline", "--i", "3",
                     "--shift", "--dot", str(dot)], capsys)
    assert code == 0
    data = json.loads(out)
    assert len(data["branch"]["vertices"]) == 4
    assert data["shift"]["ok"] is True
    text = dot.read_text()
    assert text.startswith("digraph") and "v0 -> v1;" in text


def test_verify_lcs(capsys):
    code, out = run(["verify-lcs", "--scenario", "dihedral_mainline",
                     "--max-order", "64"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["ok"] is True
    assert data["limit_coclass"] == "1"


def test_out_file(tmp_path, capsys):
    path = tmp_path / "r.json"
    code, _ = run(["cohomology", "--scenario", "dihedral_mainline",
                   "--n", "1", "--degree", "2", "--out", str(path)], capsys)
    assert code == 0
    assert json.loads(path.read_text())["n"] == "1"


def test_run_all_dihedral(capsys):
    code, out = run(["run-all", "--scenario", "dihedral_mainline",
                     "--max-order", "64"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["ok"] is True
    entry = data["scenarios"]["dihedral_mainline"]
    assert entry["lcs"]["ok"] is True
    assert entry["correspondence"]["ok"] is True
    assert entry["shift_ok"] is True


def test_precision_override(capsys):
    code, out = run(["cohomology", "--scenario", "dihedral_mainline",
                     "--n", "2", "--degree", "2", "--precision", "12"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["precision"] == "12"
    assert data["recheck_precision"] == "14"
    assert data["invariants"] == ["2"]


@pytest.mark.parametrize("precision", [27, 25])  # 25: cohomology rechecks at 27
def test_precision_whose_sums_wrap_int64_is_a_usage_error(capsys, precision):
    # 5^27 < 2^63, but a sum of two entries below 5^27 can pass 2^63
    path = str(DATA / "c5_cyclotomic.json")
    code = cli.main(["cohomology", "--scenario", path, "--n", "1", "--precision", str(precision)])
    err = capsys.readouterr().err
    assert code == 2 and "field 'precision' is 27" in err and err.count("\n") == 1


@pytest.mark.parametrize("field, value", [
    ("group", {"presentation": {"generators": ["a"], "relators": ["a^2", "b"]}}),
    ("group", {"presentation": {"generators": ["a"]}}),
    ("group", {"presentation": {"generators": ["a"], "relators": [2]}}),
    ("rank", "x"),
    ("precision", float("inf")),
    ("action", 5),
    ("group", {"table": [[0, 1], [1, 0]], "generators": [5]}),
    ("group", {"table": [[0, 1], [1, 0]], "generators": [-1]}),
    ("group", {"permutations": [[1, 0], [0, 2, 1]]}),
    ("group", {"permutations": [[1, 0, 5]]}),
    ("group", {"permutations": [[0, 0]]}),
    ("group", {"matrix_generators": [], "modulus": 4}),
    ("group", {"matrix_generators": [[[0, 1], [1, 0]]], "modulus": 0}),
    ("group", {"matrix_generators": [[[0, 1], [1, 0]], [[1]]], "modulus": 4}),
    ("group", {"matrix_generators": [[[0, 1, 0], [1, 0, 0]]], "modulus": 4}),
    ("p", -2),
    ("p", 4),
    ("precision", 0),
    ("precision", 63),
    ("precision", 62),  # valid, but cohomology rechecks at precision 64
    ("--precision", 0),
    # permutation and matrix generators are no group input, valid or not
    ("group", {"matrix_generators": [[[2]]], "modulus": 4}),
    ("group", {"matrix_generators": [[[0, 1], [1, 0]], [[1, 1], [1, 3]]], "modulus": 4}),
    ("group", {"permutations": [[1, 0]]}),
    # list("a") would read as ["a"], and list("a^2") as ["a", "^", "2"]
    ("group", {"presentation": {"generators": "a", "relators": ["a^2"]}}),
    ("group", {"presentation": {"generators": ["a"], "relators": "a^2"}}),
])
def test_malformed_scenario_is_a_one_line_error(tmp_path, capsys, field, value):
    data = dict(scenarios.BUILTIN_SCENARIOS["dihedral_mainline"])
    path = tmp_path / "bad.json"
    argv = ["cohomology", "--scenario", str(path), "--n", "1"]
    if field.startswith("--"):
        argv += [field, str(value)]
    else:
        data[field] = value
    path.write_text(json.dumps(data))
    code = cli.main(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    if field.strip("-") in ("p", "precision"):
        assert "field %r" % field.strip("-") in err
    if field == "group" and not {"table", "presentation"} & set(value):
        assert "error: group spec must contain table or presentation\n" == err
    for name, words in value.get("presentation", {}).items() if field == "group" else ():
        if isinstance(words, str):
            assert "presentation %r is %r, not a list of strings" % (name, words) in err


@pytest.mark.parametrize("source, field, value, leaf", [
    ("scenario", "precision", 14.5, 14.5),
    ("scenario", "rank", True, True),
    ("scenario", "depth", "10", "10"),
    ("scenario", "group", {"table": [[0, 1], [1, 0.9]]}, 0.9),
    ("scenario", "group", {"table": [[0, 1], [1, "0"]]}, "0"),
    ("scenario", "action", [[[-1.6]]], -1.6),
    ("cocycle", "level", 1.5, 1.5),
    ("cocycle", "coords", [1.0, 0, 0], 1.0),
    ("cocycle", "row", ["0"] + [0] * 8, "0"),
])
def test_a_number_that_is_no_json_integer_is_refused(tmp_path, capsys, source, field, value,
                                                     leaf):
    # int() and NumPy would truncate these or parse their digits, and each
    # file would then extend at level 1 with exit 0
    files = {"scenario": dict(scenarios.BUILTIN_SCENARIOS["dihedral_mainline"]),
             "cocycle": {"level": 1, "coords": [1, 0, 0]}}
    if field == "row":
        del files["cocycle"]["coords"]
    files[source][field] = value
    for name, data in files.items():
        (tmp_path / name).write_text(json.dumps(data))
    code = cli.main(["extend", "--scenario", str(tmp_path / "scenario"),
                     "--cocycle", str(tmp_path / "cocycle")])
    assert code == 2
    assert capsys.readouterr().err == (
        "error: %s field %r is malformed: %r is not an integer\n" % (source, field, leaf))


@pytest.mark.parametrize("argv", [
    ["extend", "--scenario", "{dir}", "--cocycle", "{cocycle}"],
    ["extend", "--scenario", "dihedral_mainline", "--cocycle", "{dir}"],
    ["extend", "--scenario", "dihedral_mainline", "--cocycle", "{cocycle}", "--out", "{dir}"],
    ["branch", "--scenario", "dihedral_mainline", "--i", "3", "--dot", "{dir}"],
    ["extend", "--scenario", "{latin1}", "--cocycle", "{cocycle}"],
    ["extend", "--scenario", "dihedral_mainline", "--cocycle", "{latin1}"],
])
def test_unreadable_or_unwritable_file_is_a_one_line_error(tmp_path, capsys, argv):
    cocycle = tmp_path / "c.json"
    cocycle.write_text(json.dumps({"level": 1, "mainline": True}))
    # a valid scenario and a valid cocycle file, but encoded in Latin-1
    latin1 = tmp_path / "latin1.json"
    fields = dict(scenarios.BUILTIN_SCENARIOS["dihedral_mainline"], name="caf\xe9",
                  level=1, mainline=True)
    latin1.write_bytes(json.dumps(fields, ensure_ascii=False).encode("latin-1"))
    code = cli.main([a.format(dir=tmp_path, cocycle=cocycle, latin1=latin1) for a in argv])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1


# Prints the exit code and peak RSS in KiB of the command in its argv, read
# through os.wait4 by a fresh, small interpreter (a forked child's ru_maxrss
# starts at its parent's peak); the command's stderr passes through.
PEAK = ("import os, subprocess, sys\n"
        "child = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL)\n"
        "_, status, usage = os.wait4(child.pid, 0)\n"
        "print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)\n")


def test_large_cyclic_group_stops_at_the_coboundary_cap(tmp_path, capsys):
    # a^1024 acting by -1 on Z_2: its table builds from the coset table in
    # about a second.  H^1 reads the 1023 x 1023 generator columns of d^1;
    # H^2 would need 1023^2 x 1023^2 of d^2, refused before it is allocated
    data = dict(scenarios.BUILTIN_SCENARIOS["dihedral_mainline"],
                group={"presentation": {"generators": ["a"], "relators": ["a^1024"]}})
    path = tmp_path / "c1024.json"
    path.write_text(json.dumps(data))
    code = cli.main(["cohomology", "--scenario", str(path), "--n", "1", "--degree", "1"])
    out, err = capsys.readouterr()
    assert code == 0 and err == ""
    assert json.loads(out)["invariants"] == ["2"]
    env = dict(os.environ, PYTHONPATH=str(Path(coclass.__file__).resolve().parents[1]))
    argv = [sys.executable, "-m", "coclass.cli", "cohomology", "--scenario", str(path),
            "--n", "1", "--degree", "2"]
    proc = subprocess.run([sys.executable, "-c", PEAK] + argv, env=env,
                          capture_output=True, text=True, check=True)
    code, peak_kib = (int(x) for x in proc.stdout.split())
    assert code == 2
    assert proc.stderr.startswith("error: coboundary d^2 over a group of order 1024")
    assert proc.stderr.count("\n") == 1
    assert peak_kib < 100 * 1024, "peak RSS %.1f MiB" % (peak_kib / 1024)


def test_a_relator_past_the_coset_table_cap_is_refused_before_it_is_expanded(tmp_path, capsys):
    # a^99999999999 would expand to 10^11 letters; a^1024 above still builds
    data = dict(scenarios.BUILTIN_SCENARIOS["dihedral_mainline"],
                group={"presentation": {"generators": ["a"], "relators": ["a^99999999999"]}})
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(data))
    code = cli.main(["cohomology", "--scenario", str(path), "--n", "1"])
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert err == ("error: relator 'a^99999999999' takes the relators past %d letters, "
                   "the coset-table cap\n" % (4 * groups.CLOSURE_CAP))


def _bytes(a) -> bytes:
    return b"" if a is None else np.asarray(a, dtype=np.int64).tobytes()


def _lattice_key(T):
    return (_bytes(T.group.mul), _bytes(T.act), T.N)


def _module_key(A):
    return (_bytes(A.group.mul), _bytes(A.act), tuple(A.exps), A.E)


# input-content keys of the derived objects that must each be computed once
_DERIVED = [
    (cohomology, "lattice_invariants", lambda A, m: (_module_key(A), m)),
    (cohomology, "_generator_smith", lambda A, k: (_module_key(A), k)),
    # H^m of a module holds its cocycles, which `is_cocycle` reads, so each
    # coboundary matrix is built once per run
    (cohomology, "_cohomology_group", lambda A, m: (_module_key(A), m)),
    (cohomology, "coboundary_matrix",
     lambda A, m, last=None: (_module_key(A), m, _bytes(last))),
    (cohomology, "lattice_coefficients", lambda T, basis: (_lattice_key(T), _bytes(basis))),
    (modules, "_lattice_hom_basis", lambda T, beta: (_lattice_key(T), _bytes(beta))),
    # hom(A, A^(beta)) is fixed by A and beta's action on the generators
    (modules, "hom_space",
     lambda V, W: (_module_key(V), tuple(W.exps),
                   _bytes(W.canonical(W.act[V.group.generators])))),
    # a hom space holds its enumeration, which compatible_pairs and the
    # summand scan both read
    (modules.HomSpace, "all_matrices", id),
    (cohomology, "split_frame",
     lambda T, chain, n, m=2: (_lattice_key(T), _bytes(chain.bases[n]), m)),
    (pairs, "compatible_pairs", _module_key),
    # a branch vertex's certificate is held by the top quotient
    (extensions, "certify", lambda A, tau_hat, l=None: (_module_key(A), _bytes(tau_hat), l)),
    # each split table G0 x (T / T_m) is one call, a stage's shared by the
    # branch and the scan
    (extensions, "split_table", _module_key),
    # the one lower central series, of a split quotient or of an extension
    # that a certificate reads
    (extensions, "lower_central_series", lambda A, tau: (_module_key(A), _bytes(tau))),
    (groups, "bar_index", lambda G, m: (_bytes(G.mul), m)),
    (groups, "automorphism_group", lambda G: _bytes(G.mul)),
    # a level quotient depends on the chain's basis and not on the group
    # acting: a pulled-back chain reads it from the chain it came from
    (modules, "quotient", lambda T, chain, n: (T.p, T.N, _bytes(chain.bases[n]))),
    # T_{i+1} = span{t.g - t} depends only on the set of acting matrices
    (modules, "g_central_series",
     lambda T, depth: (T.p, T.N, depth, tuple(sorted({a.tobytes() for a in T.act % T.q})))),
]


@pytest.mark.parametrize("argv", [
    ["branch", "--scenario", "dihedral_mainline", "--i", "4", "--k", "1", "--shift"],
    ["correspondence", "--scenario", "dihedral_mainline"],
    ["run-all", "--scenario", "dihedral_mainline"],
    ["verify-counterexample", "--scenario", "d8_gaussian"],
    ["verify-lcs", "--scenario", "dihedral_mainline"],
    ["extend", "--scenario", "d8_gaussian", "--cocycle",
     str(DATA / "mainline_level1.cocycle.json")],
])
def test_each_derived_object_is_computed_once(monkeypatch, capsys, argv):
    calls = collections.Counter()
    for module, name, key in _DERIVED:
        def counted(*args, _fn=getattr(module, name), _name=name, _key=key, **kwargs):
            calls[(_name, _key(*args, **kwargs))] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    assert cli.main(argv) == 0
    capsys.readouterr()
    assert calls
    repeated = collections.Counter(name for (name, _), n in calls.items() if n > 1)
    assert not repeated, repeated


@pytest.mark.parametrize("argv", [
    ["run-all", "--scenario", "dihedral_mainline"],
    ["branch", "--scenario", "dihedral_mainline", "--i", "7", "--k", "1", "--shift"],
])
def test_compatible_pairs_enumerates_each_hom_space_once(monkeypatch, capsys, argv):
    # automorphisms beta that act alike on A share hom(A, A^(beta)), which
    # holds its enumeration and its invertible homs: over the whole run each
    # space is enumerated once and filtered once, and each beta's pairs are
    # still checked
    active, spaces, enumerated, masks, betas = [], [], [], [], []

    def call(A, _fn=pairs.compatible_pairs):
        active.append(A)
        betas.extend(A.group.automorphisms())
        try:
            return _fn(A)
        finally:
            active.pop()

    def hom_to(A, W, v0_hat=None, _fn=modules.FiniteModule.hom_to):
        hs = _fn(A, W, v0_hat)
        if active:
            spaces.append(id(hs))
        return hs

    def enumerate_homs(hs, _fn=modules.HomSpace.all_matrices):
        enumerated.append(id(hs))  # the summand scan enumerates End(A) too
        return _fn(hs)

    def mask(A, hats, _fn=pairs.automorphism_mask):
        if active:
            masks.append(len(hats))
        return _fn(A, hats)

    monkeypatch.setattr(pairs, "compatible_pairs", call)
    monkeypatch.setattr(modules.FiniteModule, "hom_to", hom_to)
    monkeypatch.setattr(modules.HomSpace, "all_matrices", enumerate_homs)
    monkeypatch.setattr(pairs, "automorphism_mask", mask)
    assert cli.main(argv) == 0
    capsys.readouterr()
    assert len(enumerated) == len(set(enumerated))
    assert len(masks) == len(set(spaces)) < len(betas)


def test_a_branch_is_refused_at_the_coboundary_cap_before_any_level_is_computed(
        monkeypatch, capsys):
    # level 1 of d8's order-32 top group has rank 1 and level 2 rank 2, whose
    # generator columns of d^2 are above the cap; both sizes are known from
    # the quotient ranks, so the refusal comes before level 1 is computed
    calls = []
    monkeypatch.setattr(cohomology, "finite_cohomology", lambda *args: calls.append(args))
    assert cli.main(["branch", "--scenario", "d8_gaussian", "--i", "4", "--k", "1"]) == 2
    assert capsys.readouterr().err == ("error: coboundary d^2 over a group of order 32 is "
                                       "1922 x 7688, above the cap of 8388608 entries\n")
    assert not calls


@pytest.mark.parametrize("argv", [
    ["run-all", "--scenario", "dihedral_mainline"],
    ["verify-counterexample", "--scenario", "d8_gaussian"],
])
def test_no_full_coboundary_is_built_for_a_lattice_or_above_degree_one(monkeypatch, capsys,
                                                                       argv):
    full = []
    lattices = []  # the lattice coefficients, told apart from finite modules by identity

    def coefficients(T, basis, _fn=cohomology.lattice_coefficients):
        A = _fn(T, basis)
        lattices.append(A)
        return A

    def guarded(A, m, last=None, _fn=cohomology.coboundary_matrix):
        D = _fn(A, m, last)
        n = A.group.order
        lattice = any(A is L for L in lattices)
        # when every nonidentity element is a generator, all columns are asked for
        if D.shape[1] == A.rank * (n - 1) ** (m + 1) and len(A.group.generators) < n - 1:
            if lattice or m >= 2:
                full.append((n, m, lattice))
        return D
    monkeypatch.setattr(cohomology, "lattice_coefficients", coefficients)
    monkeypatch.setattr(cohomology, "coboundary_matrix", guarded)
    assert cli.main(argv) == 0
    capsys.readouterr()
    assert not full, full


def test_run_all_does_not_import_numpy_ma():
    # np.unique imports numpy.ma on its first call, which no report needs
    code = ("import contextlib, io, sys\n"
            "from coclass import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert cli.main(['run-all', '--scenario', 'dihedral_mainline']) == 0\n"
            "print('numpy.ma' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=str(Path(coclass.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    assert proc.stdout == "False\n"
