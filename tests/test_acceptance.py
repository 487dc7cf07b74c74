"""End-to-end acceptance checks.

Each test here pins one of the headline guarantees of the package against an
independent computation: a naive elimination oracle for small cohomology, the
classical gcd formula, literal orbit and extension comparisons, and the
built-in scenario pipelines end to end.
"""

import itertools
import json

import numpy as np
import pytest

from coclass import (cli, coclass_tree, cohomology, extensions, groups,
                     linalg, modules, pairs, scenarios)

from brute_force import (at_distance, flat_pairs, lattice_cohomology, orbit_isomorphism_check,
                         pair_key, semi_brute_h_stats, stats_from_invariants, vertex_table)


_cache = {}


def scenario(name):
    if name not in _cache:
        _cache[name] = scenarios.load_scenario(name)
    return _cache[name]


# ---------------------------------------------------------------------------
# small-group catalogue
# ---------------------------------------------------------------------------


def cyclic_table(n):
    return [[(i + j) % n for j in range(n)] for i in range(n)]


def direct_product(t1, t2):
    n1, n2 = len(t1), len(t2)
    table = [[0] * (n1 * n2) for _ in range(n1 * n2)]
    for a1, a2, b1, b2 in itertools.product(range(n1), range(n2), range(n1), range(n2)):
        table[a1 * n2 + a2][b1 * n2 + b2] = t1[a1][b1] * n2 + t2[a2][b2]
    return table


def presented(gens, relators):
    return groups.build_group({"presentation": {"generators": gens, "relators": relators}})


def hom_to_matrices(G, gen_mats, mod):
    """Per-element matrices of the homomorphism sending the stored generators
    to the given matrices; verified to be a homomorphism."""
    eye = np.eye(gen_mats[0].shape[0], dtype=np.int64)
    mats = {G.identity: eye}
    frontier = [G.identity]
    while frontier:
        nxt = []
        for g in frontier:
            for s, ms in zip(G.generators, gen_mats):
                h = int(G.mul[g, s])
                if h not in mats:
                    mats[h] = (mats[g] @ ms) % mod
                    nxt.append(h)
        frontier = nxt
    assert len(mats) == G.order
    out = [mats[g] for g in range(G.order)]
    for g in range(G.order):
        for h in range(G.order):
            assert np.array_equal(out[int(G.mul[g, h])], (out[g] @ out[h]) % mod)
    return out


def sign_action(G, gen_signs, modulus):
    mats = hom_to_matrices(G, [np.array([[s]]) for s in gen_signs], modulus)
    return [m % modulus for m in mats]


def _p_of(moduli):
    m = moduli[0]
    for p in (2, 3, 5, 7):
        if m % p == 0:
            return p
    raise AssertionError(moduli)


def _groups_catalogue():
    C = {n: groups.make_table(cyclic_table(n)) for n in range(1, 9)}
    V4 = groups.make_table(direct_product(cyclic_table(2), cyclic_table(2)))
    C4xC2 = groups.make_table(direct_product(cyclic_table(4), cyclic_table(2)))
    C2cubed = groups.make_table(
        direct_product(direct_product(cyclic_table(2), cyclic_table(2)), cyclic_table(2)))
    S3 = presented(["a", "b"], ["a^2", "b^3", "a^-1 b a b"])
    D8 = presented(["a", "b"], ["a^2", "b^4", "a^-1 b a b"])
    Q8 = presented(["a", "b"], ["a^4", "b^2 a^2", "b^-1 a b a"])
    assert S3.order == 6 and D8.order == 8 and Q8.order == 8
    return C, V4, C4xC2, C2cubed, S3, D8, Q8


def _oracle_cases():
    """(label, group, moduli, per-element action) covering every group of
    order at most 8, each with a trivial and, where one exists, a nontrivial
    action on a module of size at most 16."""
    C, V4, C4xC2, C2cubed, S3, D8, Q8 = _groups_catalogue()

    def trivial(G, moduli):
        r = len(moduli)
        return [np.eye(r, dtype=np.int64)] * G.order

    def cyc_sign(G, modulus):
        return [np.array([[1 if i % 2 == 0 else -1]]) % modulus for i in range(G.order)]

    order3 = np.array([[0, 1], [1, 1]])
    comp5 = np.array([[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [1, 1, 1, 1]])
    comp7 = np.array([[0, 1, 0], [0, 0, 1], [1, 1, 0]])
    cases = [
        ("C1 trivial Z4", C[1], [4], trivial(C[1], [4])),
        ("C2 trivial Z4", C[2], [4], trivial(C[2], [4])),
        ("C2 negation Z4", C[2], [4], cyc_sign(C[2], 4)),
        ("C2 negation Z16", C[2], [16], cyc_sign(C[2], 16)),
        ("C2 mixed Z4+Z2", C[2], [4, 2],
         [np.eye(2, dtype=np.int64), np.array([[3, 0], [0, 1]])]),
        ("C2 swap Z2^2", C[2], [2, 2], [np.eye(2, dtype=np.int64), np.array([[0, 1], [1, 0]])]),
        ("C3 trivial Z3", C[3], [3], trivial(C[3], [3])),
        ("C3 trivial Z9", C[3], [9], trivial(C[3], [9])),
        ("C3 order-3 on Z2^2", C[3], [2, 2], [np.eye(2, dtype=np.int64) if i == 0
                                              else np.linalg.matrix_power(order3, i) % 2
                                              for i in range(3)]),
        ("C4 trivial Z4", C[4], [4], trivial(C[4], [4])),
        ("C4 negation Z4", C[4], [4], cyc_sign(C[4], 4)),
        ("V4 trivial Z2", V4, [2], trivial(V4, [2])),
        ("V4 sign Z4", V4, [4], [np.array([[1 if (i // 2) % 2 == 0 else -1]]) % 4
                                 for i in range(4)]),
        ("C5 trivial Z5", C[5], [5], trivial(C[5], [5])),
        ("C5 order-5 on Z2^4", C[5], [2, 2, 2, 2],
         [np.linalg.matrix_power(comp5, i) % 2 for i in range(5)]),
        ("C6 trivial Z3", C[6], [3], trivial(C[6], [3])),
        ("C6 negation Z3", C[6], [3], cyc_sign(C[6], 3)),
        ("C6 negation Z8", C[6], [8], cyc_sign(C[6], 8)),
        ("S3 trivial Z3", S3, [3], trivial(S3, [3])),
        ("S3 sign Z3", S3, [3], sign_action(S3, [-1, 1], 3)),
        ("S3 standard on Z2^2", S3, [2, 2],
         hom_to_matrices(S3, [np.array([[0, 1], [1, 0]]), order3], 2)),
        ("C7 trivial Z7", C[7], [7], trivial(C[7], [7])),
        ("C7 order-7 on Z2^3", C[7], [2, 2, 2],
         [np.linalg.matrix_power(comp7, i) % 2 for i in range(7)]),
        ("C8 trivial Z4", C[8], [4], trivial(C[8], [4])),
        ("C8 negation Z4", C[8], [4], cyc_sign(C[8], 4)),
        ("C4xC2 trivial Z2", C4xC2, [2], trivial(C4xC2, [2])),
        ("C4xC2 sign Z4", C4xC2, [4], [np.array([[1 if (i // 2) % 2 == 0 else -1]]) % 4
                                       for i in range(8)]),
        ("C2^3 trivial Z2", C2cubed, [2], trivial(C2cubed, [2])),
        ("C2^3 sign Z4", C2cubed, [4], [np.array([[1 if (i // 4) % 2 == 0 else -1]]) % 4
                                        for i in range(8)]),
        ("D8 trivial Z2", D8, [2], trivial(D8, [2])),
        ("D8 sign Z4", D8, [4], sign_action(D8, [-1, -1], 4)),
        ("D8 gaussian Z4^2", D8, [4, 4],
         hom_to_matrices(D8, [np.array([[1, 0], [0, -1]]) % 4,
                              np.array([[0, 1], [-1, 0]]) % 4], 4)),
        ("Q8 trivial Z2", Q8, [2], trivial(Q8, [2])),
        ("Q8 sign Z4", Q8, [4], sign_action(Q8, [-1, 1], 4)),
    ]
    return cases


@pytest.mark.parametrize("label,G,moduli,act",
                         _oracle_cases(), ids=[c[0] for c in _oracle_cases()])
def test_small_group_oracle_equivalence(label, G, moduli, act):
    # every group of order <= 8, trivial and nontrivial actions, m in {0,1,2}
    p = _p_of(moduli)
    exps = [int(round(np.log(m) / np.log(p))) for m in moduli]
    A = modules.finite_module_from_plain(G, p, exps, act)
    for m in (0, 1, 2):
        H = cohomology.finite_cohomology(A, m)
        want = {int(k): v for k, v in stats_from_invariants(H.invariants()).items()}
        got = semi_brute_h_stats(G.mul, G.identity, moduli, act, m, p)
        assert got == want, (label, m, got, want, H.invariants())


def test_cyclic_gcd_formula():
    # H^2(C_m, Z/n trivial) is cyclic of order gcd(m, n)
    for gm, gn in ((2, 2), (2, 4), (4, 2), (3, 3)):
        G = groups.make_table(cyclic_table(gm))
        p = _p_of([gn])
        e = int(round(np.log(gn) / np.log(p)))
        act = [np.eye(1, dtype=np.int64)] * gm
        A = modules.finite_module_from_plain(G, p, [e], act)
        H = cohomology.finite_cohomology(A, 2)
        g = int(np.gcd(gm, gn))
        want = [] if g == 1 else [g]
        assert [int(x) for x in H.invariants()] == want, (gm, gn, H.invariants())


def _split_window(scn):
    """Qualifying levels spanning two chain periods, starting at the first
    level where the splitting hypothesis T_n <= f.T holds."""
    d = scn.period()
    T, chain = scn.lattice(), scn.chain()
    start = None
    for n in range(1, 6):
        try:
            cohomology.level_frame(chain, n)
            start = n
            break
        except cohomology.CohomologyError:
            continue
    assert start is not None
    return list(range(start, start + 2 * d))


@pytest.mark.parametrize("name", ["dihedral_mainline", "d8_gaussian"])
def test_h2_splits_across_qualifying_window(name):
    scn = scenario(name)
    T, chain, d = scn.lattice(), scn.chain(), scn.period()
    window = _split_window(scn)
    lat_inv = sorted(int(x) for x in lattice_cohomology(T, 2).invariants())
    frames = {}
    for n in window:
        Q = scn.quotient(n)
        H = cohomology.finite_cohomology(Q.module, 2)
        h3 = lattice_cohomology(T, 3, basis=chain.bases[n])
        got = sorted(int(x) for x in H.invariants())
        want = sorted(lat_inv + [int(x) for x in h3.invariants()])
        assert got == want, (name, n, got, want)
        # the split itself: joint generation and zero intersection are
        # certified inside split_at_level, which raises on failure
        base = window[0] + (n - window[0]) % d
        if base not in frames:
            frames[base] = cohomology.split_frame(T, chain, base)
        level = cohomology.split_at_level(frames[base], chain, n)
        assert level.H.invariants() == H.invariants()


@pytest.mark.parametrize("name", ["dihedral_mainline", "d8_gaussian"])
def test_orbit_correspondence_between_levels(name):
    scn = scenario(name)
    rep = scenarios.orbit_correspondence_report(scn)
    assert rep["qualified"]
    assert rep["ok"], rep
    result = pairs.orbit_correspondence(scn.lattice(), scn.chain(), rep["level"], scn.period())
    assert result.equivariant
    assert sorted(result.orbits_n.sizes) == sorted(result.orbits_nd.sizes)


def test_orbits_match_isomorphism_dihedral():
    scn = scenario("dihedral_mainline")
    top = scn.top()
    Q = top.quotient(2)
    H = cohomology.finite_cohomology(Q.module, 2)
    part = pairs.orbits_on_h2(H, pairs.compatible_pairs(Q.module))
    rep = orbit_isomorphism_check(H, Q.module, part)
    assert rep.ok, rep.witness
    assert rep.checked_pairs > 0


def test_orbits_match_isomorphism_d8():
    scn = scenario("d8_gaussian")
    Q = scn.quotient(1)
    H = cohomology.finite_cohomology(Q.module, 2)
    part = pairs.orbits_on_h2(H, pairs.compatible_pairs(Q.module))
    rep = orbit_isomorphism_check(H, Q.module, part)
    assert rep.ok, rep.witness
    assert rep.checked_pairs > 0


def _scan(name):
    key = ("scan", name)
    if key not in _cache:
        _cache[key] = scenarios.summand_instability_witness(scenario(name))
    return _cache[key]


def test_summand_instability_witness_and_recheck():
    rep = _scan("d8_gaussian")
    assert rep["found"]
    assert rep["lifted_endomorphisms_stable"]
    w = rep["witness"]
    assert any(int(x) for x in w["h3_component"])
    # independent recheck: rebuild the class at the recorded level and verify
    # the complement projection moves as recorded
    assert int(w["k"]) == 0
    scn = scenario("d8_gaussian")
    T, chain = scn.lattice(), scn.chain()
    n = int(w["n"])
    frame = cohomology.split_frame(T, chain, n)
    level = cohomology.split_at_level(frame, chain, n)
    coords = tuple(int(x) for x in w["class_coords"])
    row = level.H.representative(coords)
    _, c = level.decompose(row)
    assert not any(int(ci) % T.p**a for ci, a in zip(c, frame.K_divisor_exps))
    eps = np.array([[int(x) for x in r] for r in w["eps_hat"]], dtype=np.int64)
    moved = pairs.act_on_cochains(level.H, np.arange(level.Q.module.group.order),
                                  level.Q.module.canonical(eps)[None], row[None])[0, 0]
    _, c2 = level.decompose(moved)
    got = [int(ci) % T.p**a for ci, a in zip(c2, frame.K_divisor_exps)]
    assert got == [int(x) for x in w["h3_component"]]


def test_control_scenario_finds_no_witness():
    rep = _scan("dihedral_mainline")
    assert not rep["found"]


def test_cli_verifies_the_counterexample(tmp_path, capsys):
    out = tmp_path / "ce.json"
    code = cli.main(["verify-counterexample", "--scenario", "d8_gaussian",
                     "--out", str(out)])
    capsys.readouterr()
    assert code == 0
    data = json.loads(out.read_text())
    assert data["ok"] and data["summand_scan"]["found"]


def test_branches_and_shift_certification():
    scn = scenario("dihedral_mainline")
    branches = {i: coclass_tree.build_branch(scn, i) for i in (3, 4, 5)}
    for i, br in branches.items():
        kids = at_distance(br, 1)
        assert len(kids) == 3
        order = 2 ** (i + 1)
        counts = sorted(int(np.count_nonzero(vertex_table(scn, v).element_orders() == 2))
                        for v in kids)
        # dihedral, semidihedral, quaternion: order/2 + 1, order/4 + 1, 1
        assert counts == sorted([order // 2 + 1, order // 4 + 1, 1])
    for i in (3, 4):
        rep, _ = coclass_tree.nu_shift(scn, branches[i], branches[i + 1])
        assert rep["ok"], rep["failures"]
        # the bijection preserves distance, order scaling, and mainline flags
        for a, b in rep["vertex_map"]:
            va = [v for v in branches[i].vertices if v.index == a][0]
            vb = [v for v in branches[i + 1].vertices if v.index == b][0]
            assert va.distance == vb.distance
            assert vb.order == va.order * 2**scn.period()
            assert va.mainline == vb.mainline


@pytest.mark.parametrize("name,level", [("dihedral_mainline", 3), ("d8_gaussian", 2)])
def test_chain_terms_invariant_under_all_pairs(name, level):
    scn = scenario(name)
    T, chain = scn.lattice(), scn.chain()
    Q = scn.quotient(level)
    A = Q.module
    ps = flat_pairs(pairs.compatible_pairs(A))
    assert len(ps) > 1
    terms = []
    for j in range(level + 1):
        terms.append(np.array([Q.hat_of_ambient(row) for row in chain.bases[j]],
                              dtype=np.int64))
    for x in ps:
        for S in terms:
            img = (S @ x[1]) % A.q
            assert linalg.span_equal(S, img, T.p, A.E), (name, pair_key(x))


@pytest.mark.parametrize("name", ["dihedral_mainline", "d8_gaussian"])
def test_invariants_stable_under_precision_bump(name):
    base = dict(scenarios.BUILTIN_SCENARIOS[name])
    bumped = dict(base, precision=base["precision"] + 2)
    lo, hi = scenarios.load_scenario(base), scenarios.load_scenario(bumped)
    for scn in (lo, hi):
        assert scn.validate() is None or True
    d = lo.period()
    for n in range(1, 2 * d + 2):
        for m in (1, 2):
            a = cohomology.finite_cohomology(lo.quotient(n).module, m).invariants()
            b = cohomology.finite_cohomology(hi.quotient(n).module, m).invariants()
            assert [int(x) for x in a] == [int(x) for x in b], (name, n, m)
    for m in (2, 3):
        a = lattice_cohomology(lo.lattice(), m).invariants()
        b = lattice_cohomology(hi.lattice(), m).invariants()
        assert [int(x) for x in a] == [int(x) for x in b], (name, m)
    assert (lo.bounds().a_exp, lo.bounds().b_exp) == (hi.bounds().a_exp, hi.bounds().b_exp)
    n0 = lo.bounds().least_qualifying()
    level = min(n0, 2)
    Hlo = cohomology.finite_cohomology(lo.quotient(level).module, 2)
    Hhi = cohomology.finite_cohomology(hi.quotient(level).module, 2)
    plo = pairs.orbits_on_h2(Hlo, pairs.compatible_pairs(lo.quotient(level).module))
    phi = pairs.orbits_on_h2(Hhi, pairs.compatible_pairs(hi.quotient(level).module))
    assert sorted(plo.sizes) == sorted(phi.sizes)
