from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from coclass import cli, groups, linalg, modules, pairs, scenarios

from brute_force import (finite_module_from_plain_entries, hom_space_flat_by_plain_solve,
                         plain_action_entries, stabilizer_chain_by_restriction,
                         stage_chain_by_rebuild)

C3_EISENSTEIN = Path(__file__).resolve().parent / "data" / "c3_eisenstein.json"


def cyclic_table(n):
    return [[(i + j) % n for j in range(n)] for i in range(n)]


def c2_negation(N=10, rank=1):
    C2 = groups.make_table(cyclic_table(2))
    mat = -np.eye(rank, dtype=np.int64)
    return modules.lattice_module(C2, {1: mat}, 2, N)


def d8_lattice(N=12):
    D8 = groups.build_group(
        {"presentation": {"generators": ["a", "b"], "relators": ["a^2", "b^4", "a^-1 b a b"]}}
    )
    a = np.array([[1, 0], [0, -1]])
    b = np.array([[0, 1], [-1, 0]])
    ga, gb = D8.generators[0], D8.generators[1]
    return modules.lattice_module(D8, {ga: a, gb: b}, 2, N)


def test_lattice_action_violating_a_relator_is_rejected():
    C2 = groups.make_table(cyclic_table(2))
    with pytest.raises(modules.ModuleError, match="group relations"):
        modules.lattice_module(C2, {1: np.array([[0, 1], [1, 1]])}, 2, 6)


def test_finite_action_with_a_nontrivial_identity_is_rejected():
    # an idempotent is multiplicative on C2 but is not the identity matrix
    C2 = groups.make_table(cyclic_table(2))
    proj = np.array([[1, 0], [0, 0]])
    with pytest.raises(modules.ModuleError, match="identity does not act trivially"):
        modules.finite_module_from_plain(C2, 2, [1, 1], [proj, proj])


def test_finite_action_from_any_integer_lift_is_the_same_module():
    # C2 on Z/2 + Z/4: [[3, 2], [0, -1]] and [[1, 2], [0, -1]] are the same
    # involution, since entry 00 only counts mod 2
    C2 = groups.make_table(cyclic_table(2))
    ident = np.eye(2, dtype=np.int64)
    lifts = [modules.finite_module_from_plain(C2, 2, [1, 2], [ident, M])
             for M in ([[3, 2], [0, -1]], [[1, 2], [0, -1]])]
    assert lifts[0].act.tobytes() == lifts[1].act.tobytes()
    for fm in lifts:
        assert plain_action_entries(fm)[1].tolist() == [[1, 2], [0, 3]]
    # an automorphism of order 4 is not an action of C2, whatever its lift
    for M in ([[1, 2], [1, 1]], [[3, 6], [-1, 5]]):
        with pytest.raises(modules.ModuleError, match="finite module action is not multiplicative"):
            modules.finite_module_from_plain(C2, 2, [1, 2], [ident, M])


def test_finite_action_leaving_the_hatted_module_is_rejected():
    # Z/2 + Z/4 hatted in (Z/4)^2 as 2Z/4 + Z/4; the generator is an
    # involution mod 4 that sends (0, 1) to (1, 3), outside the module
    C2 = groups.make_table(cyclic_table(2))
    act = np.array([np.eye(2, dtype=np.int64), [[1, 0], [1, 3]]])
    fm = modules.FiniteModule(C2, 2, [1, 2], 2, act)
    with pytest.raises(modules.ModuleError, match="does not preserve the module"):
        modules._validate_finite_action(fm)


def test_c2_negation_chain():
    T = c2_negation()
    chain = modules.g_central_series(T, 5)
    assert chain.index_exponents == [0, 1, 2, 3, 4, 5]
    ok, steps = modules.is_uniserial(chain, 5)
    assert ok and steps == [1] * 5
    assert modules.chain_period(T, chain) == 1


def test_trivial_action_chain_stops():
    C2 = groups.make_table(cyclic_table(2))
    T = modules.lattice_module(C2, {1: np.eye(1, dtype=np.int64)}, 2, 8)
    chain = modules.g_central_series(T, 3)
    assert chain.stopped and chain.depth == 0


def test_diagonal_negation_not_uniserial():
    T = c2_negation(rank=2)
    chain = modules.g_central_series(T, 3)
    ok, steps = modules.is_uniserial(chain, 1)
    assert not ok
    assert steps[0] == 2


def test_d8_chain_uniserial_and_periodic():
    T = d8_lattice()
    chain = modules.g_central_series(T, 8)
    ok, steps = modules.is_uniserial(chain, 8)
    assert ok, steps
    assert modules.chain_period(T, chain) == 2
    # T_1 = {(x, y) : x + y even}
    B1 = chain.bases[1]
    assert linalg.span_equal(B1, [[1, 1], [0, 2]], 2, T.N)


def test_d8_quotients():
    T = d8_lattice()
    chain = modules.g_central_series(T, 8)
    for n in range(0, 7):
        Q = modules.quotient(T, chain, n)
        assert Q.module.order == 2**n
    Q2 = modules.quotient(T, chain, 2)
    assert Q2.module.invariants() == [2, 2]


def test_quotient_zero_level_trivial():
    T = d8_lattice()
    chain = modules.g_central_series(T, 2)
    Q0 = modules.quotient(T, chain, 0)
    assert Q0.module.order == 1 and Q0.module.invariants() == []


def test_c2_quotient_invariants():
    T = c2_negation()
    chain = modules.g_central_series(T, 4)
    Q = modules.quotient(T, chain, 3)
    assert Q.module.invariants() == [8]


def test_quotient_coords_additive_and_action():
    T = d8_lattice()
    chain = modules.g_central_series(T, 6)
    Q = modules.quotient(T, chain, 5)
    rng = np.random.default_rng(3)
    mods = Q.module.coord_moduli()
    for _ in range(20):
        u = rng.integers(0, T.q, 2)
        v = rng.integers(0, T.q, 2)
        assert np.array_equal(
            Q.coords((u + v) % T.q), (Q.coords(u) + Q.coords(v)) % mods
        )
        g = int(rng.integers(0, 8))
        # action commutes with the coordinate map
        got = Q.module.unhat(Q.module.hat(Q.coords(u)) @ Q.module.act[g])
        want = Q.coords((u @ T.act[g]) % T.q)
        assert np.array_equal(got, want)
        # a stack of vectors maps row by row
        assert np.array_equal(Q.coords(np.vstack([u, v])), [Q.coords(u), Q.coords(v)])


def test_distinguished_generator_d8():
    T = d8_lattice()
    chain = modules.g_central_series(T, 4)
    t0 = modules.distinguished_generator(T, chain)
    H = linalg.howell(np.vstack([t0[None, :], chain.bases[1]]), 2, T.N)
    assert H.index_exponent() == 0


def test_fixed_points_c2_negation():
    T = c2_negation()
    chain = modules.g_central_series(T, 5)
    Q = modules.quotient(T, chain, 4)  # Z/16 with negation
    fx = modules.fixed_points(Q.module, [0, 1])
    qg = linalg.quotient_group(fx, np.zeros((0, 1), dtype=np.int64), 2, Q.module.E)
    assert qg.invariants() == [2]


def test_fixed_points_trivial_subgroup():
    T = d8_lattice()
    chain = modules.g_central_series(T, 4)
    Q = modules.quotient(T, chain, 3)
    fx = modules.fixed_points(Q.module, [0])
    assert linalg.span_equal(fx, Q.module.member_rows(), 2, Q.module.E)


def test_hom_space_trivial_group_all_maps():
    triv = groups.make_table([[0]])
    ident = [np.eye(2, dtype=np.int64)]
    # homocyclic case: every linear map counts, |W|^(number of generators)
    V = modules.finite_module_from_plain(triv, 2, [2, 2], ident)
    assert modules.hom_space(V, V).structure.order == 16**2
    # mixed exponents: hom(Z4+Z2, Z4+Z2) = Z4 x Z2 x Z2 x Z2
    Vm = modules.finite_module_from_plain(triv, 2, [2, 1], ident)
    hs = modules.hom_space(Vm, Vm)
    assert hs.structure.order == 32
    assert hs.structure.invariants() == [4, 2, 2, 2]


def test_hom_space_c2_endos_with_orbit_route():
    T = c2_negation()
    chain = modules.g_central_series(T, 4)
    Q = modules.quotient(T, chain, 3)
    v0 = Q.hat_of_ambient([1])
    hs = Q.module.hom_to(Q.module, v0_hat=v0)
    assert hs.structure.invariants() == [8]


def test_hom_space_d8_endos_routes_agree():
    T = d8_lattice()
    chain = modules.g_central_series(T, 6)
    t0 = modules.distinguished_generator(T, chain)
    for n in (1, 2, 3, 4):
        Q = modules.quotient(T, chain, n)
        v0 = Q.hat_of_ambient(t0)
        hs = Q.module.hom_to(Q.module, v0_hat=v0)
        # every basis hom commutes with the action
        plain = plain_action_entries(Q.module)
        for C in (hs.flat_to_matrix(g) for g in hs.structure.gens):
            for g in range(8):
                lhs = (plain[g] @ C) % Q.module.q
                rhs = (C @ plain[g]) % Q.module.q
                mods = Q.module.coord_moduli()
                assert np.array_equal(lhs % mods[None, :], rhs % mods[None, :])


def test_every_run_all_hom_space_matches_the_plain_solve(monkeypatch, capsys):
    # each hom space the three run-all scenarios solve in hatted coordinates
    # has the Howell rows of the solve on plain matrices
    calls = []
    solve = modules.hom_space_flat

    def recorded(V, W):
        calls.append((V, W, solve(V, W)))
        return calls[-1][2]

    monkeypatch.setattr(modules, "hom_space_flat", recorded)
    for source in ("dihedral_mainline", "d8_gaussian", str(C3_EISENSTEIN)):
        assert cli.main(["run-all", "--scenario", source]) == 0
    capsys.readouterr()
    assert {(1, 2), (2, 3)} <= {tuple(V.exps) for V, _, _ in calls}  # mixed exponents
    for V, W, got in calls:
        want = hom_space_flat_by_plain_solve(V, W)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def test_lattice_hom_space_ranks():
    T1 = c2_negation()
    assert len(modules.lattice_hom_space(T1)) == 1
    T2 = d8_lattice()
    basis = modules.lattice_hom_space(T2)
    assert len(basis) == 1  # the centralizer of the D8 matrices is the scalars
    for Phi in basis:
        for g in range(8):
            assert np.array_equal((T2.act[g] @ Phi) % T2.q, (Phi @ T2.act[g]) % T2.q)


def test_endo_reduction_identity():
    T = d8_lattice()
    chain = modules.g_central_series(T, 5)
    Q = modules.quotient(T, chain, 4)
    C = modules.endo_to_quotient(Q, np.eye(2, dtype=np.int64))
    assert np.array_equal(C % Q.module.coord_moduli()[None, :],
                          np.eye(Q.module.rank, dtype=np.int64))


def test_precision_stability_of_invariants():
    for N in (12, 14):
        T = d8_lattice(N)
        chain = modules.g_central_series(T, 6)
        Q = modules.quotient(T, chain, 5)
        assert Q.module.invariants() == [8, 4]


def _same_module(got, want):
    return (got.exps == want.exps and got.E == want.E
            and got.act.tobytes() == want.act.tobytes())


def _plain_input(fm, plain_act):
    """The plain matrices a module was built from, reduced mod p^{e_j}."""
    return np.asarray(plain_act, dtype=np.int64).reshape(fm.act.shape) % fm.coord_moduli()


@pytest.mark.parametrize("source", ["dihedral_mainline", "d8_gaussian", str(C3_EISENSTEIN)],
                         ids=["dihedral_mainline", "d8_gaussian", "c3_eisenstein"])
def test_hatted_action_of_every_level_quotient_matches_the_entrywise_oracle(monkeypatch, source):
    seen = []
    build = modules.finite_module_from_plain

    def recorded(group, p, exps, plain_act):
        fm = build(group, p, exps, plain_act)
        seen.append((group, p, exps, plain_act, fm))
        return fm

    monkeypatch.setattr(modules, "finite_module_from_plain", recorded)
    scn = scenarios.load_scenario(source)
    for k in scenarios.SCAN_STAGES:
        chain = scn.stage(k).chain
        for n in range(chain.depth + 1):
            chain.quotient(n)
    assert len(seen) >= 3 * len(scenarios.SCAN_STAGES)
    for group, p, exps, plain_act, fm in seen:
        assert _same_module(fm, finite_module_from_plain_entries(group, p, exps, plain_act))
        # the plain action read back from the hatted one is the input
        assert np.array_equal(plain_action_entries(fm), _plain_input(fm, plain_act))


def _same_array(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


SCENARIOS = {"dihedral_mainline": "dihedral_mainline", "d8_gaussian": "d8_gaussian",
             "c3_eisenstein": str(C3_EISENSTEIN)}


@pytest.mark.parametrize("source", sorted(SCENARIOS))
@pytest.mark.parametrize("k", list(scenarios.SCAN_STAGES) + ["stabilizer"])
def test_pulled_back_chain_matches_the_rebuilt_chain(source, k):
    # a stage chain pulled back along R -> G0, and the stabilizer chain pulled
    # back along P in G0, against the chains built from scratch over R and P
    scn = scenarios.load_scenario(SCENARIOS[source])
    if k == "stabilizer":
        _, got = pairs.stabilizer_chain(scn.lattice(), scn.chain())
        want = stabilizer_chain_by_restriction(scn.lattice(), scn.chain())
    else:
        got, want = scn.stage(k).chain, stage_chain_by_rebuild(scn, k)
    assert _same_array(got.lattice.group.mul, want.lattice.group.mul)
    assert _same_array(got.lattice.act, want.lattice.act)
    assert len(got.bases) == len(want.bases)
    assert all(_same_array(a, b) for a, b in zip(got.bases, want.bases))
    assert (got.index_exponents, got.stopped) == (want.index_exponents, want.stopped)
    for n in range(want.depth + 1):
        Qg, Qw = got.quotient(n), want.quotient(n)
        assert Qg.lattice is got.lattice and Qg.module.group is got.lattice.group
        Sg, Sw = Qg.structure, Qw.structure
        assert (Qg.module.exps, Qg.module.E) == (Qw.module.exps, Qw.module.E)
        assert (Sg.p, Sg.M, Sg.exps, Sg.K.pivots) == (Sw.p, Sw.M, Sw.exps, Sw.K.pivots)
        for a, b in [(Qg.module.act, Qw.module.act),
                     (plain_action_entries(Qg.module), plain_action_entries(Qw.module)),
                     (Sg.gens, Sw.gens), (Sg.to_coords, Sw.to_coords), (Sg.K.rows, Sw.K.rows)]:
            assert _same_array(a, b), n


def test_pullback_along_a_map_that_is_not_a_homomorphism_is_refused():
    scn = scenarios.load_scenario("d8_gaussian")
    G, chain = scn.group(), scn.chain()
    shifted = np.roll(np.arange(G.order), 1)  # moves the identity
    swapped = np.arange(G.order)
    swapped[[1, 2]] = [2, 1]
    assert G.element_orders()[1] != G.element_orders()[2]  # so no automorphism swaps them
    for elements in (shifted, swapped, np.arange(G.order - 1)):
        for target in (scn.lattice(), chain, chain.quotient(3).module):
            with pytest.raises(modules.ModuleError, match="not form a homomorphism"):
                target.pullback(G, elements)


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_hatted_action_with_mixed_exponents_matches_the_entrywise_oracle(data):
    # C2 acting by M = [[1, X], [0, -1]] in blocks, an involution for every X;
    # X_ij needs p^(e_j - e_i) | X_ij to be a module map, and the last
    # coordinate has a larger exponent than the first
    p = data.draw(st.sampled_from([2, 3, 5]))
    r1 = data.draw(st.integers(1, 2))
    r = r1 + data.draw(st.integers(1, 2))
    exps = [1] + [data.draw(st.integers(1, 3)) for _ in range(r - 2)] + [data.draw(st.integers(2, 4))]
    M = np.diag([1] * r1 + [-1] * (r - r1)).astype(np.int64)
    for i in range(r1):
        for j in range(r1, r):
            M[i, j] = p ** max(exps[j] - exps[i], 0) * data.draw(st.integers(-p**3, p**3))
    C2 = groups.make_table(cyclic_table(2))
    ident = np.eye(r, dtype=np.int64)
    fm = modules.finite_module_from_plain(C2, p, exps, [ident, M])
    assert _same_module(fm, finite_module_from_plain_entries(C2, p, exps, [ident, M]))
    assert np.array_equal(plain_action_entries(fm), _plain_input(fm, [ident, M]))
    M[0, r - 1] += 1  # not divisible by p^(e_last - e_first): not a module map
    for build in (modules.finite_module_from_plain, finite_module_from_plain_entries):
        with pytest.raises(modules.ModuleError, match="not a well defined module map"):
            build(C2, p, exps, [ident, M])
