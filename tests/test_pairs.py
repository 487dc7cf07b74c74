import math
from pathlib import Path

import numpy as np
import pytest

from coclass import cohomology, groups, linalg, modules, pairs, scenarios

from brute_force import (act_on_row, all_pairs_by_search, brute_act_on_cochain,
                         check_centralizing, check_pi_rho_trivial_on_h2, check_rho_additivity,
                         equivariance_by_element, flat_pairs, is_coboundary,
                         orbits_by_permutations, pair_compose, pair_identity, pair_inverse,
                         pair_key, rho_pi_pairs)

DATA = Path(__file__).resolve().parent / "data"


def cyclic_table(n):
    return [[(i + j) % n for j in range(n)] for i in range(n)]


def c2_negation(N=12):
    C2 = groups.make_table(cyclic_table(2))
    return modules.lattice_module(C2, {1: -np.eye(1, dtype=np.int64)}, 2, N)


def d8_lattice(N=21):
    D8 = groups.build_group(
        {"presentation": {"generators": ["a", "b"], "relators": ["a^2", "b^4", "a^-1 b a b"]}}
    )
    a = np.array([[1, 0], [0, -1]])
    b = np.array([[0, 1], [-1, 0]])
    return modules.lattice_module(D8, {D8.generators[0]: a, D8.generators[1]: b}, 2, N)


_cache = {}


def d8_setup():
    if "d8" not in _cache:
        T = d8_lattice()
        chain = modules.g_central_series(T, 9)
        period = modules.chain_period(T, chain)
        _cache["d8"] = (T, chain, period)
    return _cache["d8"]


def c2_setup():
    if "c2" not in _cache:
        T = c2_negation()
        chain = modules.g_central_series(T, 8)
        _cache["c2"] = (T, chain, 1)
    return _cache["c2"]


def test_compatible_pairs_c2_on_z4():
    T, chain, _ = c2_setup()
    Q = modules.quotient(T, chain, 2)
    stacks = pairs.compatible_pairs(Q.module)
    ps = flat_pairs(stacks)
    # only the identity automorphism of C2; the units of Z/4 commute with -1
    assert len(stacks) == 1 and len(ps) == 2
    keys = {pair_key(p) for p in ps}
    assert pair_key(pair_identity(Q.module)) in keys


def test_pairs_closed_under_composition_and_inverse():
    T, chain, _ = c2_setup()
    Q = modules.quotient(T, chain, 3)
    A = Q.module
    ps = flat_pairs(pairs.compatible_pairs(A))
    keys = {pair_key(p) for p in ps}
    for x in ps:
        assert pair_key(pair_inverse(A, x)) in keys
        for y in ps:
            assert pair_key(pair_compose(A, x, y)) in keys


def test_trivial_action_gives_full_product():
    C2 = groups.make_table(cyclic_table(2))
    ident = [np.eye(2, dtype=np.int64)] * 2
    A = modules.finite_module_from_plain(C2, 2, [1, 1], ident)
    ps = flat_pairs(pairs.compatible_pairs(A))
    # Aut(C2) x Aut((Z/2)^2) = 1 x GL(2, 2)
    assert len(ps) == 6


def test_action_is_a_group_action_on_classes():
    T, chain, period = d8_setup()
    Q = modules.quotient(T, chain, 4)
    H = cohomology.finite_cohomology(Q.module, 2)
    A = Q.module
    ps = flat_pairs(pairs.compatible_pairs(A))
    rep = H.representative(groups.all_coord_rows(H.structure.moduli().tolist())[0])
    rng = np.random.default_rng(5)
    picks = rng.choice(len(ps), size=min(6, len(ps)), replace=False)
    for i in picks:
        x = ps[int(i)]
        inv = pair_inverse(A, x)
        back = act_on_row(H, inv, act_on_row(H, x, rep))
        assert np.array_equal(H.coords(back), H.coords(rep))
        # identity pair fixes everything
    ident = pair_identity(A)
    assert np.array_equal(H.coords(act_on_row(H, ident, rep)), H.coords(rep))


def test_action_sends_coboundaries_to_coboundaries():
    T, chain, _ = d8_setup()
    Q = modules.quotient(T, chain, 3)
    H = cohomology.finite_cohomology(Q.module, 2)
    ps = flat_pairs(pairs.compatible_pairs(Q.module))
    for row in H.boundaries[:4]:
        for x in ps[:6]:
            assert is_coboundary(H, act_on_row(H, x, row))


def test_chain_terms_invariant_under_lattice_pairs():
    # uniserial chain terms are setwise invariant under any compatible pair
    T, chain, _ = d8_setup()
    reps = pairs.lattice_pairs_mod(T, 2)
    for _, eps in flat_pairs(reps):
        for B in chain.bases[:6]:
            img = (B @ eps) % T.q
            assert linalg.howell(B, T.p, T.N, track=True).solve(img) is not None


@pytest.mark.parametrize("setup,n", [("dihedral", 3)] + [("d8", n) for n in range(1, 5)],
                         ids=lambda x: str(x))
def test_orbits_against_brute_reachability(setup, n):
    T, chain, _ = {"dihedral": c2_setup, "d8": d8_setup}[setup]()
    Q = modules.quotient(T, chain, n)
    H = cohomology.finite_cohomology(Q.module, 2)
    ps = pairs.compatible_pairs(Q.module)
    orb = pairs.orbits_on_h2(H, ps)
    classes, stabs, acting_order = orbits_by_permutations(H, flat_pairs(ps))
    assert orb.classes == classes
    assert orb.sizes == [len(cl) for cl in classes]
    assert orb.stabilizer_sizes == stabs
    assert orb.acting_order == acting_order


def test_orbits_under_two_pairs_are_orbits_of_the_group_they_generate():
    # every test above passes the whole pair group, whose induced matrices
    # are closed already; two pairs of V4 acting trivially on (Z/4)^2
    # generate more than their own two matrices
    V4 = groups.make_table([[i ^ j for j in range(4)] for i in range(4)])
    A = modules.finite_module_from_plain(V4, 2, [2, 2], [np.eye(2, dtype=np.int64)] * 4)
    H = cohomology.finite_cohomology(A, 2)
    ps = flat_pairs(pairs.compatible_pairs(A))
    two = [ps[int(i)] for i in np.random.default_rng(0).choice(len(ps), 2, replace=False)]
    orb = pairs.orbits_on_h2(H, [(beta, eps[None]) for beta, eps in two])
    classes, stabs, acting_order = orbits_by_permutations(H, two)
    assert acting_order > 2
    assert (orb.classes, orb.stabilizer_sizes, orb.acting_order) == (classes, stabs, acting_order)


def _correspondence_inputs(name):
    scn = scenarios.load_scenario(name)
    T, chain, d = scn.lattice(), scn.chain(), scn.period()
    n = scn.bounds().least_qualifying()
    gens = pairs.generator_pairs(T, chain.quotient(n), chain.quotient(n + d),
                                 pairs.rho_pi_data(T, chain, n, d))
    return T, chain, n, d, gens


def _perturbed(gens, A):
    """The d8 generators with two partners replaced by other compatible
    pairs: the second lattice generator's by its product with the complement
    generator's partner, and the complement generator's by the identity, so
    both fail."""
    (kind, beta, eps_n, eps_nd), last = gens[1], gens[-1]
    assert len(eps_n) == len(last[3]) == 1
    out = list(gens)
    out[1] = (kind, beta, eps_n, A.canonical(eps_nd @ last[3]))
    out[-1] = last[:3] + (A.hat_matrix(np.eye(A.rank, dtype=np.int64))[None],)
    return out


def _perturbed_in_a_stack(gens):
    """The C3 generators with the partners of pairs 2 and 4 of the first
    lattice stack, of 6 pairs, replaced by those of pairs 3 and 0, which act
    on H^2 by the other unit, so pair 2 is the first to fail."""
    kind, beta, eps_n, eps_nd = gens[0]
    assert len(eps_n) == 6
    partners = eps_nd.copy()
    partners[[2, 4]] = eps_nd[[3, 0]]
    return [(kind, beta, eps_n, partners)] + gens[1:]


@pytest.mark.parametrize("case", ["dihedral_mainline", "d8_gaussian", "d8_gaussian perturbed",
                                  "c3_eisenstein perturbed in a stack"])
def test_equivariance_matches_the_per_element_loop(case, monkeypatch):
    name = case.split()[0]
    if name.startswith("c3"):
        name = str(DATA / (name + ".json"))
    T, chain, n, d, gens = _correspondence_inputs(name)
    if case.endswith("perturbed"):
        gens = _perturbed(gens, chain.quotient(n + d).module)
    elif case.endswith("stack"):
        gens = _perturbed_in_a_stack(gens)
    monkeypatch.setattr(pairs, "generator_pairs", lambda *args: gens)
    cor = pairs.orbit_correspondence(T, chain, n, d)
    want = equivariance_by_element(cohomology.level_split(chain, n),
                                   cohomology.level_split(chain, n + d), gens)
    assert (cor.equivariant, cor.witness) == want
    assert cor.equivariant == ("perturbed" not in case)


def test_the_orbit_layer_shifts_and_closes_once(monkeypatch):
    T, chain, n, d, gens = _correspondence_inputs("d8_gaussian")
    calls = {"id_oplus_mu": 0, "closure": 0}

    def counted(module, name):
        fn = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)
    counted(cohomology, "id_oplus_mu")
    counted(groups, "closure")
    cor = pairs.orbit_correspondence(T, chain, n, d)
    assert cor.ok
    assert calls["id_oplus_mu"] <= len(gens) + 2
    H = cohomology.level_split(chain, n).H
    ps = pairs.compatible_pairs(chain.quotient(n).module)
    calls["closure"] = 0
    pairs.orbits_on_h2(H, ps)
    assert calls["closure"] == 1


def test_zero_class_is_a_fixed_point():
    T, chain, _ = d8_setup()
    Q = modules.quotient(T, chain, 4)
    H = cohomology.finite_cohomology(Q.module, 2)
    ps = pairs.compatible_pairs(Q.module)
    orb = pairs.orbits_on_h2(H, ps)
    zero = tuple(0 for _ in H.structure.exps)
    i = orb.orbit_of(zero)
    assert orb.sizes[i] == 1


def test_orbit_of_reads_each_class_and_refuses_coordinates_in_none():
    T, chain, _ = d8_setup()
    Q = modules.quotient(T, chain, 4)
    H = cohomology.finite_cohomology(Q.module, 2)
    orb = pairs.orbits_on_h2(H, pairs.compatible_pairs(Q.module))
    assert [[orb.orbit_of(c) for c in cl] for cl in orb.classes] == [
        [i] * len(cl) for i, cl in enumerate(orb.classes)]
    # a modulus is no coordinate, and neither is a tuple of the wrong length
    for coords in (H.structure.moduli(), (0,) * (len(H.structure.exps) + 1)):
        with pytest.raises(pairs.PairError, match="not found in any orbit"):
            orb.orbit_of(coords)


def test_pairs_act_on_the_width_0_cochains_of_level_0():
    # at level 0 the module is 0, so every cochain is the empty row
    T, chain, _ = d8_setup()
    A = modules.quotient(T, chain, 0).module
    H = cohomology.finite_cohomology(A, 2)
    assert A.rank == 0
    beta = np.arange(A.group.order)
    out = pairs.act_on_cochains(H, beta, np.zeros((2, 0, 0), dtype=np.int64),
                                np.zeros((3, 0), dtype=np.int64))
    assert out.shape == (2, 3, 0)
    orb = pairs.orbits_on_h2(H, pairs.compatible_pairs(A))
    assert (orb.classes, orb.sizes, orb.orbit_of(())) == ([[()]], [1], 0)


def test_complement_trivial_for_c2():
    T, chain, period = c2_setup()
    comp = pairs.complement_En(T, chain, 3, period)
    assert comp.invariants() == []
    assert comp.h1_invariants == []


def test_exponent_bounds_are_periodic():
    T, chain, period = d8_setup()
    b4 = pairs.exponent_bounds(T, chain, 4, period)
    b6 = pairs.exponent_bounds(T, chain, 4 + period, period)
    assert (b4.a_exp, b4.b_exp) == (b6.a_exp, b6.b_exp)


def test_complement_d8_matches_h1():
    T, chain, period = d8_setup()
    bounds = pairs.exponent_bounds(T, chain, 4, period)
    n = bounds.least_qualifying()
    comp = pairs.complement_En(T, chain, n, period)
    assert comp.invariants() == comp.h1_invariants
    assert comp.h1_invariants == [2]
    # the direct sum of the two parts fills End(A_n): orders multiply
    A = comp.end_space.codomain
    empty = np.zeros((0, comp.endT_flat.shape[1]), dtype=np.int64)
    endT_order = linalg.quotient_group(comp.endT_flat, empty, T.p, A.E).order
    assert comp.end_space.structure.order == math.prod(comp.invariants()) * endT_order


def test_each_complement_lift_reduces_to_its_own_generator(monkeypatch):
    # generator_pairs pairs generator i of E_n with lift i; on d8 at level 4
    # the one generator is [[0, 2], [2, 0]], and a lift reducing elsewhere is refused
    T, chain, period = d8_setup()
    comp = pairs.complement_En(T, chain, 4, period)
    assert comp.E_flat.tolist() == [[0, 2, 2, 0]]
    assert np.array_equal(modules.endo_to_quotient(chain.quotient(4), comp.lattice_lifts),
                          comp.end_space.flat_to_matrix(comp.E_flat))
    monkeypatch.setattr(modules, "lift_endo", lambda Q, C, _fn=modules.lift_endo: 2 * _fn(Q, C))
    with pytest.raises(pairs.PairError, match="its own generator"):
        pairs.complement_En(T, chain, 4, period)


def test_rho_pi_structure_d8():
    T, chain, period = d8_setup()
    bounds = pairs.exponent_bounds(T, chain, 4, period)
    n = bounds.least_qualifying()
    Q = modules.quotient(T, chain, n)
    data = pairs.rho_pi_data(T, chain, n, period)
    rp = rho_pi_pairs(T, chain, n, data)
    A = Q.module
    assert check_rho_additivity(A, data[1])
    assert check_centralizing(A, rp)
    H = cohomology.finite_cohomology(A, 2)
    assert check_pi_rho_trivial_on_h2(H, rp)
    for beta, eps in rp.rho_pairs:
        assert pairs.satisfies_compatibility(A, beta, eps[None]).all()
        assert pairs.automorphism_mask(A, eps)


def test_orbit_correspondence_c2():
    T, chain, period = c2_setup()
    bounds = pairs.exponent_bounds(T, chain, 3, period)
    n = bounds.least_qualifying()
    cor = pairs.orbit_correspondence(T, chain, n, period)
    assert cor.equivariant
    assert cor.ok
    assert cor.orbits_n.count == cor.orbits_nd.count


def test_orbit_correspondence_d8():
    T, chain, period = d8_setup()
    bounds = pairs.exponent_bounds(T, chain, 4, period)
    n = bounds.least_qualifying()
    cor = pairs.orbit_correspondence(T, chain, n, period)
    assert cor.equivariant, cor.witness
    assert cor.ok
    assert sorted(cor.orbits_n.sizes) == sorted(cor.orbits_nd.sizes)
    assert cor.orbits_n.count == len(cor.bijection)


def test_orbit_stabilizer_products():
    T, chain, _ = d8_setup()
    Q = modules.quotient(T, chain, 4)
    H = cohomology.finite_cohomology(Q.module, 2)
    ps = pairs.compatible_pairs(Q.module)
    orb = pairs.orbits_on_h2(H, ps)
    for s, st in zip(orb.sizes, orb.stabilizer_sizes):
        assert s * st == orb.acting_order
    assert sum(orb.sizes) == H.order


def test_compatibility_mask_matches_the_pair_enumeration():
    # every automorphism eps of A is tested against every beta at once; the
    # mask must pick out exactly the pairs that the hom spaces produce
    T, chain, _ = d8_setup()
    A = modules.quotient(T, chain, 3).module
    stacks = pairs.compatible_pairs(A)
    stack = np.stack(list({eps.tobytes(): eps for _, eps in flat_pairs(stacks)}.values()))
    assert len(stacks) > 1
    for beta, eps_hats in stacks:
        found = {eps.tobytes() for eps in eps_hats}
        want = [eps.tobytes() in found for eps in stack]
        assert pairs.satisfies_compatibility(A, beta, stack).tolist() == want
        assert 0 < sum(want) < len(stack)


def test_induced_matrices_of_a_stack_match_the_per_pair_action():
    T, chain, _ = d8_setup()
    A = modules.quotient(T, chain, 4).module
    H = cohomology.finite_cohomology(A, 2)
    beta, eps = pairs.compatible_pairs(A)[-1]
    assert len(eps) > 1
    got = pairs.induced_h2_matrix(H, beta, eps)
    for M, e in zip(got, eps):
        want = [H.coords(brute_act_on_cochain(H, (beta, e), g)) for g in H.structure.gens]
        assert np.array_equal(M, np.array(want))


_STAGE_LEVELS = [("d8_gaussian", 0, 2), ("d8_gaussian", 0, 3),
                 ("dihedral_mainline", 1, 2), ("dihedral_mainline", 1, 3)]


@pytest.mark.parametrize("name,k,n", _STAGE_LEVELS, ids=lambda x: str(x))
def test_stacks_leave_out_the_betas_without_pairs(name, k, n):
    # at these levels half or more of the automorphisms beta have no
    # invertible compatible eps, and their stacks are left out
    A = scenarios.load_scenario(name).stage(k).quotient(n).module
    stacks = pairs.compatible_pairs(A)
    assert len(stacks) < len(A.group.automorphisms())
    assert all(len(eps) for _, eps in stacks)
    want = all_pairs_by_search(A)
    assert [pair_key(x) for x in flat_pairs(stacks)] == [pair_key(x) for x in want]
    H = cohomology.finite_cohomology(A, 2)
    orb = pairs.orbits_on_h2(H, stacks)
    classes, stabs, acting_order = orbits_by_permutations(H, want)
    assert (orb.classes, orb.sizes, orb.stabilizer_sizes, orb.acting_order) == (
        classes, [len(cl) for cl in classes], stabs, acting_order)
