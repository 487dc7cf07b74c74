import math

import numpy as np
import pytest

from coclass import cohomology, groups, linalg, modules, pairs

from brute_force import (brute_act_on_cochain, check_centralizing, check_pi_rho_trivial_on_h2,
                         check_rho_additivity, is_coboundary, pair_compose, pair_identity,
                         pair_inverse, pair_key, rho_pi_pairs)


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
    ps = pairs.compatible_pairs(Q.module)
    # only the identity automorphism of C2; the units of Z/4 commute with -1
    assert len(ps) == 2
    keys = {pair_key(p) for p in ps}
    assert pair_key(pair_identity(Q.module)) in keys


def test_pairs_closed_under_composition_and_inverse():
    T, chain, _ = c2_setup()
    Q = modules.quotient(T, chain, 3)
    A = Q.module
    ps = pairs.compatible_pairs(A)
    keys = {pair_key(p) for p in ps}
    for x in ps:
        assert pair_key(pair_inverse(A, x)) in keys
        for y in ps:
            assert pair_key(pair_compose(A, x, y)) in keys


def test_trivial_action_gives_full_product():
    C2 = groups.make_table(cyclic_table(2))
    ident = [np.eye(2, dtype=np.int64)] * 2
    A = modules.finite_module_from_plain(C2, 2, [1, 1], ident)
    ps = pairs.compatible_pairs(A)
    # Aut(C2) x Aut((Z/2)^2) = 1 x GL(2, 2)
    assert len(ps) == 6


def test_action_is_a_group_action_on_classes():
    T, chain, period = d8_setup()
    Q = modules.quotient(T, chain, 4)
    H = cohomology.finite_cohomology(Q.module, 2)
    A = Q.module
    ps = pairs.compatible_pairs(A)
    rep = H.representative(groups.all_coord_rows(H.structure.moduli().tolist())[0])
    rng = np.random.default_rng(5)
    picks = rng.choice(len(ps), size=min(6, len(ps)), replace=False)
    for i in picks:
        x = ps[int(i)]
        inv = pair_inverse(A, x)
        back = pairs.act_on_cochain(H, inv, pairs.act_on_cochain(H, x, rep))
        assert np.array_equal(H.coords(back), H.coords(rep))
        # identity pair fixes everything
    ident = pair_identity(A)
    assert np.array_equal(H.coords(pairs.act_on_cochain(H, ident, rep)), H.coords(rep))


def test_action_sends_coboundaries_to_coboundaries():
    T, chain, _ = d8_setup()
    Q = modules.quotient(T, chain, 3)
    H = cohomology.finite_cohomology(Q.module, 2)
    ps = pairs.compatible_pairs(Q.module)
    for row in H.boundaries[:4]:
        for x in ps[:6]:
            assert is_coboundary(H, pairs.act_on_cochain(H, x, row))


def test_chain_terms_invariant_under_lattice_pairs():
    # uniserial chain terms are setwise invariant under any compatible pair
    T, chain, _ = d8_setup()
    reps = pairs.lattice_pairs_mod(T, 2)
    for _, eps in reps:
        for B in chain.bases[:6]:
            img = (B @ eps) % T.q
            assert linalg.howell(B, T.p, T.N, track=True).solve(img) is not None


def test_orbits_against_brute_reachability():
    T, chain, _ = c2_setup()
    Q = modules.quotient(T, chain, 3)
    H = cohomology.finite_cohomology(Q.module, 2)
    ps = pairs.compatible_pairs(Q.module)
    orb = pairs.orbits_on_h2(H, ps)
    # literal oracle: act on representative rows of every class by every pair
    coords = [tuple(c) for c in groups.all_coord_rows(H.structure.moduli().tolist()).tolist()]
    parent = {c: c for c in coords}

    def find(c):
        while parent[c] != c:
            parent[c] = parent[parent[c]]
            c = parent[c]
        return c

    for c in coords:
        rep = H.representative(c)
        for x in ps:
            img = tuple(int(v) for v in H.coords(pairs.act_on_cochain(H, x, rep)))
            ra, rb = find(c), find(img)
            if ra != rb:
                parent[ra] = rb
    brute = {}
    for c in coords:
        brute.setdefault(find(c), []).append(c)
    assert sorted(len(v) for v in brute.values()) == sorted(orb.sizes)
    assert len(brute) == orb.count


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
    assert check_rho_additivity(A, data.complement)
    assert check_centralizing(A, rp)
    H = cohomology.finite_cohomology(A, 2)
    assert check_pi_rho_trivial_on_h2(H, rp)
    for pair in rp.rho_pairs:
        assert pairs.satisfies_compatibility(A, pair.beta, pair.eps_hat[None]).all()
        assert pairs.automorphism_mask(A, pair.eps_hat)


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
    ps = pairs.compatible_pairs(A)
    stack = np.stack(list({p.eps_hat.tobytes(): p.eps_hat for p in ps}.values()))
    betas = {p.beta.tobytes(): p.beta for p in ps}
    assert len(betas) > 1
    for key, beta in betas.items():
        found = {p.eps_hat.tobytes() for p in ps if p.beta.tobytes() == key}
        want = [eps.tobytes() in found for eps in stack]
        assert pairs.satisfies_compatibility(A, beta, stack).tolist() == want
        assert 0 < sum(want) < len(stack)


def test_induced_matrices_of_a_stack_match_the_per_pair_action():
    T, chain, _ = d8_setup()
    A = modules.quotient(T, chain, 4).module
    H = cohomology.finite_cohomology(A, 2)
    ps = pairs.compatible_pairs(A)
    beta = ps[-1].beta
    eps = np.stack([p.eps_hat for p in ps if np.array_equal(p.beta, beta)])
    got = pairs.induced_h2_matrix(H, beta, eps)
    for M, e in zip(got, eps):
        pair = pairs.CompatiblePair(beta, e)
        want = [H.coords(brute_act_on_cochain(H, pair, g)) for g in H.structure.gens]
        assert np.array_equal(M, np.array(want))
