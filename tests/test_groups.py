import contextlib
import io
import itertools
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import brute_force
from coclass import cli, extensions, groups, modules, scenarios

from brute_force import (brute_is_normal, brute_is_subgroup, brute_isomorphisms, center,
                         center_of_table, closure_table_fill, compose_permutations, compose_perms,
                         element_orders_by_steps, extension_mul_by_blocks, lcs_report_by_table,
                         lower_central_series_terms, permutation_table, series_images,
                         table_coclass)

C3_EISENSTEIN = Path(__file__).resolve().parent / "data" / "c3_eisenstein.json"


def cyclic_table(n):
    return [[(i + j) % n for j in range(n)] for i in range(n)]


D8_PRESENTATION = {
    "presentation": {"generators": ["a", "b"], "relators": ["a^2", "b^4", "a^-1 b a b"]}
}


def permutation_spec(perms):
    """A table spec of the group the permutations generate, with them as its
    generators, filled by the all-pairs oracle."""
    mul, gens, _ = closure_table_fill(perms, compose_permutations, tuple(range(len(perms[0]))))
    return {"table": mul.tolist(), "generators": gens}


def test_trivial_group():
    G = groups.build_group({"presentation": {"generators": [], "relators": []}})
    assert G.order == 1
    assert [len(t) for t in lower_central_series_terms(G)] == [1]
    assert table_coclass(G) == 0


def test_cyclic_table_and_orders():
    G = groups.make_table(cyclic_table(4))
    assert G.order == 4
    assert sorted(G.element_orders()) == [1, 2, 4, 4]
    assert np.array_equal(G.mul, G.mul.T)
    assert table_coclass(G) == 1


def test_cyclic_closure_from_generator():
    G, _ = permutation_table([(1, 2, 3, 0)])
    assert G.order == 4
    powers = groups.subgroup_closure_table(G.mul, G.identity, G.generators[:1])
    assert len(powers) == 4


def test_d8_from_presentation():
    G = groups.build_group(D8_PRESENTATION)
    assert G.order == 8
    assert [len(t) for t in lower_central_series_terms(G)] == [8, 2, 1]
    assert table_coclass(G) == 1
    assert not np.array_equal(G.mul, G.mul.T)


def test_quaternion_presentation():
    Q = groups.build_group(
        {"presentation": {"generators": ["a", "b"],
                          "relators": ["a^4", "a^2 b^-2", "a^-1 b a b"]}}
    )
    assert Q.order == 8
    # one element of order 2 distinguishes Q8 from D8
    assert int(np.sum(Q.element_orders() == 2)) == 1
    assert table_coclass(Q) == 1


def test_bad_table_rejected():
    bad = [[0, 1], [1, 1]]
    with pytest.raises(groups.GroupError):
        groups.make_table(bad)


def test_index_type_follows_the_order():
    # the rule alone, at the boundary; no table of order 2^15 + 1 is built
    assert groups.index_dtype(1) == np.int16
    assert groups.index_dtype(2**15) == np.int16
    assert groups.index_dtype(2**15 + 1) == np.int32


def test_every_builder_stores_the_narrowest_index_type():
    D8 = groups.build_group(D8_PRESENTATION)
    C2 = groups.make_table(cyclic_table(2))
    built = [
        D8,
        groups.make_table(cyclic_table(5)),
        groups.make_table(np.array(cyclic_table(6), dtype=np.uint8)),
        groups.restricted_table(D8, lower_central_series_terms(D8)[1])[0],
        extensions.split_table(modules.finite_module_from_plain(C2, 2, [2], [[[1]], [[-1]]])),
    ]
    for G in built:
        assert G.mul.dtype == groups.index_dtype(G.order), G.order


def test_a_table_of_another_index_type_is_refused():
    G = groups.make_table(cyclic_table(4))
    with pytest.raises(groups.GroupError, match="int16"):
        groups.GroupTable(G.mul.astype(np.int64), 0, G.inverses, G.generators)


@pytest.mark.parametrize("entry", [1 + 65536, 5 + 65536, -1, 1 - 65536])
def test_entries_are_range_checked_before_they_are_narrowed(entry):
    # 1 + 65536 and 1 - 65536 would wrap to the right product 1 in int16
    mul = np.array(cyclic_table(5), dtype=np.int64)
    mul[3, 3] = entry
    with pytest.raises(groups.GroupError, match="out of range"):
        groups.make_table(mul)


def test_nonassociative_rejected():
    # latin square that is not a group table (order 5 loop)
    sq = [
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 3, 4, 0, 1],
        [3, 4, 1, 2, 0],
        [4, 2, 0, 1, 3],
    ]
    with pytest.raises(groups.GroupError):
        groups.make_table(sq)


def test_automorphisms_c2_c4_d8():
    C2 = groups.make_table(cyclic_table(2))
    assert len(groups.automorphism_group(C2)) == 1
    C4 = groups.make_table(cyclic_table(4))
    assert len(groups.automorphism_group(C4)) == 2
    D8 = groups.build_group(D8_PRESENTATION)
    auts = groups.automorphism_group(D8)
    assert len(auts) == 8
    # closure under composition and inverses
    keys = {a.tobytes() for a in auts}
    for a, b in itertools.product(auts, repeat=2):
        assert compose_perms(a, b).tobytes() in keys
    for a in auts:
        assert groups.invert_perm(a).tobytes() in keys
    ident = np.arange(8)
    assert ident.tobytes() in keys


@pytest.mark.parametrize("spec_a, spec_b", [
    (D8_PRESENTATION, permutation_spec([(1, 2, 3, 0), (3, 2, 1, 0)])),
    (D8_PRESENTATION, {"presentation": {"generators": ["a", "b"],
                                        "relators": ["a^4", "a^2 b^-2", "a^-1 b a b"]}}),
    (permutation_spec([(1, 2, 0, 4, 5, 3), (3, 5, 4, 0, 2, 1)]), {"table": cyclic_table(6)}),
    (permutation_spec([(1, 2, 0), (1, 0, 2)]),
     permutation_spec([(1, 2, 0, 4, 5, 3), (3, 5, 4, 0, 2, 1)])),
    # both Klein generators may go to the involution of C4: a homomorphism, not a bijection
    ({"table": [[i ^ j for j in range(4)] for i in range(4)]}, {"table": cyclic_table(4)}),
])
def test_isomorphisms_are_exactly_the_bijective_homomorphisms(spec_a, spec_b):
    G, H = groups.build_group(spec_a), groups.build_group(spec_b)
    found = [img.tolist() for img in groups.isomorphisms(G, H)]
    assert len(set(map(tuple, found))) == len(found)
    assert sorted(found) == brute_isomorphisms(G.mul.tolist(), H.mul.tolist())


def test_closure_is_breadth_first():
    reached = groups.closure([0], [3, 5], lambda x, g: (x + g) % 8)
    assert list(reached) == [0, 3, 5, 6, 2, 1, 7, 4]
    firsts = groups.closure([0], [1, 9], lambda x, g: x + g, key=lambda x: x % 3)
    assert firsts == {0: 0, 1: 1, 2: 2}


def test_associativity_is_exact_above_the_old_sampling_order():
    mul = np.array(cyclic_table(1024))
    # one intercalate swap keeps a Latin square with identity and inverses
    mul[1, 2], mul[1, 514], mul[513, 2], mul[513, 514] = 515, 3, 3, 515
    assert all(len(set(row)) == 1024 for row in mul.tolist())
    assert all(len(set(col)) == 1024 for col in mul.T.tolist())
    with pytest.raises(groups.GroupError, match="not associative"):
        groups.make_table(mul)


def test_given_generators_are_tested_for_associativity():
    mul = np.array(cyclic_table(8))
    mul[1, 2], mul[1, 6], mul[5, 2], mul[5, 6] = 7, 3, 3, 7
    with pytest.raises(groups.GroupError, match="not associative"):
        groups.make_table(mul, generators=[1])
    with pytest.raises(groups.GroupError, match="do not generate"):
        groups.make_table(cyclic_table(8), generators=[2])


def test_lcs_terms_are_normal():
    D8 = groups.build_group(D8_PRESENTATION)
    mul, inv = D8.mul.tolist(), D8.inverses.tolist()
    for term in series_images(D8):
        assert brute_is_subgroup(mul, D8.identity, term)
        assert brute_is_normal(mul, inv, term)


def test_center_d8():
    D8 = groups.build_group(D8_PRESENTATION)
    assert len(center(D8)) == 2


def test_semidirect_split_table():
    # C2 acting by negation on Z/4: the dihedral group of order 8
    gmul = np.array([[0, 1], [1, 0]])
    act = [np.array([[1]]), np.array([[-1]])]
    E = groups.make_table(extension_mul_by_blocks(gmul, [4], act))
    assert E.order == 8
    assert [len(t) for t in lower_central_series_terms(E)] == [8, 2, 1]


def test_split_product_peaks_under_twice_its_table():
    # the order-512 split quotient of dihedral_mainline (|G0| = 2); beside
    # the table, `split_table` holds the right multiplications by the two
    # generators and a few columns, each far below a quarter of the table
    scn = scenarios.load_scenario("dihedral_mainline")
    A = scn.quotient(8).module
    tracemalloc.start()
    try:
        table = extensions.split_table(A)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert table.order == 512
    assert peak <= 2 * table.mul.nbytes, "peak %.2f x the table" % (peak / table.mul.nbytes)


def test_factor_set_extension_table():
    # C2 on Z/4 by negation with tau(g,h) = 2 for g=h=flip: quaternion-like check
    gmul = np.array([[0, 1], [1, 0]])
    act = [np.array([[1]]), np.array([[-1]])]
    tau = [[np.array([0]), np.array([0])], [np.array([0]), np.array([2])]]
    E = groups.make_table(extension_mul_by_blocks(gmul, [4], act, tau))
    assert E.order == 8
    assert int(np.sum(E.element_orders() == 2)) == 1  # quaternion group



@pytest.mark.parametrize("gens, relators, order, involutions", [
    (["a", "b"], ["a^2", "b^4", "a^-1 b a b"], 8, 5),  # D8
    (["a", "b"], ["a^4", "a^2 b^-2", "a^-1 b a b"], 8, 1),  # Q8
    (["a"], ["a^12"], 12, 1),
    (["a", "b", "c"], ["a^2", "b^2", "c^2", "a b a^-1 b^-1", "a c a^-1 c^-1", "b c b^-1 c^-1"],
     8, 7),  # C2^3
    (["a", "b"], ["a^2", "b^3", "a b a b"], 6, 3),  # S3
    (["a", "b"], ["a^4", "a b^-1"], 4, 1),  # two equal generators
])
def test_presentation_matches_the_permutation_closure(gens, relators, order, involutions):
    G = groups.from_presentation(gens, relators)
    assert G.order == order
    assert int(np.sum(G.element_orders() == 2)) == involutions
    # closing the right-regular permutations one product at a time gives the same table
    perms = [tuple(G.mul[:, g].tolist()) for g in G.generators]
    mul, gen_idx, _ = closure_table_fill(perms, compose_permutations, tuple(range(order)))
    assert np.array_equal(G.mul, mul)
    assert G.generators == gen_idx


def test_presentation_order_is_checked_against_the_table_cap(monkeypatch):
    monkeypatch.setattr(groups, "CLOSURE_CAP", 8)
    with pytest.raises(groups.GroupError, match="order 10 exceeds the table cap 8"):
        groups.from_presentation(["a"], ["a^10"])
    monkeypatch.setattr(groups, "CLOSURE_CAP", 10)
    assert groups.from_presentation(["a"], ["a^10"]).order == 10


def test_light_test_checks_the_last_partial_row_block():
    # 96 does not divide 2^13, so the last row block is partial; the swap in
    # the last row breaks associativity there and nowhere else
    n = 96
    first, *_, last = groups._row_blocks(np.arange(n)[:, None])
    assert len(last) < len(first) and n - 1 in last
    mul = np.array(cyclic_table(n))
    mul[n - 1, [2, 3]] = mul[n - 1, [3, 2]]
    with pytest.raises(groups.GroupError, match="not associative"):
        groups.make_table(mul, generators=[1])


_PIPELINE_ARGVS = [
    ["run-all", "--scenario", "dihedral_mainline"],
    ["run-all", "--scenario", "d8_gaussian"],
    ["run-all", "--scenario", str(C3_EISENSTEIN)],
    ["branch", "--scenario", "dihedral_mainline", "--i", "7", "--k", "1", "--shift"],
]


@pytest.fixture(scope="module")
def pipeline_tables():
    """Every distinct group whose lower central series the pipeline reads off
    an extension of it, and the split quotients up to order 512 of each
    run-all scenario, whose tables the lower-central-series oracle builds."""
    tables = {}
    series, build = extensions.lower_central_series, brute_force.extension_table_by_blocks

    def record(G):
        tables.setdefault(G.mul.tobytes(), G)
        return G

    def recorded_series(A, tau):
        record(A.group)
        return series(A, tau)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(extensions, "lower_central_series", recorded_series)
        mp.setattr(brute_force, "extension_table_by_blocks", lambda G, A: record(build(G, A)))
        for argv in _PIPELINE_ARGVS:
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(argv) == 0
            if argv[0] == "run-all":
                assert lcs_report_by_table(scenarios.load_scenario(argv[2]), 512)["ok"]
    return list(tables.values())


def test_lcs_from_generator_commutators_matches_all_commutators(pipeline_tables):
    # the coordinate series commutes with generators only; its images in G
    # are gamma_i(G), against every commutator of G
    assert max(G.order for G in pipeline_tables) == 512
    for G in pipeline_tables:
        assert series_images(G) == lower_central_series_terms(G)


def test_orders_and_center_match_the_naive_ones(pipeline_tables):
    for G in pipeline_tables:
        assert np.array_equal(G.element_orders(), element_orders_by_steps(G.mul, G.identity))
        assert center(G) == center_of_table(G.mul)
