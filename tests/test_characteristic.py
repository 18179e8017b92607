import itertools

import pytest

from trsys.characteristic import (
    InteriorOperator,
    characteristic,
    chi_image_check,
    count_interior_operators,
    enumerate_interior_operators,
    fiber_decomposition,
    fiber_minimum,
    galois_F,
    galois_G,
    interior_system_masks,
    interior_system_of,
    is_moore_family,
    operator_from_interior_system,
)
from trsys.errors import InvariantViolation, NotMonotone
from trsys.functorial import LatticeMap
from trsys.lattice import boolean_cube, chain, from_order, iterated_fusion, product
from trsys.oracles import naive_interior_operators
from trsys.transfer import (
    complete_system,
    discrete_system,
    enumerate_transfer_systems,
    generate,
    saturated_hull,
)


def pentagon():
    return from_order(5, [(0, 1), (1, 2), (2, 4), (0, 3), (3, 4)])


FEASIBLE = [
    chain(2),
    chain(3),
    boolean_cube(2),
    iterated_fusion(chain(2), 3),
    pentagon(),
    product(chain(1), chain(2)),
]


# -- the characteristic map ------------------------------------------------------


def test_chi_examples_on_the_three_chain():
    lat = chain(2)
    assert characteristic(complete_system(lat)).image == (0, 0, 0)
    assert characteristic(discrete_system(lat)).image == (0, 1, 2)
    assert characteristic(generate(lat, [(0, 1), (0, 2)])).image == (0, 0, 0)


def test_chi_is_certified_interior():
    # chi wraps its image unchecked: validate it, and check that chi(x) is
    # related to x, that is that the meet of the R-downset lies in it
    for lat in FEASIBLE:
        for system in enumerate_transfer_systems(lat):
            op = characteristic(system)
            assert isinstance(op, InteriorOperator)
            assert InteriorOperator(lat, op.image) == op
            assert all(system.contains(f, x) for x, f in enumerate(op.image))


def test_chi_is_antitone():
    for lat in FEASIBLE:
        tr = enumerate_transfer_systems(lat)
        chis = {s.bits: characteristic(s) for s in tr}
        for a in tr:
            for b in tr:
                if a.refines(b):
                    assert chis[b.bits].pointwise_leq(chis[a.bits])


def test_stratification_property():
    # between chi(x) and x, nothing from below chi(x) relates in
    for lat in FEASIBLE[:4]:
        for system in enumerate_transfer_systems(lat):
            op = characteristic(system)
            for x in range(lat.n):
                n0 = op.image[x]
                for y in range(lat.n):
                    if lat.leq[n0, y] and lat.leq[y, x]:
                        for z in range(lat.n):
                            if system.contains(z, y):
                                assert lat.leq[n0, z]


def test_chi_constant_on_meets_and_joins_within_fibers():
    for lat in (chain(3), boolean_cube(2), iterated_fusion(chain(2), 3)):
        tr = enumerate_transfer_systems(lat)
        for a in tr:
            for b in tr:
                if characteristic(a).image == characteristic(b).image:
                    want = characteristic(a).image
                    assert characteristic(a | b).image == want
                    assert characteristic(a & b).image == want


def test_interior_operator_validation():
    lat = chain(2)
    with pytest.raises(NotMonotone):
        LatticeMap(lat, lat, (2, 1, 0))
    with pytest.raises(InvariantViolation):
        InteriorOperator(lat, (0, 2, 2))  # not contractive at 1
    with pytest.raises(InvariantViolation):
        InteriorOperator(lat, (0, 0, 1))  # not idempotent at 2
    # -1 would wrap around to the top in a list or an array
    for image in [(0, 1, -1), (0, 1, 3), (0, 1)]:
        with pytest.raises(ValueError):
            LatticeMap(lat, lat, image)
        with pytest.raises(ValueError):
            InteriorOperator(lat, image)


def test_interior_operators_on_different_lattices_differ():
    # the same image on two orders of four elements is two different maps
    on_chain = InteriorOperator(chain(3), (0, 0, 0, 0))
    on_square = InteriorOperator(boolean_cube(2), (0, 0, 0, 0))
    assert on_chain != on_square
    assert on_chain == InteriorOperator(chain(3), (0, 0, 0, 0))
    assert len({on_chain, on_square, InteriorOperator(chain(3), (0, 0, 0, 0))}) == 2
    assert on_chain.lattice is on_chain.source is on_chain.target
    assert repr(on_chain) == "InteriorOperator(0, 0, 0, 0)"


# -- interior operator enumeration ----------------------------------------------


def test_interior_counts_on_cubes():
    for n, want in enumerate([1, 2, 7, 61, 2480]):
        assert count_interior_operators(boolean_cube(n), max_elements=16) == want


def test_interior_counts_on_chains():
    # every subset of a chain is join-closed, so exactly 2^n systems
    for n in range(6):
        assert count_interior_operators(chain(n)) == 2 ** n


def test_single_element_lattice_has_identity_only():
    ops = enumerate_interior_operators(chain(0))
    assert len(ops) == 1 and ops[0].image == (0,)


def test_interior_enumeration_matches_raw_map_filter():
    for lat in (chain(2), chain(3), boolean_cube(2), iterated_fusion(chain(2), 3)):
        fast = [op.image for op in enumerate_interior_operators(lat)]
        slow = naive_interior_operators(lat)
        assert fast == slow


def test_interior_systems_are_operator_images():
    for lat in FEASIBLE:
        for mask in interior_system_masks(lat):
            op = operator_from_interior_system(lat, mask)
            assert interior_system_of(op) == mask
            # the operator is wrapped unchecked: validate it here
            assert InteriorOperator(lat, op.image) == op


def test_interior_operator_meets_lower_bounds():
    # for an interior operator with f(x) <= y and y, z <= x: f(z) <= y ^ z
    for lat in FEASIBLE:
        for op in enumerate_interior_operators(lat):
            for x in range(lat.n):
                for y in range(lat.n):
                    for z in range(lat.n):
                        if lat.leq[y, x] and lat.leq[z, x] and lat.leq[op.image[x], y]:
                            assert lat.leq[op.image[z], lat.meet[y][z]]


def test_closure_operators_match_on_self_dual_lattices():
    # meet-closed subsets containing top = interior systems of the dual;
    # on self-dual lattices the two counts agree
    for lat in (boolean_cube(2), boolean_cube(3), chain(4)):
        assert count_interior_operators(lat) == count_interior_operators(lat.dual())


# -- image and fibers -------------------------------------------------------------


def test_chi_image_equals_interior_operators():
    lat2 = chain(2)
    assert chi_image_check(lat2)
    assert len({characteristic(s).image for s in enumerate_transfer_systems(lat2)}) == 4
    assert chi_image_check(boolean_cube(2))
    f3 = iterated_fusion(chain(2), 3)
    assert chi_image_check(f3)
    assert count_interior_operators(f3) == 12
    assert chi_image_check(pentagon())


def test_fiber_sizes_on_three_chain():
    fibers = fiber_decomposition(chain(2))
    assert sorted(len(f.members) for f in fibers) == [1, 1, 1, 2]


def test_fiber_structure_on_fusions():
    for n in (2, 3, 4):
        lat = iterated_fusion(chain(2), n)
        fibers = fiber_decomposition(lat)
        sizes = sorted(len(f.members) for f in fibers)
        assert sizes == [1] * (2 ** n + n) + [2 ** n]
        assert len(fibers) == count_interior_operators(lat)


def test_fiber_count_equals_operator_count_everywhere():
    for lat in FEASIBLE:
        fibers = fiber_decomposition(lat)
        assert len(fibers) == count_interior_operators(lat)


def test_fiber_minimum_construction():
    lat = chain(2)
    op = characteristic(complete_system(lat))
    assert fiber_minimum(lat, op) == generate(lat, [(0, 1), (0, 2)])


def test_saturated_systems_biject_with_operators():
    # restricting chi to saturated systems is injective onto the image
    for lat in FEASIBLE:
        tr = enumerate_transfer_systems(lat)
        saturated = [s for s in tr if s.is_saturated()]
        images = {characteristic(s).image for s in saturated}
        assert len(images) == len(saturated)
        assert images == {op.image for op in enumerate_interior_operators(lat)}


def test_hull_preserves_chi():
    for lat in (chain(3), boolean_cube(2), iterated_fusion(chain(2), 3)):
        for system in enumerate_transfer_systems(lat):
            assert characteristic(saturated_hull(system)).image == characteristic(system).image


# -- the Galois pair ---------------------------------------------------------------


def test_galois_examples():
    lat = chain(2)
    assert galois_F(lat, []) == discrete_system(lat)
    # relating bottom to top forces bottom under everything, nothing more
    assert galois_F(lat, [0]).pairs() == [(0, 1), (0, 2)]
    assert sorted(galois_G(discrete_system(lat))) == [2]
    assert sorted(galois_G(complete_system(lat))) == [0, 1, 2]


def test_galois_middle_of_fusion_gives_middle_block_system():
    f3 = iterated_fusion(chain(2), 3)
    system = galois_F(f3, [1])
    assert set(system.pairs()) == {(1, 4), (0, 2), (0, 3)}


def test_galois_adjunction_law():
    for lat in (chain(2), boolean_cube(2)):
        tr = enumerate_transfer_systems(lat)
        elements = range(lat.n)
        for r in range(lat.n + 1):
            for s in itertools.combinations(elements, r):
                f_s = galois_F(lat, s)
                for system in tr:
                    assert f_s.refines(system) == (set(s) <= galois_G(system))


def test_fibrant_sets_are_moore_families():
    for lat in FEASIBLE:
        for system in enumerate_transfer_systems(lat):
            assert is_moore_family(lat, galois_G(system))


def test_cosaturated_systems_close_under_F_G():
    # F(G(F(S))) = F(S): the pair restricts to a correspondence on images
    lat = boolean_cube(2)
    for r in range(lat.n + 1):
        for s in itertools.combinations(range(lat.n), r):
            f_s = galois_F(lat, s)
            assert galois_F(lat, galois_G(f_s)) == f_s
