import itertools
import random
import sys

import numpy as np
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
    interior_images,
    interior_system_masks,
    interior_system_of,
    is_moore_family,
    operator_from_interior_system,
)
from trsys.errors import InvariantViolation, NotMonotone, SizeLimit
from trsys.functorial import LatticeMap
from trsys.covers import enumerate_saturated_covers
from trsys.lattice import Lattice, all_lattices, boolean_cube, chain, from_order, iterated_fusion, product
from trsys.oracles import naive_interior_operators
from trsys.transfer import (
    complete_system,
    discrete_system,
    enumerate_saturated_systems,
    enumerate_transfer_systems,
    generate,
    saturated_hull,
)
from trsys.verify import modular_family


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
    # every subset of a chain holding bottom is join-closed, so exactly 2^n
    # systems, far past what the search could list
    for n in range(61):
        assert count_interior_operators(chain(n), max_elements=n + 1) == 2 ** n


def test_interior_counts_on_iterated_fusions():
    # iterated_fusion(chain(2), n) is Sub(C_p x C_p) for n = p + 1: bottom and
    # top with n atoms between.  An interior system holds top and any set of
    # atoms, or lacks top and holds at most one atom: 2^n + n + 1
    for n in range(1, 41):
        lat = iterated_fusion(chain(2), n)
        assert count_interior_operators(lat, max_elements=lat.n) == 2 ** n + n + 1
    assert count_interior_operators(iterated_fusion(chain(2), 20), max_elements=22) == 1048597


def test_interior_count_on_the_five_by_five_grid():
    # no closed form: this is agreement with the layer and matchstick routes
    # that first gave it, not a theorem
    assert count_interior_operators(product(chain(5), chain(5)), max_elements=36) == 11467387


def test_interior_count_has_its_own_guard():
    # the count lists nothing, and its refusal names the count, not the enumeration
    lat = product(chain(4), chain(4))
    with pytest.raises(SizeLimit, match="^25 elements exceed interior count guard 16$"):
        count_interior_operators(lat)
    assert count_interior_operators(lat, max_elements=25) == 164731


def test_interior_routines_read_one_height_order_table(monkeypatch):
    # the search, the image rows and the count read the same per-lattice
    # table; only its build reads the height order off _bottom_up
    module = sys.modules["trsys.characteristic"]
    builds = []
    bottom_up = module._bottom_up
    monkeypatch.setattr(module, "_bottom_up", lambda lat: builds.append(lat) or bottom_up(lat))
    lat = product(chain(2), chain(3))
    assert len(interior_system_masks(lat)) == 533
    table = module._height_order(lat)
    assert len(interior_images(lat)) == count_interior_operators(lat, lat.n) == 533
    assert builds == [lat] and module._height_order(lat) is table
    assert len(lat._cache) == 2  # _bottom_up and the height-order table


def test_interior_count_needs_no_recursion():
    # the count keeps its own stack, so a 61-element chain counts with the
    # interpreter's recursion limit a few dozen frames above the caller
    lat = chain(60)
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 40)
    try:
        assert count_interior_operators(lat, max_elements=61) == 2 ** 60
    finally:
        sys.setrecursionlimit(limit)


def test_interior_count_equals_the_search_on_every_lattice_up_to_eight_elements():
    # the count shares only the join tables with the search; each lattice also runs
    # relabelled, so height order is not label order, and dualized
    rng = random.Random(25)
    for base in [lat for n in range(1, 9) for lat in all_lattices(n)]:
        perm = rng.sample(range(base.n), base.n)
        for lat in (base, Lattice(base.leq[np.ix_(perm, perm)]), base.dual()):
            assert count_interior_operators(lat, lat.n) == len(interior_system_masks(lat))


def test_interior_count_equals_the_search_on_products_with_chains():
    for base in all_lattices(6) + all_lattices(7):
        for c in (1, 2):
            lat = product(base, chain(c))
            assert count_interior_operators(lat, lat.n) == len(interior_system_masks(lat))


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


def test_interior_images_off_the_masks_equal_the_bottom_up_route():
    # enumerate_interior_operators reads f(x) = max(M ∩ ↓x) off the top bit of
    # M ∩ ↓x in height order; operator_from_interior_system joins f over the
    # lower covers, for any mask.  Each lattice also runs relabelled, so the
    # height order is not the label order
    lats = [lat for n in range(1, 8) for lat in all_lattices(n)] + [lat for _, lat in modular_family()]
    rng = random.Random(21)
    for base in lats:
        perm = rng.sample(range(base.n), base.n)
        for lat in (base, Lattice(base.leq[np.ix_(perm, perm)])):
            ops = enumerate_interior_operators(lat)
            routes = [operator_from_interior_system(lat, m) for m in interior_system_masks(lat)]
            routes.sort(key=lambda f: f.image)
            assert [f.image for f in ops] == [f.image for f in routes]
            assert all(type(f) is InteriorOperator and f.lattice is lat for f in ops)


def _assert_rows_are_the_interior_systems(lat):
    rows = interior_images(lat, guard=None)
    masks = interior_system_masks(lat, guard=None)
    assert rows == sorted(bytes(operator_from_interior_system(lat, m).image) for m in masks)
    assert len(rows) == count_interior_operators(lat, lat.n)
    return rows


def test_interior_images_are_the_sorted_rows_of_the_interior_systems():
    # one byte per element, indexed by label, in lexicographic image order.
    # Each lattice also runs relabelled, so the height order is not the label
    # order, and dualized; products with chains give rows past 8 elements
    rng = random.Random(26)
    lats = [lat for n in range(1, 9) for lat in all_lattices(n)]
    assert len(lats) == 300
    lats += [product(base, chain(c)) for base in all_lattices(5) for c in (1, 2)]
    for base in lats:
        perm = rng.sample(range(base.n), base.n)
        for lat in (base, Lattice(base.leq[np.ix_(perm, perm)]), base.dual()):
            rows = _assert_rows_are_the_interior_systems(lat)
            assert [f.image for f in enumerate_interior_operators(lat)] == [tuple(row) for row in rows]


def test_interior_image_rows_join_their_two_halves():
    # the rows join partial rows of the height-order positions below and from
    # n // 2.  chain(0) has no low half; [4]x[4] repeats 968 low and 1,142 high
    # halves over its rows; and with top labelled 0 the high half reaches label 0,
    # which must still hide the low half of the row
    assert interior_images(chain(0)) == [b"\x00"]
    assert len(_assert_rows_are_the_interior_systems(product(chain(4), chain(4)))) == 164_731
    height_order = sys.modules["trsys.characteristic"]._height_order
    for base in (chain(3), product(chain(1), chain(2)), boolean_cube(3), product(chain(2), chain(3))):
        perm = list(reversed(range(base.n)))  # top, at the last position, takes label 0
        lat = Lattice(base.leq[np.ix_(perm, perm)])
        assert height_order(lat)[0].index(0) >= lat.n // 2
        rows = _assert_rows_are_the_interior_systems(lat)
        assert any(row[0] == 0 for row in rows)  # the rows whose system holds top


def test_interior_images_refuse_more_than_256_elements_before_searching(monkeypatch):
    # a byte holds the labels 0..255: chain(256) has 257 elements and 2^256
    # interior operators, and is refused at once whatever the leaf guard admits,
    # while the 4,096 operators of chain(12) stop at the leaf guard
    with pytest.raises(SizeLimit, match="guard of 1000 leaves"):
        interior_images(chain(12), guard=1000)
    module = sys.modules["trsys.characteristic"]  # the package exports a function of that name
    monkeypatch.setattr(module, "_interior_masks", lambda *args: pytest.fail("searched"))
    with pytest.raises(SizeLimit, match="257 elements exceed the 256 labels"):
        interior_images(chain(256), guard=None)
    with pytest.raises(SizeLimit, match="257 elements exceed the 256 labels"):
        interior_images(chain(256))
    with pytest.raises(SizeLimit, match="257 elements exceed the 256 labels"):
        enumerate_interior_operators(chain(256), guard=None)
    # 256 elements pass: the system of every element gives the identity row
    lat = chain(255)
    monkeypatch.setattr(module, "_interior_masks", lambda *args: [(1 << lat.n) - 1])
    assert interior_images(lat) == [bytes(range(256))]


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
    tr2 = enumerate_transfer_systems(chain(2))
    assert chi_image_check(tr2)
    assert len({characteristic(s).image for s in tr2}) == 4
    assert chi_image_check(enumerate_transfer_systems(boolean_cube(2)))
    f3 = iterated_fusion(chain(2), 3)
    assert chi_image_check(enumerate_transfer_systems(f3))
    assert count_interior_operators(f3) == 12
    assert chi_image_check(enumerate_transfer_systems(pentagon()))


def test_fiber_sizes_on_three_chain():
    fibers = fiber_decomposition(enumerate_transfer_systems(chain(2)))
    assert sorted(len(f.members) for f in fibers) == [1, 1, 1, 2]


def test_fiber_structure_on_fusions():
    for n in (2, 3, 4):
        lat = iterated_fusion(chain(2), n)
        fibers = fiber_decomposition(enumerate_transfer_systems(lat))
        sizes = sorted(len(f.members) for f in fibers)
        assert sizes == [1] * (2 ** n + n) + [2 ** n]
        assert len(fibers) == count_interior_operators(lat)


def test_fiber_count_equals_operator_count_everywhere():
    for lat in FEASIBLE:
        fibers = fiber_decomposition(enumerate_transfer_systems(lat))
        assert len(fibers) == count_interior_operators(lat)


def test_census_of_every_lattice_up_to_eight_elements():
    # the paper's first theorem holds on every finite lattice, modular or
    # not: each chi-fiber has a saturated top, one per interior operator
    lattices = [lat for n in range(1, 9) for lat in all_lattices(n)]
    assert (len(lattices), sum(lat.is_modular() for lat in lattices)) == (300, 67)
    for lat in lattices:
        interior = count_interior_operators(lat)
        assert len(enumerate_saturated_systems(lat)) == interior
        if lat.is_modular():
            assert len(enumerate_saturated_covers(lat)) == interior
        if lat.n <= 7:
            fibers = fiber_decomposition(enumerate_transfer_systems(lat))
            assert len(fibers) == interior
            for fiber in fibers:
                top = max(fiber.members, key=lambda s: s.bits.bit_count())
                assert all(s <= top for s in fiber.members) and top.is_saturated()


def test_fiber_minimum_construction():
    lat = chain(2)
    op = characteristic(complete_system(lat))
    assert fiber_minimum(op) == generate(lat, [(0, 1), (0, 2)])


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
