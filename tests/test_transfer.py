import itertools

import numpy as np
import pytest

from trsys.counting import interior_only_count, minimal_fibrant_census
from trsys.errors import AmbientMismatch, InvalidTransferSystem, SizeLimit
from trsys.lattice import Lattice, boolean_cube, chain, from_order, iterated_fusion, lattice_to_json, product, sub_cp_cp
from trsys.oracles import (
    least_saturated_above,
    least_system_containing,
    naive_hasse_edges,
    naive_transfer_systems,
)
from trsys.serialize import system_from_json
from trsys.transfer import (
    TrLattice,
    TransferSystem,
    closure_for,
    complete_system,
    discrete_system,
    enumerate_saturated_systems,
    enumerate_transfer_systems,
    find_violation,
    generate,
    saturated_hull,
)


def pentagon():
    return from_order(5, [(0, 1), (1, 2), (2, 4), (0, 3), (3, 4)])


def bits_of(lat, pairs):
    """The pair (x, y) is bit x*n + y; the diagonal is always in."""
    n = lat.n
    return sum(1 << x * (n + 1) for x in range(n)) | sum(1 << x * n + y for x, y in pairs)


# -- validation ----------------------------------------------------------------


def test_discrete_and_complete_are_valid():
    lat = chain(2)
    assert find_violation(lat, bits_of(lat, [])) is None
    assert find_violation(lat, bits_of(lat, [(0, 1), (0, 2), (1, 2)])) is None


def test_missing_restriction_is_reported():
    lat = chain(2)
    violation = find_violation(lat, bits_of(lat, [(0, 2)]))
    assert violation is not None
    assert violation.axiom == "restriction"
    assert violation.witness == (0, 2, 1)
    with pytest.raises(InvalidTransferSystem):
        TransferSystem.from_pairs(lat, [(0, 2)])


def test_missing_transitivity_is_reported():
    lat = chain(3)
    # (0,1) and (1,2) demand (0,2); restriction alone is satisfied
    violation = find_violation(lat, bits_of(lat, [(0, 1), (1, 2)]))
    assert violation is not None
    assert violation.axiom == "transitivity"
    assert violation.witness == (0, 1, 2)


def test_refinement_guard():
    with pytest.raises(InvalidTransferSystem):
        TransferSystem.from_pairs(chain(2), [(2, 0)])


# -1 would wrap around to the top in a numpy or list lookup
@pytest.mark.parametrize("pair", [(-1, 2), (0, 5), (3, 3), (0, -1), (0.5, 2)])
def test_out_of_range_pairs_fail_refinement(pair):
    lat = chain(2)
    for build in (
        lambda: TransferSystem.from_pairs(lat, [pair]),
        lambda: generate(lat, [pair]),
        lambda: system_from_json({"lattice": lattice_to_json(lat), "pairs": [list(pair)]}),
    ):
        with pytest.raises(InvalidTransferSystem) as info:
            build()
        assert info.value.violation.axiom == "refinement"
        assert info.value.violation.witness == pair


def test_integral_float_pairs_load_as_ints():
    # JSON readers may give 0.0 for 0; both loaders read it as the int
    lat = boolean_cube(2)
    expected = TransferSystem.from_pairs(lat, [(0, 2)])
    assert TransferSystem.from_pairs(lat, [[0.0, 2]]) == expected
    assert system_from_json({"lattice": lattice_to_json(lat), "pairs": [[0.0, 2]]}) == expected


@pytest.mark.parametrize("lat", [chain(2), boolean_cube(2)], ids=["chain2", "cube2"])
def test_contains_is_false_out_of_range(lat):
    # in the n x n layout (0, n + 1) would read the bit of (1, 1)
    n = lat.n
    for system in (discrete_system(lat), complete_system(lat)):
        for x, y in ((0, n), (0, n + 1), (-1, 0), (n, n)):
            assert not system.contains(x, y)


# -- generation ----------------------------------------------------------------


def test_generate_fig_one_examples():
    lat = chain(2)
    assert generate(lat, [(0, 2)]).pairs() == [(0, 1), (0, 2)]
    assert generate(lat, []).pairs() == []
    assert generate(lat, [(0, 1)]).pairs() == [(0, 1)]


def test_generate_all_covers_of_diamond_gives_full_order():
    lat = boolean_cube(2)
    got = generate(lat, lat.covers)
    assert got == complete_system(lat)
    # cross-check against the meet-over-containing-systems oracle
    assert got == least_system_containing(enumerate_transfer_systems(lat), lat.covers)


def test_generate_matches_oracle_on_random_seeds():
    lat = iterated_fusion(chain(2), 2)
    tr = enumerate_transfer_systems(lat)
    nonrefl = complete_system(lat).pairs()
    for picks in itertools.combinations(nonrefl, 2):
        assert generate(lat, picks) == least_system_containing(tr, picks)


def test_generate_is_a_closure_operator():
    lat = boolean_cube(2)
    nonrefl = complete_system(lat).pairs()
    subsets = [list(c) for r in range(3) for c in itertools.combinations(nonrefl, r)]
    for q in subsets:
        closed = generate(lat, q)
        # extensive
        assert all(closed.contains(x, y) for x, y in q)
        # idempotent
        assert generate(lat, closed.pairs()) == closed
        # monotone
        for q2 in subsets:
            if set(q) <= set(q2):
                assert generate(lat, q).refines(generate(lat, q2))


def test_restriction_after_transitivity_adds_nothing():
    # the three-phase order is enough: restricting the generated system
    # along the lattice's own meets adds no pair
    for lat in (chain(3), boolean_cube(2), iterated_fusion(chain(2), 3), pentagon()):
        nonrefl = complete_system(lat).pairs()
        for r in (1, 2):
            for picks in itertools.combinations(nonrefl, r):
                system = generate(lat, picks)
                for x, z in system.pairs():
                    for y in range(lat.n):
                        if lat.leq[y, z]:
                            assert system.contains(lat.meet[x][y], y)


# -- enumeration ---------------------------------------------------------------


def test_catalan_counts():
    for n, want in enumerate([1, 2, 5, 14, 42, 132]):
        assert len(enumerate_transfer_systems(chain(n))) == want


def test_fig_one_pentagon_shape():
    tr = enumerate_transfer_systems(chain(2))
    assert len(tr) == 5
    # the refinement order of Tr([2]) is the pentagon
    hasse = tr.hasse_lattice()
    assert len(hasse.covers) == 5
    assert not hasse.is_modular()


def test_iterated_fusion_counts():
    for n in range(1, 6):
        lat = iterated_fusion(chain(2), n)
        assert len(enumerate_transfer_systems(lat)) == 2 ** (n + 1) + n


def test_diamond_count_matches_naive_oracle():
    lat = boolean_cube(2)
    fast = enumerate_transfer_systems(lat)
    slow = naive_transfer_systems(lat)
    assert len(fast) == 10
    assert [s.bits for s in fast] == [s.bits for s in slow]


@pytest.mark.parametrize(
    "lat",
    [chain(1), chain(2), chain(3), chain(4), boolean_cube(2), pentagon(),
     product(chain(1), chain(2)), iterated_fusion(chain(2), 2),
     iterated_fusion(chain(2), 4), iterated_fusion(chain(2), 5)],
    ids=lambda l: f"n{l.n}c{len(l.covers)}",
)
def test_backtracking_equals_naive_filter(lat):
    fast = [s.bits for s in enumerate_transfer_systems(lat)]
    slow = [s.bits for s in naive_transfer_systems(lat)]
    assert fast == slow


def test_enumeration_guard():
    with pytest.raises(SizeLimit):
        enumerate_transfer_systems(boolean_cube(3), guard=10)


def test_parallel_enumeration_matches_sequential():
    lat = boolean_cube(3)
    seq = [s.bits for s in enumerate_transfer_systems(lat)]
    par = [s.bits for s in enumerate_transfer_systems(lat, jobs=2)]
    assert seq == par


def test_parallel_saturated_enumeration_matches_sequential_on_relabelled_cube():
    perm = [5, 12, 0, 9, 3, 14, 7, 1, 10, 15, 2, 8, 13, 4, 11, 6]
    lat = Lattice(boolean_cube(4).leq[np.ix_(perm, perm)])
    seq = [s.bits for s in enumerate_saturated_systems(lat)]
    assert [s.bits for s in enumerate_saturated_systems(lat, jobs=2)] == seq


def test_tr_lattice_is_a_lattice():
    for lat in (chain(3), boolean_cube(2), iterated_fusion(chain(2), 3)):
        tr = enumerate_transfer_systems(lat)
        for i in range(len(tr)):
            for j in range(len(tr)):
                assert tr.leq(tr.meet_index(i, j), i)
                assert tr.leq(i, tr.join_index(i, j))
        # greatest is the full order, least is discrete
        assert tr.greatest() == complete_system(lat)
        assert tr.least() == discrete_system(lat)


def test_empty_tr_lattice_has_no_least_or_greatest_system():
    tr = TrLattice(chain(2), [])
    assert tr.least() is None and tr.greatest() is None


def test_tr_lattice_index_is_built_on_first_lookup():
    lat = boolean_cube(2)
    tr = enumerate_transfer_systems(lat)
    assert tr.greatest() == complete_system(lat)
    assert [tr.index_of(s) for s in tr] == list(range(len(tr)))


def test_tr_lattice_wraps_systems_on_first_use():
    lat = boolean_cube(2)
    tr = enumerate_transfer_systems(lat)
    assert len(tr) == 10 and tr.leq(0, 9) and tr.meet_index(3, 9) == 3
    assert tr.join_index(1, 2) == 3 and tr.join_index(3, 5) == 6
    assert len(tr.covers) == 13 and tr.hasse_lattice().n == 10
    assert tr._systems is None  # counting, order queries and the Hasse edges read `bits`
    shuffled = TrLattice(lat, reversed(list(tr)))  # the public constructor sorts
    assert tr.bits == shuffled.bits == [s.bits for s in tr.systems]
    assert tr.covers == shuffled.covers


def test_tr_covers_of_fewer_than_two_systems_are_empty():
    lat = boolean_cube(2)
    assert TrLattice(lat, []).covers == []
    assert TrLattice(lat, [discrete_system(lat)]).covers == []


@pytest.mark.parametrize(
    "lat",
    [
        boolean_cube(3),
        chain(5),
        chain(6),
        sub_cp_cp(5),
        pytest.param(
            product(chain(2), chain(2)),
            marks=pytest.mark.xfail(
                strict=True,
                reason="TrLattice.covers casts each float32 tile of path counts to uint8, "
                "which keeps the wrap at 256 of the earlier integer matmul: it reports "
                "122 pairs of Tr([2]x[2]) with 256, 512 or 768 systems strictly between "
                "them, such as (0, 426), as Hasse edges",
            ),
        ),
    ],
    ids=["cube3", "chain5", "chain6", "subcpcp5", "rect2x2"],
)
def test_tr_covers_are_the_hasse_edges_of_refinement(lat):
    # chain(5), chain(6) and cube(3) have 132, 429 and 450 systems, so their
    # last 128 x 128 tiles of path counts are partial
    tr = enumerate_transfer_systems(lat, guard=None)
    assert tr.covers == naive_hasse_edges(tr)


# -- meet / join ----------------------------------------------------------------


def test_meet_examples():
    lat = chain(2)
    r = generate(lat, [(0, 2)])
    s = generate(lat, [(1, 2)])
    assert (r & r) == r
    assert (r & discrete_system(lat)) == discrete_system(lat)
    assert (r & s) == discrete_system(lat)


def test_join_examples():
    lat = chain(2)
    r = generate(lat, [(0, 1)])
    s = generate(lat, [(1, 2)])
    assert (r | r) == r
    assert (r | s) == complete_system(lat)


def test_join_matches_enumerated_lub():
    lat = iterated_fusion(chain(2), 2)
    tr = enumerate_transfer_systems(lat)
    for a in tr:
        for b in tr:
            joined = a | b
            uppers = [c for c in tr if a.refines(c) and b.refines(c)]
            least = [c for c in uppers if all(c.refines(d) for d in uppers)]
            assert len(least) == 1 and least[0] == joined


def test_ambient_mismatch():
    with pytest.raises(AmbientMismatch):
        discrete_system(chain(2)).meet(discrete_system(chain(3)))


def test_relations_hash_by_order_size_and_bits():
    # equal orders on distinct lattice objects give equal, equally hashed
    # relations; a different order with the same size and bits collides
    # in the hash and compares unequal
    a, b = generate(boolean_cube(2), [(0, 1)]), generate(boolean_cube(2), [(0, 1)])
    assert a.lattice is not b.lattice
    assert a == b and hash(a) == hash(b) and b in {a}
    on_chain = TransferSystem(chain(3), a.bits)
    assert hash(on_chain) == hash(a) and on_chain != a and on_chain not in {a}


# -- saturation ------------------------------------------------------------------


def test_saturation_examples():
    lat = chain(2)
    assert complete_system(lat).is_saturated()
    assert discrete_system(lat).is_saturated()
    assert not generate(lat, [(0, 1), (0, 2)]).is_saturated()
    # four of the five systems on [2] are saturated
    assert sum(1 for s in enumerate_transfer_systems(lat) if s.is_saturated()) == 4


def test_saturated_hull_examples():
    lat = chain(2)
    bad = generate(lat, [(0, 1), (0, 2)])
    assert saturated_hull(bad) == complete_system(lat)
    for s in enumerate_transfer_systems(lat):
        if s.is_saturated():
            assert saturated_hull(s) == s


def test_saturated_hull_is_least_saturated_above():
    for lat in (chain(3), boolean_cube(2), iterated_fusion(chain(2), 3)):
        tr = enumerate_transfer_systems(lat)
        for s in tr:
            assert saturated_hull(s) == least_saturated_above(s, tr)


def test_direct_saturated_enumeration_matches_filter():
    for lat in (chain(3), boolean_cube(2), iterated_fusion(chain(2), 4), pentagon()):
        direct = {s.bits for s in enumerate_saturated_systems(lat)}
        filtered = {s.bits for s in enumerate_transfer_systems(lat) if s.is_saturated()}
        assert direct == filtered


# -- minimal fibrant -------------------------------------------------------------


def test_minimal_fibrant():
    lat = chain(2)
    assert complete_system(lat).minimal_fibrant() == lat.bottom
    assert discrete_system(lat).minimal_fibrant() == lat.top
    f3 = iterated_fusion(chain(2), 3)
    for a in (1, 2, 3):
        others = [b for b in (1, 2, 3) if b != a]
        system = TransferSystem.from_pairs(f3, [(a, f3.top)] + [(f3.bottom, b) for b in others])
        assert system.minimal_fibrant() == a


# -- deleted-extreme counts, read off Tr(P) -------------------------------------
#
# |Tr(P - top)| is census[top], |Tr(P - bottom)| is census[bottom] and
# |Tr(P - {bottom, top})| is `interior_only_count`; tests/test_properties.py
# compares all three with the subset filter on the induced order.


def test_antichain_has_single_system():
    # [2]*n minus both extremes is an n-element antichain
    for n in range(2, 6):
        lat = iterated_fusion(chain(2), n)
        assert interior_only_count(enumerate_transfer_systems(lat)) == 1


def test_deleted_extreme_counts_on_fusions():
    # n independent relation choices survive deleting either extreme
    for n in range(1, 6):
        lat = iterated_fusion(chain(2), n)
        census = minimal_fibrant_census(enumerate_transfer_systems(lat))
        assert census[lat.top] == 2 ** n
        assert census[lat.bottom] == 2 ** n


def test_deleted_extremes_of_chain_are_chains():
    # [m] minus an extreme is [m-1], and minus both is [m-2]; counts
    # follow the Catalan sequence
    for m in range(1, 5):
        tr = enumerate_transfer_systems(chain(m))
        census = minimal_fibrant_census(tr)
        shorter = len(enumerate_transfer_systems(chain(m - 1)))
        assert census[m] == census[0] == shorter
        if m >= 2:
            assert interior_only_count(tr) == len(enumerate_transfer_systems(chain(m - 2)))


def test_bottom_extension_round_trip():
    # the systems with bottom R top are the bottom-full ones, and deleting
    # bottom maps them one-to-one onto the relations on P - bottom
    lat = boolean_cube(2)
    n, bottom = lat.n, lat.bottom
    tr = enumerate_transfer_systems(lat)
    bottom_full = [
        s for s in tr if all(s.contains(bottom, x) for x in range(n))
    ]
    assert len(bottom_full) == 4
    assert [s for s in tr if s.contains(bottom, lat.top)] == bottom_full
    assert minimal_fibrant_census(tr)[bottom] == 4
    keep = [x for x in range(n) if x != bottom]
    restricted = {
        frozenset((x, y) for x in keep for y in keep if s.contains(x, y)) for s in bottom_full
    }
    assert len(restricted) == 4
    # the two atoms of cube(2) have the deleted bottom as their meet, so
    # P - bottom is a V: each atom may or may not be related to the top
    diagonal = frozenset((x, x) for x in keep)
    up_a, up_b = ((x, lat.top) for x in keep if x != lat.top)
    assert restricted == {diagonal, diagonal | {up_a}, diagonal | {up_b}, diagonal | {up_a, up_b}}


def test_a_first_closure_builds_only_the_steps_it_reads():
    lat = chain(100)
    system = generate(lat, [(0, 100), (3, 50)])
    assert system.contains(0, 100) and system.contains(3, 50)
    closure = closure_for(lat)
    filled = sum(step is not None for step in closure.steps)
    assert 0 < filled < closure.full.bit_count()
