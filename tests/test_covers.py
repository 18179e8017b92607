from collections import Counter

import pytest

from trsys.covers import (
    SaturatedCover,
    _rules,
    cover_to_system,
    covering_diamonds,
    enumerate_saturated_covers,
    find_cover_violation,
    system_to_cover,
)
from trsys.characteristic import count_interior_operators
from trsys.errors import InvalidCover, NotModular, NotSaturated, SizeLimit
from trsys.lattice import boolean_cube, chain, from_order, iterated_fusion, lattice_to_json, product
from trsys.oracles import naive_saturated_covers
from trsys.serialize import cover_from_json
from trsys.transfer import (
    complete_system,
    discrete_system,
    enumerate_saturated_systems,
    enumerate_transfer_systems,
    generate,
)


def pentagon():
    return from_order(5, [(0, 1), (1, 2), (2, 4), (0, 3), (3, 4)])


MODULAR_FAMILY = [
    chain(1),
    chain(2),
    chain(3),
    chain(4),
    boolean_cube(2),
    boolean_cube(3),
    iterated_fusion(chain(2), 2),
    iterated_fusion(chain(2), 3),
    iterated_fusion(chain(2), 4),
    iterated_fusion(chain(2), 5),
    product(chain(2), chain(3)),
]


# -- validation ------------------------------------------------------------------


def test_empty_and_full_are_covers():
    lat = boolean_cube(2)
    assert SaturatedCover.from_edges(lat, []).edges() == []
    assert SaturatedCover.from_edges(lat, lat.covers).edges() == lat.covers


def test_three_of_four_diamond_is_rejected_as_rule_two():
    lat = boolean_cube(2)
    with pytest.raises(InvalidCover) as info:
        SaturatedCover.from_edges(lat, [(0, 1), (1, 3), (2, 3)])
    assert info.value.violation.rule == 2


def test_rule_one_violation():
    # on the three-chain fusion: bottom->mid1 in, its forced partner out
    lat = iterated_fusion(chain(2), 2)
    # edges: (0,1),(0,2),(1,3),(2,3); taking (1,3) forces (0,2)
    with pytest.raises(InvalidCover) as info:
        SaturatedCover.from_edges(lat, [(1, 3)])
    assert info.value.violation.rule == 1


def test_bits_outside_the_covering_relations_are_refused():
    lat = boolean_cube(2)
    # (0, 3) is comparable on cube(2) but not a covering relation
    for bits in (1 << 40, -1, 1 << 0 * lat.n + 3):
        with pytest.raises(InvalidCover) as info:
            SaturatedCover(lat, bits)
        assert info.value.violation.rule == 0
    assert SaturatedCover(lat, 1 << 1).edges() == [(0, 1)]


def test_json_edge_that_is_not_a_cover_is_an_invalid_cover():
    # (0, 2) is comparable on chain(2) but not a covering relation
    with pytest.raises(InvalidCover):
        cover_from_json({"lattice": lattice_to_json(chain(2)), "edges": [[0, 2]]})


def test_not_modular_is_refused():
    with pytest.raises(NotModular):
        SaturatedCover.from_edges(pentagon(), [])
    with pytest.raises(NotModular):
        enumerate_saturated_covers(pentagon())
    # rule (1) of the pentagon forces a pair that is no cover
    assert _rules(pentagon()).refusal == "4 covers 3 but 2 does not cover 0"
    with pytest.raises(NotModular, match=_rules(pentagon()).refusal):
        find_cover_violation(pentagon(), 0)
    with pytest.raises(NotModular):
        system_to_cover(discrete_system(pentagon()))


def test_rules_zero_and_two_are_reported_before_the_modularity_refusal():
    lat = product(pentagon(), chain(1))
    assert len(covering_diamonds(lat)) == 5
    three_in = sum(1 << p for p in covering_diamonds(lat)[0][:3])
    assert find_cover_violation(lat, three_in).witness == ((0, 1), (0, 2), (1, 3), (2, 3), (2, 3))
    assert find_cover_violation(pentagon(), 1 << 2).witness == (0, 2)
    with pytest.raises(NotModular, match="8 covers 6 but 4 does not cover 0"):
        find_cover_violation(lat, 0)


def test_diamond_detection():
    assert len(covering_diamonds(boolean_cube(2))) == 1
    assert len(covering_diamonds(boolean_cube(3))) == 6
    assert len(covering_diamonds(chain(4))) == 0
    f3 = iterated_fusion(chain(2), 3)
    assert len(covering_diamonds(f3)) == 3


def test_rule_one_graph_is_nonempty_on_diamonds():
    lat = boolean_cube(2)
    rules = _rules(lat)
    assert rules.refusal is None
    assert all(rules.cover >> p & 1 for p, mask in enumerate(rules.implies) if mask)
    assert all(mask & ~rules.cover == 0 for mask in rules.implies)
    assert any(rules.implies)


# -- enumeration -----------------------------------------------------------------


def test_cover_counts():
    assert len(enumerate_saturated_covers(boolean_cube(3))) == 61
    assert len(enumerate_saturated_covers(iterated_fusion(chain(2), 3))) == 12
    assert len(enumerate_saturated_covers(boolean_cube(2))) == 7


@pytest.mark.parametrize(
    "lat",
    [chain(2), chain(3), chain(4), boolean_cube(2), boolean_cube(3),
     iterated_fusion(chain(2), 2), iterated_fusion(chain(2), 3),
     iterated_fusion(chain(2), 5), product(chain(1), chain(2))],
    ids=lambda l: f"n{l.n}c{len(l.covers)}",
)
def test_backtracking_matches_naive_filter(lat):
    fast = [q.bits for q in enumerate_saturated_covers(lat)]
    slow = [q.bits for q in naive_saturated_covers(lat)]
    assert fast == slow


def test_enumeration_guard():
    with pytest.raises(SizeLimit):
        enumerate_saturated_covers(boolean_cube(3), guard=5)


def test_parallel_enumeration_matches_sequential():
    lat = boolean_cube(3)
    seq = [q.bits for q in enumerate_saturated_covers(lat)]
    par = [q.bits for q in enumerate_saturated_covers(lat, jobs=2)]
    assert seq == par


# -- the bijection ----------------------------------------------------------------


def test_cover_to_system_examples():
    lat = boolean_cube(2)
    assert cover_to_system(SaturatedCover.from_edges(lat, [])) == discrete_system(lat)
    assert cover_to_system(SaturatedCover.from_edges(lat, lat.covers)) == complete_system(lat)
    f3 = iterated_fusion(chain(2), 3)
    bottoms = [(0, a) for a in (1, 2, 3)]
    system = cover_to_system(SaturatedCover.from_edges(f3, bottoms))
    assert set(system.pairs()) == set(bottoms)


def test_system_to_cover_examples():
    lat = boolean_cube(2)
    assert system_to_cover(discrete_system(lat)).edges() == []
    assert system_to_cover(complete_system(lat)).edges() == lat.covers
    with pytest.raises(NotSaturated):
        system_to_cover(generate(chain(2), [(0, 1), (0, 2)]))


@pytest.mark.parametrize("lat", MODULAR_FAMILY, ids=lambda l: f"n{l.n}c{len(l.covers)}")
def test_round_trips_are_identities(lat):
    covers = enumerate_saturated_covers(lat)
    systems = enumerate_saturated_systems(lat)
    assert len(covers) == len(systems)
    assert all(system_to_cover(cover_to_system(q)) == q for q in covers)
    assert all(cover_to_system(system_to_cover(r)) == r for r in systems)


@pytest.mark.parametrize("lat", MODULAR_FAMILY, ids=lambda l: f"n{l.n}c{len(l.covers)}")
def test_count_coherence(lat):
    covers = len(enumerate_saturated_covers(lat))
    saturated = len(enumerate_saturated_systems(lat))
    interior = count_interior_operators(lat)
    assert covers == saturated == interior


def test_count_coherence_via_full_enumeration_where_feasible():
    for lat in (chain(3), boolean_cube(2), boolean_cube(3), iterated_fusion(chain(2), 4)):
        filtered = sum(1 for s in enumerate_transfer_systems(lat) if s.is_saturated())
        assert filtered == len(enumerate_saturated_covers(lat))


def test_cube4_count_coherence():
    lat = boolean_cube(4)
    assert len(enumerate_saturated_covers(lat)) == 2480
    assert len(enumerate_saturated_systems(lat)) == 2480
    assert count_interior_operators(lat) == 2480


# -- structural properties -------------------------------------------------------------


def test_covers_are_restriction_closed():
    # each enumerated cover, read as a bare relation set, is closed under
    # restriction up to identity relations
    for lat in (boolean_cube(2), boolean_cube(3), iterated_fusion(chain(2), 3)):
        for cover in enumerate_saturated_covers(lat):
            rel = set(cover.edges())
            for (r, t) in cover.edges():
                for ell in range(lat.n):
                    if lat.leq[ell, t]:
                        b = lat.meet[r][ell]
                        if b != ell:
                            assert (b, ell) in rel
                            assert (b, ell) in set(lat.covers)


def test_generated_interval_property():
    # x <Q> z and x <= y <= w <= z force y <Q> w
    for lat in (boolean_cube(2), boolean_cube(3)):
        for cover in enumerate_saturated_covers(lat):
            system = cover_to_system(cover)
            for (x, z) in system.pairs():
                for y in range(lat.n):
                    for w in range(lat.n):
                        if lat.leq[x, y] and lat.leq[y, w] and lat.leq[w, z]:
                            assert system.contains(y, w)


def test_bottom_face_grouping_of_cube_covers():
    # organize the 61 covers of the cube by their bottom-face restriction:
    # seven groups, one per square cover, with these sizes (totalling 61)
    lat = boolean_cube(3)
    covers = enumerate_saturated_covers(lat)
    groups = Counter()
    for cover in covers:
        face = frozenset(
            (x, y) for (x, y) in cover.edges() if not x >> 2 & 1 and not y >> 2 & 1
        )
        groups[face] += 1
    assert len(groups) == 7
    assert sorted(groups.values()) == [6, 7, 7, 9, 9, 9, 14]
    assert sum(groups.values()) == 61
    square = boolean_cube(2)
    square_covers = {
        frozenset(q.edges()) for q in enumerate_saturated_covers(square)
    }
    # relabel cube bottom-face edges into square coordinates
    relabelled = {
        frozenset((x & 3, y & 3) for (x, y) in face) for face in groups
    }
    assert relabelled == square_covers


def test_top_face_refines_bottom_face():
    # the restriction rule forces the top face of each cube cover to
    # refine its bottom face
    lat = boolean_cube(3)
    for cover in enumerate_saturated_covers(lat):
        bottom = {
            (x & 3, y & 3)
            for (x, y) in cover.edges()
            if not x >> 2 & 1 and not y >> 2 & 1
        }
        top = {
            (x & 3, y & 3)
            for (x, y) in cover.edges()
            if x >> 2 & 1 and y >> 2 & 1
        }
        assert top <= bottom


def test_cover_generation_needs_no_restriction_pass():
    # a saturated cover is already restriction-closed, so its generated
    # system is just the reflexive-transitive closure of the edges
    for lat in (boolean_cube(2), boolean_cube(3), iterated_fusion(chain(2), 3)):
        n = lat.n
        for cover in enumerate_saturated_covers(lat):
            reach = [1 << x | cover.bits >> x * n & (1 << n) - 1 for x in range(n)]
            for v in range(n):  # Warshall, through each pivot v in turn
                for x in range(n):
                    if reach[x] >> v & 1:
                        reach[x] |= reach[v]
            assert sum(row << x * n for x, row in enumerate(reach)) == cover_to_system(cover).bits
