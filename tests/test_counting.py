import pytest

from trsys import counting, verify
from trsys.characteristic import fiber_decomposition
from trsys.counting import (
    BMTDecomposition,
    bmt_decompose,
    catalan,
    count_tr_chain_fusion,
    count_tr_fusion,
    minimal_fibrant_census,
    tr_rank_two,
)
from trsys.errors import NotPrime, SizeLimit
from trsys.lattice import boolean_cube, chain, fusion, is_isomorphic, iterated_fusion
from trsys.transfer import enumerate_transfer_systems


def test_catalan_values():
    assert [catalan(n) for n in range(-1, 8)] == [1, 1, 1, 2, 5, 14, 42, 132, 429]


POOL = [
    ("[1]", chain(1)),
    ("[2]", chain(2)),
    ("[3]", chain(3)),
    ("[2]*2", iterated_fusion(chain(2), 2)),
    ("cube(2)", boolean_cube(2)),
]


@pytest.mark.parametrize("na,a", POOL, ids=[p[0] for p in POOL])
@pytest.mark.parametrize("nb,b", POOL, ids=[p[0] for p in POOL])
def test_recursion_matches_brute_force(na, a, nb, b):
    breakdown = count_tr_fusion(a, b)
    brute = len(enumerate_transfer_systems(fusion(a, b)))
    assert breakdown.total == brute


def test_breakdown_spot_values():
    assert count_tr_fusion(chain(2), chain(2)).total == 10
    assert count_tr_fusion(chain(1), chain(1)).total == 2
    assert count_tr_fusion(chain(2), chain(3)).total == 26


def test_breakdown_terms_for_two_chains():
    b = count_tr_fusion(chain(2), chain(2))
    # minimal fibrant at top: Cat(2)^2; at bottom: Cat(2)^2; one middle each side
    assert b.top_term == 4 and b.bottom_term == 4
    assert [c for _, c in b.middle_terms_left] == [1]
    assert [c for _, c in b.middle_terms_right] == [1]


def test_chain_corollary_matches_recursion_and_brute_force():
    for m in range(5):
        for n in range(5):
            formula = count_tr_chain_fusion(m, n)
            recursion = count_tr_fusion(chain(m), chain(n)).total
            assert formula == recursion
            brute = len(enumerate_transfer_systems(fusion(chain(m), chain(n))))
            assert formula == brute


def test_chain_corollary_spot_values():
    assert count_tr_chain_fusion(1, 1) == 2
    assert count_tr_chain_fusion(2, 2) == 10
    assert count_tr_chain_fusion(2, 3) == 26


def test_minimal_fibrant_counts():
    assert minimal_fibrant_census(enumerate_transfer_systems(chain(2)))[1] == 1
    census = minimal_fibrant_census(enumerate_transfer_systems(iterated_fusion(chain(2), 3)))
    assert [census[a] for a in (1, 2, 3)] == [1, 1, 1]
    # count at top equals the deleted-top count
    census = minimal_fibrant_census(enumerate_transfer_systems(chain(3)))
    assert census[chain(3).top] == len(enumerate_transfer_systems(chain(2)))
    assert sum(census.values()) == len(enumerate_transfer_systems(chain(3)))


def test_rank_two_closed_form():
    assert tr_rank_two(2) == 19
    assert tr_rank_two(3) == 36
    assert tr_rank_two(5) == 134  # 2^(p+2) + p + 1 at p = 5
    with pytest.raises(NotPrime):
        tr_rank_two(6)


def test_rank_two_matches_enumeration():
    for p in (2, 3):
        lat = iterated_fusion(chain(2), p + 1)
        assert tr_rank_two(p) == len(enumerate_transfer_systems(lat))


def test_rank_two_big_integers():
    # exact arithmetic well past machine-word sizes
    assert tr_rank_two(61) == 2 ** 63 + 62
    assert tr_rank_two(67) == 2 ** 69 + 68


def test_three_routes_agree():
    for n in range(1, 6):
        closed_form = 2 ** (n + 1) + n
        enumerated = len(enumerate_transfer_systems(iterated_fusion(chain(2), n)))
        if n == 1:
            recursion = closed_form  # the fusion recursion needs two operands
        else:
            recursion = count_tr_fusion(
                iterated_fusion(chain(2), n - 1), chain(2)
            ).total
        assert closed_form == enumerated == recursion


def test_bmt_block_sizes():
    for n in (1, 2, 3, 4):
        dec = bmt_decompose(n)
        assert set(dec.bottom_cube) == set(dec.top_cube) == set(range(2 ** n))
        assert set(dec.middle) == set(range(n))
        assert len(dec.tr) == 2 ** (n + 1) + n


def test_bmt_guard_reads_the_closed_count_before_building(monkeypatch):
    # Tr([2]^*3) has 2^4 + 3 = 19 systems; a refused census builds nothing
    assert len(bmt_decompose(3, guard=19).tr) == 19

    def built(*args):
        raise AssertionError("the lattice was built")

    monkeypatch.setattr(counting, "iterated_fusion", built)
    with pytest.raises(SizeLimit, match=r"2\^4 \+ 3 systems, more than the guard of 18"):
        bmt_decompose(3, guard=18)
    with pytest.raises(SizeLimit, match=r"2\^100001 \+ 100000 systems"):
        bmt_decompose(100_000)


def test_bmt_memory_guard_holds_without_a_leaf_guard(monkeypatch):
    # (2^(n+1) + n) leaves of (n+2)^2 bits pass the search's 2^31 bits from
    # n = 21 on, so even with the leaf guard lifted the census is refused
    def built(*args):
        raise AssertionError("the lattice was built")

    monkeypatch.setattr(counting, "iterated_fusion", built)
    with pytest.raises(AssertionError, match="the lattice was built"):
        bmt_decompose(20, guard=None)
    for n in (21, 32):
        with pytest.raises(SizeLimit, match="memory guard"):
            bmt_decompose(n, guard=None)


def test_bmt_cube_isomorphisms():
    dec = bmt_decompose(3)
    for cube in (dec.bottom_cube, dec.top_cube):
        assert set(cube) == set(range(8))
        for s in cube:
            for t in cube:
                assert (s & t == s) == cube[s].refines(cube[t])


def test_bmt_hasse_matches_reference_shape():
    # canonical forms: a route independent of the block labels of check_bmt
    for n in (2, 3):
        dec = bmt_decompose(n)
        assert is_isomorphic(dec.tr.hasse_lattice(), verify.bmt_reference_lattice(n))


def test_chi_structure_reports():
    for n, want in ((1, 4), (2, 7), (3, 12)):
        dec = bmt_decompose(n)
        fibers = fiber_decomposition(dec.tr)
        assert len(fibers) == want
        top_fiber = next(f for f in fibers if dec.top_cube[0] in f.members)
        assert len(top_fiber.members) == 2 ** n
        assert sum(1 for s in dec.tr if s.is_saturated()) == want
    assert verify.check_bmt(3).ok


def test_check_bmt_fails_on_a_wrong_census(monkeypatch):
    # two bottom-cube keys swapped: the blocks stay full, but two systems
    # are not the ones their keys name and the mapped covers move
    def swapped(n):
        dec = bmt_decompose(n)
        bottom = dict(dec.bottom_cube)
        bottom[0], bottom[1] = bottom[1], bottom[0]
        return BMTDecomposition(dec.tr, bottom, dec.middle, dec.top_cube)

    monkeypatch.setattr(verify, "bmt_decompose", swapped)
    result = verify.check_bmt(2)
    assert not result.ok
    failed = [line for line in result.lines if line.startswith("FAIL")]
    assert failed == [
        "FAIL n=1: every system is the one its block key names",
        "FAIL n=1: the 5 Hasse edges are the reference shape's",
        "FAIL n=2: every system is the one its block key names",
        "FAIL n=2: the 13 Hasse edges are the reference shape's",
    ]
