import itertools
import json
import pickle

import numpy as np
import pytest

from trsys.characteristic import _bottom_up, _height_order, interior_system_masks
from trsys.covers import _rules, enumerate_saturated_covers
from trsys.errors import (
    CycleDetected,
    NotALattice,
    NotBounded,
    NotGraded,
    NotPrime,
    SizeLimit,
)
import trsys.lattice as lattice_module
from trsys.lattice import (
    MAX_ALL_LATTICES,
    Lattice,
    all_lattices,
    boolean_cube,
    canonical_form,
    chain,
    from_order,
    fusion,
    is_isomorphic,
    iterated_fusion,
    lattice_from_json,
    lattice_to_dot,
    lattice_to_json,
    product,
    sub_cp_cp,
)
from trsys.transfer import closure_for, enumerate_transfer_systems


def pentagon():
    return from_order(5, [(0, 1), (1, 2), (2, 4), (0, 3), (3, 4)])


def brute_meet(lat, x, y):
    lower = [z for z in range(lat.n) if lat.leq[z, x] and lat.leq[z, y]]
    best = [z for z in lower if all(lat.leq[w, z] for w in lower)]
    assert len(best) == 1
    return best[0]


def brute_join(lat, x, y):
    upper = [z for z in range(lat.n) if lat.leq[x, z] and lat.leq[y, z]]
    best = [z for z in upper if all(lat.leq[z, w] for w in upper)]
    assert len(best) == 1
    return best[0]


SAMPLES = [
    chain(0),
    chain(3),
    boolean_cube(2),
    boolean_cube(3),
    iterated_fusion(chain(2), 3),
    product(chain(1), chain(2)),
]


@pytest.mark.parametrize("lat", SAMPLES, ids=lambda l: f"n{l.n}")
def test_tables_match_brute_force(lat):
    for x in range(lat.n):
        for y in range(lat.n):
            assert lat.meet[x][y] == brute_meet(lat, x, y)
            assert lat.join[x][y] == brute_join(lat, x, y)


def test_from_order_chain():
    lat = from_order(3, [(0, 1), (1, 2)])
    assert lat.bottom == 0 and lat.top == 2
    assert lat.covers == [(0, 1), (1, 2)]


def test_from_order_diamond():
    lat = from_order(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
    assert is_isomorphic(lat, boolean_cube(2))


def test_from_order_cp_cp_shape():
    lat = from_order(5, [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)])
    assert is_isomorphic(lat, iterated_fusion(chain(2), 3))
    assert is_isomorphic(lat, sub_cp_cp(2))


def test_from_order_cycle():
    with pytest.raises(CycleDetected):
        from_order(3, [(0, 1), (1, 2), (2, 0)])


def test_from_order_unbounded():
    # two minimal elements, no global bottom
    with pytest.raises(NotBounded):
        from_order(4, [(0, 2), (1, 2), (2, 3)])
    with pytest.raises(NotBounded):
        from_order(2, [])


def test_from_order_not_a_lattice():
    # two incomparable tops over two incomparable bottoms, glued at extremes:
    # middles have no unique join
    with pytest.raises((NotALattice, NotBounded)):
        from_order(6, [(0, 1), (0, 2), (1, 3), (2, 3), (1, 4), (2, 4), (3, 5), (4, 5)])


def test_non_transitive_order_with_256_middle_paths_is_rejected():
    # 0 < m < 257 for each of 256 middle elements m, but 0 is not <= 257:
    # 256 paths from 0 to 257 must still count as a path
    leq = np.eye(258, dtype=bool)
    leq[0, 1:257] = True
    leq[1:257, 257] = True
    with pytest.raises(ValueError, match="not transitive"):
        Lattice(leq)


def test_long_chain_has_only_its_covers():
    # 256 elements lie strictly between 0 and 257; that is not a cover
    lat = chain(257)
    assert lat.covers == [(x, x + 1) for x in range(257)]
    assert lat.rank == list(range(258))


def test_chain_examples():
    assert chain(0).n == 1
    two = chain(2)
    assert two.covers == [(0, 1), (1, 2)]
    assert chain(3).n == 4 and len(chain(3).covers) == 3


def test_boolean_cube_examples():
    assert boolean_cube(0).n == 1
    assert is_isomorphic(boolean_cube(2), from_order(4, [(0, 1), (0, 2), (1, 3), (2, 3)]))
    b3 = boolean_cube(3)
    assert b3.n == 8 and len(b3.covers) == 12
    assert b3.rank == [bin(i).count("1") for i in range(8)]
    with pytest.raises(SizeLimit):
        boolean_cube(21)


def test_product_examples():
    assert is_isomorphic(product(chain(1), chain(1)), boolean_cube(2))
    q = boolean_cube(3)
    assert is_isomorphic(product(chain(0), q), q)
    rect = product(chain(2), chain(1))
    assert rect.n == 6
    # componentwise meet
    assert rect.meet[1 * 2 + 1][2 * 2 + 0] == 1 * 2 + 0


def test_fusion_examples():
    assert is_isomorphic(fusion(chain(1), chain(1)), chain(1))
    f2 = fusion(chain(2), chain(2))
    assert f2.n == 4
    assert sorted(f2.covers) == [(0, 1), (0, 2), (1, 3), (2, 3)]
    f3 = iterated_fusion(chain(2), 3)
    assert f3.n == 5 and is_isomorphic(f3, sub_cp_cp(2))
    # bottom 0, then each operand's interior in turn, then top
    assert fusion(chain(2), chain(3), chain(1)).covers == [(0, 1), (0, 2), (1, 4), (2, 3), (3, 4)]


def test_fusion_with_point_keeps_other_operand():
    # a one-element lattice has empty interior, so fusing with it only
    # renames the extremes
    q = chain(3)
    assert is_isomorphic(fusion(chain(0), q), q)


def test_iterated_fusion_conventions():
    assert is_isomorphic(iterated_fusion(chain(2), 1), chain(2))
    assert is_isomorphic(iterated_fusion(chain(2), 0), chain(1))
    f4 = iterated_fusion(chain(2), 4)
    assert f4.n == 6
    assert is_isomorphic(f4, sub_cp_cp(3))


def test_fusion_unit_and_associativity():
    pool = [chain(2), chain(3), boolean_cube(2), iterated_fusion(chain(2), 2)]
    for p in pool:
        assert is_isomorphic(fusion(p, chain(1)), p)
        assert is_isomorphic(fusion(chain(1), p), p)
    for p in pool[:2]:
        for q in pool[:2]:
            for r in pool[:2]:
                lhs = fusion(fusion(p, q), r)
                rhs = fusion(p, fusion(q, r))
                if lhs.n <= 10:
                    assert is_isomorphic(lhs, rhs)


def test_sub_cp_cp():
    assert sub_cp_cp(2).n == 5
    assert sub_cp_cp(3).n == 6
    assert sub_cp_cp(5).n == 8
    assert sub_cp_cp(2).names == ["e", "H1", "H2", "H3", "G"]
    with pytest.raises(NotPrime):
        sub_cp_cp(4)
    with pytest.raises(SizeLimit):
        sub_cp_cp(103)


def test_modularity():
    assert boolean_cube(3).is_modular()
    n5 = pentagon()
    assert not n5.is_modular()
    assert n5.pentagon_witness() is not None
    for n in range(1, 7):
        assert iterated_fusion(chain(2), n).is_modular()


def modular_law_holds(lat):
    """The modular law a <= b => a v (x ^ b) = (a v x) ^ b, checked on
    every triple."""
    meet, join = lat.meet, lat.join
    for a in range(lat.n):
        for b in range(lat.n):
            if not lat.leq[a, b]:
                continue
            for x in range(lat.n):
                if join[a][meet[x][b]] != meet[join[a][x]][b]:
                    return False
    return True


def test_modular_iff_pentagon_free_small():
    # Dedekind's criterion, which `is_modular` runs, cross-checked against
    # the direct law on every lattice with at most six elements, plus two
    # larger family members
    for n in range(1, 7):
        for lat in all_lattices(n):
            assert modular_law_holds(lat) == (lat.pentagon_witness() is None) == lat.is_modular()
    for lat in (boolean_cube(3), iterated_fusion(chain(2), 6)):
        assert modular_law_holds(lat) == (lat.pentagon_witness() is None) == lat.is_modular()


def test_join_cover_transposes_to_meet_cover():
    # on a modular lattice, x v y covering x forces y to cover x ^ y
    for lat in (boolean_cube(3), iterated_fusion(chain(2), 4), product(chain(2), chain(3))):
        cover_set = set(lat.covers)
        for x in range(lat.n):
            for y in range(lat.n):
                j = lat.join[x][y]
                if j != x and (x, j) in cover_set:
                    m = lat.meet[x][y]
                    assert m == y or (m, y) in cover_set


def test_grading():
    assert chain(3).grading() == [0, 1, 2, 3]
    assert boolean_cube(3).grading() == [bin(i).count("1") for i in range(8)]
    with pytest.raises(NotGraded):
        pentagon().grading()
    # every modular lattice grades
    for lat in (boolean_cube(4), iterated_fusion(chain(2), 5), product(chain(2), chain(3))):
        assert lat.is_modular()
        ranks = lat.grading()
        for x, y in lat.covers:
            assert ranks[y] == ranks[x] + 1


def test_canonical_form_distinguishes():
    assert canonical_form(chain(3)) != canonical_form(boolean_cube(2))
    assert canonical_form(pentagon()) != canonical_form(iterated_fusion(chain(2), 3))
    assert is_isomorphic(boolean_cube(2), product(chain(1), chain(1)))


@pytest.mark.parametrize("lat", [chain(12), product(chain(3), chain(4))], ids=["chain12", "rect3x4"])
def test_isomorphism_decides_relabelled_copies_with_ten_or_more_classes(lat):
    # ten or more classes of elements, whose labels do not sort by repr in
    # numeric order: the refinement must still stop
    perm = np.random.default_rng(12).permutation(lat.n)
    copy = Lattice(lat.leq[np.ix_(perm, perm)])
    assert is_isomorphic(lat, copy)
    assert is_isomorphic(lat.dual(), copy.dual())


# unlabeled lattices (OEIS A006966, from n = 0) and modular lattices
# (A006981, from n = 1)
LATTICE_COUNTS = [0, 1, 1, 1, 2, 5, 15, 53, 222, 1078, 5994]
MODULAR_COUNTS = [None, 1, 1, 1, 2, 4, 8, 16, 34, 72, 157]


@pytest.fixture(scope="module")
def lattices_to_nine():
    return [all_lattices(n) for n in range(10)]


def test_all_lattices_counts(lattices_to_nine):
    assert [len(level) for level in lattices_to_nine] == LATTICE_COUNTS[:10]
    modular = [sum(lat.is_modular() for lat in level) for level in lattices_to_nine[1:]]
    assert modular == MODULAR_COUNTS[1:10]


@pytest.mark.slow
def test_all_lattices_counts_at_ten():
    level = all_lattices(10)
    assert len(level) == LATTICE_COUNTS[10]
    assert sum(lat.is_modular() for lat in level) == MODULAR_COUNTS[10]


def test_all_lattices_are_pairwise_non_isomorphic_and_upper_triangular(lattices_to_nine):
    for n, level in enumerate(lattices_to_nine):
        assert len({canonical_form(lat) for lat in level}) == len(level)
        for lat in level:
            assert lat.n == n and lat.bottom == 0 and lat.top == n - 1
            assert not np.tril(lat.leq, -1).any()
    # up to six elements, without `canonical_form`: no relabelling of one
    # lattice gives the order matrix of another
    for level in lattices_to_nine[:7]:
        for p, q in itertools.combinations(level, 2):
            assert not any(np.array_equal(p.leq[np.ix_(perm, perm)], q.leq)
                           for perm in itertools.permutations(range(p.n)))


def test_size_guards_refuse_before_any_lattice_is_built(monkeypatch):
    with pytest.raises(ValueError):
        boolean_cube(-1)
    monkeypatch.setattr(lattice_module, "Lattice", None)
    with pytest.raises(ValueError):
        all_lattices(-1)
    with pytest.raises(SizeLimit):
        all_lattices(MAX_ALL_LATTICES + 1)


def test_dual():
    b3 = boolean_cube(3)
    d = b3.dual()
    assert d.bottom == b3.top and d.top == b3.bottom
    assert is_isomorphic(d, b3)  # cubes are self-dual
    n5 = pentagon()
    assert is_isomorphic(n5.dual(), n5)


def test_json_round_trip():
    for lat in (chain(2), boolean_cube(3), iterated_fusion(chain(2), 3)):
        blob = json.dumps(lattice_to_json(lat))
        back = lattice_from_json(json.loads(blob))
        assert back.same_order(lat)
        assert back.names == lat.names


def test_dot_export():
    text = lattice_to_dot(chain(2))
    assert "rankdir=BT" in text
    assert "v0 -> v1" in text and "v1 -> v2" in text


def test_dot_labels_escape_quotes_and_backslashes():
    lat = from_order(2, [(0, 1)], names=['a"b', "c\\d"])
    text = lattice_to_dot(lat, title='say "hi"')
    assert 'digraph "say \\"hi\\"" {' in text
    assert '  v0 [label="a\\"b"];' in text
    assert '  v1 [label="c\\\\d"];' in text
    assert lattice_to_dot(chain(1)) == (
        'digraph "lattice" {\n  rankdir=BT;\n  node [shape=circle];\n'
        '  v0 [label="0"];\n  v1 [label="1"];\n  v0 -> v1;\n}\n'
    )


def test_immutable_tables():
    lat = chain(2)
    with pytest.raises(ValueError):
        lat.leq[0, 0] = False


def test_per_lattice_tables_are_built_once_and_not_pickled():
    lat = boolean_cube(3)
    assert closure_for(lat) is closure_for(lat)
    assert _rules(lat) is _rules(lat)
    assert _bottom_up(lat) is _bottom_up(lat)
    assert _height_order(lat) is _height_order(lat)
    # the searches read the cached tables, and the cover search the cached
    # modularity; a pickled lattice carries none of them
    assert len(enumerate_transfer_systems(lat)) == 450
    assert len(enumerate_saturated_covers(lat)) == 61
    assert len(interior_system_masks(lat)) == 61
    assert len(lat._cache) == 5 and True in lat._cache.values()
    back = pickle.loads(pickle.dumps(lat))
    assert back._cache == {} and back.same_order(lat)
    assert back.is_modular() and list(back._cache.values()) == [True]
    # no search reads the order matrix: it is built on its first read, once
    assert lat.leq is lat.leq and len(lat._cache) == 6
