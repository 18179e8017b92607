"""The leaf and memory guards of the layered lister and the interior
search, the work of the lister against its budgets, and the outputs of
both against the plain walk of `walk.py`."""
import random
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest

import walk
from trsys import covers, search, transfer
from trsys.characteristic import _height_order, _interior_masks, _join_closure
from trsys.characteristic import count_interior_operators, enumerate_interior_operators
from trsys.covers import enumerate_saturated_covers
from trsys.errors import SizeLimit
from trsys.counting import catalan, tr_rank_two
from trsys.lattice import Lattice, all_lattices, boolean_cube, chain, product, sub_cp_cp
from trsys.lattice import _bits
from trsys.transfer import _DenseClosure, closure_for, enumerate_saturated_systems, enumerate_transfer_systems

SEARCHES = [enumerate_transfer_systems, enumerate_saturated_systems, enumerate_saturated_covers]
KINDS = ["transfer", "saturated", "covers"]


@pytest.mark.parametrize(
    "enumerate_", [*SEARCHES, enumerate_interior_operators], ids=[*KINDS, "interior"]
)
def test_guard_admits_exactly_its_count_of_leaves(enumerate_):
    # cube(3) has 450 transfer systems, 61 saturated ones, 61 covers and 61
    # interior operators
    lat = boolean_cube(3)
    count = len(enumerate_(lat, guard=None))
    assert len(enumerate_(lat, guard=count)) == count
    with pytest.raises(SizeLimit, match=f"guard of {count - 1} leaves"):
        enumerate_(lat, guard=count - 1)


@pytest.mark.parametrize("enumerate_", SEARCHES, ids=KINDS)
def test_a_guard_of_zero_refuses_the_one_leaf_of_a_point(enumerate_):
    with pytest.raises(SizeLimit, match="guard of 0 leaves"):
        enumerate_(chain(0), guard=0)
    assert len(enumerate_(chain(0), guard=1)) == 1


def test_memory_guard_admits_exactly_its_budget_of_bits(monkeypatch):
    # chain(2) has 4 saturated covers, each of 6 bits: its last cover edge,
    # (1, 2), is at position 5
    monkeypatch.setattr(search, "_LEAF_BITS", 24)
    assert len(enumerate_saturated_covers(chain(2), guard=4)) == 4
    with pytest.raises(SizeLimit, match="5 leaves of 6 bits pass the search's memory guard"):
        enumerate_saturated_covers(chain(2), guard=5)
    assert len(enumerate_saturated_covers(chain(2), guard=None)) == 4


@pytest.mark.parametrize("enumerate_", SEARCHES, ids=KINDS)
def test_memory_guard_refuses_a_chain_of_94_elements_before_the_search(enumerate_, monkeypatch):
    # at the default guard, every lattice of 92 elements fits (its positions
    # are below 92^2), and none of 94 does: the largest label's pair with
    # top, or with the element below it, is at or past position 94 * 93 - 1
    assert search.MAX_LEAVES * 92**2 <= search._LEAF_BITS < search.MAX_LEAVES * 94 * 93
    closure = closure_for(chain(93))
    assert (closure.full ^ closure.diag).bit_length() == 94 * 93
    monkeypatch.setattr(covers, "_rules", None)  # no table of the cover game is built
    monkeypatch.setattr(covers, "_extensions", None)  # and no layer of any kind
    monkeypatch.setattr(transfer, "_extensions", None)
    with pytest.raises(SizeLimit, match="memory guard"):
        enumerate_(chain(93))


def test_cover_guard_refuses_cube_10_before_the_rules_are_built(monkeypatch):
    # the 1,024 x 1,024 pairs of the rules of cube(10) took about a minute
    # to build; the width of its cover mask, 1,047,552 bits, is read first
    lat = boolean_cube(10)
    monkeypatch.setattr(covers, "_rules", lambda lat: pytest.fail("built the rules"))
    monkeypatch.setattr(covers, "_bottom_up", lambda lat: pytest.fail("made a step"))
    with pytest.raises(SizeLimit, match="250000 leaves of 1047552 bits pass the search's memory guard"):
        enumerate_saturated_covers(lat)


def shuffled(lat, seed):
    perm = list(range(lat.n))
    random.Random(seed).shuffle(perm)
    return Lattice(lat.leq[np.ix_(perm, perm)])


def include_calls(step, enumerate_, lat, module=transfer):
    """The leaves of `enumerate_(lat)`, the calls it makes to the
    `_DenseClosure` method `step`, and the extension sets the layered
    lister computes by `module._extensions`, one per memo miss."""
    calls, method = [], getattr(_DenseClosure, step)
    sets, extensions = [], module._extensions

    def counted(*args):
        calls.append(args[-1])
        return method(*args)

    def computed(*args, **kwargs):
        sets.append(args)
        return extensions(*args, **kwargs)

    with mock.patch.object(_DenseClosure, step, counted), mock.patch.object(module, "_extensions", computed):
        return len(enumerate_(lat)), len(calls), len(sets)


def test_tr_of_a_chain_makes_at_most_its_budget_of_include_calls():
    # the lister makes no include call: each layer memoizes its extension
    # sets, one per distinct key, 2^(t-1) at the element of height t here.
    # The walk made 24,623 include calls
    leaves, calls, sets = include_calls("propagate", enumerate_transfer_systems, chain(9))
    assert leaves == 16_796 and calls == 0 and sets <= 511


def test_tr_of_sub_cp_cp_13_makes_at_most_its_budget_of_include_calls():
    # one extension set per atom, whose layers are uniform, and 15 at top:
    # the popcount reject leaves the 15 systems that relate at least 13 of
    # the 14 atoms to bottom.  The walk made 758 include calls
    leaves, calls, sets = include_calls("propagate", enumerate_transfer_systems, sub_cp_cp(13))
    assert leaves == 32_782 and calls == 0 and sets <= 29


@pytest.mark.parametrize("seed", range(4))
def test_saturated_grid_makes_at_most_its_budget_of_include_calls_per_leaf(seed):
    # 168 extension sets in every labelling, against about 3.1 include
    # calls per leaf for the walk
    lat = shuffled(product(chain(3), chain(3)), seed)
    leaves, calls, sets = include_calls("propagate_saturated", enumerate_saturated_systems, lat)
    assert leaves == 3451 and calls == 0 and sets <= 168


@pytest.mark.parametrize("seed", range(4))
def test_cover_grid_makes_at_most_its_budget_of_extension_sets(seed):
    # the covers of [3]x[3] are its 3,451 saturated systems, listed with 42
    # extension sets in every labelling, one per key of the lower edges of
    # the diamonds at each element, and no closure call
    lat = shuffled(product(chain(3), chain(3)), seed)
    leaves, calls, sets = include_calls("propagate", enumerate_saturated_covers, lat, module=covers)
    assert leaves == 3451 and calls == 0 and sets <= 42


def lattice_sweep(lats):
    """The lattices, and a relabelling of each."""
    return lats + [shuffled(lat, seed) for seed, lat in enumerate(lats)]


def test_layers_give_the_leaves_of_the_plain_walk():
    # the walk over the non-reflexive pairs in position order, on the
    # closure steps of both kinds; its order never changes the sorted leaves
    lats = [lat for n in range(1, 9) for lat in all_lattices(n)]
    assert len(lats) == 300
    lats = lattice_sweep(lats) + [sub_cp_cp(p) for p in (2, 3, 5, 7, 11, 13)]
    for lat in lats:
        closure = closure_for(lat)
        order = list(_bits(closure.full ^ closure.diag))
        for step, enumerate_ in (
            (closure.propagate, enumerate_transfer_systems),
            (closure.propagate_saturated, enumerate_saturated_systems),
        ):
            bits = [system.bits for system in enumerate_(lat, guard=None)]
            assert bits == walk.leaves(order, closure.diag, step)


def test_cover_layers_give_the_leaves_of_the_plain_walk():
    # the walk over the cover edges with the propagator of the cover game
    lats = [lat for n in range(1, 9) for lat in all_lattices(n) if lat.is_modular()]
    assert len(lats) == 67
    grids = [boolean_cube(4), product(chain(3), chain(4)), product(chain(3), chain(5)), product(chain(4), chain(4))]
    lats = lattice_sweep(lats + grids + [sub_cp_cp(5), sub_cp_cp(7)])
    for lat in lats:
        rules = walk.CoverPropagator(lat)
        bits = [cover.bits for cover in enumerate_saturated_covers(lat, guard=None)]
        assert bits == walk.leaves(rules.order, 0, rules.propagate)


def test_interior_search_gives_the_leaves_of_the_plain_walk():
    # the walk over the height-order positions after bottom, with the join
    # closure as its propagator, which never meets an exclusion
    lats = lattice_sweep([lat for n in range(1, 9) for lat in all_lattices(n)])
    lats += [boolean_cube(4), product(chain(3), chain(4)), product(chain(4), chain(4))]
    for lat in lats:
        joins = _height_order(lat)[1]
        step = lambda inc, exc, p: _join_closure(joins, inc, p)  # noqa: E731
        assert _interior_masks(lat, None) == walk.leaves(range(1, lat.n), 1, step)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13, 17])
def test_tr_of_sub_cp_cp_has_the_rank_two_count(p):
    # two free cubes of p + 1 pairs and p + 1 systems between them
    assert len(enumerate_transfer_systems(sub_cp_cp(p), guard=None)) == tr_rank_two(p)


def test_guard_admits_exactly_the_leaves_of_its_cubes():
    lat = sub_cp_cp(13)
    assert len(enumerate_transfer_systems(lat, guard=32_782)) == 32_782
    with pytest.raises(SizeLimit, match="guard of 32781 leaves"):
        enumerate_transfer_systems(lat, guard=32_781)


def test_a_layer_past_the_guard_is_refused_before_it_is_built():
    # Tr(Sub(C31 x C31)) has 2^33 + 32 systems; each atom's layer doubles
    # the last, and the one that would pass the guard, 2^17 to 2^18, is
    # refused before it is built.  A list of the guard's count of systems
    # and more would hold at least their ints and their slots
    lat = sub_cp_cp(31)
    one = sys.getsizeof(closure_for(lat).full) + 8  # built before the peak is traced
    tracemalloc.start()
    try:
        with pytest.raises(SizeLimit, match="guard of 250000 leaves"):
            enumerate_transfer_systems(lat)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 2**17 * one < peak < search.MAX_LEAVES * one


def test_the_last_layer_past_the_guard_is_refused_before_it_is_built():
    # Tr(chain(12)) has Cat(13) = 742,900 systems on the 208,012 of
    # chain(11).  The size of the last layer is counted from its groups
    # and their extension sets, so a guard one short refuses it before any
    # of it is built; building it up to the guard first peaks near 776,800
    # ints and slots
    lat = chain(12)
    one = sys.getsizeof(closure_for(lat).full) + 8  # built before the peak is traced
    tracemalloc.start()
    try:
        with pytest.raises(SizeLimit, match="guard of 742899 leaves"):
            enumerate_transfer_systems(lat, guard=742_899)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 208_012 * one


@pytest.mark.parametrize("seed", range(3))
def test_layers_are_strictly_increasing_at_benchmark_scale(seed):
    # past the sizes of the lattice sweep: each layer is emitted as sorted
    # runs, one per extension, and merged, in any labelling
    bits = enumerate_transfer_systems(shuffled(chain(11), seed)).bits
    assert len(bits) == catalan(12) == 208_012
    assert all(a < b for a, b in zip(bits, bits[1:]))
    for lat in (shuffled(product(chain(3), chain(3)), seed), shuffled(boolean_cube(4), seed)):
        bits = [system.bits for system in enumerate_saturated_systems(lat)]
        assert len(bits) == count_interior_operators(lat)
        assert all(a < b for a, b in zip(bits, bits[1:]))
