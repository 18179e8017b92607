"""The leaf and memory guards of the search engine, its cap on worker
processes, the include calls that its learned exclusions and its whole
Boolean cubes save, and the leaves of those cubes."""
import concurrent.futures
import random
from unittest import mock

import numpy as np
import pytest

from trsys import search
from trsys.characteristic import enumerate_interior_operators
from trsys.covers import enumerate_saturated_covers
from trsys.errors import SizeLimit
from trsys.counting import tr_rank_two
from trsys.lattice import Lattice, all_lattices, boolean_cube, chain, product, sub_cp_cp
from trsys.transfer import _DenseClosure, closure_for, enumerate_saturated_systems, enumerate_transfer_systems

SEARCHES = [enumerate_transfer_systems, enumerate_saturated_systems, enumerate_saturated_covers]
KINDS = ["transfer", "saturated", "covers"]


@pytest.fixture
def in_process_pool(monkeypatch):
    """The pools that `search.leaves` creates on 3 CPUs, each a stand-in for
    ProcessPoolExecutor that runs `map` in this process and records the
    worker count it was asked for and its shutdowns."""
    created = []

    class InProcessPool:
        def __init__(self, max_workers):
            self.max_workers = max_workers
            self.shutdowns = []
            created.append(self)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

        def shutdown(self, wait=True, *, cancel_futures=False):
            self.shutdowns.append(cancel_futures)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    monkeypatch.setattr(search.os, "cpu_count", lambda: 3)
    return created


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize(
    "enumerate_", [*SEARCHES, enumerate_interior_operators], ids=[*KINDS, "interior"]
)
def test_guard_admits_exactly_its_count_of_leaves(enumerate_, jobs):
    # cube(3) has 450 transfer systems, 61 saturated ones, 61 covers and 61
    # interior operators; at jobs=2 the leaves come from 9 to 19 subtrees,
    # none over the guard alone
    lat = boolean_cube(3)
    count = len(enumerate_(lat, guard=None))
    assert len(enumerate_(lat, guard=count, jobs=jobs)) == count
    with pytest.raises(SizeLimit, match=f"guard of {count - 1} leaves"):
        enumerate_(lat, guard=count - 1, jobs=jobs)


def test_jobs_are_capped_at_the_cpu_count(in_process_pool):
    lat = boolean_cube(3)
    serial = enumerate_transfer_systems(lat).bits
    assert enumerate_transfer_systems(lat, jobs=1_000_000).bits == serial
    assert [pool.max_workers for pool in in_process_pool] == [3]


def test_merged_total_over_the_guard_cancels_the_pending_subtrees(in_process_pool):
    lat = boolean_cube(3)
    with pytest.raises(SizeLimit):
        enumerate_transfer_systems(lat, guard=449, jobs=3)
    [pool] = in_process_pool
    assert pool.shutdowns == [True]


def test_memory_guard_admits_exactly_its_budget_of_bits(monkeypatch):
    # one leaf of 10 bits, the width of an order whose last position is 9
    monkeypatch.setattr(search, "_LEAF_BITS", 100)
    add_one = lambda inc, exc, k: inc | 1 << k  # noqa: E731  (the closure of inc + k)
    assert search.leaves([9], 0, add_one, guard=10) == [0, 1 << 9]
    with pytest.raises(SizeLimit, match="11 leaves of 10 bits pass the search's memory guard"):
        search.leaves([9], 0, add_one, guard=11)
    assert search.leaves([9], 0, add_one, guard=None) == [0, 1 << 9]


@pytest.mark.parametrize("enumerate_", SEARCHES, ids=KINDS)
def test_memory_guard_refuses_a_chain_of_94_elements_before_the_search(enumerate_, monkeypatch):
    # at the default guard, every lattice of 92 elements fits (its positions
    # are below 92^2), and none of 94 does: the largest label's pair with
    # top, or with the element below it, is at or past position 94 * 93 - 1
    assert search.MAX_LEAVES * 92**2 <= search._LEAF_BITS < search.MAX_LEAVES * 94 * 93
    assert max(closure_for(chain(93)).order) + 1 == 94 * 93
    monkeypatch.setattr(search, "_walk", None)  # no search starts
    with pytest.raises(SizeLimit, match="memory guard"):
        enumerate_(chain(93))


def shuffled(lat, seed):
    perm = list(range(lat.n))
    random.Random(seed).shuffle(perm)
    return Lattice(lat.leq[np.ix_(perm, perm)])


def include_calls(step, enumerate_, lat):
    """The leaves of `enumerate_(lat)` and the calls it makes to the
    `_DenseClosure` method `step`."""
    calls, method = [], getattr(_DenseClosure, step)

    def counted(*args):
        calls.append(args[-1])
        return method(*args)

    with mock.patch.object(_DenseClosure, step, counted):
        return len(enumerate_(lat)), len(calls)


def test_tr_of_a_chain_makes_at_most_its_budget_of_include_calls():
    # a failed include excludes its pair in the earlier siblings its witness
    # reaches; without that, Tr(chain(9)) makes 43,565 calls.  A chain's
    # branch order breaks no ties by label, so relabelling would not change it
    leaves, calls = include_calls("propagate", enumerate_transfer_systems, chain(9))
    assert leaves == 16_796 and calls <= 24_623


def test_tr_of_sub_cp_cp_13_makes_at_most_its_budget_of_include_calls():
    # of its two cubes of 14 pairs, one is emitted whole and the other as
    # sub-cubes of 7 to 13 pairs; walking them leaf by leaf makes 32,886 calls
    leaves, calls = include_calls("propagate", enumerate_transfer_systems, sub_cp_cp(13))
    assert leaves == 32_782 and calls <= 758


@pytest.mark.parametrize("seed", range(4))
def test_saturated_grid_makes_at_most_its_budget_of_include_calls_per_leaf(seed):
    # at most 3.1 calls per leaf under relabelling; about 9.4 without learned exclusions
    lat = shuffled(product(chain(3), chain(3)), seed)
    leaves, calls = include_calls("propagate_saturated", enumerate_saturated_systems, lat)
    assert leaves == 3451 and calls <= 3.1 * leaves


def test_whole_cubes_give_the_leaves_of_the_plain_walk(monkeypatch):
    # at a batch size of 2, every spine of two or more free positions whose
    # includes close alone tests its pairs, and most emit their cube
    monkeypatch.setattr(search, "BATCH", 2)
    cubes, pairs_close = [], search._pairs_close

    def recorded(*args):
        cubes.append(pairs_close(*args))
        return cubes[-1]

    monkeypatch.setattr(search, "_pairs_close", recorded)
    lats = [lat for n in range(1, 9) for lat in all_lattices(n)]
    assert len(lats) == 300
    lats += [shuffled(lat, seed) for seed, lat in enumerate(lats)]
    lats += [sub_cp_cp(p) for p in (2, 3, 5, 7, 11, 13)]
    for lat in lats:
        closure = closure_for(lat)
        for step in (closure.propagate, closure.propagate_saturated):
            plain = search.leaves(closure.order, closure.diag, step)
            assert search.leaves(closure.order, closure.diag, step, pairwise=True) == plain
    assert True in cubes and False in cubes


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13, 17])
def test_tr_of_sub_cp_cp_has_the_rank_two_count(p):
    # two free cubes of p + 1 pairs and p + 1 systems between them
    assert len(enumerate_transfer_systems(sub_cp_cp(p), guard=None)) == tr_rank_two(p)


@pytest.mark.parametrize("jobs", [1, 2])
def test_guard_admits_exactly_the_leaves_of_its_cubes(jobs):
    lat = sub_cp_cp(13)
    assert len(enumerate_transfer_systems(lat, guard=32_782, jobs=jobs)) == 32_782
    with pytest.raises(SizeLimit, match="guard of 32781 leaves"):
        enumerate_transfer_systems(lat, guard=32_781, jobs=jobs)


def test_a_cube_past_the_guard_is_refused_before_it_is_built(monkeypatch):
    # Tr(Sub(C31 x C31)) has 2^33 + 32 systems; the walk emits sub-cubes of
    # 7 to 16 free pairs, 2^17 - 2^7 leaves, and refuses the next cube,
    # of 2^17, before building it
    sizes, cube = [], search._cube

    def recorded(inc, free):
        sizes.append(free.bit_count())
        assert len(sizes) < 100 and 1 << sizes[-1] <= search.MAX_LEAVES
        return cube(inc, free)

    monkeypatch.setattr(search, "_cube", recorded)
    with pytest.raises(SizeLimit, match="guard of 250000 leaves"):
        enumerate_transfer_systems(sub_cp_cp(31))
    assert sizes
