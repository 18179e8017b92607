"""The leaf guard of the search engine and its cap on worker processes."""
import concurrent.futures

import pytest

from trsys import search
from trsys.covers import enumerate_saturated_covers
from trsys.errors import SizeLimit
from trsys.lattice import boolean_cube
from trsys.transfer import enumerate_saturated_systems, enumerate_transfer_systems

SEARCHES = [enumerate_transfer_systems, enumerate_saturated_systems, enumerate_saturated_covers]


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
@pytest.mark.parametrize("enumerate_", SEARCHES, ids=["transfer", "saturated", "covers"])
def test_guard_admits_exactly_its_count_of_leaves(enumerate_, jobs):
    # cube(3) has 450 transfer systems, 61 saturated ones and 61 covers; at
    # jobs=2 the leaves come from 12 to 19 subtrees, none over the guard alone
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
