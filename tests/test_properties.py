"""Property tests: the searches against the naive oracles on relabelled
small lattices.

Every lattice on at most five elements, plus Sub(C3 x C3), whose few
comparable pairs make the dense Tr layout sparse, is drawn under a random
relabelling, so that branch orders and bit layouts vary between examples.
"""
import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from trsys.characteristic import interior_system_masks
from trsys.covers import enumerate_saturated_covers
from trsys.lattice import Lattice, all_lattices, sub_cp_cp
from trsys.oracles import naive_interior_operators, naive_saturated_covers, naive_transfer_systems
from trsys.transfer import enumerate_saturated_systems, enumerate_transfer_systems

BASES = [lat for n in range(1, 6) for lat in all_lattices(n)] + [sub_cp_cp(3)]
MODULAR = [lat for lat in BASES if lat.is_modular()]


@st.composite
def relabelled(draw, bases):
    base = draw(st.sampled_from(bases))
    perm = draw(st.permutations(range(base.n)))
    return Lattice(base.leq[np.ix_(perm, perm)])


def bits(items):
    return [item.bits for item in items]


@settings(max_examples=150, deadline=None)
@given(relabelled(BASES))
@example(sub_cp_cp(3))
def test_transfer_systems_equal_the_subset_filter(lat):
    assert bits(enumerate_transfer_systems(lat, guard=None)) == bits(naive_transfer_systems(lat))


@settings(max_examples=100, deadline=None)
@given(relabelled(MODULAR))
@example(sub_cp_cp(3))
def test_saturated_covers_equal_the_subset_filter(lat):
    assert bits(enumerate_saturated_covers(lat, guard=None)) == bits(naive_saturated_covers(lat))


@settings(max_examples=100, deadline=None)
@given(relabelled(BASES))
@example(sub_cp_cp(3))
def test_interior_masks_equal_the_raw_map_filter(lat):
    images = naive_interior_operators(lat, max_elements=lat.n)
    want = sorted({sum(1 << v for v in set(image)) for image in images})
    assert interior_system_masks(lat) == want


@settings(max_examples=25, deadline=None)
@given(relabelled(BASES))
@example(sub_cp_cp(3))
def test_two_jobs_give_the_serial_output(lat):
    searches = [enumerate_transfer_systems, enumerate_saturated_systems]
    if lat.is_modular():
        searches.append(enumerate_saturated_covers)
    for enumerate_ in searches:
        serial = bits(enumerate_(lat, guard=None))
        assert bits(enumerate_(lat, guard=None, jobs=2)) == serial
