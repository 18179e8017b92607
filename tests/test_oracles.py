"""The bit-sliced subset filters of `trsys.oracles` against the per-subset
loop they replaced, which runs the public axiom checker on every subset,
and the invariant checks of the generation and hull oracles."""
import pytest

from trsys import oracles
from trsys.covers import find_cover_violation
from trsys.errors import InvalidTransferSystem, InvariantViolation, NotModular, SizeLimit
from trsys.lattice import all_lattices, boolean_cube, chain
from trsys.oracles import (
    MAX_SUBSET_EDGES,
    MAX_SUBSET_PAIRS,
    least_saturated_above,
    least_system_containing,
    naive_deleted_extreme_count,
    naive_saturated_covers,
    naive_transfer_systems,
)
from trsys.transfer import TransferSystem, TrLattice, find_violation, generate

EXTREMES = [(True, False), (False, True), (True, True)]


def every_subset(free, base=0):
    """`base` with each subset of the positions `free` added."""
    out = [base]
    for p in free:
        out += [mask | 1 << p for mask in out]
    return out


def free_pairs(lat, keep):
    n, up = lat.n, lat.up
    return [x * n + y for x in keep for y in keep if x != y and up[x] >> y & 1]


def subset_loop_transfer_systems(lat):
    """The bits of every subset of non-reflexive pairs that `find_violation` passes."""
    n = lat.n
    diag = sum(1 << x * (n + 1) for x in range(n))
    return sorted(b for b in every_subset(free_pairs(lat, range(n)), diag) if find_violation(lat, b) is None)


def subset_loop_saturated_covers(lat):
    """The bits of every subset of cover edges that `find_cover_violation` passes."""
    free = [x * lat.n + y for x, y in lat.covers]
    return sorted(b for b in every_subset(free) if find_cover_violation(lat, b) is None)


def subset_loop_deleted_extreme_count(lat, drop_bottom, drop_top):
    """Transfer relations on the lattice minus the chosen extremes, one subset at a time."""
    n, meet, up = lat.n, lat.meet, lat.up
    keep = [x for x in range(n) if not (drop_bottom and x == lat.bottom or drop_top and x == lat.top)]
    free = free_pairs(lat, keep)

    def is_transfer(bits):
        for x, z in (divmod(p, n) for p in free if bits >> p & 1):
            for y in keep:
                w = meet[x][y]
                if up[y] >> z & 1 and w in keep and not bits >> w * n + y & 1:
                    return False
            for c in keep:
                if bits >> z * n + c & 1 and not bits >> x * n + c & 1:
                    return False
        return True

    diag = sum(1 << x * (n + 1) for x in keep)
    return sum(1 for bits in every_subset(free, diag) if is_transfer(bits))


@pytest.fixture(scope="module")
def small_lattices():
    return [lat for n in range(1, 9) for lat in all_lattices(n)]


def test_transfer_filter_is_the_subset_loop_on_every_lattice_inside_the_guard(small_lattices):
    inside = [lat for lat in small_lattices if len(free_pairs(lat, range(lat.n))) <= MAX_SUBSET_PAIRS]
    assert len(inside) == 21
    for lat in inside:
        want = subset_loop_transfer_systems(lat)
        assert naive_transfer_systems(lat).bits == want
        # the slices alone are exact: the public checker drops no survivor
        keep = range(lat.n)
        diag = sum(1 << x * (lat.n + 1) for x in keep)
        alive = oracles._survivors(free_pairs(lat, keep), diag, oracles._transfer_clauses(lat, keep))
        assert alive.bit_count() == len(want)


def test_cover_filter_is_the_subset_loop_on_every_lattice_inside_the_guard(small_lattices):
    # outside modular lattices both routes raise NotModular where a forced pair
    # is no cover (the pentagon is one), and agree where none is
    inside = [lat for lat in small_lattices if len(lat.covers) <= MAX_SUBSET_EDGES]
    modular = [lat for lat in inside if lat.is_modular()]
    assert len(modular) == 67
    refused = 0
    for lat in inside:
        try:
            want = subset_loop_saturated_covers(lat)
        except NotModular:
            with pytest.raises(NotModular):
                naive_saturated_covers(lat)
            refused += 1
            continue
        assert [q.bits for q in naive_saturated_covers(lat)] == want
        free = [x * lat.n + y for x, y in lat.covers]
        assert oracles._survivors(free, 0, oracles._cover_clauses(lat)).bit_count() == len(want)
    assert refused > 0


def test_deleted_extreme_counts_are_the_subset_loop_on_every_lattice_inside_the_guard(small_lattices):
    compared = 0
    for lat in small_lattices:
        for drop_bottom, drop_top in EXTREMES:
            try:
                got = naive_deleted_extreme_count(lat, drop_bottom, drop_top)
            except SizeLimit:
                continue
            assert got == subset_loop_deleted_extreme_count(lat, drop_bottom, drop_top)
            compared += 1
    assert compared > 3 * 21  # deleting an extreme frees pairs, so more lattices fit the guard


@pytest.mark.parametrize("k", range(7))
def test_slice_i_holds_the_indices_with_bit_i(k):
    slices = oracles._slices(k)
    assert len(slices) == k
    for i, piece in enumerate(slices):
        assert piece == sum(1 << s for s in range(2**k) if s >> i & 1)


def test_survivors_rule_out_the_premises_without_the_conclusion():
    # positions 3 and 5 are free, 7 is always in, 9 never: 3 => 5, and 5 with 7 => 9
    assert oracles._survivors([3, 5], 1 << 7, [((3,), 5)]) == 0b1101
    assert oracles._survivors([3, 5], 1 << 7, [((3,), 5), ((5, 7), 9)]) == 0b0001
    assert oracles._survivors([], 0, []) == 1


def test_the_guards_keep_their_values_and_refuse_past_them():
    assert (MAX_SUBSET_PAIRS, MAX_SUBSET_EDGES) == (12, 14)
    with pytest.raises(SizeLimit, match="15 free pairs"):
        naive_transfer_systems(chain(5))
    with pytest.raises(SizeLimit, match="32 cover edges"):
        naive_saturated_covers(boolean_cube(4))


def test_least_system_containing_raises_when_its_systems_meet_outside_them():
    # on chain(2) = 0 < 1 < 2 every system holds the empty set of pairs, and
    # {(0, 1)} and {(1, 2)} meet in the empty system, which is left out
    lat = chain(2)
    tr = naive_transfer_systems(lat)
    empty = TransferSystem.from_pairs(lat, [])
    assert least_system_containing(tr, []) == empty
    assert least_system_containing(tr, [(0, 2)]).pairs() == [(0, 1), (0, 2)]
    planted = TrLattice(lat, [s for s in tr if s != empty])
    with pytest.raises(InvariantViolation, match="meet outside Tr"):
        least_system_containing(planted, [])


def test_least_saturated_above_raises_when_the_saturated_systems_above_have_no_least():
    # on chain(2) the empty system lies below every saturated system; with the
    # least of them left out, the two systems {(0, 1)} and {(1, 2)} remain minimal
    lat = chain(2)
    tr = naive_transfer_systems(lat)
    empty = TransferSystem.from_pairs(lat, [])
    assert least_saturated_above(empty, tr) == empty
    planted = [s for s in tr if s != empty]
    minimal = [s for s in planted if s.is_saturated() and s.bits.bit_count() == lat.n + 1]
    assert len(minimal) == 2
    with pytest.raises(InvariantViolation, match="no least member"):
        least_saturated_above(empty, planted)


@pytest.mark.parametrize("pairs", [[(2, 0)], [(5, 0)], [(-1, 0)]], ids=["unordered", "past-n", "negative"])
def test_least_system_containing_refuses_the_pairs_that_generate_refuses(pairs):
    # the oracle reads its pairs as generate, the route it checks, does
    lat = chain(2)
    tr = naive_transfer_systems(lat)
    with pytest.raises(InvalidTransferSystem) as expected:
        generate(lat, pairs)
    with pytest.raises(InvalidTransferSystem) as got:
        least_system_containing(tr, pairs)
    assert str(got.value) == str(expected.value)
