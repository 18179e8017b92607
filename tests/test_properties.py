"""Property tests on relabelled small lattices: the searches, the dense
closure and each search's include step against the naive oracles, the
Hasse edges of Tr against their definition, the n-ary fusion against
the pairwise fold, the fusion recursion against brute force and its
deleted-extreme slices of Tr against the subset filter, the chi-fiber
theorem, the chi image, the cover <-> saturated bijection, the
dead-end-free interior search, exact JSON round-trips, the row-built
lattice constructors against their order matrices, the lattice tables
against their definitions on the order matrix, malformed orders
against their first witnesses, the loops built on the tables against
their definitions, and the CLI formats against each other.

Every lattice on at most five elements, plus Sub(C3 x C3), whose few
comparable pairs make the n x n bit layout sparse, is drawn under a random
relabelling, so that branch orders and bit layouts vary between examples.
"""
import contextlib
import importlib
import io
import json
import os
import random
import re
import tempfile
from functools import partial, reduce
from operator import and_, or_
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from trsys.characteristic import (
    _join_closure,
    characteristic,
    count_interior_operators,
    fiber_decomposition,
    interior_system_masks,
    operator_from_interior_system,
)
from trsys.cli import main
from trsys.counting import count_tr_fusion, interior_only_count, minimal_fibrant_census
from trsys.covers import (
    CoverViolation,
    _rules,
    cover_to_system,
    enumerate_saturated_covers,
    find_cover_violation,
    system_to_cover,
)
from trsys.errors import CycleDetected, NotMonotone
from trsys.functorial import LatticeMap
from trsys.lattice import (
    Lattice,
    _bits,
    _byte_tables,
    all_lattices,
    boolean_cube,
    canonical_form,
    chain,
    from_order,
    fusion,
    iterated_fusion,
    lattice_to_json,
    product,
    sub_cp_cp,
)
from trsys.oracles import (
    least_saturated_above,
    least_system_containing,
    naive_deleted_extreme_count,
    naive_hasse_edges,
    naive_interior_operators,
    naive_saturated_covers,
    naive_saturated_systems,
    naive_transfer_systems,
)
from trsys.serialize import cover_from_json, cover_to_json, system_from_json, system_to_json
from trsys.transfer import (
    closure_for,
    enumerate_saturated_systems,
    enumerate_transfer_systems,
    generate,
    saturated_hull,
)

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
@given(relabelled(BASES), st.booleans())
@example(sub_cp_cp(3), True)
def test_saturated_systems_equal_the_subset_filter(lat, dual):
    if dual:
        lat = lat.dual()
    assert bits(enumerate_saturated_systems(lat, guard=None)) == bits(naive_saturated_systems(lat))


@settings(max_examples=100, deadline=None)
@given(relabelled(BASES), st.booleans())
@example(sub_cp_cp(3), True)
def test_tr_covers_are_the_exact_hasse_edges(lat, dual):
    if dual:
        lat = lat.dual()
    tr = enumerate_transfer_systems(lat, guard=None)
    assert tr.covers == naive_hasse_edges(tr)


@settings(max_examples=60, deadline=None)
@given(relabelled(BASES), relabelled(BASES), st.booleans(), st.booleans())
@example(sub_cp_cp(3), sub_cp_cp(3).dual(), False, False)
def test_fusion_recursion_equals_brute_force(p, q, dual_p, dual_q):
    # the four-term count reads every term off one enumeration of Tr(p)
    # and one of Tr(q)
    p, q = (p.dual() if dual_p else p), (q.dual() if dual_q else q)
    total = count_tr_fusion(p, q, guard=None).total
    assert total == len(enumerate_transfer_systems(fusion(p, q), guard=None))


@settings(max_examples=60, deadline=None)
@given(relabelled(BASES), st.integers(0, 5))
@example(sub_cp_cp(3), 5)
def test_iterated_fusion_equals_the_pairwise_fold(p, k):
    # the one n-ary fusion has the labels of the left fold
    # fusion(... fusion(fusion(p, p), p) ..., p)
    fold = chain(1) if k == 0 else p
    for _ in range(k - 1):
        fold = fusion(fold, p)
    assert np.array_equal(iterated_fusion(p, k).leq, fold.leq)


@settings(max_examples=100, deadline=None)
@given(relabelled(BASES), st.booleans())
@example(sub_cp_cp(3), True)
def test_deleted_extreme_slices_equal_the_subset_filter(lat, dual):
    # the fusion recursion's |Tr(P - top)|, |Tr(P - bottom)| and
    # |Tr(P - {bottom, top})|, read off Tr(P), against subsets of the
    # induced order on the deleted poset
    if dual:
        lat = lat.dual()
    tr = enumerate_transfer_systems(lat, guard=None)
    census = minimal_fibrant_census(tr)
    assert census[lat.top] == naive_deleted_extreme_count(lat, drop_top=True)
    assert census[lat.bottom] == naive_deleted_extreme_count(lat, drop_bottom=True)
    assert interior_only_count(tr) == naive_deleted_extreme_count(lat, drop_bottom=True, drop_top=True)


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


@settings(max_examples=100, deadline=None)
@given(relabelled(BASES))
@example(sub_cp_cp(3))
def test_interior_count_equals_the_raw_map_filter(lat):
    # the memoized count shares only the join tables with the search, and nothing with the filter
    assert count_interior_operators(lat, lat.n) == len(naive_interior_operators(lat, max_elements=lat.n))


@settings(max_examples=100, deadline=None)
@given(relabelled(BASES), st.booleans())
@example(sub_cp_cp(3), True)
def test_interior_search_includes_only_on_branches_that_reach_a_leaf(lat, dual):
    # deciding elements by height, a linear extension of the order, no
    # include meets an excluded element: every include call adds a leaf
    if dual:
        lat = lat.dual()
    module = importlib.import_module("trsys.characteristic")  # the package exports a function of that name
    join_closure, calls = module._join_closure, []

    def counted(*args):
        calls.append(args[-1])
        return join_closure(*args)

    with mock.patch.object(module, "_join_closure", counted):
        masks = interior_system_masks(lat)
    assert len(calls) == len(masks) - 1


def systems_and_pairs(lat, dual):
    """The lattice or its dual, its transfer systems by the subset filter,
    which reads no closure table, and its non-reflexive pairs."""
    if dual:
        lat = lat.dual()
    tr = naive_transfer_systems(lat)
    pairs = [(x, y) for x in range(lat.n) for y in range(lat.n) if x != y and lat.leq[x, y]]
    return lat, tr, pairs


@settings(max_examples=150, deadline=None)
@given(relabelled(BASES), st.booleans(), st.data())
def test_dense_closure_equals_the_least_systems_above(lat, dual, data):
    lat, tr, _ = systems_and_pairs(lat, dual)
    # any subset of the comparable pairs, reflexive ones included
    comparable = [(x, y) for x in range(lat.n) for y in range(lat.n) if lat.leq[x, y]]
    picks = data.draw(st.sets(st.sampled_from(comparable)))
    bits = sum(1 << x * lat.n + y for x, y in picks)
    least = least_system_containing(tr, picks)
    assert closure_for(lat).close(bits) == least.bits
    assert closure_for(lat).close(bits, saturate=True) == least_saturated_above(least, tr).bits


def include_step(lat, kind):
    """The include step of the search of `kind` on `lat`, and the sets
    closed under it by the subset filters."""
    if kind == "interior":  # the join-closed sets that hold bottom
        tables = [_byte_tables(1 << j for j in row) for row in lat.join]
        closed = [
            m for m in range(1 << lat.n)
            if m >> lat.bottom & 1 and all(m >> lat.join[a][b] & 1 for a in _bits(m) for b in _bits(m))
        ]
        return partial(_join_closure, tables), closed
    if kind == "covers":
        return _rules(lat).propagate, bits(naive_saturated_covers(lat))
    closure = closure_for(lat)
    tr = naive_transfer_systems(lat)
    if kind == "saturated":
        return closure.propagate_saturated, [r.bits for r in tr if r.is_saturated()]
    return closure.propagate, bits(tr)


@settings(max_examples=100, deadline=None)
@given(st.booleans(), st.data())
@pytest.mark.parametrize("kind", ["transfer", "saturated", "covers", "interior"])
def test_include_step_returns_the_closure_or_a_witness_inside_it(kind, dual, data):
    # from a closed set, the step returns the least closed set above it and
    # one position when that avoids the exclusions; else a relation that
    # meets them and lies between the set plus the position and that least set
    lat = data.draw(relabelled(MODULAR if kind == "covers" else BASES))
    lat = lat.dual() if dual else lat
    step, closed = include_step(lat, kind)
    inc = data.draw(st.sampled_from(closed))
    outside = list(_bits(reduce(or_, closed) & ~inc))
    assume(outside)
    k = data.draw(st.sampled_from(outside))
    exc = sum(1 << p for p in data.draw(st.sets(st.sampled_from(outside))))
    start = inc | 1 << k
    least = reduce(and_, (c for c in closed if c & start == start))
    assert least in closed
    got = step(inc, exc, k)
    if least & exc:
        assert got & exc and got & start == start and got & ~least == 0
    else:
        assert got == least


@settings(max_examples=100, deadline=None)
@given(relabelled(BASES), st.booleans())
@example(sub_cp_cp(3), False)
def test_is_saturated_equals_the_triple_definition(lat, dual):
    lat, tr, _ = systems_and_pairs(lat, dual)
    triples = [
        (x, y, z) for x in range(lat.n) for y in range(lat.n) for z in range(lat.n) if lat.leq[y, z]
    ]
    for r in tr:
        two_of_three = all(r.contains(y, z) for x, y, z in triples if r.contains(x, y) and r.contains(x, z))
        assert r.is_saturated() == two_of_three


@settings(max_examples=100, deadline=None)
@given(relabelled(BASES), st.booleans(), st.data())
def test_generate_equals_the_meet_of_the_systems_above(lat, dual, data):
    lat, tr, pairs = systems_and_pairs(lat, dual)
    picks = data.draw(st.lists(st.sampled_from(pairs), max_size=4)) if pairs else []
    assert generate(lat, picks).bits == least_system_containing(tr, picks).bits


@settings(max_examples=100, deadline=None)
@given(relabelled(BASES), st.booleans(), st.data())
def test_saturated_hull_equals_the_least_saturated_system_above(lat, dual, data):
    lat, tr, _ = systems_and_pairs(lat, dual)
    system = data.draw(st.sampled_from(list(tr)))
    assert saturated_hull(system).bits == least_saturated_above(system, tr).bits


@settings(max_examples=100, deadline=None)
@given(relabelled(BASES), st.booleans(), st.data())
def test_join_equals_the_least_system_containing_both(lat, dual, data):
    lat, tr, _ = systems_and_pairs(lat, dual)
    a, b = data.draw(st.sampled_from(list(tr))), data.draw(st.sampled_from(list(tr)))
    assert (a | b).bits == least_system_containing(tr, a.pairs() + b.pairs()).bits


@settings(max_examples=60, deadline=None)
@given(relabelled(BASES), st.booleans())
@example(sub_cp_cp(3), False)
def test_chi_fibers_are_intervals_topped_by_their_saturated_hull(lat, dual):
    lat, tr, _ = systems_and_pairs(lat, dual)
    fibers = fiber_decomposition(tr)
    assert sorted(r.bits for fiber in fibers for r in fiber.members) == bits(tr)
    for fiber in fibers:
        low, high = fiber.least.bits, fiber.greatest.bits
        assert bits(fiber.members) == [b for b in bits(tr) if low & b == low and b & high == b]
        assert {characteristic(r).image for r in fiber.members} == {fiber.operator.image}
        assert all(saturated_hull(r) == fiber.greatest for r in fiber.members)
        assert fiber.greatest.is_saturated()


@settings(max_examples=60, deadline=None)
@given(relabelled(BASES), st.booleans())
@example(sub_cp_cp(3), True)
def test_chi_image_is_the_set_of_interior_operators(lat, dual):
    lat, tr, _ = systems_and_pairs(lat, dual)
    operators = set(naive_interior_operators(lat, max_elements=lat.n))
    assert {characteristic(r).image for r in tr} == operators


@settings(max_examples=60, deadline=None)
@given(relabelled(MODULAR), st.booleans())
@example(sub_cp_cp(3), False)
def test_covers_and_saturated_systems_map_onto_each_other(lat, dual):
    if dual:
        lat = lat.dual()
    systems = naive_saturated_systems(lat)
    covers = enumerate_saturated_covers(lat, guard=None)
    assert len(covers) == len(systems)
    assert {system_to_cover(r) for r in systems} == set(covers)
    assert sorted(cover_to_system(q).bits for q in covers) == bits(systems)


@settings(max_examples=60, deadline=None)
@given(relabelled(BASES))
@example(sub_cp_cp(3))
def test_system_json_round_trip_is_exact(lat):
    for system in enumerate_transfer_systems(lat, guard=None):
        text = json.dumps(system_to_json(system))
        back = system_from_json(json.loads(text))
        assert back == system
        assert json.dumps(system_to_json(back)) == text


@settings(max_examples=60, deadline=None)
@given(relabelled(MODULAR))
@example(sub_cp_cp(3))
def test_cover_json_round_trip_is_exact(lat):
    for cover in enumerate_saturated_covers(lat, guard=None):
        text = json.dumps(cover_to_json(cover))
        back = cover_from_json(json.loads(text))
        assert back == cover
        assert json.dumps(cover_to_json(back)) == text


def assert_rows_of(lat, leq):
    """`lat` has the order matrix `leq`, and its up-sets are the rows of it."""
    assert np.array_equal(lat.leq, leq)
    assert lat.up == [sum(1 << int(y) for y in np.flatnonzero(row)) for row in leq]


def closure_matrix(n, pairs):
    """The reflexive-transitive closure of `pairs`, by n outer products."""
    leq = np.eye(n, dtype=bool)
    for x, y in pairs:
        leq[x, y] = True
    for k in range(n):
        leq |= np.outer(leq[:, k], leq[k, :])
    return leq


def fusion_matrix(*operands):
    """A fresh bottom below and top above the operands' interiors, laid out
    as incomparable blocks."""
    interiors = [[x for x in range(p.n) if x not in (p.bottom, p.top)] for p in operands]
    n = 2 + sum(map(len, interiors))
    leq = np.eye(n, dtype=bool)
    leq[0, :] = leq[:, n - 1] = True
    start = 1
    for p, interior in zip(operands, interiors):
        stop = start + len(interior)
        leq[start:stop, start:stop] = p.leq[np.ix_(interior, interior)]
        start = stop
    return leq


@settings(max_examples=100, deadline=None)
@given(relabelled(BASES), relabelled(BASES), st.integers(0, 6), st.data())
def test_row_constructors_equal_their_matrix_definitions(p, q, k, data):
    assert_rows_of(chain(k), np.triu(np.ones((k + 1, k + 1), dtype=bool)))
    index = np.arange(1 << k)
    assert_rows_of(boolean_cube(k), (index[:, None] & ~index[None, :]) == 0)
    assert_rows_of(product(p, q), np.kron(p.leq, q.leq))
    assert_rows_of(fusion(p, q, p), fusion_matrix(p, q, p))
    assert_rows_of(p.dual(), p.leq.T)
    # the covers and some other comparable pairs, in a drawn order
    comparable = [(x, y) for x in range(p.n) for y in _bits(p.up[x] & ~(1 << x))]
    extra = data.draw(st.lists(st.sampled_from(comparable), unique=True)) if comparable else []
    pairs = data.draw(st.permutations(sorted(set(p.covers) | set(extra))))
    built = from_order(p.n, pairs)
    assert_rows_of(built, closure_matrix(p.n, pairs))
    assert built.same_order(p)


def test_sub_cp_cp_is_the_fusion_of_its_middle_chains():
    for prime in (2, 3, 5):
        assert_rows_of(sub_cp_cp(prime), fusion_matrix(*[chain(2)] * (prime + 1)))


@settings(max_examples=100, deadline=None)
@given(relabelled(BASES), st.booleans())
def test_nested_lists_and_arrays_give_the_same_lattice(lat, dual):
    lat = lat.dual() if dual else lat
    matrix = np.array(lat.leq)

    def tables(built):
        return {key: value for key, value in vars(built).items() if key != "_cache"}

    assert tables(Lattice(matrix.tolist())) == tables(Lattice(matrix.astype(int).tolist())) == tables(Lattice(matrix))
    assert tables(Lattice(matrix)) == tables(lat)


@pytest.mark.parametrize("matrix", [
    [True, False],
    np.ones(3, dtype=bool),
    [[True], [True, True]],
    [[True, True], [True]],
    np.ones((2, 3), dtype=bool),
    True,
], ids=["list", "array", "ragged-short", "ragged-long", "wide", "scalar"])
def test_orders_that_are_not_square_matrices_are_refused(matrix):
    with pytest.raises(ValueError, match="order matrix must be square"):
        Lattice(matrix)


def test_canonical_form_reads_the_same_key_off_rows_and_matrices():
    # each lattice relabelled through `from_order`, which builds on rows,
    # against the lattice read back from its matrix
    rng = random.Random(22)
    for n in range(1, 8):
        for base in all_lattices(n):
            inv = rng.sample(range(n), n)
            lat = from_order(n, [(inv[x], inv[y]) for x, y in base.covers])
            key = canonical_form(lat)
            assert key == canonical_form(Lattice(lat.leq)) == canonical_form(base)
            # the key holds a relabelled order matrix, one byte per entry
            assert canonical_form(Lattice(np.frombuffer(key[2], dtype=bool).reshape(n, n))) == key


def least_in(le, candidates):
    """The elements of `candidates` below all of them in the order `le`."""
    return [z for z in candidates if le[z, candidates].all()]


@settings(max_examples=100, deadline=None)
@given(relabelled(BASES), st.booleans())
def test_tables_equal_their_definitions_on_the_order_matrix(lat, dual):
    if dual:
        lat = lat.dual()
    n, leq = lat.n, lat.leq
    assert lat.up == [sum(1 << y for y in range(n) if leq[x, y]) for x in range(n)]
    # a join is the least common upper bound; a meet is the same in the
    # reversed order
    for table, le in ((lat.join, leq), (lat.meet, leq.T)):
        assert {type(v) for row in table for v in row} == {int}
        for x in range(n):
            for y in range(n):
                assert [table[x][y]] == least_in(le, np.flatnonzero(le[x] & le[y]))
    assert [lat.bottom] == least_in(leq, np.arange(n))
    assert [lat.top] == least_in(leq.T, np.arange(n))
    strict = leq & ~np.eye(n, dtype=bool)
    covers = [(x, y) for x in range(n) for y in range(n) if strict[x, y] and not (strict[x] & strict[:, y]).any()]
    assert lat.covers == covers
    # the height is the longest cover path from bottom
    height = {lat.bottom: 0}
    while len(height) < n:
        for y in range(n):
            below = [x for x, z in covers if z == y]
            if y not in height and below and all(x in height for x in below):
                height[y] = 1 + max(height[x] for x in below)
    assert lat.height == [height[x] for x in range(n)]


@settings(max_examples=100, deadline=None)
@given(relabelled(MODULAR), st.booleans(), st.data())
def test_matchstick_tables_equal_their_definitions_on_the_order_matrix(lat, dual, data):
    if dual:
        lat = lat.dual()
    n, leq = lat.n, lat.leq
    strict = leq & ~np.eye(n, dtype=bool)
    covers = [(x, y) for x in range(n) for y in range(n) if strict[x, y] and not (strict[x] & strict[:, y]).any()]
    # per incomparable x, y with meet m and join j: the covering tetrads,
    # and the pair (m, y) that the cover edge (x, j) forces
    diamonds, forces = [], [0] * (n * n)
    for x in range(n):
        for y in range(n):
            if leq[x, y] or leq[y, x]:
                continue
            [m] = map(int, least_in(leq.T, np.flatnonzero(leq[:, x] & leq[:, y])))
            [j] = map(int, least_in(leq, np.flatnonzero(leq[x] & leq[y])))
            if (x, j) in covers:
                assert (m, y) in covers  # modularity
                forces[x * n + j] |= 1 << m * n + y
            if x < y and {(m, x), (m, y), (x, j), (y, j)} <= set(covers):
                diamonds.append((m * n + x, m * n + y, x * n + j, y * n + j))
    rules = _rules(lat)
    assert rules.diamonds == diamonds
    assert rules.implies == forces
    # a subset of the covers: rule (2) is reported first, then rule (1) at
    # the lowest edge missing a forced edge, with the lowest such edge
    chosen = data.draw(st.integers(0, (1 << len(covers)) - 1))
    bits = sum(1 << x * n + y for i, (x, y) in enumerate(covers) if chosen >> i & 1)
    violation = find_cover_violation(lat, bits)
    if any(sum(bits >> p & 1 for p in quad) == 3 for quad in diamonds):
        assert violation.rule == 2
    else:
        missing = [(p, forces[p] & ~bits) for p in range(n * n) if bits >> p & 1 and forces[p] & ~bits]
        expected = None
        if missing:
            p, lost = missing[0]
            expected = CoverViolation(1, (divmod(p, n), divmod((lost & -lost).bit_length() - 1, n)))
        assert violation == expected


def drawn_pairs(lat, data, with_middle):
    """One to three drawn pairs x < z of `lat`, with some y strictly between
    them when `with_middle`; the example is skipped when there is none."""
    leq = lat.leq
    pairs = [
        (x, z)
        for x in range(lat.n)
        for z in range(lat.n)
        if x != z and leq[x, z] and (not with_middle or (leq[x] & leq[:, z]).sum() > 2)
    ]
    assume(pairs)
    return data.draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=3, unique=True))


@settings(max_examples=100, deadline=None)
@given(relabelled(BASES), st.booleans(), st.data())
def test_two_cycles_raise_at_the_first_mutually_comparable_pair(lat, dual, data):
    lat = lat.dual() if dual else lat
    leq = np.array(lat.leq)
    for x, z in drawn_pairs(lat, data, with_middle=False):
        leq[z, x] = True
    a, b = np.argwhere(leq & leq.T & ~np.eye(lat.n, dtype=bool))[0]
    with pytest.raises(CycleDetected, match=re.escape(f"elements {a} and {b} are mutually comparable")):
        Lattice(leq)


@settings(max_examples=100, deadline=None)
@given(relabelled(BASES), st.booleans(), st.data())
def test_missing_transitive_pairs_raise_at_the_first_two_step_path(lat, dual, data):
    lat = lat.dual() if dual else lat
    leq = np.array(lat.leq)
    for x, z in drawn_pairs(lat, data, with_middle=True):
        leq[x, z] = False
    # an integer count of paths, which cannot wrap at these sizes
    two_steps = (leq.astype(np.int64) @ leq.astype(np.int64) > 0) & ~leq
    a, c = np.argwhere(two_steps)[0]
    with pytest.raises(ValueError, match=re.escape(f"order not transitive at ({a}, {c})")):
        Lattice(leq)


def join_of_elements_below(lat, mask):
    """The operator of a mask by its definition."""
    image = []
    for x in range(lat.n):
        best = lat.bottom
        for s in range(lat.n):
            if mask >> s & 1 and lat.leq[s, x]:
                best = lat.join[best][s]
        image.append(best)
    return tuple(image)


@settings(max_examples=60, deadline=None)
@given(relabelled(BASES))
def test_operator_of_every_mask_equals_the_join_of_the_elements_below(lat):
    # every mask, so also those that are not join-closed or miss bottom
    for mask in range(1 << lat.n):
        assert operator_from_interior_system(lat, mask).image == join_of_elements_below(lat, mask)


def all_pairs_monotone(source, target, image):
    return all(
        target.leq[image[x], image[y]]
        for x in range(source.n)
        for y in range(source.n)
        if source.leq[x, y]
    )


@settings(max_examples=200, deadline=None)
@given(relabelled(BASES), relabelled(BASES), st.data())
def test_cover_monotonicity_check_agrees_with_all_pairs(source, target, data):
    def image_into(lat):
        return data.draw(st.lists(st.integers(0, lat.n - 1), min_size=source.n, max_size=source.n))

    for make, lat in ((lambda im: LatticeMap(source, source, im), source),
                      (lambda im: LatticeMap(source, target, im), target)):
        image = image_into(lat)
        try:
            make(image)
            raised = False
        except NotMonotone:
            raised = True
        assert raised == (not all_pairs_monotone(source, lat, image))


@settings(max_examples=30, deadline=None)
@given(relabelled(MODULAR), st.sampled_from(["transfer", "saturated", "covers"]))
@example(sub_cp_cp(3), "covers")
def test_every_format_reports_the_same_item_count(lat, kind):
    reported = set()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "lattice.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(lattice_to_json(lat), fh)
        for fmt in ("table", "json", "dot"):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(["enumerate", "--family", "json", "--json", path, "--kind", kind, "--format", fmt])
            assert code == 0
            count = int(err.getvalue().split()[0])
            text = out.getvalue()
            items = text.count("digraph ") if fmt == "dot" else len(text.splitlines())
            assert items == count
            reported.add(count)
    assert len(reported) == 1
