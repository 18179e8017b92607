import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trsys.errors import AmbientMismatch, InvalidTransferSystem, NotComposable, NotMonotone
from trsys.functorial import (
    LatticeMap,
    check_functoriality,
    compose,
    composition_counterexample,
    identity_map,
    product_projections,
    product_split,
    pushforward,
    random_monotone_map,
    sample_meet_preserving_pairs,
    split_to_factors,
)
from trsys.lattice import (
    all_lattices,
    boolean_cube,
    chain,
    is_isomorphic,
    iterated_fusion,
    product,
)
from trsys.transfer import (
    complete_system,
    discrete_system,
    enumerate_transfer_systems,
    find_violation,
    generate,
)


def test_monotone_validation():
    with pytest.raises(NotMonotone):
        LatticeMap(chain(2), chain(2), [2, 1, 0])
    for image in [[0, 1, -1], [0, 1, 2], [0, 1], [0, 0.5, 1]]:
        with pytest.raises(ValueError):
            LatticeMap(chain(2), chain(1), image)


def test_identity_pushforward():
    lat = chain(2)
    ident = identity_map(lat)
    for system in enumerate_transfer_systems(lat):
        assert pushforward(ident, system) == system


def test_discrete_pushes_to_discrete():
    f = LatticeMap(chain(2), boolean_cube(2), [0, 2, 3])
    assert pushforward(f, discrete_system(chain(2))) == discrete_system(boolean_cube(2))


def pair_route(f, system):
    """Tr(f) by the image pairs: `generate` on the target."""
    return generate(f.target, [(f(x), f(y)) for x, y in system.pairs()])


def test_pushforward_equals_the_pair_route_on_the_seeded_pairs_of_verify():
    pool = [chain(1), chain(2), chain(3), boolean_cube(2), iterated_fusion(chain(2), 2), product(chain(1), chain(2))]
    for f, g in sample_meet_preserving_pairs(pool, 200, seed=20230811):
        composite = compose(g, f)
        for system in enumerate_transfer_systems(f.source):
            image = pushforward(f, system)
            assert image == pair_route(f, system)
            assert pushforward(g, image) == pair_route(g, image)
            assert pushforward(composite, system) == pair_route(composite, system)


SOURCES = [chain(2), chain(3), boolean_cube(2), boolean_cube(3), iterated_fusion(chain(2), 3), product(chain(1), chain(2))]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(SOURCES), st.sampled_from(SOURCES), st.integers(0, 2**32))
def test_pushforward_equals_the_pair_route_along_random_monotone_maps(source, target, seed):
    f = random_monotone_map(source, target, random.Random(seed))
    for system in enumerate_transfer_systems(source):
        assert pushforward(f, system) == pair_route(f, system)


@pytest.mark.parametrize("image", [(2, 1, 0), (0, 3, 1), (0, 1, 4), (-1, 1, 2)])
def test_pushforward_along_an_unvalidated_map_outside_the_order_fails_as_the_pair_route(image):
    lat = chain(2)
    f = LatticeMap._wrap(lat, lat, image)
    with pytest.raises(InvalidTransferSystem) as info:
        pushforward(f, complete_system(lat))
    with pytest.raises(InvalidTransferSystem) as pairs_info:
        pair_route(f, complete_system(lat))
    assert info.value.violation == pairs_info.value.violation
    assert info.value.violation.axiom == "refinement"
    assert pushforward(f, discrete_system(lat)) == discrete_system(lat)


def test_pushforward_ambient_guard():
    f = identity_map(chain(2))
    with pytest.raises(AmbientMismatch):
        pushforward(f, discrete_system(chain(3)))


def test_composition_guard():
    with pytest.raises(NotComposable):
        compose(identity_map(chain(3)), identity_map(chain(2)))


def test_counterexample_reproduces():
    f, g, system = composition_counterexample()
    assert not f.is_meet_preserving()
    assert not g.is_meet_preserving()
    direct = pushforward(compose(g, f), system)
    staged = pushforward(g, pushforward(f, system))
    assert direct.refines(staged)
    assert direct != staged
    # the two extra relations come from the intermediate closure
    extra = set(staged.pairs()) - set(direct.pairs())
    assert extra == {(1, 2), (1, 3)}
    report = check_functoriality(f, g, [system])
    assert not report.holds
    assert not report.meet_preserving
    assert len(report.witnesses) == 1


def test_functoriality_on_meet_preserving_chain_maps():
    f = LatticeMap(chain(2), chain(3), [0, 1, 3])
    g = LatticeMap(chain(3), chain(2), [0, 0, 1, 2])
    assert f.is_meet_preserving() and g.is_meet_preserving()
    report = check_functoriality(f, g, list(enumerate_transfer_systems(chain(2))))
    assert report.holds and report.meet_preserving


def test_sampled_meet_preserving_pairs_compose():
    pool = [chain(1), chain(2), chain(3), boolean_cube(2), iterated_fusion(chain(2), 2)]
    pairs = sample_meet_preserving_pairs(pool, 40, seed=11)
    assert len(pairs) == 40
    for f, g in pairs:
        sample = list(enumerate_transfer_systems(f.source))
        assert check_functoriality(f, g, sample).holds


def test_sampling_is_deterministic():
    pool = [chain(2), boolean_cube(2)]
    a = sample_meet_preserving_pairs(pool, 10, seed=3)
    b = sample_meet_preserving_pairs(pool, 10, seed=3)
    assert [(f.image, g.image) for f, g in a] == [(f.image, g.image) for f, g in b]


def test_pushforward_is_monotone():
    maps = [
        LatticeMap(chain(2), boolean_cube(2), [0, 2, 3]),
        LatticeMap(boolean_cube(2), chain(2), [0, 1, 1, 2]),
        LatticeMap(chain(3), chain(2), [0, 1, 1, 2]),
    ]
    for f in maps:
        tr = enumerate_transfer_systems(f.source)
        for a in tr:
            for b in tr:
                if a.refines(b):
                    assert pushforward(f, a).refines(pushforward(f, b))


def test_tr_of_meet_preserving_map_need_not_preserve_meets():
    # the embedding of the three-chain across the diamond preserves meets,
    # but its pushforward does not
    lat = chain(2)
    f = LatticeMap(lat, boolean_cube(2), [0, 2, 3])
    assert f.is_meet_preserving()
    tr = list(enumerate_transfer_systems(lat))
    witnesses = [
        (a, b)
        for a in tr
        for b in tr
        if pushforward(f, a & b) != pushforward(f, a) & pushforward(f, b)
    ]
    assert witnesses


def test_product_split_examples():
    c1 = chain(1)
    assert product_split(discrete_system(c1), discrete_system(c1)) == discrete_system(
        product(c1, c1)
    )
    assert product_split(complete_system(c1), complete_system(c1)) == complete_system(
        product(c1, c1)
    )
    mixed = product_split(complete_system(c1), discrete_system(c1))
    assert mixed.pairs() == [(0, 2), (1, 3)]


def test_product_split_round_trip():
    # the componentwise bits are a transfer system, and the projections
    # recover both factors
    for p, q in ((chain(1), chain(2)), (boolean_cube(2), chain(1)), (chain(2), chain(2))):
        pq = product(p, q)
        for r in enumerate_transfer_systems(p):
            for t in enumerate_transfer_systems(q):
                system = product_split(r, t)
                assert system.lattice.same_order(pq)
                assert find_violation(pq, system.bits) is None
                back_r, back_t = split_to_factors(system, p, q)
                assert back_r == r and back_t == t


def test_projections_are_meet_preserving():
    pq = product(chain(2), chain(1))
    left, right = product_projections(pq, chain(2), chain(1))
    assert left.is_meet_preserving() and right.is_meet_preserving()


def test_random_monotone_maps_are_monotone():
    import random

    rng = random.Random(5)
    for _ in range(25):
        f = random_monotone_map(boolean_cube(2), chain(3), rng)
        assert isinstance(f, LatticeMap)  # constructor enforces monotonicity


def test_no_small_lattice_has_three_chain_tr():
    # Tr is not essentially surjective: nothing maps onto the three-element
    # chain among lattices with at most four elements
    three_chain = chain(2)
    for n in range(1, 5):
        for lat in all_lattices(n):
            tr = enumerate_transfer_systems(lat)
            assert not is_isomorphic(tr.hasse_lattice(), three_chain)
