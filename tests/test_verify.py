"""The verification table: its full output, faults planted in its routes,
and the table of lattices and listings that one run shares.

Each fault-planting test breaks one route of one check with `monkeypatch`
and asserts the lines the check then fails on, so that a check which
stopped comparing would show here.
"""
import contextlib
import gc
import io
import pathlib
import re
import weakref

import pytest

from trsys import functorial, oracles, verify
from trsys.characteristic import ChiFiber, fiber_decomposition
from trsys.cli import main
from trsys.covers import cover_to_system
from trsys.errors import InvalidInput, InvariantViolation
from trsys.transfer import TransferSystem, closure_for, complete_system, enumerate_transfer_systems

GOLDEN = pathlib.Path(__file__).parent / "golden" / "verify_verbose.txt"


def test_verbose_output_of_every_check_is_the_golden_file():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["verify", "--verbose"])
    assert code == 0
    assert out.getvalue() == GOLDEN.read_text()


def failed_lines(result):
    return [line for line in result.lines if line.startswith("FAIL")]


def test_check_fibers_fails_when_the_top_fiber_of_cube3_loses_a_member(monkeypatch):
    def planted(tr):
        fibers = fiber_decomposition(tr)
        if tr.lattice.n == 8:  # cube(3), the one lattice of the family with 8 elements
            i = max(range(len(fibers)), key=lambda k: len(fibers[k].members))
            top = fibers[i]
            assert len(top.members) == 198
            members = top.members[:99] + top.members[100:]  # neither end
            fibers[i] = ChiFiber(top.operator, top.least, top.greatest, members)
        return fibers

    monkeypatch.setattr(verify, "fiber_decomposition", planted)
    result = verify.check_fibers()
    assert not result.ok
    assert failed_lines(result) == ["FAIL cube(3): 61 fibers over the 61 interior operators"]


def plant_a_wrong_system_for_the_empty_cover_of_cube3(monkeypatch):
    def planted(cover):
        lat = cover.lattice
        if lat.n == 8 and cover.bits == 0:  # the empty cover of cube(3)
            return complete_system(lat)
        return cover_to_system(cover)

    monkeypatch.setattr(verify, "cover_to_system", planted)


def test_check_roundtrips_fails_when_one_cover_generates_the_wrong_system(monkeypatch):
    plant_a_wrong_system_for_the_empty_cover_of_cube3(monkeypatch)
    result = verify.check_roundtrips()
    assert not result.ok
    assert failed_lines(result) == ["FAIL cube(3): 61 covers <-> 61 saturated systems"]


def test_a_full_run_fails_only_roundtrip_when_one_cover_generates_the_wrong_system(monkeypatch):
    # matchstick lists the same covers and saturated systems as roundtrip, and
    # roundtrip reads them from the run's table: the fault must still show there
    plant_a_wrong_system_for_the_empty_cover_of_cube3(monkeypatch)
    results = {result.name: result for result in verify.run_checks()}
    assert [name for name, result in results.items() if not result.ok] == ["roundtrip"]
    assert failed_lines(results["roundtrip"]) == ["FAIL cube(3): 61 covers <-> 61 saturated systems"]
    assert results["matchstick"].ok


def test_check_oracles_fails_on_every_lattice_when_one_subset_is_skipped(monkeypatch):
    # the survivor decode drops the complete system, or every cover edge,
    # before the public checker sees it
    def planted(free, base, indices):
        every = base | sum(1 << p for p in free)
        return [bits for bits in decode(free, base, indices) if bits != every]

    decode = oracles._decode
    monkeypatch.setattr(oracles, "_decode", planted)
    result = verify.check_oracles()
    assert not result.ok
    assert len(result.lines) == 22
    assert failed_lines(result) == result.lines
    assert result.lines[5] == "FAIL transfer oracle on pentagon: 26 systems"
    assert result.lines[16] == "FAIL cover oracle on cube(3): 61 covers"


def plant_a_staged_pushforward_that_drops_a_pair(monkeypatch, *modules):
    """Make `pushforward` drop the highest non-reflexive pair of its result
    when its argument is itself a pushforward: the outer step of a staged
    pushforward g(f(R))."""
    pushforward, made = functorial.pushforward, {}  # id -> output, kept alive

    def planted(f, system):
        out = pushforward(f, system)
        pairs = out.bits & ~closure_for(f.target).diag
        if id(system) in made and pairs:
            out = TransferSystem._wrap(f.target, out.bits ^ 1 << pairs.bit_length() - 1)
        made[id(out)] = out
        return out

    for module in modules:
        monkeypatch.setattr(module, "pushforward", planted)


def test_check_functorial_fails_on_the_counterexample_when_a_staged_pushforward_drops_a_pair(monkeypatch):
    plant_a_staged_pushforward_that_drops_a_pair(monkeypatch, verify)
    result = verify.check_functorial()
    assert not result.ok
    assert failed_lines(result) == ["FAIL monotone counterexample: staged pushforward strictly larger"]


def test_check_functorial_raises_when_a_staged_pushforward_of_meet_preserving_maps_drops_a_pair(monkeypatch):
    plant_a_staged_pushforward_that_drops_a_pair(monkeypatch, verify, functorial)
    with pytest.raises(InvariantViolation):
        verify.check_functorial()


@pytest.mark.parametrize("k", range(8))
def test_subsets_are_the_base_plus_each_subset_of_the_free_positions(k):
    # decoding every index 0 <= s < 2^k gives, at s, the base with free[i] for each bit i of s
    free = [3 * i + 1 for i in range(k)]  # positions with gaps, none in the base
    base = 1 << 0 | 1 << 2 | 1 << 30
    every = (1 << 2**k) - 1
    masks = oracles._decode(free, base, every)
    assert masks == [base | sum(1 << p for i, p in enumerate(free) if pick >> i & 1) for pick in range(2**k)]
    assert oracles._decode(free, 0, every) == [mask ^ base for mask in masks]
    odd = sum(1 << s for s in range(1, 2**k, 2))
    assert oracles._decode(free, base, odd) == masks[1::2]


@pytest.fixture(scope="module")
def full_run():
    return {result.name: result for result in verify.run_checks()}


@pytest.mark.parametrize("name", list(verify.ALL_CHECKS))
def test_each_check_alone_gives_what_it_gives_in_the_full_run(full_run, name):
    (alone,) = verify.run_checks([name])
    assert (alone.name, alone.ok, alone.lines) == (name, full_run[name].ok, full_run[name].lines)
    assert alone.ok


@pytest.mark.parametrize("names", [["catalan", "typo"], ["nope"], ["oracle", "zeta", "alpha"]])
def test_run_checks_refuses_unknown_names(names):
    unknown = sorted(set(names) - set(verify.ALL_CHECKS))
    with pytest.raises(InvalidInput, match=re.escape(f"unknown checks {unknown!r}")):
        verify.run_checks(names)


@pytest.mark.parametrize("names", [None, ["bmt"], ["catalan", "oracle"]])
def test_run_checks_refuses_a_size_cap_below_one(names):
    # bmt checks n = 1 to max_n, so max_n = 0 would leave it nothing to compare
    with pytest.raises(InvalidInput, match="max_n \\(--max\\) must be at least 1, got 0"):
        verify.run_checks(names, max_n=0)
    assert [result.ok for result in verify.run_checks(["bmt"], max_n=1)] == [True]


@pytest.mark.parametrize("names", [["oracle"], ["catalan", "fusion"], ["bmt", "ranktwo", "fibers"]])
def test_run_checks_refuses_a_size_cap_for_a_check_that_does_not_read_it(names):
    uncapped = [name for name in names if name not in verify.CAPPED_CHECKS]
    with pytest.raises(InvalidInput, match=re.escape(f"not by {uncapped!r}")):
        verify.run_checks(names, max_n=3)


def test_run_checks_refuses_a102896_past_its_known_counts_but_a_full_run_stops_there():
    with pytest.raises(InvalidInput, match=re.escape("cube(0) to cube(5), not of cube(6)")):
        verify.run_checks(["a102896"], max_n=6)
    (alone,) = verify.run_checks(["a102896"], max_n=5)
    capped = {result.name: result for result in verify.run_checks(max_n=6)}
    assert capped["a102896"].lines == alone.lines and len(alone.lines) == 6
    assert all(result.ok for result in capped.values())


def record_tr_listings(monkeypatch):
    """Weak references to the lattices whose Tr the checks list, one per call."""
    listed = []

    def recording(lat, *args, **kwargs):
        listed.append(weakref.ref(lat))
        return enumerate_transfer_systems(lat, *args, **kwargs)

    monkeypatch.setattr(verify, "enumerate_transfer_systems", recording)
    return listed


def test_the_table_of_a_run_is_dropped_when_the_run_returns(monkeypatch):
    listed = record_tr_listings(monkeypatch)
    assert all(result.ok for result in verify.run_checks())
    gc.collect()
    assert listed and all(ref() is None for ref in listed)


def test_functorial_lists_each_pool_lattice_once_in_a_run_and_every_pair_alone(monkeypatch):
    listed = record_tr_listings(monkeypatch)
    assert verify.check_functorial().ok
    assert len(listed) == 200  # a direct call shares nothing: one listing per seeded pair
    listed.clear()
    (result,) = verify.run_checks(["functorial"])
    assert result.ok
    assert len(listed) == 6  # one per lattice of its pool
