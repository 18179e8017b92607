"""The verification table: its full output, and faults planted in its routes.

Each fault-planting test breaks one route of one check with `monkeypatch`
and asserts the lines the check then fails on, so that a check which
stopped comparing would show here.
"""
import contextlib
import io
import pathlib

import pytest

from trsys import functorial, oracles, verify
from trsys.characteristic import ChiFiber, fiber_decomposition
from trsys.cli import main
from trsys.covers import cover_to_system
from trsys.errors import InvariantViolation
from trsys.transfer import TransferSystem, closure_for, complete_system

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


def test_check_roundtrips_fails_when_one_cover_generates_the_wrong_system(monkeypatch):
    def planted(cover):
        lat = cover.lattice
        if lat.n == 8 and cover.bits == 0:  # the empty cover of cube(3)
            return complete_system(lat)
        return cover_to_system(cover)

    monkeypatch.setattr(verify, "cover_to_system", planted)
    result = verify.check_roundtrips()
    assert not result.ok
    assert failed_lines(result) == ["FAIL cube(3): 61 covers <-> 61 saturated systems"]


def test_check_oracles_fails_on_every_lattice_when_one_subset_is_skipped(monkeypatch):
    def planted(free, base=0):
        every = base | sum(1 << p for p in free)  # the complete system, or every cover edge
        return (bits for bits in subsets(free, base) if bits != every)

    subsets = oracles._subsets
    monkeypatch.setattr(oracles, "_subsets", planted)
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
    free = [3 * i + 1 for i in range(k)]  # positions with gaps, none in the base
    base = 1 << 0 | 1 << 2 | 1 << 30
    masks = list(oracles._subsets(free, base))
    assert len(masks) == len(set(masks)) == 2**k
    assert set(masks) == {base | sum(1 << p for i, p in enumerate(free) if pick >> i & 1) for pick in range(2**k)}
    assert sorted(oracles._subsets(free)) == sorted(mask ^ base for mask in masks)
