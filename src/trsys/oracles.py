"""Slow reference enumerations used to cross-check the backtracking code.

These deliberately avoid the closure engine: they filter raw subsets with
direct axiom checks, so they stay independent of the search paths they
validate.  Guards keep them to lattices where 2^pairs is cheap.
"""
from __future__ import annotations

import itertools

from .errors import SizeLimit
from .covers import SaturatedCover, find_cover_violation, _cover_table
from .transfer import (
    TransferSystem,
    enumerate_transfer_systems,
    find_violation,
)


def naive_transfer_systems(lat, max_pairs=12):
    """Every subset of non-reflexive pairs that is a transfer system."""
    n = lat.n
    free = [x * n + y for x in range(n) for y in range(n) if x != y and lat.leq[x, y]]
    if len(free) > max_pairs:
        raise SizeLimit(f"{len(free)} free pairs is too many for the subset filter")
    diag = sum(1 << x * (n + 1) for x in range(n))
    out = []
    for picks in itertools.product((0, 1), repeat=len(free)):
        bits = diag
        for p, take in zip(free, picks):
            if take:
                bits |= 1 << p
        if find_violation(lat, bits) is None:
            out.append(bits)
    out.sort()
    return [TransferSystem._wrap(lat, b) for b in out]


def naive_saturated_systems(lat, max_pairs=12):
    """Subset filter for saturated transfer systems (direct 2-of-3 check)."""
    return [s for s in naive_transfer_systems(lat, max_pairs) if s.is_saturated()]


def naive_saturated_covers(lat, max_edges=14):
    """Every subset of cover edges satisfying both matchstick rules."""
    edges, _ = _cover_table(lat)
    if len(edges) > max_edges:
        raise SizeLimit(f"{len(edges)} cover edges is too many for the subset filter")
    out = []
    for bits in range(1 << len(edges)):
        if find_cover_violation(lat, bits) is None:
            out.append(bits)
    return [SaturatedCover._wrap(lat, b) for b in sorted(out)]


def naive_interior_operators(lat, max_elements=5):
    """Filter all self-maps for monotone + idempotent + contractive."""
    if lat.n > max_elements:
        raise SizeLimit(f"{lat.n}^{lat.n} maps is too many for the raw filter")
    out = []
    for image in itertools.product(range(lat.n), repeat=lat.n):
        if any(image[image[x]] != image[x] or not lat.leq[image[x], x] for x in range(lat.n)):
            continue
        if any(
            lat.leq[x, y] and not lat.leq[image[x], image[y]]
            for x in range(lat.n)
            for y in range(lat.n)
        ):
            continue
        out.append(image)
    out.sort()
    return out


def least_system_containing(lat, pairs, tr=None):
    """Generation oracle: the meet of all enumerated systems containing
    the given pairs."""
    if tr is None:
        tr = enumerate_transfer_systems(lat)
    want = 0
    for x, y in pairs:
        want |= 1 << x * lat.n + y
    candidates = [s for s in tr if s.bits & want == want]
    bits = candidates[0].bits
    for s in candidates[1:]:
        bits &= s.bits
    assert any(s.bits == bits for s in tr)
    return TransferSystem._wrap(lat, bits)


def least_saturated_above(system, tr=None):
    """Hull oracle: the least saturated enumerated system above the input."""
    if tr is None:
        tr = enumerate_transfer_systems(system.lattice)
    above = [s for s in tr if system.refines(s) and s.is_saturated()]
    minima = [s for s in above if all(s.refines(t) for t in above)]
    assert len(minima) == 1, "the saturated systems above the input have no least member"
    return minima[0]
