"""Slow reference enumerations used to cross-check the backtracking code.

These deliberately avoid the closure engine: they filter raw subsets with
direct axiom checks, so they stay independent of the search paths they
validate.  Guards keep them to lattices where 2^pairs is cheap.
"""
from __future__ import annotations

import itertools

import numpy as np

from .errors import SizeLimit
from .covers import SaturatedCover, find_cover_violation
from .transfer import (
    TransferSystem,
    enumerate_transfer_systems,
    find_violation,
)


def _subsets(free, base=0):
    """`base` with every subset of the bit positions `free` added."""
    for picks in itertools.product((0, 1), repeat=len(free)):
        bits = base
        for p, take in zip(free, picks):
            if take:
                bits |= 1 << p
        yield bits


def naive_transfer_systems(lat, max_pairs=12):
    """Every subset of non-reflexive pairs that is a transfer system."""
    n = lat.n
    free = [x * n + y for x in range(n) for y in range(n) if x != y and lat.leq[x, y]]
    if len(free) > max_pairs:
        raise SizeLimit(f"{len(free)} free pairs is too many for the subset filter")
    diag = sum(1 << x * (n + 1) for x in range(n))
    out = sorted(b for b in _subsets(free, diag) if find_violation(lat, b) is None)
    return [TransferSystem._wrap(lat, b) for b in out]


def naive_deleted_extreme_count(lat, drop_bottom=False, drop_top=False, max_pairs=12):
    """Number of transfer relations on the lattice minus the chosen
    extremes: every subset of the induced order's non-reflexive pairs that
    is transitive and closed under restriction.  Restriction applies only
    where the meet survives the deletion, since a meet that is the deleted
    bottom leaves two elements without a common lower bound."""
    n, meet = lat.n, lat.meet
    keep = [x for x in range(n) if not (drop_bottom and x == lat.bottom or drop_top and x == lat.top)]
    free = [x * n + y for x in keep for y in keep if x != y and lat.leq[x, y]]
    if len(free) > max_pairs:
        raise SizeLimit(f"{len(free)} free pairs is too many for the subset filter")

    def is_transfer(bits):
        for x, z in (divmod(p, n) for p in free if bits >> p & 1):
            for y in keep:
                w = meet[x][y]
                if lat.leq[y, z] and w in keep and not bits >> w * n + y & 1:
                    return False
            for c in keep:
                if bits >> z * n + c & 1 and not bits >> x * n + c & 1:
                    return False
        return True

    diag = sum(1 << x * (n + 1) for x in keep)
    return sum(1 for bits in _subsets(free, diag) if is_transfer(bits))


def naive_saturated_systems(lat, max_pairs=12):
    """Subset filter for saturated transfer systems (direct 2-of-3 check)."""
    return [s for s in naive_transfer_systems(lat, max_pairs) if s.is_saturated()]


def naive_saturated_covers(lat, max_edges=14):
    """Every subset of cover edges satisfying both matchstick rules."""
    n = lat.n
    free = [x * n + y for x, y in lat.covers]
    if len(free) > max_edges:
        raise SizeLimit(f"{len(free)} cover edges is too many for the subset filter")
    out = sorted(b for b in _subsets(free) if find_cover_violation(lat, b) is None)
    return [SaturatedCover._wrap(lat, b) for b in out]


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


def naive_hasse_edges(tr):
    """Hasse edges of refinement on a TrLattice by the definition: i
    strictly refines j and no system lies strictly between them, counted by
    a float64 matmul of unpacked bits, whose counts stay exact."""
    cells = tr.lattice.n ** 2
    bits = np.array([[b >> k & 1 for k in range(cells)] for b in tr.bits], dtype=float).reshape(len(tr), cells)
    # i refines j when no pair of i is missing from j
    lt = (bits @ (1 - bits).T == 0) & ~np.eye(len(tr), dtype=bool)
    between = lt.astype(float) @ lt.astype(float)
    return [(int(i), int(j)) for i, j in np.argwhere(lt & (between == 0))]
