"""Slow reference enumerations used to cross-check the backtracking code.

These deliberately avoid the closure engine: they filter raw subsets with
direct axiom checks, so they stay independent of the search paths they
validate.  Guards keep them to lattices where 2^pairs is cheap.
"""
from __future__ import annotations

import itertools

from .errors import SizeLimit
from .covers import SaturatedCover, find_cover_violation
from .lattice import _cover_pairs
from .transfer import TransferSystem, TrLattice, find_violation


MAX_SUBSET_PAIRS = 12  # the subset filters' guards on the free pairs and cover edges
MAX_SUBSET_EDGES = 14


def _subsets(free, base=0):
    """`base` with every subset of the bit positions `free` added: the OR
    of each mask over the first half of `free` with each over the rest."""
    half = len(free) // 2
    lows, highs = _masks(free[:half], base), _masks(free[half:], 0)
    return (high | low for high in highs for low in lows)


def _masks(positions, base):
    """`base` with every subset of `positions` added, as a list."""
    out = [base]
    for p in positions:
        out += [mask | 1 << p for mask in out]
    return out


def naive_transfer_systems(lat):
    """Every subset of non-reflexive pairs that is a transfer system, as a
    TrLattice."""
    n = lat.n
    free = [x * n + y for x in range(n) for y in range(n) if x != y and lat.up[x] >> y & 1]
    if len(free) > MAX_SUBSET_PAIRS:
        raise SizeLimit(f"{len(free)} free pairs is too many for the subset filter")
    diag = sum(1 << x * (n + 1) for x in range(n))
    out = sorted(b for b in _subsets(free, diag) if find_violation(lat, b) is None)
    return TrLattice._from_sorted_bits(lat, out)


def naive_deleted_extreme_count(lat, drop_bottom=False, drop_top=False):
    """Number of transfer relations on the lattice minus the chosen
    extremes: every subset of the induced order's non-reflexive pairs that
    is transitive and closed under restriction.  Restriction applies only
    where the meet survives the deletion, since a meet that is the deleted
    bottom leaves two elements without a common lower bound."""
    n, meet, up = lat.n, lat.meet, lat.up
    keep = [x for x in range(n) if not (drop_bottom and x == lat.bottom or drop_top and x == lat.top)]
    free = [x * n + y for x in keep for y in keep if x != y and up[x] >> y & 1]
    if len(free) > MAX_SUBSET_PAIRS:
        raise SizeLimit(f"{len(free)} free pairs is too many for the subset filter")

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
    return sum(1 for bits in _subsets(free, diag) if is_transfer(bits))


def naive_saturated_systems(lat):
    """Subset filter for saturated transfer systems (direct 2-of-3 check)."""
    return [s for s in naive_transfer_systems(lat) if s.is_saturated()]


def naive_saturated_covers(lat):
    """Every subset of cover edges satisfying both matchstick rules."""
    n = lat.n
    free = [x * n + y for x, y in lat.covers]
    if len(free) > MAX_SUBSET_EDGES:
        raise SizeLimit(f"{len(free)} cover edges is too many for the subset filter")
    out = sorted(b for b in _subsets(free) if find_cover_violation(lat, b) is None)
    return [SaturatedCover._wrap(lat, b) for b in out]


def naive_interior_operators(lat, max_elements=5):
    """Filter all self-maps for monotone + idempotent + contractive."""
    if lat.n > max_elements:
        raise SizeLimit(f"{lat.n}^{lat.n} maps is too many for the raw filter")
    out, up = [], lat.up
    for image in itertools.product(range(lat.n), repeat=lat.n):
        if any(image[image[x]] != image[x] or not up[image[x]] >> x & 1 for x in range(lat.n)):
            continue
        if any(
            up[x] >> y & 1 and not up[image[x]] >> image[y] & 1
            for x in range(lat.n)
            for y in range(lat.n)
        ):
            continue
        out.append(image)
    out.sort()
    return out


def least_system_containing(tr, pairs):
    """Generation oracle: the meet of all systems of Tr(P) containing the
    given pairs."""
    lat, want = tr.lattice, 0
    for x, y in pairs:
        want |= 1 << x * lat.n + y
    candidates = [s for s in tr if s.bits & want == want]
    bits = candidates[0].bits
    for s in candidates[1:]:
        bits &= s.bits
    assert any(s.bits == bits for s in tr)
    return TransferSystem._wrap(lat, bits)


def least_saturated_above(system, tr):
    """Hull oracle: the least saturated system of Tr(P) above the input."""
    above = [s for s in tr if system.refines(s) and s.is_saturated()]
    minima = [s for s in above if all(s.refines(t) for t in above)]
    assert len(minima) == 1, "the saturated systems above the input have no least member"
    return minima[0]


def naive_hasse_edges(tr):
    """Hasse edges of refinement on a TrLattice by the definition: i
    strictly refines j and no system lies strictly between them, read by
    `lattice._cover_pairs` off the int row of the systems above each one."""
    bits = tr.bits
    return _cover_pairs([sum(1 << j for j, b in enumerate(bits) if a & b == a) for a in bits])
