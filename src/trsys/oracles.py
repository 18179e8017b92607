"""Slow reference enumerations used to cross-check the backtracking code.

These deliberately avoid the closure engine and the searches: each reads
the axioms straight off the lattice and keeps the subsets that obey them,
so they stay independent of the search paths they validate.

The subset filters are bit-sliced.  For k free positions, subset s (bit i
of s picks the i-th position) is bit s of a 2^k-bit int, and slice i is
the int whose bit s is bit i of s: the subsets that hold position i.  Each
axiom instance is one clause, premises => conclusion, and it rules out
AND(premise slices) & ~(conclusion slice) in one big-int operation.  The
subsets that no clause rules out survive; they are decoded through two
half-lists of masks, sorted, and each passes the public axiom checker
(`find_violation` or `find_cover_violation`) before it is listed, so the
checker still defines the output.  Guards keep the filters to lattices
where 2^k is cheap.
"""
from __future__ import annotations

import itertools

from .errors import InvariantViolation, SizeLimit
from .covers import SaturatedCover, find_cover_violation
from .lattice import _bits, _cover_pairs
from .transfer import TransferSystem, TrLattice, _pair_bits, find_violation


MAX_SUBSET_PAIRS = 12  # the subset filters' guards on the free pairs and cover edges
MAX_SUBSET_EDGES = 14


def _slices(k):
    """Slice i for i < k: the 2^k-bit int whose bit s is bit i of s, runs
    of 2^i zeros and 2^i ones repeated."""
    every = (1 << (1 << k)) - 1
    return [((1 << (1 << i)) - 1 << (1 << i)) * (every // ((1 << (2 << i)) - 1)) for i in range(k)]


def _survivors(free, base, clauses):
    """The subsets of the positions `free` that no clause rules out, as
    the 2^k-bit int of their indices.  A clause (premises, conclusion) of
    positions rules out the subsets that hold every premise and not the
    conclusion; a position of `base` is in every subset, and a position
    neither free nor in `base` is in none."""
    every = (1 << (1 << len(free))) - 1
    slices = dict(zip(free, _slices(len(free))))
    slices.update((p, every) for p in _bits(base))
    ruled_out = 0
    for premises, conclusion in clauses:
        held = every
        for p in premises:
            held &= slices.get(p, 0)
        ruled_out |= held & ~slices.get(conclusion, 0)
    return every & ~ruled_out


def _checked(lat, free, base, clauses, violation):
    """The masks of the subsets of `free` that survive `clauses`, sorted,
    each passed by the public checker: `violation(lat, mask)` is None."""
    alive = _survivors(free, base, clauses)
    return sorted(b for b in _decode(free, base, alive) if violation(lat, b) is None)


def _decode(free, base, indices):
    """`base` with the positions free[i] for the bits i of each index s
    of `indices` added, in increasing s: the OR of a mask over the first
    half of `free` with one over the rest."""
    half = len(free) // 2
    lows, highs, low = _masks(free[:half], base), _masks(free[half:], 0), (1 << half) - 1
    return [highs[s >> half] | lows[s & low] for s in _bits(indices)]


def _masks(positions, base):
    """`base` with every subset of `positions` added, as a list whose
    index s holds the positions of the bits of s."""
    out = [base]
    for p in positions:
        out += [mask | 1 << p for mask in out]
    return out


def _transfer_clauses(lat, keep):
    """Restriction and transitivity on the elements `keep`, one clause per
    non-reflexive pair x R z: it gives (x ^ y) R y for each y <= z whose
    meet with x is kept, and x R c for each z R c."""
    n, up, meet = lat.n, lat.up, lat.meet
    kept = set(keep)
    for x in keep:
        for z in keep:
            if x == z or not up[x] >> z & 1:
                continue
            xz = x * n + z
            for y in keep:
                w = meet[x][y]
                if up[y] >> z & 1 and w != y and w in kept:
                    yield (xz,), w * n + y
            for c in keep:
                if c != z and up[z] >> c & 1:
                    yield (xz, z * n + c), x * n + c


def _free_pairs(lat, keep):
    """The positions of the non-reflexive pairs x <= y of `keep`, checked
    against the guard."""
    n, up = lat.n, lat.up
    free = [x * n + y for x in keep for y in keep if x != y and up[x] >> y & 1]
    if len(free) > MAX_SUBSET_PAIRS:
        raise SizeLimit(f"{len(free)} free pairs is too many for the subset filter")
    return free


def naive_transfer_systems(lat):
    """Every subset of non-reflexive pairs that is a transfer system, as a
    TrLattice."""
    n, keep = lat.n, range(lat.n)
    free = _free_pairs(lat, keep)
    diag = sum(1 << x * (n + 1) for x in keep)
    out = _checked(lat, free, diag, _transfer_clauses(lat, keep), find_violation)
    return TrLattice._from_sorted_bits(lat, out)


def naive_deleted_extreme_count(lat, drop_bottom=False, drop_top=False):
    """Number of transfer relations on the lattice minus the chosen
    extremes: every subset of the induced order's non-reflexive pairs that
    is transitive and closed under restriction.  Restriction applies only
    where the meet survives the deletion, since a meet that is the deleted
    bottom leaves two elements without a common lower bound."""
    n = lat.n
    keep = [x for x in range(n) if not (drop_bottom and x == lat.bottom or drop_top and x == lat.top)]
    free = _free_pairs(lat, keep)
    diag = sum(1 << x * (n + 1) for x in keep)
    return _survivors(free, diag, _transfer_clauses(lat, keep)).bit_count()


def naive_saturated_systems(lat):
    """Subset filter for saturated transfer systems (direct 2-of-3 check)."""
    return [s for s in naive_transfer_systems(lat) if s.is_saturated()]


def _cover_clauses(lat):
    """The two matchstick rules on the cover edges: x Q x v y gives
    (x ^ y) Q y, and any three edges of a covering diamond give the
    fourth.  On a lattice that is not modular a forced pair may be no
    cover; its clause then rules out every subset with the premise."""
    n, up, meet, join = lat.n, lat.up, lat.meet, lat.join
    cover = {x * n + y for x, y in lat.covers}
    for x in range(n):
        for y in range(n):
            j, m = join[x][y], meet[x][y]
            if j != x and x * n + j in cover:
                yield (x * n + j,), m * n + y
            if x < y and not (up[x] >> y & 1 or up[y] >> x & 1):
                quad = (m * n + x, m * n + y, x * n + j, y * n + j)
                if cover.issuperset(quad):
                    for edge in quad:
                        yield tuple(p for p in quad if p != edge), edge


def naive_saturated_covers(lat):
    """Every subset of cover edges satisfying both matchstick rules."""
    n = lat.n
    free = [x * n + y for x, y in lat.covers]
    if len(free) > MAX_SUBSET_EDGES:
        raise SizeLimit(f"{len(free)} cover edges is too many for the subset filter")
    out = _checked(lat, free, 0, _cover_clauses(lat), find_cover_violation)
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
    given pairs.  The pairs are read by `transfer._pair_bits`, as by
    `generate`: one outside the order raises InvalidTransferSystem."""
    lat, want = tr.lattice, _pair_bits(tr.lattice, pairs)
    candidates = [s for s in tr if s.bits & want == want]
    bits = candidates[0].bits
    for s in candidates[1:]:
        bits &= s.bits
    if not any(s.bits == bits for s in tr):
        raise InvariantViolation("the systems containing the pairs meet outside Tr")
    return TransferSystem._wrap(lat, bits)


def least_saturated_above(system, tr):
    """Hull oracle: the least saturated system of Tr(P) above the input."""
    above = [s for s in tr if system.refines(s) and s.is_saturated()]
    minima = [s for s in above if all(s.refines(t) for t in above)]
    if len(minima) != 1:
        raise InvariantViolation("the saturated systems above the input have no least member")
    return minima[0]


def naive_hasse_edges(tr):
    """Hasse edges of refinement on a TrLattice by the definition: i
    strictly refines j and no system lies strictly between them, read by
    `lattice._cover_pairs` off the int row of the systems above each one."""
    bits = tr.bits
    return _cover_pairs([sum(1 << j for j, b in enumerate(bits) if a & b == a) for a in bits])
