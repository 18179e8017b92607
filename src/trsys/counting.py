"""Counting transfer systems: the fusion recursion and its consequences.

The number of transfer systems on a fusion P * Q splits into four terms by
the minimal fibrant element (top, bottom, an interior element of P, an
interior element of Q).  Specializing to chains gives a Catalan formula;
specializing to iterated fusions of the three-chain gives the closed count
2^(p+2) + p + 1 for the rank-two elementary Abelian group C_p x C_p.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .characteristic import fiber_decomposition
from .errors import ClassificationGap, InvariantViolation, NotPrime
from .lattice import Lattice, chain, iterated_fusion, _is_prime
from .transfer import TrLattice, enumerate_transfer_systems


def catalan(n):
    """Catalan numbers with the convention Cat(-1) = 1.

    The -1 case stands in for the single transfer system on the empty
    poset, which is what the chain-fusion formula consumes at the edge.
    """
    if n == -1:
        return 1
    if n < -1:
        raise ValueError("catalan is defined for n >= -1")
    return math.comb(2 * n, n) // (n + 1)


@dataclass(frozen=True)
class FusionCountBreakdown:
    """The four-term census of transfer systems on a fusion, keyed by
    where the minimal fibrant lives."""

    top_term: int
    bottom_term: int
    middle_terms_left: tuple   # (interior element of P, contribution)
    middle_terms_right: tuple  # (interior element of Q, contribution)

    @property
    def total(self):
        return (
            self.top_term
            + self.bottom_term
            + sum(c for _, c in self.middle_terms_left)
            + sum(c for _, c in self.middle_terms_right)
        )


def minimal_fibrant_census(lat, tr=None, guard=26):
    """Map: element a -> number of transfer systems with minimal fibrant a."""
    if tr is None:
        tr = enumerate_transfer_systems(lat, guard=guard)
    census = {a: 0 for a in range(lat.n)}
    for system in tr:
        census[system.minimal_fibrant()] += 1
    return census


def tr_minimal_fibrant_count(lat, a, tr=None, guard=26):
    """|Tr_a(P)|: transfer systems whose minimal fibrant is the element a."""
    return minimal_fibrant_census(lat, tr=tr, guard=guard)[a]


def interior_only_count(lat, tr):
    """|Tr(P - {bottom, top})|, read off Tr(P): the systems in which no
    element but top is related to top and bottom R y for every y != top.

    The two bijections of `count_tr_fusion` compose: adding every
    (bottom, y) puts Tr(P - {bottom, top}) onto the bottom-full systems of
    Tr(P - top), and adding (top, top) puts those onto the systems of Tr(P)
    counted here.  In bits, column top is the single bit top*n + top, and
    row bottom holds every non-top bit.
    """
    n, bottom, top = lat.n, lat.bottom, lat.top
    column = sum(1 << x * n + top for x in range(n))
    alone = 1 << top * n + top
    below_top = ((1 << n) - 1 ^ 1 << top) << bottom * n
    return sum(1 for b in tr.bits if b & column == alone and b & below_top == below_top)


def count_tr_fusion(p, q, guard=26):
    """The four-term count of |Tr(P * Q)|, read off one enumeration of
    Tr(P) and one of Tr(Q).

    The top term is |Tr(P - top)| |Tr(Q - top)|, the bottom term
    |Tr(P - bottom)| |Tr(Q - bottom)|, and an interior element a of P adds
    |Tr_a(P)| |Tr(Q - {bottom, top})| (and symmetrically for Q).  Each
    deleted-extreme count is a slice of Tr(P), where "top alone" means
    that no element but top is related to top:

    - |Tr(P - top)| = census[top], the systems with top alone: the meets
      of non-top elements avoid top, so adding (top, top) is a bijection.
    - |Tr(P - bottom)| = census[bottom], the systems with bottom R top:
      restricting (bottom, top) along y gives bottom R y for every y, and
      re-adding every (bottom, y) is the inverse of deleting bottom.
    - |Tr(P - {bottom, top})| = `interior_only_count`, the systems with
      top alone and bottom R y for every y != top, by both bijections.

    Totals agree with direct enumeration of the fusion whenever that is
    feasible (checked in the test suite).
    """
    p_tr = enumerate_transfer_systems(p, guard=guard)
    q_tr = enumerate_transfer_systems(q, guard=guard)
    p_census, q_census = minimal_fibrant_census(p, tr=p_tr), minimal_fibrant_census(q, tr=q_tr)
    p_interior_only, q_interior_only = interior_only_count(p, p_tr), interior_only_count(q, q_tr)
    left = tuple(
        (a, p_census[a] * q_interior_only)
        for a in range(p.n)
        if a not in (p.bottom, p.top)
    )
    right = tuple(
        (b, q_census[b] * p_interior_only)
        for b in range(q.n)
        if b not in (q.bottom, q.top)
    )
    return FusionCountBreakdown(
        top_term=p_census[p.top] * q_census[q.top],
        bottom_term=p_census[p.bottom] * q_census[q.bottom],
        middle_terms_left=left,
        middle_terms_right=right,
    )


def _interior_fibrant_total(m):
    # systems on [m] whose minimal fibrant is neither extreme; the chain
    # [0] has no interior, so the Catalan expression only applies to m >= 1
    if m == 0:
        return 0
    return catalan(m + 1) - 2 * catalan(m)


def count_tr_chain_fusion(m, n):
    """|Tr([m] * [n])| in closed Catalan form, for m, n >= 0.

    2 Cat(n) Cat(m) plus the two interior-fibrant cross terms; Cat(-1) = 1
    makes the deleted-interior factor Cat(k-1) correct at k = 0, and the
    interior-fibrant factor vanishes for chains without interior.
    """
    if m < 0 or n < 0:
        raise ValueError("chain lengths must be nonnegative")
    return (
        2 * catalan(m) * catalan(n)
        + _interior_fibrant_total(m) * catalan(n - 1)
        + _interior_fibrant_total(n) * catalan(m - 1)
    )


def tr_rank_two(p):
    """Number of transfer systems for C_p x C_p: 2^(p+2) + p + 1."""
    if not _is_prime(p):
        raise NotPrime(f"{p} is not prime")
    return (1 << (p + 2)) + p + 1


# -- the bottom-cube / middle / top-cube structure -----------------------------


@dataclass(frozen=True)
class BMTDecomposition:
    """Partition of Tr([2]^{*n}) into a bottom n-cube, a middle discrete
    n-set, and a top n-cube, with explicit cube isomorphisms (bitmask over
    the middles -> system)."""

    lattice: Lattice
    tr: TrLattice
    bottom_cube: tuple
    middle: tuple
    top_cube: tuple
    bottom_iso: dict
    top_iso: dict

    @property
    def middles(self):
        lat = self.lattice
        return [x for x in range(lat.n) if x not in (lat.bottom, lat.top)]


def bmt_decompose(n, guard=26):
    """Classify Tr([2]^{*n}) into the B / M / T blocks and verify the
    cross-block covering rules.

    Raises ClassificationGap if some system fits no block, and
    InvariantViolation if the Hasse structure deviates from: cube-internal
    covers, each bottom-cube coatom covered by exactly one middle element,
    each top-cube atom covering exactly one middle element, and the top
    cube's minimum covering the bottom cube's maximum.
    """
    lat = iterated_fusion(chain(2), n)
    tr = enumerate_transfer_systems(lat, guard=guard)
    mids = [x for x in range(lat.n) if x not in (lat.bottom, lat.top)]
    mid_pos = {a: i for i, a in enumerate(mids)}
    bottom, top = lat.bottom, lat.top

    b_block, m_block, t_block = {}, {}, {}
    for system in tr:
        pairs = set(system.pairs())
        bottom_rels = {y for (x, y) in pairs if x == bottom and y != top}
        top_rels = {x for (x, y) in pairs if y == top and x != bottom}
        rest = pairs - {(bottom, y) for y in bottom_rels} - {(x, top) for x in top_rels}
        mask_b = sum(1 << mid_pos[a] for a in bottom_rels)
        mask_t = sum(1 << mid_pos[a] for a in top_rels)
        if not top_rels and not rest:
            # relations confined to bottom -> middle: the bottom cube
            b_block[mask_b] = system
        elif (
            len(top_rels) == 1
            and not rest
            and bottom_rels == set(mids) - top_rels
        ):
            # exactly one middle related to top, bottom related to the rest
            m_block[next(iter(top_rels))] = system
        elif rest == {(bottom, top)} and bottom_rels == set(mids):
            # bottom related to everything plus any set of middle -> top
            t_block[mask_t] = system
        else:
            raise ClassificationGap(f"system {system} fits no block")

    if set(b_block) != set(range(1 << n)) or set(t_block) != set(range(1 << n)):
        raise ClassificationGap("cube blocks are not full subset lattices")
    if set(m_block) != set(mids):
        raise ClassificationGap("middle block does not hit every interior element")

    # the subset masks are order isomorphisms onto the blocks
    for iso in (b_block, t_block):
        for s in iso:
            for t in iso:
                subset = s & t == s
                refines = iso[s].refines(iso[t])
                if subset != refines:
                    raise ClassificationGap("cube isomorphism is not an order isomorphism")

    _verify_bmt_covers(lat, tr, b_block, m_block, t_block, mids, n)
    return BMTDecomposition(
        lattice=lat,
        tr=tr,
        bottom_cube=tuple(b_block[m] for m in sorted(b_block)),
        middle=tuple(m_block[a] for a in sorted(m_block)),
        top_cube=tuple(t_block[m] for m in sorted(t_block)),
        bottom_iso=dict(sorted(b_block.items())),
        top_iso=dict(sorted(t_block.items())),
    )


def _verify_bmt_covers(lat, tr, b_block, m_block, t_block, mids, n):
    full = (1 << n) - 1
    index = {s.bits: ("B", mask) for mask, s in b_block.items()}
    index.update({s.bits: ("M", a) for a, s in m_block.items()})
    index.update({s.bits: ("T", mask) for mask, s in t_block.items()})
    mid_pos = {a: i for i, a in enumerate(mids)}

    expected = set()
    for mask in range(1 << n):
        for i in range(n):
            if not mask >> i & 1:
                expected.add((("B", mask), ("B", mask | (1 << i))))
                expected.add((("T", mask), ("T", mask | (1 << i))))
    for a in mids:
        coatom = full & ~(1 << mid_pos[a])
        expected.add((("B", coatom), ("M", a)))          # rule (i)
        expected.add((("M", a), ("T", 1 << mid_pos[a])))  # rule (ii)
    expected.add((("B", full), ("T", 0)))                 # rule (iii)

    actual = set()
    for i, j in tr.covers:
        actual.add((index[tr[i].bits], index[tr[j].bits]))
    if actual != expected:
        raise InvariantViolation(
            f"covers deviate from the block rules: extra {actual - expected}, missing {expected - actual}"
        )


@dataclass(frozen=True)
class RankTwoChiReport:
    """Fiber structure of the characteristic map on Tr([2]^{*n})."""

    n: int
    fiber_count: int
    singleton_fibers: int
    top_fiber_size: int
    saturated_count: int


def chi_structure_rank_two(n, guard=26):
    """Verify the characteristic-map structure on [2]^{*n}.

    Every bottom-cube and middle system is saturated and forms a singleton
    fiber; the top cube is a single fiber of size 2^n over the constant-
    bottom operator; the saturated count is 2^n + n + 1.
    """
    dec = bmt_decompose(n, guard=guard)
    lat, tr = dec.lattice, dec.tr
    fibers = fiber_decomposition(lat, tr=tr)
    members_by_bits = {}
    for fib in fibers:
        for s in fib.members:
            members_by_bits[s.bits] = fib

    for s in dec.bottom_cube + dec.middle:
        fib = members_by_bits[s.bits]
        if len(fib.members) != 1:
            raise InvariantViolation("a bottom/middle system is not a singleton fiber")
        if not s.is_saturated():
            raise InvariantViolation("a bottom/middle system is not saturated")
    top_fibers = {members_by_bits[s.bits] for s in dec.top_cube}
    if len(top_fibers) != 1:
        raise InvariantViolation("the top cube is not a single fiber")
    top_fiber = next(iter(top_fibers))
    if len(top_fiber.members) != 1 << n:
        raise InvariantViolation("top fiber has the wrong size")
    if set(top_fiber.operator.image) != {lat.bottom}:
        raise InvariantViolation("top fiber is not over the constant-bottom operator")

    saturated = sum(1 for s in tr if s.is_saturated())
    if saturated != (1 << n) + n + 1:
        raise InvariantViolation("saturated count deviates from 2^n + n + 1")
    return RankTwoChiReport(
        n=n,
        fiber_count=len(fibers),
        singleton_fibers=sum(1 for f in fibers if len(f.members) == 1),
        top_fiber_size=len(top_fiber.members),
        saturated_count=saturated,
    )
