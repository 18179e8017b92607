"""Counting transfer systems: the fusion recursion and its consequences.

The number of transfer systems on a fusion P * Q splits into four terms by
the minimal fibrant element (top, bottom, an interior element of P, an
interior element of Q).  Specializing to chains gives a Catalan formula;
specializing to iterated fusions of the three-chain gives the closed count
2^(p+2) + p + 1 for the rank-two elementary Abelian group C_p x C_p, and
`bmt_decompose` sorts those systems into the paper's bottom cube, middle
and top cube.  The functions here only count and classify; the theorems
behind them are checked in `verify` and the tests.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import NotPrime, SizeLimit
from .lattice import Lattice, chain, iterated_fusion, _is_prime
from .search import MAX_LEAVES
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


def minimal_fibrant_census(lat, tr=None):
    """Map: element a -> number of transfer systems with minimal fibrant a."""
    if tr is None:
        tr = enumerate_transfer_systems(lat)
    census = {a: 0 for a in range(lat.n)}
    for system in tr:
        census[system.minimal_fibrant()] += 1
    return census


def tr_minimal_fibrant_count(lat, a, tr=None):
    """|Tr_a(P)|: transfer systems whose minimal fibrant is the element a."""
    return minimal_fibrant_census(lat, tr=tr)[a]


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


def count_tr_fusion(p, q, guard=MAX_LEAVES):
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
    feasible (checked in the test suite).  More than `guard` systems on P
    or on Q raise SizeLimit; None is no limit.
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
    """The block census of Tr([2]^{*n}): a bottom n-cube, a discrete middle
    n-set and a top n-cube.

    On [2]^{*n} the bottom is 0, the i-th middle is i + 1 and the top is
    n + 1.  `bottom_cube` maps the mask of middles that bottom relates to,
    `middle` the index i of the one middle related to top, and `top_cube`
    the mask of middles related to top, each to its system.
    """

    lattice: Lattice
    tr: TrLattice
    bottom_cube: dict
    middle: dict
    top_cube: dict


def bmt_decompose(n, guard=MAX_LEAVES):
    """Sort Tr([2]^{*n}) into the bottom cube, the middle and the top cube
    in one pass over the bits.

    A system in which bottom relates to top goes to the top cube; else, one
    in which some middle relates to top goes to the middle block of the
    first such middle; else it goes to the bottom cube.  That these rules
    are exact, so that each block is full and each system is the one its
    key names, and that the Hasse diagram joins the blocks by the three
    cross-cover rules is the classification theorem: `verify.check_bmt`
    and the tests check it.  More than `guard` systems, by the closed count
    2^(n+1) + n, raise SizeLimit before the lattice is built; None is no
    limit.
    """
    if guard is not None and (1 << n + 1) + n > guard:
        raise SizeLimit(f"Tr([2]^*{n}) has 2^{n + 1} + {n} systems, more than the guard of {guard}")
    lat = iterated_fusion(chain(2), n)
    tr = enumerate_transfer_systems(lat, guard=guard)
    size, top, full = lat.n, lat.top, (1 << n) - 1
    to_top = [1 << (1 + i) * size + top for i in range(n)]  # the i-th middle R top
    bottom_cube, middle, top_cube = {}, {}, {}
    for system in tr:
        bits = system.bits
        related = [i for i, bit in enumerate(to_top) if bits & bit]
        if bits >> top & 1:  # bottom R top
            top_cube[sum(1 << i for i in related)] = system
        elif related:
            middle[related[0]] = system
        else:  # row bottom, read at the middles
            bottom_cube[bits >> 1 & full] = system
    return BMTDecomposition(lat, tr, bottom_cube, middle, top_cube)
