"""Characteristic functions, interior operators, and chi-fiber structure.

The characteristic function of a transfer system sends each element to the
least element related to it.  It is always an interior operator (monotone,
idempotent, contractive), every interior operator arises this way, and the
preimage of an operator is an interval in the refinement lattice whose top
is saturated.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cache, partial, reduce
from operator import or_

from . import search
from .errors import InvariantViolation, SizeLimit
from .functorial import LatticeMap
from .lattice import _bits, _bottom_up, _byte_tables, _gather, per_lattice
from .transfer import TransferSystem, generate, saturated_hull


class InteriorOperator(LatticeMap):
    """Idempotent, contractive, monotone self-map of a lattice."""

    __slots__ = ()

    def __init__(self, lattice, image):
        super().__init__(lattice, lattice, image)
        image, up = self.image, lattice.up
        for x, f in enumerate(image):
            if not up[f] >> x & 1:
                raise InvariantViolation(f"operator is not contractive at {x}")
            if image[f] != f:
                raise InvariantViolation(f"operator is not idempotent at {x}")

    @classmethod
    def _wrap(cls, lattice, image):
        """The operator without validation, for an image tuple correct by
        construction."""
        return super()._wrap(lattice, lattice, image)

    @property
    def lattice(self):
        return self.source


def characteristic(system):
    """The characteristic interior operator of a transfer system.

    chi(x) is the meet of the R-downset of x.  That the meet lies in the
    downset, so that chi is an interior operator, is a theorem: the result
    is wrapped without re-validation, and the tests and
    `verify.check_fibers` check it.
    """
    lat = system.lattice
    return InteriorOperator._wrap(lat, tuple(map(system._least_related, range(lat.n))))


# -- interior operator enumeration -------------------------------------------


@per_lattice
def _height_order(lat):
    """What every interior routine reads: the elements in height order
    (bottom at position 0), per position p the byte tables from a mask Q
    of positions to p v Q, and per element x the mask of positions below x."""
    order = [x for x, _ in _bottom_up(lat)]
    pos = {x: p for p, x in enumerate(order)}
    joins = [_byte_tables(1 << pos[lat.join[x][y]] for y in order) for x in order]
    return order, joins, [sum(1 << pos[y] for y in _bits(down)) for down in lat._down]


def _join_closure(joins, inc, exc, p):
    # M | (p v M) is the join closure of M + {p} when M is join-closed and
    # contains bottom: (p v a) v (p v b) = p v (a v b) = a v (p v b).  The
    # search reads it as a witness when it meets `exc`
    return inc | _gather(joins[p], inc)


def _interior_masks(lat, guard, jobs):
    """Every interior system as a sorted mask of height-order positions.
    Deciding positions in increasing order makes the search dead-end free:
    each p v a that including p adds is p or lies strictly above it, at a
    greater height, so it is still undecided.  No include meets `exc`: one
    include call per leaf but the first, so the leaf guard bounds the work."""
    return search.leaves(range(1, lat.n), 1, partial(_join_closure, _height_order(lat)[1]), jobs=jobs, guard=guard)


def interior_system_masks(lat, guard=search.MAX_LEAVES, jobs=1):
    """All join-closed subsets containing bottom, as element bitmasks, sorted.

    Interior systems are exactly the images of interior operators.  The
    include/exclude search of `trsys.search`, far below the 2^n subsets, runs
    on the positions of `_height_order`, join-closing each inclusion in one
    pass through its byte tables; each system is mapped to labels.  More
    than `guard` systems raise SizeLimit; None is no limit.
    """
    labels = _byte_tables(1 << x for x in _height_order(lat)[0])
    return sorted(_gather(labels, m) for m in _interior_masks(lat, guard, jobs))


def operator_from_interior_system(lat, mask):
    """f(x) = join of bottom and the system's elements below x.

    Built bottom-up in height order: f(x) = x when x is in the system, and
    otherwise the join of f over the lower covers of x, since every element
    strictly below x lies below one of them.  This holds for every mask,
    and the result is wrapped without re-validation: the tests re-validate
    every enumerated operator and compare them with the raw-map filter of
    `oracles.py`.
    """
    join = lat.join
    image = [lat.bottom] * lat.n
    for x, lower in _bottom_up(lat):
        if mask >> x & 1:
            image[x] = x
        else:
            f = lat.bottom
            for c in lower:
                f = join[f][image[c]]
            image[x] = f
    return InteriorOperator._wrap(lat, tuple(image))


def interior_system_of(operator):
    """The image set of an interior operator, as an element bitmask."""
    mask = 0
    for v in set(operator.image):
        mask |= 1 << v
    return mask


class _Memo(dict):
    """A dict that builds a missing value by `build(key)` and keeps it."""

    def __init__(self, build):
        super().__init__()
        self.build = build

    def __missing__(self, key):
        value = self[key] = self.build(key)
        return value


def interior_images(lat, guard=search.MAX_LEAVES, jobs=1):
    """The image of every interior operator as one `bytes` row, byte x the
    label f(x), sorted: `bytes` order is the lexicographic image order.

    A join-closed M holding bottom gives f(x) = max(M ∩ ↓x), the last
    element of M ∩ ↓x in height order: M ∩ ↓x holds bottom and the join of
    its elements, and its other elements lie below that join, at smaller heights.
    On the height-order positions of the search's M and of each ↓x, f(x) is
    the element at the top bit of their AND.  The positions split at
    h = n // 2, and each distinct half of an M gets its partial row once, as
    a little-endian int: byte x the label at the top bit of that half below
    x, or 0.  A high half also keeps the bytes of the x it misses, so that
    a high half reaching label 0 still hides the low half; the rows
    repeat few halves (304 low and 272 high for the 20,753 rows of
    [3]x[4]).  The tests compare the rows with
    `operator_from_interior_system`, which takes any mask.  More than
    `guard` operators raise SizeLimit, and so does a lattice of more than
    256 elements, whose labels no byte holds, before any search.
    """
    n = lat.n
    if n > 256:
        raise SizeLimit(f"{n} elements exceed the 256 labels of a one-byte image row")
    order, _, downs = _height_order(lat)
    h = n // 2
    highs = [down >> h for down in downs]
    top, high_top = [0, *order], [0, *order[h:]]  # by the bit length of a mask of positions

    def low_row(half):
        return int.from_bytes(bytes([top[(half & down).bit_length()] for down in downs]), "little")

    def high_row(half):  # the partial row, and 255 in each byte it leaves to the low half
        row = bytes([high_top[(half & down).bit_length()] for down in highs])
        return int.from_bytes(row, "little"), int.from_bytes(bytes([0 if half & down else 255 for down in highs]), "little")

    lows, high_rows, low_bits = _Memo(low_row), _Memo(high_row), (1 << h) - 1
    return sorted(((high := high_rows[m >> h])[0] | lows[m & low_bits] & high[1]).to_bytes(n, "little")
                  for m in _interior_masks(lat, guard, jobs))


def enumerate_interior_operators(lat, guard=search.MAX_LEAVES, jobs=1):
    """All interior operators, sorted by lexicographic image: the rows of
    `interior_images`, each wrapped as an `InteriorOperator`."""
    return [InteriorOperator._wrap(lat, tuple(row)) for row in interior_images(lat, guard, jobs)]


def count_interior_operators(lat, max_elements=16):
    """The number of interior operators, counted without listing them.

    C(U, F) counts the T ⊆ U with a v b in T ∪ F for all a, b in T, and the
    interior systems are the T + ⊥ for the T counted by C(P - ⊥, {⊥}).  No
    element of U lies above its highest element m, so a T holding m has
    x v m in F + m for its other x: C(∅, F) = 1 and
    C(U, F) = C(U - m, F) + C({x in U - m : x v m in F + m}, F + m).
    On masks of height-order positions m is the top bit of U.  The step
    reads F only at joins within U and passes on subsets of U, so C(U, F)
    depends on F only through F ∩ J(U), J(U) the joins within U: that is
    the memo key.  A stack in place of recursion spares Python's limit.
    """
    if lat.n > max_elements:
        raise SizeLimit(f"{lat.n} elements exceed interior count guard {max_elements}")
    joins = _height_order(lat)[1]
    into = []  # per position p, the byte tables from a mask S to {q : p v q in S}
    for table in joins:
        pre = [0] * lat.n
        for q in range(lat.n):
            pre[_gather(table, 1 << q).bit_length() - 1] |= 1 << q
        into.append(_byte_tables(pre))
    within = cache(lambda u: reduce(or_, (_gather(joins[p], u) for p in _bits(u)), 0))  # J(U)
    root = ((1 << lat.n) - 2, 0)  # F = {bottom} misses J(U): bottom is no join of others
    counts, stack = {(0, 0): 1}, [root] if root[0] else []
    while stack:
        u, f = stack[-1]
        m = u.bit_length() - 1
        rest, g = u ^ 1 << m, f | 1 << m
        v = rest & _gather(into[m], g)
        kids = (rest, f & within(rest)), (v, g & within(v))
        if todo := [k for k in kids if k not in counts]:
            stack += todo
            continue
        counts[stack.pop()] = counts[kids[0]] + counts[kids[1]]
    return counts[root]


def chi_image_check(tr):
    """Whether the characteristic map surjects from Tr(P) onto the interior
    operators of P."""
    chi_images = {bytes(characteristic(r).image) for r in tr}
    return chi_images == set(interior_images(tr.lattice))


# -- fibers -------------------------------------------------------------------


@dataclass(frozen=True)
class ChiFiber:
    """One fiber of the characteristic map: an interval in Tr(P)."""

    operator: InteriorOperator
    least: TransferSystem
    greatest: TransferSystem
    members: tuple


def fiber_minimum(operator):
    """The least transfer system with the given characteristic operator,
    generated by the graph pairs (f(y), y)."""
    pairs = [(f, y) for y, f in enumerate(operator.image) if f != y]
    return generate(operator.lattice, pairs)


def fiber_decomposition(tr):
    """Group a TrLattice by characteristic operator, one fiber per operator.

    Each fiber keeps the operator that `characteristic` returned for its
    members.  Its least element is `fiber_minimum` of that operator and its
    greatest is the saturated hull of that minimum.  That the operators are
    exactly the interior operators, and that the fiber is exactly the
    interval between its ends, closed under meet and join, with a saturated
    top that is the hull of every member, is the fiber theorem;
    `verify.check_fibers` and the tests check it.
    """
    groups = {}
    for r in tr:
        f = characteristic(r)
        groups.setdefault(f.image, (f, []))[1].append(r)
    fibers = []
    for image in sorted(groups):
        operator, members = groups[image]  # in the order of Tr, by bits
        least = fiber_minimum(operator)
        fibers.append(ChiFiber(operator, least, saturated_hull(least), tuple(members)))
    return fibers


# -- the Galois pair -----------------------------------------------------------


def galois_F(lat, elements):
    """Least transfer system relating each given element to top.

    The result is cosaturated (generated by relations into the top).
    """
    return generate(lat, [(x, lat.top) for x in elements])


def galois_G(system):
    """The fibrant set: all elements related to top."""
    lat = system.lattice
    return frozenset(x for x in range(lat.n) if system.contains(x, lat.top))


def is_moore_family(lat, elements):
    """Contains top and is closed under pairwise meets."""
    if lat.top not in elements:
        return False
    meet = lat.meet
    return all(meet[x][y] in elements for x in elements for y in elements)
