"""Characteristic functions, interior operators, and chi-fiber structure.

The characteristic function of a transfer system sends each element to the
least element related to it.  It is always an interior operator (monotone,
idempotent, contractive), every interior operator arises this way, and the
preimage of an operator is an interval in the refinement lattice whose top
is saturated.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from . import search
from .errors import InvariantViolation, SizeLimit
from .functorial import LatticeMap
from .transfer import (
    TransferSystem,
    enumerate_transfer_systems,
    generate,
    saturated_hull,
)


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


def _join_closure(tables, inc, exc, e):
    # M | (e v M) is the join closure of M + {e} when M is join-closed and
    # contains bottom: (e v a) v (e v b) = e v (a v b) = a v (e v b)
    closed = inc | search.gather(tables[e], inc)
    return None if closed & exc else closed


def interior_system_masks(lat, max_elements=16):
    """All join-closed subsets containing bottom, as element bitmasks, sorted.

    Interior systems are exactly the images of interior operators; they
    are enumerated by include/exclude search over the elements, far below
    the 2^n subset space, on the engine in `trsys.search`.  Each inclusion
    is join-closed in one pass, reading e v M from byte tables of e's row
    of the join table.

    Elements are decided by increasing height, ties by element, and this
    makes the search dead-end free.  When e is decided, every excluded
    element precedes it.  Each e v a that including e adds is e itself or
    lies strictly above e, so it has greater height (the longest cover
    path from bottom) and is still undecided.  No include meets `exc`, and
    the search makes exactly one include call per leaf but the first.
    """
    if lat.n > max_elements:
        raise SizeLimit(f"{lat.n} elements exceed interior enumeration guard {max_elements}")
    tables = [search.byte_tables(1 << j for j in row) for row in lat.join]
    order = [x for x, _ in _bottom_up(lat) if x != lat.bottom]
    return search.leaves(order, 1 << lat.bottom, partial(_join_closure, tables))


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


def _bottom_up(lat):
    """Each element with its lower covers, in height order; cached."""
    steps = lat._cache.get("bottom_up")
    if steps is None:
        lower = [[] for _ in range(lat.n)]
        for x, y in lat.covers:
            lower[y].append(x)
        order = sorted(range(lat.n), key=lat.height.__getitem__)
        steps = lat._cache["bottom_up"] = [(x, lower[x]) for x in order]
    return steps


def interior_system_of(operator):
    """The image set of an interior operator, as an element bitmask."""
    mask = 0
    for v in set(operator.image):
        mask |= 1 << v
    return mask


def enumerate_interior_operators(lat, max_elements=16):
    """All interior operators, sorted by lexicographic image."""
    ops = [operator_from_interior_system(lat, m) for m in interior_system_masks(lat, max_elements)]
    ops.sort(key=lambda f: f.image)
    return ops


def count_interior_operators(lat, max_elements=16):
    return len(interior_system_masks(lat, max_elements))


def chi_image_check(lat, tr=None, max_elements=16):
    """Whether the characteristic map surjects onto the interior operators."""
    if tr is None:
        tr = enumerate_transfer_systems(lat)
    chi_images = {characteristic(r).image for r in tr}
    op_images = {f.image for f in enumerate_interior_operators(lat, max_elements)}
    return chi_images == op_images


# -- fibers -------------------------------------------------------------------


@dataclass(frozen=True)
class ChiFiber:
    """One fiber of the characteristic map: an interval in Tr(P)."""

    operator: InteriorOperator
    least: TransferSystem
    greatest: TransferSystem
    members: tuple


def fiber_minimum(lat, operator):
    """The least transfer system with the given characteristic operator,
    generated by the graph pairs (f(y), y)."""
    pairs = [(operator.image[y], y) for y in range(lat.n) if operator.image[y] != y]
    return generate(lat, pairs)


def fiber_decomposition(lat, tr=None):
    """Group Tr(P) by characteristic operator, one fiber per operator.

    Each fiber keeps the operator that `characteristic` returned for its
    members.  Its least element is `fiber_minimum` of that operator and its
    greatest is the saturated hull of that minimum.  That the operators are
    exactly the interior operators, and that the fiber is exactly the
    interval between its ends, closed under meet and join, with a saturated
    top that is the hull of every member, is the fiber theorem;
    `verify.check_fibers` and the tests check it.
    """
    if tr is None:
        tr = enumerate_transfer_systems(lat)
    groups = {}
    for r in tr:
        f = characteristic(r)
        groups.setdefault(f.image, (f, []))[1].append(r)
    fibers = []
    for image in sorted(groups):
        operator, members = groups[image]
        least = fiber_minimum(lat, operator)
        members = tuple(sorted(members, key=lambda s: s.bits))
        fibers.append(ChiFiber(operator, least, saturated_hull(least), members))
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
