"""Transfer systems on finite lattices.

A transfer system is a reflexive, transitive subrelation of the order that
refines <= and is closed under restriction: x R z and y <= z imply
(x ^ y) R y.  Every relation on an n-element order, stored or in flight,
is a Python int in one layout: the pair (x, y) is bit x*n + y of a
row-major n x n bit matrix.

Each order has one private object, `_DenseClosure`, holding its up-sets,
diagonal, full order, one restriction mask per position and the branch
order.  A lattice builds it once in `closure_for(lat)`, and a
deleted-extreme subposet once in `Subposet.closure()`.  On it, restriction
is one mask per pair, transitivity is Warshall's n rank-one updates, and
two-out-of-three is one shift per related pair.  `generate`,
`TransferSystem.join` and `saturated_hull` close there, and the Tr,
saturated and subposet searches on the backtracking engine in
`trsys.search` propagate there (adding a pair to a transitive relation is
one multiplication).  `find_violation` and `is_saturated` check the axioms
directly on the rows of the bits and read no closure table.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import search
from .errors import (
    AmbientMismatch,
    InvalidTransferSystem,
    InvariantViolation,
    SizeLimit,
    UnsupportedSubposet,
)
from .lattice import from_order


def _bits(mask):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _rows(bits, n):
    """Row x of the n x n matrix `bits`: the mask of the y with x R y."""
    mask = (1 << n) - 1
    return [bits >> x * n & mask for x in range(n)]


def closure_for(lat):
    """The closure object of `lat`, built once per lattice."""
    closure = lat._cache.get("closure")
    if closure is None:
        closure = lat._cache["closure"] = _DenseClosure(lat.up, lat.meet_rows, lat.height)
    return closure


class _DenseClosure:
    """The data of one finite order and the one closure of its relations.

    `up[x]` has bit y set when x <= y, and `meets[a][b]` is the meet of a
    and b, or None where they have no common lower bound.  `diag` and
    `full` are the diagonal and the whole order, `rest[p]` is the mask of
    the pair at position p and of every pair its restriction forces, and
    `order` is the order in which the searches decide the non-reflexive
    pairs.

    Adding (x, z) to a reflexive, transitive R adds every (a, b) with a R x
    and z R b, which is column x of R times row z: one multiplication.
    Restriction is unary and one pass suffices (a restriction of a
    restriction of p is a restriction of p), so it is an OR of one mask per
    pair.  Transitive closure and two-out-of-three both keep a relation
    restriction-closed, so closing under restriction first is enough; the
    transitive closure is Warshall's n rank-one updates.

    The searches step by `propagate`: the closure of a transfer system plus
    one pair is the transitive closure of the system, the pair and the
    pair's restrictions, added one rank-one update at a time.  The
    saturated search then adds each pair that two-out-of-three forces the
    same way, until none is new.
    """

    def __init__(self, up, meets, heights):
        n = len(up)
        self.n = n
        self.up = up
        self.col = sum(1 << (a * n) for a in range(n))
        self.row = (1 << n) - 1
        self.diag = sum(1 << x * (n + 1) for x in range(n))
        self.full = sum(up[x] << x * n for x in range(n))
        # restriction is unary per pair: (x, z) forces (x ^ y, y) for y <= z
        self.rest = [0] * (n * n)
        for x in range(n):
            for z in _bits(up[x]):
                mask = 1 << x * n + z
                for y in range(n):
                    w = meets[x][y]
                    if up[y] >> z & 1 and w is not None and w != y:
                        mask |= 1 << w * n + y
                self.rest[x * n + z] = mask
        # branch order: decreasing height gap, then decreasing height of
        # the upper element, then position.  Restriction forces pairs
        # downwards, so a pair tends to be decided before those it forces;
        # only the last key reads the labels, so relabelling reorders ties
        self.order = sorted(
            _bits(self.full & ~self.diag),
            key=lambda p: (heights[p // n] - heights[p % n], -heights[p % n], p),
        )
        self.steps = None  # built by the first search: closing alone never needs them

    def transfer_systems(self, jobs=1, saturate=False):
        """Every transfer system, or every saturated one, sorted."""
        if self.steps is None:
            # per position p of a pair: the mask of p and its restrictions,
            # which the closure must contain, and for each of them
            # (x, z*n, bit of (x, z)), the shifts that read column x and row z
            n = self.n
            self.steps = [None] * (n * n)
            for pos in _bits(self.full):
                forced = self.rest[pos]
                targets = [pos] + [t for t in _bits(forced) if t != pos]
                updates = tuple((t // n, t % n * n, 1 << t) for t in targets)
                self.steps[pos] = (forced, updates)
        propagate = self.propagate_saturated if saturate else self.propagate
        return search.leaves(self.order, self.diag, propagate, jobs=jobs)

    def propagate(self, inc, exc, k):
        forced, updates = self.steps[k]
        if forced & exc:
            return None
        col, row = self.col, self.row
        for x, zn, bit in updates:
            if not inc & bit:
                inc |= (inc >> x & col) * (inc >> zn & row)
        return None if inc & exc else inc

    def propagate_saturated(self, inc, exc, k):
        inc = self.propagate(inc, exc, k)
        while inc is not None:
            new = self._saturate(inc) & ~inc
            if not new:
                return inc
            for p in _bits(new):
                inc = self.propagate(inc, exc, p)
                if inc is None:
                    break
        return None

    def close(self, bits, saturate=False):
        """The least relation containing `bits` and the diagonal that is
        closed under restriction and transitivity, and under
        two-out-of-three when `saturate`."""
        dense = self._transitive(self._restricted(bits | self.diag))
        while saturate:
            grown = self._saturate(dense)
            if grown == dense:
                break
            dense = self._transitive(grown)
        return dense

    def join(self, union):
        """The transitive closure W(U) of a union U of transfer systems, or
        None when W(U) misses a restriction of U, that is when the closure
        of U needs restriction beyond transitivity."""
        joined = self._transitive(union | self.diag)
        if self._restricted(union) & ~joined:
            return None
        return joined

    def _restricted(self, bits):
        """`bits` with every restriction of its non-reflexive pairs."""
        rest = self.rest
        pairs = bits & self.full & ~self.diag
        while pairs:
            low = pairs & -pairs
            bits |= rest[low.bit_length() - 1]
            pairs ^= low
        return bits

    def _transitive(self, dense):
        """Warshall: through each pivot v in turn, column v times row v."""
        n, col, row = self.n, self.col, self.row
        for v in range(n):
            dense |= (dense >> v & col) * (dense >> v * n & row)
        return dense

    def _saturate(self, dense):
        """One pass of two-out-of-three: x R y <= z and x R z give y R z,
        so row y gains row x above y."""
        n, row, up = self.n, self.row, self.up
        for x in range(n):
            reach = dense >> x * n & row
            for y in _bits(reach & ~(1 << x)):
                dense |= (reach & up[y]) << y * n
        return dense


# -- transfer systems ---------------------------------------------------------


@dataclass(frozen=True)
class Violation:
    """First failed axiom with witness elements."""

    axiom: str
    witness: tuple

    def __str__(self):
        return f"{self.axiom} violated at {self.witness}"


def find_violation(lat, bits):
    """Return the first violated transfer-system axiom, or None."""
    n, up, meet = lat.n, lat.up, lat.meet_rows
    rows = _rows(bits, n)
    if bits >> n * n or any(row & ~above for row, above in zip(rows, up)):
        return Violation("refinement", ())
    for x in range(n):
        if not rows[x] >> x & 1:
            return Violation("reflexivity", (x,))
    for x in range(n):
        for z in _bits(rows[x] & ~(1 << x)):
            for y in range(n):
                if up[y] >> z & 1:
                    w = meet[x][y]
                    if w != y and not rows[w] >> y & 1:
                        return Violation("restriction", (x, z, y))
            # z R c but not x R c; the smallest such c is the witness
            missing = rows[z] & ~rows[x]
            if missing:
                return Violation("transitivity", (x, z, (missing & -missing).bit_length() - 1))
    return None


class TransferSystem:
    """An immutable transfer system on an ambient lattice."""

    __slots__ = ("lattice", "bits")

    def __init__(self, lattice, bits):
        violation = find_violation(lattice, bits)
        if violation is not None:
            raise InvalidTransferSystem(violation)
        object.__setattr__(self, "lattice", lattice)
        object.__setattr__(self, "bits", bits)

    @classmethod
    def _wrap(cls, lattice, bits):
        obj = object.__new__(cls)
        object.__setattr__(obj, "lattice", lattice)
        object.__setattr__(obj, "bits", bits)
        return obj

    @classmethod
    def from_pairs(cls, lattice, pairs):
        """Validate an explicit relation; raises InvalidTransferSystem."""
        return cls(lattice, closure_for(lattice).diag | _pair_bits(lattice, pairs))

    def __setattr__(self, name, value):
        raise AttributeError("TransferSystem is immutable")

    def __eq__(self, other):
        return (
            isinstance(other, TransferSystem)
            and self.bits == other.bits
            and self.lattice.same_order(other.lattice)
        )

    def __hash__(self):
        return hash((self.lattice.n, self.lattice.leq.tobytes(), self.bits))

    def __repr__(self):
        return f"TransferSystem({self.pairs()})"

    def pairs(self):
        """Non-reflexive related pairs, row-major."""
        n = self.lattice.n
        return [divmod(p, n) for p in _bits(self.bits & ~closure_for(self.lattice).diag)]

    def contains(self, x, y):
        n = self.lattice.n
        return x in range(n) and y in range(n) and bool(self.bits >> int(x) * n + int(y) & 1)

    def refines(self, other):
        self._check_ambient(other)
        return self.bits & other.bits == self.bits

    __le__ = refines

    def meet(self, other):
        """Intersection of relations; always a transfer system."""
        self._check_ambient(other)
        return TransferSystem._wrap(self.lattice, self.bits & other.bits)

    def join(self, other):
        """Least transfer system containing both operands.

        For valid operands only transitivity can add pairs beyond the
        union U, which is asserted at runtime.  The transitive closure W(U)
        runs on the dense closure of `closure_for`; the full closure is
        W(Rst(U)), which equals W(U) exactly when the restrictions Rst(U)
        lie in W(U), so the assertion is a mask test.
        """
        self._check_ambient(other)
        joined = closure_for(self.lattice).join(self.bits | other.bits)
        if joined is None:
            raise InvariantViolation("join needed restriction closure beyond transitivity")
        return TransferSystem._wrap(self.lattice, joined)

    __and__ = meet
    __or__ = join

    def _check_ambient(self, other):
        if not self.lattice.same_order(other.lattice):
            raise AmbientMismatch("operands live on different lattices")

    def is_saturated(self):
        """Two-out-of-three: x R y <= z and x R z imply y R z."""
        n, up = self.lattice.n, self.lattice.up
        rows = _rows(self.bits, n)
        for x in range(n):
            reach = rows[x] & ~(1 << x)
            for y in _bits(reach):
                if reach & up[y] & ~rows[y]:
                    return False
        return True

    def minimal_fibrant(self):
        """The least element related to top (chi at the top element)."""
        return self._least_related(self.lattice.top)

    def _least_related(self, x):
        """The meet of the R-downset of x, read from column x of the bits.
        Restriction and transitivity put it in the downset; the tests and
        `verify` check that it does, through the chi-fiber theorem."""
        lat = self.lattice
        n, meet = lat.n, lat.meet_rows
        down = self.bits >> x & closure_for(lat).col  # bit a*n for each a R x
        m = x
        while down:
            low = down & -down
            m = meet[m][(low.bit_length() - 1) // n]
            down ^= low
        return m


def discrete_system(lat):
    """Only the reflexive relations."""
    return TransferSystem._wrap(lat, closure_for(lat).diag)


def complete_system(lat):
    """The full order as a transfer system."""
    return TransferSystem._wrap(lat, closure_for(lat).full)


def _pair_bits(lat, pairs):
    """The bits of explicit pairs (x, y); a pair of elements outside
    range(n), or with x not <= y, fails refinement."""
    n = lat.n
    bits = 0
    for x, y in pairs:
        if not (x in range(n) and y in range(n) and lat.up[x] >> y & 1):
            raise InvalidTransferSystem(Violation("refinement", (x, y)))
        bits |= 1 << int(x) * n + int(y)
    return bits


def generate(lat, pairs):
    """Least transfer system containing the given pairs.

    `_pair_bits` checks the pairs.  Their closure under reflexivity,
    restriction and transitivity on `closure_for(lat)` is wrapped without
    re-validation; the tests compare it with the subset-filter oracle.
    """
    return TransferSystem._wrap(lat, closure_for(lat).close(_pair_bits(lat, pairs)))


def saturated_hull(system):
    """Least saturated transfer system above the argument.

    The closure under restriction, transitivity and two-out-of-three on
    `closure_for(lat)`, wrapped without re-validation; the tests compare it
    with the subset-filter oracle, and `verify` checks that it is saturated.
    """
    lat = system.lattice
    return TransferSystem._wrap(lat, closure_for(lat).close(system.bits, saturate=True))


# -- enumeration ---------------------------------------------------------------


class TrLattice:
    """The lattice of all transfer systems on a base lattice, by refinement.

    Positions follow the sorted `bits`; the `TransferSystem` objects are
    built on the first use of `systems`, iteration or indexing.
    """

    def __init__(self, lattice, systems):
        self.lattice = lattice
        self._systems = sorted(systems, key=lambda s: s.bits)
        self.bits = [s.bits for s in self._systems]
        self._index = None  # bits -> position, built on the first lookup
        self._covers = None

    @classmethod
    def _from_sorted_bits(cls, lattice, bits):
        obj = cls(lattice, [])
        obj.bits, obj._systems = bits, None
        return obj

    @property
    def systems(self):
        if self._systems is None:
            self._systems = [TransferSystem._wrap(self.lattice, b) for b in self.bits]
        return self._systems

    def __len__(self):
        return len(self.bits)

    def __iter__(self):
        return iter(self.systems)

    def __getitem__(self, i):
        return self.systems[i]

    def _position(self, bits):
        if self._index is None:
            self._index = {b: i for i, b in enumerate(self.bits)}
        return self._index[bits]

    def index_of(self, system):
        return self._position(system.bits)

    def leq(self, i, j):
        a, b = self.bits[i], self.bits[j]
        return a & b == a

    def meet_index(self, i, j):
        return self._position(self.bits[i] & self.bits[j])

    def join_index(self, i, j):
        joined = self.systems[i].join(self.systems[j])
        return self._position(joined.bits)

    @property
    def covers(self):
        """Hasse edges of the refinement order, as index pairs."""
        if self._covers is None:
            m = len(self.bits)
            lt = np.zeros((m, m), dtype=bool)
            for i, j in itertools.permutations(range(m), 2):
                lt[i, j] = self.leq(i, j)
            lt &= ~np.eye(m, dtype=bool)
            thru = (lt.astype(np.uint8) @ lt.astype(np.uint8)) > 0
            self._covers = sorted((int(a), int(b)) for a, b in np.argwhere(lt & ~thru))
        return self._covers

    def hasse_lattice(self):
        """The refinement order as a Lattice value (for isomorphism tests)."""
        return from_order(len(self.systems), self.covers)

    def greatest(self):
        return self.systems[-1] if self.systems else None

    def least(self):
        return self.systems[0]


def enumerate_transfer_systems(lat, guard=26, jobs=1):
    """All transfer systems on `lat`, as a TrLattice.

    Backtracks over undecided non-reflexive pairs in decreasing height-gap
    order, ties by decreasing height of the upper element, propagating
    restriction+transitivity closure on inclusion and pruning branches
    whose closure hits an excluded pair.  The closure runs on a dense
    n x n bit matrix, one multiplication per added pair; with jobs > 1 the
    search is split across worker processes, with the same output.
    """
    _check_guard(closure_for(lat), guard)
    return TrLattice._from_sorted_bits(lat, closure_for(lat).transfer_systems(jobs))


def enumerate_saturated_systems(lat, guard=80, jobs=1):
    """All saturated transfer systems, enumerated directly.

    Uses the same search with the two-out-of-three rule added to the
    propagation, so the count is independent of full Tr enumeration.
    """
    _check_guard(closure_for(lat), guard)
    bits = closure_for(lat).transfer_systems(jobs, saturate=True)
    return [TransferSystem._wrap(lat, b) for b in bits]


def _check_guard(closure, guard):
    if guard is not None and len(closure.order) > guard:
        raise SizeLimit(
            f"{len(closure.order)} non-reflexive pairs exceed the enumeration guard {guard}"
        )


# -- deleted-extreme subposets --------------------------------------------------


class Subposet:
    """The induced order on a lattice minus a subset of its extremes."""

    def __init__(self, base, elements):
        extremes = {base.bottom, base.top}
        dropped = set(range(base.n)) - set(elements)
        if not dropped <= extremes:
            raise UnsupportedSubposet(f"may only delete extremes, got {sorted(dropped)}")
        self.base = base
        self.elements = tuple(sorted(set(elements)))
        self._pos = {x: i for i, x in enumerate(self.elements)}
        m = len(self.elements)
        self.leq = [
            [bool(base.leq[self.elements[i], self.elements[j]]) for j in range(m)]
            for i in range(m)
        ]
        self._closure = None

    @property
    def m(self):
        return len(self.elements)

    def closure(self):
        """The closure object of the subposet, built once."""
        if self._closure is None:
            # with only extremes deleted, two elements have a greatest common
            # lower bound, their meet, unless it is the deleted bottom, and
            # then none; heights shift by a constant, which keeps the
            # branch order of the Tr search
            pos, meet = self._pos, self.base.meet_rows
            up = [sum(1 << j for j, below in enumerate(row) if below) for row in self.leq]
            meets = [[pos.get(meet[a][b]) for b in self.elements] for a in self.elements]
            heights = [self.base.height[x] for x in self.elements]
            self._closure = _DenseClosure(up, meets, heights)
        return self._closure


class SubposetRelation:
    """A transfer relation on a deleted-extreme subposet."""

    __slots__ = ("subposet", "bits")

    def __init__(self, subposet, bits):
        self.subposet = subposet
        self.bits = bits

    def pairs(self):
        """Non-reflexive pairs, in the base lattice's element labels."""
        el, m = self.subposet.elements, self.subposet.m
        pairs = (divmod(p, m) for p in _bits(self.bits & ~self.subposet.closure().diag))
        return [(el[x], el[y]) for x, y in pairs]

    def __eq__(self, other):
        return (
            isinstance(other, SubposetRelation)
            and self.bits == other.bits
            and self.subposet.elements == other.subposet.elements
        )

    def __hash__(self):
        return hash((self.subposet.elements, self.bits))


def deleted_extremes_subposet(lat, drop_bottom=False, drop_top=False):
    keep = [
        x
        for x in range(lat.n)
        if not (drop_bottom and x == lat.bottom) and not (drop_top and x == lat.top)
    ]
    return Subposet(lat, keep)


def restrict_to_subposet(system, elements):
    """Induced relation of a transfer system on P minus some extremes."""
    sub = Subposet(system.lattice, elements)
    el, m = sub.elements, sub.m
    bits = 0
    for x in range(m):
        for y in range(m):
            if system.contains(el[x], el[y]):
                bits |= 1 << x * m + y
    return SubposetRelation(sub, bits)


def extend_with_bottom(rel):
    """Inverse of restriction for bottom-full systems.

    Takes a transfer relation on P minus bottom and re-adds all relations
    out of bottom, producing the unique transfer system on P restricting
    to it.
    """
    sub = rel.subposet
    base = sub.base
    if set(sub.elements) != set(range(base.n)) - {base.bottom}:
        raise UnsupportedSubposet("expected the subposet deleting exactly the bottom")
    pairs = list(rel.pairs())
    pairs.extend((base.bottom, x) for x in range(base.n) if x != base.bottom)
    return TransferSystem.from_pairs(base, pairs)


def enumerate_subposet_systems(sub, guard=26):
    """All transfer relations on a deleted-extreme subposet.

    Restriction is taken along meets; pairs of elements whose meet is the
    deleted bottom have no common lower bound and impose nothing.  The
    search is the Tr search, on the subposet's own closure.
    """
    _check_guard(sub.closure(), guard)
    return [SubposetRelation(sub, b) for b in sub.closure().transfer_systems()]
