"""Transfer systems on finite lattices.

A transfer system is a reflexive, transitive subrelation of the order that
refines <= and is closed under restriction: x R z and y <= z imply
(x ^ y) R y.  Systems are stored as bitsets (Python ints) over the
comparable pairs of their ambient lattice, in row-major order.

Every relation closes on one dense n x n bit matrix per order,
`_DenseClosure`: restriction is one mask per pair, transitivity is
Warshall's n rank-one updates, and two-out-of-three is one shift per
related pair.  A lattice builds it once in `closure_for(lat)`, and a
deleted-extreme subposet once in `Subposet.closure()`.  `generate`,
`TransferSystem.join` and `saturated_hull` close there, and the Tr,
saturated and subposet searches on the backtracking engine in
`trsys.search` propagate there (adding a pair to a transitive relation is
one multiplication) and map their leaves back to the pair layout.
`find_violation` and `is_saturated` check the axioms directly and read no
closure table.
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


class OrderContext:
    """Pair table and restriction targets for one finite order.

    `meets[a][b]` is the meet of a and b, or None where they have no
    common lower bound.  `rest[k]` holds the pairs that
    restricting pair k forces, and `branch_order` the order in which the
    searches decide the non-reflexive pairs.
    """

    def __init__(self, leq_rows, meets, heights):
        m = len(leq_rows)
        self.m = m
        self.up_mask = [0] * m
        for x in range(m):
            for y in range(m):
                if leq_rows[x][y]:
                    self.up_mask[x] |= 1 << y
        self.pairs = [(x, y) for x in range(m) for y in range(m) if leq_rows[x][y]]
        self.pair_count = len(self.pairs)
        self.pidx = {p: k for k, p in enumerate(self.pairs)}
        self.diag = 0
        for x in range(m):
            self.diag |= 1 << self.pidx[(x, x)]
        self.nonrefl = [k for k, (x, y) in enumerate(self.pairs) if x != y]
        self.by_first = [[] for _ in range(m)]
        for k, (x, y) in enumerate(self.pairs):
            if x != y:
                self.by_first[x].append(k)
        # restriction is unary per pair: (x, z) forces (x ^ y, y) for y <= z
        self.rest = []
        for k, (x, z) in enumerate(self.pairs):
            targets = set()
            for y in range(m):
                w = meets[x][y]
                if leq_rows[y][z] and w is not None and w != y:
                    t = self.pidx[(w, y)]
                    if t != k:
                        targets.add(t)
            self.rest.append(tuple(sorted(targets)))
        # branch order: decreasing height gap, then pair index
        self.branch_order = sorted(
            self.nonrefl, key=lambda k: (-(heights[self.pairs[k][1]] - heights[self.pairs[k][0]]), k)
        )


def context_for(lat):
    ctx = lat._cache.get("order_context")
    if ctx is None:
        ctx = OrderContext(lat.leq.tolist(), lat.meet_rows, lat.height)
        lat._cache["order_context"] = ctx
    return ctx


def closure_for(lat):
    """The dense closure of `lat`, built once per lattice."""
    closure = lat._cache.get("dense_closure")
    if closure is None:
        closure = lat._cache["dense_closure"] = _DenseClosure(context_for(lat))
    return closure


class _DenseClosure:
    """The one closure of relations on a finite order, over a dense layout.

    It reads only the `OrderContext` of the order.  The pair (x, z) is bit
    x*n + z of an n x n row-major matrix.  Adding (x, z) to a reflexive,
    transitive R adds every (a, b) with a R x and z R b, which is column x
    of R times row z: one multiplication.  Restriction is unary and one
    pass suffices (a restriction of a restriction of p is a restriction of
    p), so it is an OR of one mask per pair.  Transitive closure and
    two-out-of-three both keep a relation restriction-closed, so closing
    under restriction first is enough; the transitive closure is Warshall's
    n rank-one updates.

    The searches step by `propagate`: the closure of a transfer system plus
    one pair is the transitive closure of the system, the pair and the
    pair's restrictions, added one rank-one update at a time.  The
    saturated search then adds each pair that two-out-of-three forces the
    same way, until none is new.
    """

    def __init__(self, ctx):
        n = ctx.m
        self.n = n
        self.up = ctx.up_mask
        self.diag = ctx.diag
        self.col = sum(1 << (a * n) for a in range(n))
        self.row = (1 << n) - 1
        self.pos = [x * n + z for x, z in ctx.pairs]
        self.order = [self.pos[k] for k in ctx.branch_order]
        # per pair: the dense mask of the pair and its restrictions
        self.rest = [
            sum(1 << self.pos[j] for j in (k, *ctx.rest[k])) for k in range(ctx.pair_count)
        ]
        pair_bit = [0] * (n * n)
        for k, pos in enumerate(self.pos):
            pair_bit[pos] = 1 << k
        self.to_pair_bits = search.byte_tables(pair_bit)
        self.steps = None  # built by the first search: closing alone never needs them

    def transfer_systems(self, jobs=1, saturate=False):
        """Every transfer system, or every saturated one, sorted, in the
        pair layout."""
        if self.steps is None:
            # per dense position p: the mask of p and its restrictions, which
            # the closure must contain, and for each of them (x, z*n, bit of
            # (x, z)), the shifts that read column x and row z
            n = self.n
            self.steps = [None] * (n * n)
            for pos, forced in zip(self.pos, self.rest):
                targets = [pos] + [t for t in _bits(forced) if t != pos]
                updates = tuple((t // n, t % n * n, 1 << t) for t in targets)
                self.steps[pos] = (forced, updates)
        propagate = self.propagate_saturated if saturate else self.propagate
        root = self._dense(self.diag)[0]
        all_bits = search.leaves(self.order, root, propagate, jobs=jobs)
        # to the pair layout, in place; both layouts are row-major, so the order is kept
        for j, dense in enumerate(all_bits):
            all_bits[j] = search.gather(self.to_pair_bits, dense)
        return all_bits

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
        two-out-of-three when `saturate`, in the pair layout."""
        dense = self._transitive(self._dense(bits | self.diag)[1])
        while saturate:
            grown = self._saturate(dense)
            if grown == dense:
                break
            dense = self._transitive(grown)
        return search.gather(self.to_pair_bits, dense)

    def join(self, union):
        """The transitive closure W(U) of a union U of transfer systems, or
        None when W(U) misses a restriction of U, that is when the closure
        of U needs restriction beyond transitivity."""
        plain, restricted = self._dense(union | self.diag)
        joined = self._transitive(plain)
        if restricted & ~joined:
            return None
        return search.gather(self.to_pair_bits, joined)

    def _dense(self, bits):
        """Pair-layout `bits` in the dense layout, as is and with every
        restriction of its pairs."""
        pos, rest = self.pos, self.rest
        plain = restricted = 0
        while bits:
            low = bits & -bits
            k = low.bit_length() - 1
            plain |= 1 << pos[k]
            restricted |= rest[k]
            bits ^= low
        return plain, restricted

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
    ctx = context_for(lat)
    if bits & ~((1 << ctx.pair_count) - 1):
        return Violation("refinement", ())
    if bits & ctx.diag != ctx.diag:
        missing = next(k for k in range(ctx.pair_count) if ctx.diag >> k & 1 and not bits >> k & 1)
        return Violation("reflexivity", (ctx.pairs[missing][0],))
    up, meet = lat.up, lat.meet_rows
    for k in range(ctx.pair_count):
        if not bits >> k & 1:
            continue
        x, z = ctx.pairs[k]
        if x == z:
            continue
        for y in range(lat.n):
            if up[y] >> z & 1:
                w = meet[x][y]
                if w != y and not bits >> ctx.pidx[(w, y)] & 1:
                    return Violation("restriction", (x, z, y))
        for j in ctx.by_first[z]:
            if bits >> j & 1 and not bits >> ctx.pidx[(x, ctx.pairs[j][1])] & 1:
                return Violation("transitivity", (x, z, ctx.pairs[j][1]))
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
        return cls(lattice, context_for(lattice).diag | _pair_bits(lattice, pairs))

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

    def _ctx(self):
        return context_for(self.lattice)

    def pairs(self):
        """Non-reflexive related pairs, row-major."""
        ctx = self._ctx()
        return [ctx.pairs[k] for k in ctx.nonrefl if self.bits >> k & 1]

    def contains(self, x, y):
        ctx = self._ctx()
        k = ctx.pidx.get((x, y))
        return k is not None and bool(self.bits >> k & 1)

    def downset(self, x):
        """The R-downset of x: all y with y R x."""
        return [y for y in range(self.lattice.n) if self.contains(y, x)]

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
        ctx = self._ctx()
        bits = self.bits
        up = self.lattice.up
        for k in ctx.nonrefl:
            if not bits >> k & 1:
                continue
            x, y = ctx.pairs[k]
            for j in ctx.by_first[x]:
                if j != k and bits >> j & 1:
                    z = ctx.pairs[j][1]
                    if z != y and up[y] >> z & 1 and not bits >> ctx.pidx[(y, z)] & 1:
                        return False
        return True

    def minimal_fibrant(self):
        """The least element related to top (chi at the top element)."""
        lat = self.lattice
        meet = lat.meet_rows
        down = self.downset(lat.top)
        m = down[0]
        for y in down[1:]:
            m = meet[m][y]
        if not self.contains(m, lat.top):
            raise InvariantViolation("meet of top-downset escaped the downset")
        return m


def discrete_system(lat):
    """Only the reflexive relations."""
    return TransferSystem._wrap(lat, context_for(lat).diag)


def complete_system(lat):
    """The full order as a transfer system."""
    ctx = context_for(lat)
    return TransferSystem._wrap(lat, (1 << ctx.pair_count) - 1)


def _pair_bits(lat, pairs):
    """The pair-layout bits of explicit pairs (x, y); a pair of elements
    outside range(n), or with x not <= y, fails refinement."""
    ctx = context_for(lat)
    bits = 0
    for x, y in pairs:
        if not (0 <= x < lat.n and 0 <= y < lat.n and lat.leq[x, y]):
            raise InvalidTransferSystem(Violation("refinement", (x, y)))
        bits |= 1 << ctx.pidx[(x, y)]
    return bits


def generate(lat, pairs_or_bits):
    """Least transfer system containing the given relations.

    Closes under reflexivity, then restriction (one mask per pair), then
    transitivity (Warshall), on the one closure of the lattice,
    `closure_for`; the result is re-validated, which checks that no further
    restriction pass is needed.
    """
    if isinstance(pairs_or_bits, int):
        bits = pairs_or_bits
    else:
        bits = _pair_bits(lat, pairs_or_bits)
    return TransferSystem(lat, closure_for(lat).close(bits))


def saturated_hull(system):
    """Least saturated transfer system above the argument.

    The closure of the argument under restriction, transitivity and
    two-out-of-three, on the one closure of the lattice, `closure_for`; the
    result is re-validated and checked to be saturated.
    """
    lat = system.lattice
    out = TransferSystem(lat, closure_for(lat).close(system.bits, saturate=True))
    if not out.is_saturated():
        raise InvariantViolation("saturated hull is not saturated")
    return out


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

    Backtracks over undecided non-reflexive pairs in decreasing rank-gap
    order, propagating restriction+transitivity closure on inclusion and
    pruning branches whose closure hits an excluded pair.  The closure
    runs on a dense n x n bit matrix, one multiplication per added pair;
    with jobs > 1 the search is split across worker processes, with the
    same output.
    """
    _check_guard(context_for(lat), guard)
    return TrLattice._from_sorted_bits(lat, closure_for(lat).transfer_systems(jobs))


def enumerate_saturated_systems(lat, guard=80, jobs=1):
    """All saturated transfer systems, enumerated directly.

    Uses the same search with the two-out-of-three rule added to the
    propagation, so the count is independent of full Tr enumeration.
    """
    _check_guard(context_for(lat), guard)
    bits = closure_for(lat).transfer_systems(jobs, saturate=True)
    return [TransferSystem._wrap(lat, b) for b in bits]


def _check_guard(ctx, guard):
    if guard is not None and len(ctx.nonrefl) > guard:
        raise SizeLimit(
            f"{len(ctx.nonrefl)} non-reflexive pairs exceed the enumeration guard {guard}"
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
        self._ctx = None
        self._closure = None

    @property
    def m(self):
        return len(self.elements)

    def context(self):
        if self._ctx is None:
            # with only extremes deleted, two elements have a greatest common
            # lower bound, their meet, unless it is the deleted bottom, and
            # then none; heights shift by a constant, which keeps every
            # height gap
            pos, meet = self._pos, self.base.meet_rows
            meets = [[pos.get(meet[a][b]) for b in self.elements] for a in self.elements]
            heights = [self.base.height[x] for x in self.elements]
            self._ctx = OrderContext(self.leq, meets, heights)
        return self._ctx

    def closure(self):
        """The dense closure of the subposet, built once."""
        if self._closure is None:
            self._closure = _DenseClosure(self.context())
        return self._closure


def _bits(mask):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class SubposetRelation:
    """A transfer relation on a deleted-extreme subposet."""

    __slots__ = ("subposet", "bits")

    def __init__(self, subposet, bits):
        self.subposet = subposet
        self.bits = bits

    def pairs(self):
        """Non-reflexive pairs, in the base lattice's element labels."""
        ctx = self.subposet.context()
        el = self.subposet.elements
        return [(el[x], el[y]) for k, (x, y) in enumerate(ctx.pairs) if x != y and self.bits >> k & 1]

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
    ctx = sub.context()
    bits = ctx.diag
    for k, (x, y) in enumerate(ctx.pairs):
        if system.contains(sub.elements[x], sub.elements[y]):
            bits |= 1 << k
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
    _check_guard(sub.context(), guard)
    return [SubposetRelation(sub, b) for b in sub.closure().transfer_systems()]
