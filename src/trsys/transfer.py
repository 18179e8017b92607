"""Transfer systems on finite lattices.

A transfer system is a reflexive, transitive subrelation of the order that
refines <= and is closed under restriction: x R z and y <= z imply
(x ^ y) R y.  Systems are stored as bitsets (Python ints) over the
comparable pairs of their ambient lattice, in row-major order.

Enumeration runs on the backtracking engine in `trsys.search`.  Tr on a
lattice propagates over a private dense n x n layout, where adding a pair
to a transitive relation is one multiplication, and maps its leaves back
to the pair layout.  Saturated systems, and the bounded-poset remnants
obtained by deleting a lattice's extremes (where restriction is taken
along maximal common lower bounds, the unique meet when it exists),
propagate with the worklist closure `OrderContext.close_add`.
"""
from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from functools import partial

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
    """Pair table and propagation rules for one finite order.

    `maxlower[a][b]` lists the maximal common lower bounds of {a, b}; a
    lattice supplies the singleton [a ^ b].  Restriction and transitivity
    (and, on demand, the two-out-of-three saturation rule) are unit
    propagations over pair indices.
    """

    def __init__(self, leq_rows, maxlower, heights):
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
        self.by_second = [[] for _ in range(m)]
        for k, (x, y) in enumerate(self.pairs):
            if x != y:
                self.by_first[x].append(k)
                self.by_second[y].append(k)
        # restriction is unary per pair: (x, z) forces (w, y) for y <= z,
        # w a maximal common lower bound of {x, y}
        self.rest = []
        for k, (x, z) in enumerate(self.pairs):
            targets = set()
            for y in range(m):
                if not leq_rows[y][z]:
                    continue
                for w in maxlower[x][y]:
                    if w != y:
                        t = self.pidx[(w, y)]
                        if t != k:
                            targets.add(t)
            self.rest.append(tuple(sorted(targets)))
        # branch order: decreasing height gap, then pair index
        self.branch_order = sorted(
            self.nonrefl, key=lambda k: (-(heights[self.pairs[k][1]] - heights[self.pairs[k][0]]), k)
        )

    # -- closure -----------------------------------------------------------

    def close(self, bits, restrict=True, transit=True, saturate=False, forbidden=0):
        """Least superset closed under the selected rules, or None if it
        would meet `forbidden`.  Reflexive pairs are always included."""
        bits |= self.diag
        work = deque()
        probe = bits
        while probe:
            low = probe & -probe
            work.append(low.bit_length() - 1)
            probe ^= low
        return self._run(bits, work, restrict, transit, saturate, forbidden)

    def close_add(self, closed, k, restrict=True, transit=True, saturate=False, forbidden=0):
        """Closure of an already-closed set plus one new pair."""
        if closed >> k & 1:
            return closed
        if forbidden >> k & 1:
            return None
        return self._run(closed | (1 << k), deque([k]), restrict, transit, saturate, forbidden)

    def _run(self, bits, work, restrict, transit, saturate, forbidden):
        pairs = self.pairs
        pidx = self.pidx
        up = self.up_mask
        while work:
            k = work.popleft()
            x, z = pairs[k]
            forced = []
            if restrict:
                forced.extend(self.rest[k])
            if transit and x != z:
                for j in self.by_first[z]:
                    if bits >> j & 1:
                        forced.append(pidx[(x, pairs[j][1])])
                for j in self.by_second[x]:
                    if bits >> j & 1:
                        forced.append(pidx[(pairs[j][0], z)])
            if saturate and x != z:
                # x R y <= z and x R z force y R z, scanned in both roles
                for j in self.by_first[x]:
                    if bits >> j & 1:
                        y2 = pairs[j][1]
                        if y2 == z:
                            continue
                        if up[y2] >> z & 1:
                            forced.append(pidx[(y2, z)])
                        elif up[z] >> y2 & 1:
                            forced.append(pidx[(z, y2)])
            for t in forced:
                if not bits >> t & 1:
                    if forbidden >> t & 1:
                        return None
                    bits |= 1 << t
                    work.append(t)
        return bits

    # -- exhaustive enumeration ---------------------------------------------

    def _extend(self, saturate, inc, exc, k):
        return self.close_add(inc, k, saturate=saturate, forbidden=exc)

    def _search(self, saturate=False, jobs=1):
        """All relations closed under restriction+transitivity (and the
        saturation rule when requested), with `close_add` propagating."""
        root = self.close(self.diag, saturate=saturate)
        return search.leaves(self.branch_order, root, partial(self._extend, saturate), jobs=jobs)


def context_for(lat):
    ctx = lat._cache.get("order_context")
    if ctx is None:
        maxlower = [[[w] for w in row] for row in lat.meet_rows]
        ctx = OrderContext(lat.leq.tolist(), maxlower, lat.height)
        lat._cache["order_context"] = ctx
    return ctx


class _DenseClosure:
    """Propagation for Tr on a lattice, over a private dense layout.

    The pair (x, z) is bit x*n + z of an n x n row-major matrix.  Adding
    (x, z) to a reflexive, transitive R adds every (a, b) with a R x and
    z R b, which is column x of R times row z: one multiplication.
    Restriction is unary, and the transitive closure of a restriction-closed
    relation is restriction-closed, so the closure of a transfer system
    plus one pair is the transitive closure of the system, the pair and
    the pair's restrictions, added one rank-one update at a time.
    """

    def __init__(self, lat, ctx):
        n = lat.n
        self.col = sum(1 << (a * n) for a in range(n))
        self.row = (1 << n) - 1
        self.root = sum(1 << (x * n + x) for x in range(n))
        dense = [x * n + z for x, z in ctx.pairs]
        self.order = [dense[k] for k in ctx.branch_order]
        # per pair p: the mask of p and its restrictions, which the closure
        # must contain, and for each of them (x, z*n, bit of (x, z)), the
        # shifts that read column x and row z
        self.steps = [None] * (n * n)
        for k, (x, z) in enumerate(ctx.pairs):
            targets = [(x, z)] + [ctx.pairs[t] for t in ctx.rest[k]]
            updates = tuple((a, b * n, 1 << (a * n + b)) for a, b in targets)
            self.steps[dense[k]] = (sum(bit for _, _, bit in updates), updates)
        pair_bit = [0] * (n * n)
        for k, pos in enumerate(dense):
            pair_bit[pos] = 1 << k
        self.to_pair_bits = search.byte_tables(pair_bit)

    def propagate(self, inc, exc, k):
        forced, updates = self.steps[k]
        if forced & exc:
            return None
        col, row = self.col, self.row
        for x, zn, bit in updates:
            if not inc & bit:
                inc |= (inc >> x & col) * (inc >> zn & row)
        return None if inc & exc else inc



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
        ctx = context_for(lattice)
        bits = ctx.diag
        for x, y in pairs:
            if not lattice.leq[x, y]:
                raise InvalidTransferSystem(Violation("refinement", (x, y)))
            bits |= 1 << ctx.pidx[(x, y)]
        return cls(lattice, bits)

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
        union; this is asserted against the full closure at runtime.
        """
        self._check_ambient(other)
        ctx = self._ctx()
        union = self.bits | other.bits
        full = ctx.close(union)
        shortcut = ctx.close(union, restrict=False)
        if full != shortcut:
            raise InvariantViolation("join needed restriction closure beyond transitivity")
        return TransferSystem._wrap(self.lattice, full)

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


def generate(lat, pairs_or_bits):
    """Least transfer system containing the given relations.

    Built by the exact three-phase procedure: close under reflexivity,
    then under restriction, finally under transitivity; the result is
    re-validated, which checks that no further restriction pass is needed.
    """
    ctx = context_for(lat)
    if isinstance(pairs_or_bits, int):
        bits = pairs_or_bits
    else:
        bits = 0
        for x, y in pairs_or_bits:
            if not lat.leq[x, y]:
                raise InvalidTransferSystem(Violation("refinement", (x, y)))
            bits |= 1 << ctx.pidx[(x, y)]
    bits |= ctx.diag
    bits = ctx.close(bits, transit=False)
    bits = ctx.close(bits, restrict=False)
    return TransferSystem(lat, bits)


def saturated_hull(system):
    """Least saturated transfer system above the argument.

    Alternates two-out-of-three completion with regeneration until the
    relation stabilizes.
    """
    lat = system.lattice
    ctx = context_for(lat)
    bits = system.bits
    while True:
        added = ctx.close(bits, restrict=False, transit=False, saturate=True)
        if added == bits:
            break
        bits = generate(lat, added).bits
    out = TransferSystem(lat, bits)
    if not out.is_saturated():
        raise InvariantViolation("saturated hull is not saturated")
    return out


# -- enumeration ---------------------------------------------------------------


class TrLattice:
    """The lattice of all transfer systems on a base lattice, by refinement."""

    def __init__(self, lattice, systems):
        self.lattice = lattice
        self.systems = sorted(systems, key=lambda s: s.bits)
        self._index = None  # bits -> position, built on the first lookup
        self._covers = None

    def __len__(self):
        return len(self.systems)

    def __iter__(self):
        return iter(self.systems)

    def __getitem__(self, i):
        return self.systems[i]

    def _position(self, bits):
        if self._index is None:
            self._index = {s.bits: i for i, s in enumerate(self.systems)}
        return self._index[bits]

    def index_of(self, system):
        return self._position(system.bits)

    def leq(self, i, j):
        a, b = self.systems[i].bits, self.systems[j].bits
        return a & b == a

    def meet_index(self, i, j):
        return self._position(self.systems[i].bits & self.systems[j].bits)

    def join_index(self, i, j):
        joined = self.systems[i].join(self.systems[j])
        return self._position(joined.bits)

    @property
    def covers(self):
        """Hasse edges of the refinement order, as index pairs."""
        if self._covers is None:
            m = len(self.systems)
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
    ctx = context_for(lat)
    if guard is not None and len(ctx.nonrefl) > guard:
        raise SizeLimit(
            f"{len(ctx.nonrefl)} non-reflexive pairs exceed the enumeration guard {guard}"
        )
    closure = lat._cache.get("dense_closure")
    if closure is None:
        closure = lat._cache["dense_closure"] = _DenseClosure(lat, ctx)
    all_bits = search.leaves(closure.order, closure.root, closure.propagate, jobs=jobs)
    # to the pair layout, in place; both layouts are row-major, so the order is kept
    for j, dense in enumerate(all_bits):
        all_bits[j] = search.gather(closure.to_pair_bits, dense)
    return TrLattice(lat, [TransferSystem._wrap(lat, b) for b in all_bits])


def enumerate_saturated_systems(lat, guard=80, jobs=1):
    """All saturated transfer systems, enumerated directly.

    Uses the same engine with the two-out-of-three rule added to the
    closure, so the count is independent of full Tr enumeration.
    """
    ctx = context_for(lat)
    if guard is not None and len(ctx.nonrefl) > guard:
        raise SizeLimit(
            f"{len(ctx.nonrefl)} non-reflexive pairs exceed the enumeration guard {guard}"
        )
    return [TransferSystem._wrap(lat, b) for b in ctx._search(saturate=True, jobs=jobs)]


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

    @property
    def m(self):
        return len(self.elements)

    def context(self):
        if self._ctx is None:
            m = self.m
            below = [sum(1 << j for j in range(m) if self.leq[j][i]) for i in range(m)]
            maxlower = [[None] * m for _ in range(m)]
            for a in range(m):
                for b in range(m):
                    common = below[a] & below[b]
                    found = []
                    probe = common
                    while probe:
                        low = probe & -probe
                        w = low.bit_length() - 1
                        probe ^= low
                        if not any(self.leq[w][v] and v != w for v in _bits(common)):
                            found.append(w)
                    maxlower[a][b] = found
            heights = [0] * m
            for i in sorted(range(m), key=lambda i: bin(below[i]).count("1")):
                for j in range(m):
                    if j != i and self.leq[j][i]:
                        heights[i] = max(heights[i], heights[j] + 1)
            self._ctx = OrderContext(self.leq, maxlower, heights)
        return self._ctx


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

    Restriction is taken along maximal common lower bounds, which agrees
    with the meet whenever the subposet happens to be a lattice; pairs of
    elements with no common lower bound impose nothing.
    """
    if sub.m == 0:
        return [SubposetRelation(sub, 0)]
    ctx = sub.context()
    if guard is not None and len(ctx.nonrefl) > guard:
        raise SizeLimit(f"{len(ctx.nonrefl)} non-reflexive pairs exceed guard {guard}")
    return [SubposetRelation(sub, b) for b in ctx._search()]
