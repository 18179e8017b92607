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
pair and all it forces.  `generate`, `saturated_hull`, `TransferSystem.join`
and `covers.cover_to_system` fold it over the pairs still missing.  The Tr
and saturated listings call no closure: `_layers` adjoins one element at a
time, in height order, and extends each system of the last layer by the
order ideals that restriction and transitivity (and two-out-of-three)
admit.  The systems that share an extension set extend together, one
sorted run per extension, so each layer is a merge of sorted runs, and
its size is checked against the guards of `trsys.search` before it is
built.
`find_violation` and `is_saturated` check the axioms directly on the rows
of the bits and read no closure table.

`TrLattice` orders the systems by refinement on their bits alone; its
Hasse edges come from int masks over the systems (see `TrLattice.covers`).
"""
from __future__ import annotations

import sys
from dataclasses import dataclass

from . import search
from .errors import AmbientMismatch, InvalidTransferSystem, SizeLimit
from .lattice import _bits, _bottom_up, from_order, per_lattice


def _rows(bits, n):
    """Row x of the n x n matrix `bits`: the mask of the y with x R y."""
    mask = (1 << n) - 1
    return [bits >> x * n & mask for x in range(n)]


class _DenseClosure:
    """The data of one lattice and the one closure of its relations.

    `up[x]` has bit y set when x <= y, `meet` is the meet table, and `diag`
    and `full` are the diagonal and the whole order.

    The one step, `propagate`, adds a pair (x, z) to a transfer system R
    with its restrictions (x ^ y, y), y <= z, one pass of which suffices,
    and closes transitively, which keeps restriction: adding (x, z) to a
    reflexive, transitive R adds column x of R times row z, one
    multiplication per pair, and most steps force no restriction beyond
    their own pair; once R meets an exclusion, it is the step's witness.
    `propagate_saturated` then adds what two-out-of-three forces, scanning
    only the rows that grew: a row that meets the rule keeps meeting it
    while other rows grow.
    """

    def __init__(self, lat):
        n, up = lat.n, lat.up
        self.n, self.up, self.meet = n, up, lat.meet
        self.col = sum(1 << (a * n) for a in range(n))
        self.row = (1 << n) - 1
        self.diag = sum(1 << x * (n + 1) for x in range(n))
        self.full = sum(up[x] << x * n for x in range(n))
        # filled one position at a time by `_step`; set here, not added
        # later, so that their reads in `propagate` stay as fast as any
        # attribute's
        self.steps = [None] * (n * n)
        self.cells = [None] * (n * n)

    def _step(self, pos):
        """The step of the pair (x, z) at `pos`, stored in `steps`: the mask
        of the pair and its restrictions, the shifts x and z*n that read
        column x and row z, and for each restriction the tuple (x', z'*n,
        bit of (x', z')), one tuple per position shared by every step."""
        n, up, meet, cells = self.n, self.up, self.meet, self.cells
        x, z = divmod(pos, n)
        # (x, z) forces (x ^ y, y) for y <= z; y = z gives (x, z)
        forced = {meet[x][y] * n + y for y in range(n) if up[y] >> z & 1 and meet[x][y] != y}
        updates = []
        for t in sorted(forced - {pos}):
            if cells[t] is None:
                cells[t] = (t // n, t % n * n, 1 << t)
            updates.append(cells[t])
        step = self.steps[pos] = (sum(1 << t for t in forced), x, z * n, tuple(updates))
        return step

    def propagate(self, inc, exc, k):
        # the pair at k needs no test: were it in `inc`, which is transitive,
        # its product would add nothing
        forced, x, zn, updates = self.steps[k] or self._step(k)
        if forced & exc:
            return inc | forced
        col, row = self.col, self.row
        inc |= (inc >> x & col) * (inc >> zn & row)
        if updates and not inc & exc:
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


def _layers(lat, guard, saturated):
    """The bits of every transfer system on `lat`, saturated when
    `saturated`, sorted, listed by adjoining one element at a time.

    The elements are taken in height order, so each prefix is a down-set,
    closed under meets.  A system on the prefix that ends in t is one
    system T on the prefix before it plus the pairs (x, t) for x in a set
    C.  C lies in A, the x < t with (x ^ c) T c for every lower cover c of
    t, which restriction asks and which gives it for every other y < t; C
    is an order ideal of (A, T), as transitivity asks.  Two-out-of-three
    asks also each y < t with x T y, x in C; for a saturated T, A holds
    these y, so C is any union of the classes of A under T.  A reads only
    T on G, the columns of the lower covers of t, and the sets C only A
    and T on the columns of A, or on its rows for the saturated kind, so
    both are memoized per layer.  Each layer is kept sorted: the systems of
    the last one are grouped, in order, by the key of their extension set,
    and each extension e of a group gives the run T | e over the group,
    sorted, as e adds only pairs (x, t) that no T holds; one sort then
    merges the runs.  An atom's layer is uniform: every system doubles by
    (bottom, t), which lies above every bit that tells the last layer
    apart, as the atoms come in increasing label; it needs no sort.  Each
    system extends at least by C empty, so no layer outgrows the next, and
    the size of each is counted from the groups before it is built; one
    that would pass `guard` raises SizeLimit.
    """
    closure = closure_for(lat)
    n, col, diag, meet, up = lat.n, closure.col, closure.diag, lat.meet, lat.up
    pairs = closure.full ^ diag  # the bits that tell systems apart
    search.check_width(pairs.bit_length(), guard)
    limit = sys.maxsize if guard is None else guard
    order = _bottom_up(lat)
    elements = [x for x, _ in order]
    layer = [diag]  # the one system on bottom alone
    if limit < 1:
        raise SizeLimit(f"the search passed its guard of {guard} leaves")
    for t, lower in order[1:]:
        below = [x for x in elements if up[x] >> t & 1 and x != t]
        G = sum(col << c for c in lower) & pairs
        # the pairs that x in A asks of T, off the diagonal; T & G holds
        # at least `least` of them when A is not empty
        need = [(x, sum(1 << meet[x][c] * n + c for c in lower) & pairs) for x in below]
        least = min(m.bit_count() for _, m in need)

        def admitted(g):  # A, as a mask of elements, from T & G
            return sum(1 << x for x, m in need if m & g == m)

        def read(A):  # the bits of T that the extensions in A read; 0 when A is empty
            rows = sum(A << x * n for x in _bits(A)) if saturated else col * A
            return (rows | G) & pairs if A else 0

        A = admitted(0)
        if not G and not read(A):  # every T has this A and one extension set
            extra = _extensions(layer[0], A, below, n, t, col, saturated)
            if len(layer) * (len(extra) + 1) > limit:
                raise SizeLimit(f"the search passed its guard of {guard} leaves")
            # atoms come in increasing label, and each adds (bottom, t) above
            # every bit that tells the last layer apart: the layer stays sorted
            layer += [T | e for e in extra for T in layer]
            continue
        known, groups = {}, {}
        for T in layer:
            g = T & G
            if least and g.bit_count() < least:
                continue
            try:
                mask = known[g]
            except KeyError:
                mask = known[g] = read(admitted(g))
            if mask:  # 0 only when A is empty, as mask holds G
                try:
                    groups[T & mask].append(T)
                except KeyError:
                    groups[T & mask] = [T]
        # the key holds T & G, so it fixes A
        extended = [(group, _extensions(group[0], admitted(key & G), below, n, t, col, saturated))
                    for key, group in groups.items()]
        if len(layer) + sum(len(group) * len(extra) for group, extra in extended) > limit:
            raise SizeLimit(f"the search passed its guard of {guard} leaves")
        for group, extra in extended:
            layer += [T | e for e in extra for T in group]
        layer.sort()
    return layer


def _extensions(T, A, below, n, t, col, saturated):
    """The pairs (x, t), x in C, for every nonempty C that T admits in A."""
    out = [0]
    if saturated:
        # the classes of A under x T y: A holds every y < t with x T y
        classes = []
        for x in _bits(A):
            joined = T >> x * n & A | 1 << x
            for c in [c for c in classes if c & joined]:
                classes.remove(c)
                joined |= c
            classes.append(joined)
        for c in classes:
            pairs = sum(1 << y * n + t for y in _bits(c))
            out += [e | pairs for e in out]
    else:
        # in height order, x joins every ideal that holds all y T x
        for x in below:
            if A >> x & 1:
                bit = 1 << x * n + t
                needs = (T >> x & col) << t ^ bit
                out += [e | bit for e in out if not needs & ~e]
    return out[1:]


# `jobs` is ignored and kept only because benchmarks/record.py passes it
def enumerate_transfer_systems(lat, guard=search.MAX_LEAVES, jobs=1):
    """All transfer systems on `lat`, as a TrLattice.

    Lists them serially, by adjoining one element at a time (`_layers`).
    More than `guard` systems raise SizeLimit; None is no limit.
    """
    return TrLattice._from_sorted_bits(lat, _layers(lat, guard, saturated=False))


def enumerate_saturated_systems(lat, guard=search.MAX_LEAVES):
    """All saturated transfer systems, enumerated directly.

    The same serial layers with two-out-of-three asked of each extension,
    so the count is independent of full Tr enumeration.  More than `guard`
    systems raise SizeLimit; None is no limit.
    """
    return [TransferSystem._wrap(lat, b) for b in _layers(lat, guard, saturated=True)]
