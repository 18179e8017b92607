"""Finite bounded lattices: construction, validation, and queries.

Elements are dense integer indices 0..n-1.  A lattice is one int row per
element, its up-set, built directly by the families below or read off an
order matrix; the down-sets are the transposed rows, and every table comes
from the two: the partial-order check, bottom and top, meet and join,
covers, heights and ranks.  Instances are immutable and safe for concurrent
reads.  `_bits` and `_byte_tables` read the set bits of a row, one by one
or a byte at a time, and `per_lattice` builds each derived table once.
"""
from __future__ import annotations

import itertools
import math

from .errors import (
    CycleDetected,
    InvalidInput,
    NotALattice,
    NotBounded,
    NotGraded,
    NotPrime,
    SizeLimit,
)


MAX_CUBE_DIMENSION = 20  # the size guards of boolean_cube, product and canonical_form
MAX_PRODUCT_ELEMENTS = 4096
MAX_CANONICAL_PERMUTATIONS = 5_000_000
MAX_ALL_LATTICES = 10  # 5,994 lattices in a few seconds; 11 elements give 37,622


def _bits(mask):
    """The positions of the set bits of `mask`, in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _byte_tables(values, join=None, empty=0):
    """Per byte of a bitset, a table from its value to the OR of values[j]
    over its set bits j or, given `join` and `empty` (for text, ""), their
    `join`, lowest bit first.  An empty value adds nothing to an entry, and
    an OR that adds nothing to an operand is that operand, so that tables of
    large ints, such as the joins of `characteristic._height_order`, share them."""
    values = list(values)
    values += [empty] * (-len(values) % 8)
    tables = []
    for base in range(0, len(values), 8):
        table = [empty] * 256
        for v in range(1, 256):
            low = v & -v
            value, rest = values[base + low.bit_length() - 1], table[v ^ low]
            if not (value and rest):
                table[v] = value or rest
            elif join is not None:
                table[v] = join(value, rest)
            else:
                both = rest | value
                table[v] = rest if both == rest else value if both == value else both
        tables.append(table)
    return tables


def _gather(tables, bits):
    """OR of `values[j]` over the set bits j of `bits` (see _byte_tables)."""
    out = 0
    for table in tables:
        out |= table[bits & 255]
        if not (bits := bits >> 8):
            break
    return out


def per_lattice(build):
    """Decorator: `build(lat)` is computed once per lattice and kept in its
    `_cache`, which pickling drops."""

    def table(lat):
        try:
            return lat._cache[build]
        except KeyError:
            value = lat._cache[build] = build(lat)
            return value

    table.__doc__ = build.__doc__
    return table


class Lattice:
    """A finite bounded lattice on elements 0..n-1.

    Attributes:
        n: element count.
        names: display label per element.
        up: one int bitmask per element; bit y of up[x] is set iff x <= y.
        leq: the n x n numpy bool matrix of `up` (read-only, built on first read).
        meet, join: n x n index tables (greatest lower / least upper
            bound) as lists of lists, read meet[x][y]; do not mutate them.
        bottom, top: indices of the extremes.
        covers: sorted list of pairs (x, y) with y covering x.
        height: longest cover-path length from bottom, per element.
        rank: rank function as a list, or None when the lattice is not graded.
    """

    def __init__(self, leq, names=None, *, _up=None):
        # `leq` is nested lists or an array; the builders below pass `_up` rows
        up = _matrix_rows(leq) if _up is None else _up
        n = len(up)
        if n == 0:
            raise NotBounded("the empty order has no bottom or top")
        self.up, self._down = up, _transpose(up)
        _check_partial_order(self.up, self._down)
        self.n = n
        self.names = [str(i) for i in range(n)] if names is None else list(names)
        if len(self.names) != n:
            raise ValueError("need exactly one name per element")
        self.bottom = _extreme(self.up, "bottom")
        self.top = _extreme(self._down, "top")
        self.meet = _bound_table(self._down, "meet")
        self.join = _bound_table(self.up, "join")
        self.covers = _cover_pairs(self.up)
        self.height = _heights(self.covers, [d.bit_count() for d in self._down])
        graded = all(self.height[y] == self.height[x] + 1 for x, y in self.covers)
        self.rank = list(self.height) if graded else None
        self._cache = {}

    @property
    @per_lattice
    def leq(self):
        """leq[x, y] iff x <= y, read off `up`; numpy is imported here."""
        import numpy as np

        leq = np.array([[row >> y & 1 for y in range(self.n)] for row in self.up], dtype=bool)
        leq.flags.writeable = False
        return leq

    def grading(self):
        """Return the rank function, or raise NotGraded.

        The lattice is graded when every cover raises the height by one;
        the ranks are then the heights, and every maximal chain from bottom
        to an element has the same length.
        """
        if self.rank is None:
            raise NotGraded(f"{self!r} admits no rank function")
        return list(self.rank)

    @per_lattice
    def is_modular(self):
        """Whether a <= b implies a v (x ^ b) = (a v x) ^ b, decided by
        Dedekind's criterion: the lattice has no pentagonal sublattice
        (see `pentagon_witness`).  Built once, by `per_lattice`."""
        return self.pentagon_witness() is None

    def pentagon_witness(self):
        """Return (x, y, z) spanning a pentagonal sublattice, or None.

        Dedekind's criterion: the lattice is non-modular exactly when some
        x < y and z satisfy x ^ z = y ^ z and x v z = y v z.
        """
        meet, join = self.meet, self.join
        for x in range(self.n):
            for y in _bits(self.up[x] & ~(1 << x)):
                mx, my, jx, jy = meet[x], meet[y], join[x], join[y]
                for z in range(self.n):
                    if mx[z] == my[z] and jx[z] == jy[z]:
                        return (x, y, z)
        return None

    def dual(self):
        """The opposite lattice (order reversed, meet and join swapped)."""
        return Lattice(None, self.names, _up=list(self._down))

    def same_order(self, other):
        """Identical element count and order (names ignored)."""
        return self is other or self.up == other.up

    def __repr__(self):
        return f"Lattice(n={self.n}, covers={len(self.covers)})"

    def __getstate__(self):
        state = self.__dict__.copy()
        state["_cache"] = {}
        return state


# -- construction helpers ---------------------------------------------------


def _matrix_rows(leq):
    """Row x of the square bool matrix `leq` as an int, bit y for column y."""
    try:
        square = all(len(row) == len(leq) for row in leq)
    except TypeError:  # a scalar, or a row that is one
        square = False
    if not square:
        raise ValueError("order matrix must be square")
    return [sum(bool(v) << y for y, v in enumerate(row)) for row in leq]


def _transpose(rows):
    """The columns of a square bit matrix given by its int rows."""
    cols = [0] * len(rows)
    for x, row in enumerate(rows):
        for y in _bits(row):
            cols[y] |= 1 << x
    return cols


def _check_partial_order(up, down):
    """Reflexive, then antisymmetric, then transitive; each failure names
    its first row-major witness."""
    n = len(up)
    if any(not row >> x & 1 for x, row in enumerate(up)):
        raise ValueError("order matrix must be reflexive")
    for x in range(n):
        both = up[x] & down[x] & ~(1 << x)
        if both:
            raise CycleDetected(f"elements {x} and {next(_bits(both))} are mutually comparable")
    for x in range(n):
        reach = 0
        for y in _bits(up[x]):
            reach |= up[y]
        missing = reach & ~up[x]
        if missing:
            raise ValueError(f"order not transitive at ({x}, {next(_bits(missing))})")


def _extreme(rows, kind):
    """The one element whose row holds every element: the bottom on the
    up-sets, the top on the down-sets."""
    full = (1 << len(rows)) - 1
    found = [x for x, row in enumerate(rows) if row == full]
    if len(found) != 1:
        raise NotBounded(f"expected one {kind} element, found {found}")
    return found[0]


def _bound_table(sets, kind):
    """The meet table on the down-sets, or the join table on the up-sets.

    The greatest lower bound of x, y exists exactly when the set of common
    lower bounds is the principal down-set of one of its members.
    """
    n = len(sets)
    index = {s: x for x, s in enumerate(sets)}
    table = [[0] * n for _ in range(n)]
    for x in range(n):
        row = table[x]
        for y in range(x, n):
            z = index.get(sets[x] & sets[y])
            if z is None:
                raise NotALattice(f"elements {x} and {y} have no {kind}")
            row[y] = table[y][x] = z
    return table


def _cover_pairs(up):
    """The minimal elements of each strict up-set, as sorted pairs."""
    out = []
    for x, row in enumerate(up):
        strict = row & ~(1 << x)
        above = 0
        for y in _bits(strict):
            above |= up[y] & ~(1 << y)
        out.extend((x, y) for y in _bits(strict & ~above))
    return out


def _heights(covers, below_counts):
    """Longest cover-path length up from the minimal elements.

    `below_counts[x]` is the number of elements below x; visiting elements
    by increasing count visits each after everything below it.
    """
    parents_of = [[] for _ in below_counts]
    for x, y in covers:
        parents_of[y].append(x)
    h = [0] * len(below_counts)
    for x in sorted(range(len(below_counts)), key=below_counts.__getitem__):
        for p in parents_of[x]:
            h[x] = max(h[x], h[p] + 1)
    return h


@per_lattice
def _bottom_up(lat):
    """Each element with its lower covers, in height order."""
    lower = [[] for _ in range(lat.n)]
    for x, y in lat.covers:
        lower[y].append(x)
    return [(x, lower[x]) for x in sorted(range(lat.n), key=lat.height.__getitem__)]


# -- standard families -------------------------------------------------------


def from_order(n, pairs, names=None):
    """Lattice whose order is the reflexive-transitive closure of `pairs`.

    Raises CycleDetected, NotBounded, or NotALattice when the closure is
    not a bounded lattice.
    """
    up = [1 << x for x in range(n)]
    for x, y in pairs:
        if not (0 <= x < n and 0 <= y < n):
            raise ValueError(f"pair ({x}, {y}) out of range for n={n}")
        up[x] |= 1 << y
    for k in range(n):  # Warshall: every row that holds k gains row k
        row, bit = up[k], 1 << k
        up = [r | row if r & bit else r for r in up]
    return Lattice(None, names, _up=up)


def chain(m):
    """The (m+1)-element total order 0 < 1 < ... < m."""
    if m < 0:
        raise ValueError("chain length must be nonnegative")
    return Lattice(None, _up=[(1 << m + 1) - (1 << x) for x in range(m + 1)])


def boolean_cube(k):
    """Subsets of a k-set ordered by inclusion, as bitmask elements."""
    if k < 0:
        raise ValueError("cube dimension must be nonnegative")
    if k > MAX_CUBE_DIMENSION:
        raise SizeLimit(f"boolean_cube({k}) exceeds guard {MAX_CUBE_DIMENSION}")
    up = [1]  # the supersets of x in cube(i + 1): with and without i, or with i
    for i in range(k):
        half = 1 << i
        up = [row | row << half for row in up] + [row << half for row in up]
    names = [format(i, f"0{k}b") if k else "0" for i in range(1 << k)]
    return Lattice(None, names, _up=up)


def product(p, q):
    """Componentwise-ordered product; element (i, j) has index i*q.n + j."""
    if p.n * q.n > MAX_PRODUCT_ELEMENTS:
        raise SizeLimit(f"product would have {p.n * q.n} elements (guard {MAX_PRODUCT_ELEMENTS})")
    # row j of q copied to block a for each a >= i, by a product without carries
    blocks = [sum(1 << a * q.n for a in _bits(row)) for row in p.up]
    names = [f"({a},{b})" for a in p.names for b in q.names]
    return Lattice(None, names, _up=[block * row for block in blocks for row in q.up])


def fusion(*operands):
    """Glue bounded lattices along their extremes.

    The result has a fresh bottom at 0 and top last; the interiors of the
    operands are embedded in turn as blocks side by side, and kept mutually
    incomparable.  Operands are always relabelled, so fusing a lattice with
    itself is well defined.
    """
    interiors = [[x for x in range(p.n) if x not in (p.bottom, p.top)] for p in operands]
    n = 2 + sum(map(len, interiors))
    top = 1 << n - 1
    up = [2 * top - 1]
    for p, interior in zip(operands, interiors):
        index = {x: len(up) + i for i, x in enumerate(interior)}
        up += [top | sum(1 << index[y] for y in _bits(p.up[x]) if y in index) for x in interior]
    up.append(top)
    return Lattice(None, _up=up)


def iterated_fusion(p, k):
    """k-fold fusion of p with itself; k=0 is the two-point lattice [1]
    and k=1 is p."""
    if k < 0:
        raise ValueError("fusion exponent must be nonnegative")
    if k == 1:
        return p
    return fusion(*[p] * k)


def sub_cp_cp(p):
    """The subgroup lattice of C_p x C_p: bottom, p+1 middles, top."""
    if not _is_prime(p):
        raise NotPrime(f"{p} is not prime")
    if p > 101:
        raise SizeLimit(f"sub_cp_cp guard is p <= 101, got {p}")
    lat = iterated_fusion(chain(2), p + 1)
    names = ["e"] + [f"H{i}" for i in range(1, p + 2)] + ["G"]
    return Lattice(None, names, _up=lat.up)


def _is_prime(p):
    if p < 2:
        return False
    for d in range(2, int(math.isqrt(p)) + 1):
        if p % d == 0:
            return False
    return True


# -- canonical forms and isomorphism ----------------------------------------


def canonical_form(lat):
    """Isomorphism-invariant key: lexicographically minimal order matrix.

    Elements are first partitioned by iterated structural invariants
    (height, co-height, cover degrees, then neighbour classes to a fixed
    point); the minimum is then taken over all class-respecting
    permutations.  Equal keys imply isomorphic lattices and conversely.
    """
    classes = _refined_classes(lat)
    groups = {}
    for x, c in enumerate(classes):
        groups.setdefault(c, []).append(x)
    ordered = [groups[c] for c in sorted(groups)]
    total = 1
    for g in ordered:
        total *= math.factorial(len(g))
        if total > MAX_CANONICAL_PERMUTATIONS:
            raise SizeLimit(f"canonical form needs {total}+ permutations (guard {MAX_CANONICAL_PERMUTATIONS})")
    up = lat.up
    best = None
    for perm_parts in itertools.product(*(itertools.permutations(g) for g in ordered)):
        perm = [x for part in perm_parts for x in part]
        key = bytes([up[x] >> y & 1 for x in perm for y in perm])
        if best is None or key < best:
            best = key
    return (lat.n, tuple(sorted(groups)), best)


def _refined_classes(lat):
    n = lat.n
    parents_of = [[] for _ in range(n)]
    children_of = [[] for _ in range(n)]
    for x, y in lat.covers:
        parents_of[x].append(y)
        children_of[y].append(x)
    above = [row.bit_count() for row in lat.up]
    below = [row.bit_count() for row in lat._down]
    coheight = _heights([(y, x) for x, y in lat.covers], above)
    sig = [
        (
            lat.height[x],
            coheight[x],
            len(parents_of[x]),
            len(children_of[x]),
            below[x],
            above[x],
        )
        for x in range(n)
    ]
    labels = _compress(sig)
    while True:
        sig = [
            (
                labels[x],
                tuple(sorted(labels[y] for y in parents_of[x])),
                tuple(sorted(labels[y] for y in children_of[x])),
            )
            for x in range(n)
        ]
        new = _compress(sig)
        # the numbering of equal partitions can differ from round to
        # round, so the fixed point is the one of the class count
        if len(set(new)) == len(set(labels)):
            return labels
        labels = new


def _compress(signatures):
    order = {s: i for i, s in enumerate(sorted(set(signatures), key=repr))}
    return [order[s] for s in signatures]


def is_isomorphic(p, q):
    return p.n == q.n and len(p.covers) == len(q.covers) and canonical_form(p) == canonical_form(q)


def all_lattices(n):
    """All bounded lattices on exactly n elements, up to isomorphism; each
    order matrix is upper triangular, with bottom 0 and top n - 1.  Deleting
    an atom leaves a lattice, so each one on n >= 3 elements is one on n - 1
    plus an atom a, at index 1, below a set F of non-bottom elements in which
    every F & up(x), x not bottom, has a least element a v x (so F is an
    up-set); `canonical_form` drops the duplicates."""
    if n < 0:
        raise ValueError("lattice size must be nonnegative")
    if n > MAX_ALL_LATTICES:
        raise SizeLimit(f"all_lattices({n}) exceeds guard {MAX_ALL_LATTICES}")
    level = [chain(min(n, 2) - 1)] if n else []
    for m in range(2, n):
        grown, top = {}, 1 << m - 1
        for lat, middle in itertools.product(level, range(1 << m - 2)):
            up, above = lat.up, top | middle << 1
            if all(up[x] & above in up for x in _bits(2 * top - 2)):
                # the atom enters at index 1 and shifts the others past bottom
                child = Lattice(None, _up=[4 * top - 1, 2 | above << 1] + [row << 1 for row in up[1:]])
                grown.setdefault(canonical_form(child), child)
        level = list(grown.values())
    return level


# -- serialization -----------------------------------------------------------


def lattice_to_json(lat):
    """JSON form: generating (cover) pairs only; closure is recomputed on load."""
    return {
        "n": lat.n,
        "names": list(lat.names),
        "leq_pairs": [[x, y] for x, y in lat.covers],
    }


def lattice_from_json(obj):
    """The lattice of `lattice_to_json`.  Raises InvalidInput unless "n" is an
    int, each of "leq_pairs" two ints and "names", if given, n distinct strings."""
    n, pairs, names = obj["n"], [tuple(p) for p in obj["leq_pairs"]], obj.get("names")
    if type(n) is not int:  # not a bool either
        raise InvalidInput(f"lattice JSON: n must be an int, got {n!r}")
    if not all(len(p) == 2 and type(p[0]) is type(p[1]) is int for p in pairs):
        raise InvalidInput("lattice JSON: each of leq_pairs must be two ints")
    if names is not None and not (type(names) is list and len(names) == n
                                  and all(type(name) is str for name in names) and len(set(names)) == n):
        raise InvalidInput(f"lattice JSON: names must be a list of {n} distinct strings")
    return from_order(n, pairs, names=names)


def dot_digraph(title, node_style, labels, edges, prefix="v"):
    """A DOT digraph drawn bottom-up, the one builder of every DOT text: node
    `{prefix}{i}` carries the i-th of `labels`, and each (x, y, style) of
    `edges` runs from node x to node y, with the attributes `style`, if any."""
    lines = [f'digraph "{_dot_escape(title)}" {{', "  rankdir=BT;", f"  node [{node_style}];"]
    lines += (f'  {prefix}{i} [label="{_dot_escape(label)}"];' for i, label in enumerate(labels))
    lines += (f"  {prefix}{x} -> {prefix}{y}{f' [{style}]' if style else ''};" for x, y, style in edges)
    lines.append("}")
    return "\n".join(lines) + "\n"


def _dot_escape(text):
    """`text` inside a DOT quoted string: each backslash and quote escaped."""
    return str(text).replace("\\", "\\\\").replace('"', '\\"')


def lattice_to_dot(lat, title="lattice"):
    """Hasse diagram (covers only), drawn bottom-up."""
    return dot_digraph(title, "shape=circle", lat.names, ((x, y, "") for x, y in lat.covers))
