"""Finite bounded lattices: construction, validation, and queries.

Elements are dense integer indices 0..n-1.  The order matrix, meet/join
tables, cover list, and (when the lattice is graded) the rank function are
all computed at construction time; instances are immutable afterwards and
safe for concurrent reads.
"""
from __future__ import annotations

import itertools
import math

import numpy as np

from .errors import (
    CycleDetected,
    NotALattice,
    NotBounded,
    NotGraded,
    NotPrime,
    SizeLimit,
)


class Lattice:
    """A finite bounded lattice on elements 0..n-1.

    Attributes:
        n: element count.
        names: display label per element.
        leq: n x n boolean matrix, leq[x, y] iff x <= y.
        meet, join: n x n index tables (greatest lower / least upper bound).
        up: one int bitmask per element; bit y of up[x] is set iff x <= y.
        meet_rows, join_rows: the meet and join tables as lists of lists.
        bottom, top: indices of the extremes.
        covers: sorted list of pairs (x, y) with y covering x.
        height: longest cover-path length from bottom, per element.
        rank: rank function as a list, or None when the lattice is not graded.
    """

    def __init__(self, leq, names=None):
        leq = np.array(leq, dtype=bool)
        if leq.ndim != 2 or leq.shape[0] != leq.shape[1]:
            raise ValueError("order matrix must be square")
        n = leq.shape[0]
        if n == 0:
            raise NotBounded("the empty order has no bottom or top")
        _check_partial_order(leq)
        self.n = n
        self.leq = leq
        self.names = [str(i) for i in range(n)] if names is None else list(names)
        if len(self.names) != n:
            raise ValueError("need exactly one name per element")
        self.bottom = _unique_bottom(leq)
        self.top = _unique_top(leq)
        self.meet = _bound_table(leq, lower=True)
        self.join = _bound_table(leq, lower=False)
        # Python views of the tables, for per-element loops, where a numpy
        # scalar read costs far more than a list index or a shift
        packed = np.packbits(leq, axis=1, bitorder="little")
        self.up = [int.from_bytes(row.tobytes(), "little") for row in packed]
        self.meet_rows = self.meet.tolist()
        self.join_rows = self.join.tolist()
        self.covers = _cover_pairs(leq)
        self.height = _heights(self.covers, leq.sum(axis=0))
        graded = all(self.height[y] == self.height[x] + 1 for x, y in self.covers)
        self.rank = list(self.height) if graded else None
        self._modular = None
        self._cache = {}
        for arr in (self.leq, self.meet, self.join):
            arr.flags.writeable = False

    def grading(self):
        """Return the rank function, or raise NotGraded.

        The lattice is graded when every cover raises the height by one;
        the ranks are then the heights, and every maximal chain from bottom
        to an element has the same length.
        """
        if self.rank is None:
            raise NotGraded(f"{self!r} admits no rank function")
        return list(self.rank)

    def is_modular(self):
        """Whether a <= b implies a v (x ^ b) = (a v x) ^ b, decided by
        Dedekind's criterion: the lattice has no pentagonal sublattice
        (see `pentagon_witness`).  Cached."""
        if self._modular is None:
            self._modular = self.pentagon_witness() is None
        return self._modular

    def pentagon_witness(self):
        """Return (x, y, z) spanning a pentagonal sublattice, or None.

        Dedekind's criterion: the lattice is non-modular exactly when some
        x < y and z satisfy x ^ z = y ^ z and x v z = y v z.
        """
        meet, join = self.meet, self.join
        for x in range(self.n):
            for y in range(self.n):
                if x == y or not self.leq[x, y]:
                    continue
                for z in range(self.n):
                    if meet[x, z] == meet[y, z] and join[x, z] == join[y, z]:
                        return (x, y, z)
        return None

    def dual(self):
        """The opposite lattice (order reversed, meet and join swapped)."""
        return Lattice(self.leq.T, names=self.names)

    def same_order(self, other):
        """Identical element count and order matrix (names ignored)."""
        return self is other or (self.n == other.n and np.array_equal(self.leq, other.leq))

    def __repr__(self):
        return f"Lattice(n={self.n}, covers={len(self.covers)})"

    def __getstate__(self):
        state = self.__dict__.copy()
        state["_cache"] = {}
        return state


# -- construction helpers ---------------------------------------------------


def _check_partial_order(leq):
    n = leq.shape[0]
    diag = leq[np.diag_indices(n)]
    if not diag.all():
        raise ValueError("order matrix must be reflexive")
    sym = leq & leq.T
    if int(sym.sum()) != n:
        x, y = np.argwhere(sym & ~np.eye(n, dtype=bool))[0]
        raise CycleDetected(f"elements {x} and {y} are mutually comparable")
    # a bool matmul ORs its terms, so unlike a uint8 count of paths it cannot wrap
    reach = leq @ leq
    if (reach & ~leq).any():
        x, y = np.argwhere(reach & ~leq)[0]
        raise ValueError(f"order not transitive at ({x}, {y})")


def _unique_bottom(leq):
    n = leq.shape[0]
    rows = [x for x in range(n) if leq[x, :].all()]
    if len(rows) != 1:
        raise NotBounded(f"expected one bottom element, found {rows}")
    return rows[0]


def _unique_top(leq):
    n = leq.shape[0]
    cols = [y for y in range(n) if leq[:, y].all()]
    if len(cols) != 1:
        raise NotBounded(f"expected one top element, found {cols}")
    return cols[0]


def _bound_table(leq, lower):
    """Meet (lower=True) or join table via principal-set lookup.

    The greatest lower bound of x, y exists exactly when the set of common
    lower bounds is the principal down-set of one of its members.
    """
    n = leq.shape[0]
    sets = leq.T if lower else leq  # column x = down-set, row x = up-set
    index = {sets[x].tobytes(): x for x in range(n)}
    table = np.zeros((n, n), dtype=np.int64)
    kind = "meet" if lower else "join"
    for x in range(n):
        for y in range(x, n):
            common = sets[x] & sets[y]
            z = index.get(common.tobytes())
            if z is None:
                raise NotALattice(f"elements {x} and {y} have no {kind}")
            table[x, y] = table[y, x] = z
    return table


def _cover_pairs(leq):
    n = leq.shape[0]
    lt = leq & ~np.eye(n, dtype=bool)
    cov = lt & ~(lt @ lt)  # bool, as in _check_partial_order
    return sorted((int(x), int(y)) for x, y in np.argwhere(cov))


def _heights(covers, below_counts):
    """Longest cover-path length up from the minimal elements.

    `below_counts[x]` is the number of elements below x; visiting elements
    by increasing count visits each after everything below it.
    """
    parents_of = [[] for _ in below_counts]
    for x, y in covers:
        parents_of[y].append(x)
    h = [0] * len(below_counts)
    for x in np.argsort(below_counts, kind="stable").tolist():
        for p in parents_of[x]:
            h[x] = max(h[x], h[p] + 1)
    return h


# -- standard families -------------------------------------------------------


def from_order(n, pairs, names=None):
    """Lattice whose order is the reflexive-transitive closure of `pairs`.

    Raises CycleDetected, NotBounded, or NotALattice when the closure is
    not a bounded lattice.
    """
    leq = np.eye(n, dtype=bool)
    for x, y in pairs:
        if not (0 <= x < n and 0 <= y < n):
            raise ValueError(f"pair ({x}, {y}) out of range for n={n}")
        leq[x, y] = True
    for k in range(n):
        leq |= np.outer(leq[:, k], leq[k, :])
    sym = leq & leq.T & ~np.eye(n, dtype=bool)
    if sym.any():
        x, y = np.argwhere(sym)[0]
        raise CycleDetected(f"generating pairs force a cycle through {x} and {y}")
    return Lattice(leq, names=names)


def chain(m):
    """The (m+1)-element total order 0 < 1 < ... < m."""
    if m < 0:
        raise ValueError("chain length must be nonnegative")
    n = m + 1
    leq = np.triu(np.ones((n, n), dtype=bool))
    return Lattice(leq)


def boolean_cube(k, max_k=20):
    """Subsets of a k-set ordered by inclusion, as bitmask elements."""
    if k > max_k:
        raise SizeLimit(f"boolean_cube({k}) exceeds guard {max_k}")
    n = 1 << k
    idx = np.arange(n)
    leq = (idx[:, None] & ~idx[None, :]) == 0
    names = [format(i, f"0{k}b") if k else "0" for i in range(n)]
    return Lattice(leq, names=names)


def product(p, q, max_n=4096):
    """Componentwise-ordered product; element (i, j) has index i*q.n + j."""
    if p.n * q.n > max_n:
        raise SizeLimit(f"product would have {p.n * q.n} elements (guard {max_n})")
    leq = np.kron(p.leq, q.leq)
    names = [f"({a},{b})" for a in p.names for b in q.names]
    return Lattice(leq, names=names)


def fusion(*operands):
    """Glue bounded lattices along their extremes.

    The result has a fresh bottom at 0 and top last; the interiors of the
    operands are embedded in turn as blocks side by side, and kept mutually
    incomparable.  Operands are always relabelled, so fusing a lattice with
    itself is well defined.
    """
    interiors = [[x for x in range(p.n) if x not in (p.bottom, p.top)] for p in operands]
    n = 2 + sum(map(len, interiors))
    leq = np.eye(n, dtype=bool)
    leq[0, :] = True
    leq[:, n - 1] = True
    start = 1
    for p, interior in zip(operands, interiors):
        stop = start + len(interior)
        leq[start:stop, start:stop] = p.leq[np.ix_(interior, interior)]
        start = stop
    return Lattice(leq)


def iterated_fusion(p, k):
    """k-fold fusion of p with itself; k=0 is the two-point lattice [1]
    and k=1 is p."""
    if k < 0:
        raise ValueError("fusion exponent must be nonnegative")
    if k == 0:
        return chain(1)
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
    return Lattice(lat.leq, names=names)


def _is_prime(p):
    if p < 2:
        return False
    for d in range(2, int(math.isqrt(p)) + 1):
        if p % d == 0:
            return False
    return True


# -- canonical forms and isomorphism ----------------------------------------


def canonical_form(lat, max_perms=5_000_000):
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
        if total > max_perms:
            raise SizeLimit(f"canonical form needs {total}+ permutations (guard {max_perms})")
    leq = lat.leq
    best = None
    for perm_parts in itertools.product(*(itertools.permutations(g) for g in ordered)):
        perm = [x for part in perm_parts for x in part]
        key = leq[perm][:, perm].tobytes()
        if best is None or key < best:
            best = key
    return (lat.n, tuple(sorted(groups)), best)


def _refined_classes(lat):
    n = lat.n
    parents_of = {x: [] for x in range(n)}
    children_of = {x: [] for x in range(n)}
    for x, y in lat.covers:
        parents_of[x].append(y)
        children_of[y].append(x)
    coheight = _heights([(y, x) for x, y in lat.covers], lat.leq.sum(axis=1))
    sig = [
        (
            lat.height[x],
            coheight[x],
            len(parents_of[x]),
            len(children_of[x]),
            int(lat.leq[:, x].sum()),
            int(lat.leq[x, :].sum()),
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
        if new == labels:
            return labels
        labels = new


def _compress(signatures):
    order = {s: i for i, s in enumerate(sorted(set(signatures), key=repr))}
    return [order[s] for s in signatures]


def is_isomorphic(p, q, max_perms=5_000_000):
    if p.n != q.n or len(p.covers) != len(q.covers):
        return False
    return canonical_form(p, max_perms) == canonical_form(q, max_perms)


def all_lattices(n):
    """All bounded lattices on exactly n elements, up to isomorphism.

    Works by filtering every transitive upper-triangular order matrix, so
    it is only meant for small n (n <= 6 stays under a second or two).
    """
    if n > 6:
        raise SizeLimit("all_lattices is exhaustive search; n <= 6 only")
    if n == 0:
        return []
    out = []
    seen = set()
    free = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for bits in range(1 << len(free)):
        leq = np.eye(n, dtype=bool)
        for k, (i, j) in enumerate(free):
            if bits >> k & 1:
                leq[i, j] = True
        closed = leq.copy()
        for k in range(n):
            closed |= np.outer(closed[:, k], closed[k, :])
        if not np.array_equal(closed, leq):
            continue
        try:
            lat = Lattice(leq)
        except (NotALattice, NotBounded):
            continue
        key = canonical_form(lat)
        if key not in seen:
            seen.add(key)
            out.append(lat)
    return out


# -- serialization -----------------------------------------------------------


def lattice_to_json(lat):
    """JSON form: generating (cover) pairs only; closure is recomputed on load."""
    return {
        "n": lat.n,
        "names": list(lat.names),
        "leq_pairs": [[x, y] for x, y in lat.covers],
    }


def lattice_from_json(obj):
    return from_order(obj["n"], [tuple(p) for p in obj["leq_pairs"]], names=obj.get("names"))


def lattice_to_dot(lat, title="lattice"):
    """Hasse diagram (covers only), drawn bottom-up."""
    lines = [f'digraph "{title}" {{', "  rankdir=BT;", "  node [shape=circle];"]
    for x in range(lat.n):
        lines.append(f'  v{x} [label="{lat.names[x]}"];')
    for x, y in lat.covers:
        lines.append(f"  v{x} -> v{y};")
    lines.append("}")
    return "\n".join(lines) + "\n"
