"""The matchstick game: saturated covers on modular lattices.

A saturated cover is a set Q of covering relations such that
(1) x Q (x v y) forces (x ^ y) Q y, and
(2) no covering diamond has exactly three of its four edges in Q.
On a finite modular lattice these are in bijection with the saturated
transfer systems, by generation one way and by taking covering relations
the other.

A cover is stored like a transfer system (`trsys.transfer`): the edge
(x, y) is bit x*n + y, so the cover of a saturated system is its bits
under the mask of the covering relations, and a cover's system is the
closure of its bits.  The rule tables below are keyed by these positions.
"""
from __future__ import annotations

from dataclasses import dataclass

from . import search
from .errors import (
    InvalidCover,
    NotModular,
    NotSaturated,
    SizeLimit,
)
from .lattice import _bits
from .transfer import TransferSystem, _Relation, closure_for


@dataclass(frozen=True)
class CoverViolation:
    """Rule 0 is that every bit is a covering relation; rules 1 and 2 are
    the two matchstick rules."""

    rule: int
    witness: tuple

    def __str__(self):
        if self.rule == 0:
            return f"{self.witness} is not a covering relation"
        return f"rule ({self.rule}) violated at {self.witness}"


def _cover_mask(lat):
    """The bits of every covering relation of `lat`; cached."""
    mask = lat._cache.get("cover_mask")
    if mask is None:
        mask = lat._cache["cover_mask"] = sum(1 << x * lat.n + y for x, y in lat.covers)
    return mask


def covering_diamonds(lat):
    """All tetrads (m, x, y, j) whose four bounding relations are covers,
    as 4-tuples of the positions x*n + y of their edges (mx, my, xj, yj)."""
    cached = lat._cache.get("diamonds")
    if cached is not None:
        return cached
    n, up, meet, join = lat.n, lat.up, lat.meet, lat.join
    cover = _cover_mask(lat)
    out = []
    for x in range(n):
        for y in range(x + 1, n):
            if up[x] >> y & 1 or up[y] >> x & 1:
                continue
            m, j = meet[x][y], join[x][y]
            quad = (m * n + x, m * n + y, x * n + j, y * n + j)
            if all(cover >> p & 1 for p in quad):
                out.append(quad)
    lat._cache["diamonds"] = out
    return out


def rule_one_implications(lat):
    """Implication graph over cover edges, keyed by position x*n + y in
    increasing order: edge (x, x v y) forces (x ^ y, y).  Built once per
    lattice; modularity guarantees the forced pair is itself a cover, and
    a missing one certifies non-modularity."""
    cached = lat._cache.get("rule_one")
    if cached is not None:
        return cached
    n, meet, join = lat.n, lat.meet, lat.join
    cover = _cover_mask(lat)
    implies = {p: set() for p in _bits(cover)}
    for x in range(n):
        for y in range(n):
            j, m = join[x][y], meet[x][y]
            src, dst = x * n + j, m * n + y
            if j == x or m == y or not cover >> src & 1:
                continue
            if not cover >> dst & 1:
                raise NotModular(f"{j} covers {x} but {y} does not cover {m}")
            if dst != src:
                implies[src].add(dst)
    cached = lat._cache["rule_one"] = {p: tuple(sorted(s)) for p, s in implies.items()}
    return cached


def find_cover_violation(lat, bits):
    """First violated saturated-cover rule, or None.

    `bits` holds the edge (x, y) at position x*n + y.  A bit at a position
    that is not a covering relation violates rule 0 (a negative int has
    such bits at every high position), with the pair of the lowest such
    position as witness, or () when it lies outside the n x n matrix.
    Diamonds are scanned before the restriction rule so that a
    three-of-four configuration is reported as such even when it also
    breaks rule (1).
    """
    n = lat.n
    stray = bits & ~_cover_mask(lat)
    if stray:
        low = (stray & -stray).bit_length() - 1
        return CoverViolation(0, divmod(low, n) if low < n * n else ())
    for quad in covering_diamonds(lat):
        inside = sum(bits >> p & 1 for p in quad)
        if inside == 3:
            missing = next(p for p in quad if not bits >> p & 1)
            return CoverViolation(2, tuple(divmod(p, n) for p in quad + (missing,)))
    for p, targets in rule_one_implications(lat).items():
        if bits >> p & 1:
            for t in targets:
                if not bits >> t & 1:
                    return CoverViolation(1, (divmod(p, n), divmod(t, n)))
    return None


class SaturatedCover(_Relation):
    """An immutable saturated cover on a modular lattice."""

    __slots__ = ()

    def __init__(self, lattice, bits):
        if not lattice.is_modular():
            raise NotModular("saturated covers are defined on modular lattices")
        violation = find_cover_violation(lattice, bits)
        if violation is not None:
            raise InvalidCover(violation)
        super().__init__(lattice, bits)

    @classmethod
    def from_edges(cls, lattice, edge_pairs):
        n = lattice.n
        bits = 0
        for x, y in edge_pairs:
            if not (x in range(n) and y in range(n)):
                raise InvalidCover(CoverViolation(0, (x, y)))
            bits |= 1 << int(x) * n + int(y)
        return cls(lattice, bits)

    edges = _Relation.pairs


class _CoverRules:
    """The two rules as masks over cover-edge bits, in lists indexed by
    position: rule (1) as the edges each edge implies, rule (2) as the
    diamonds that watch each edge."""

    def __init__(self, lat):
        size = lat.n * lat.n
        self.implies = [0] * size
        for p, targets in rule_one_implications(lat).items():
            self.implies[p] = sum(1 << t for t in targets)
        self.watching = [[] for _ in range(size)]
        for quad in covering_diamonds(lat):
            mask = sum(1 << p for p in quad)
            for p in quad:
                self.watching[p].append(mask)

    def propagate(self, inc, exc, e):
        inc |= 1 << e
        work = [e]
        while work:
            e = work.pop()
            absent = ~inc
            forced = self.implies[e] & absent
            for quad in self.watching[e]:
                missing = quad & absent
                if missing and not missing & (missing - 1):  # three of four in
                    forced |= missing
            if forced:
                if forced & exc:
                    return None
                inc |= forced
                while forced:
                    low = forced & -forced
                    work.append(low.bit_length() - 1)
                    forced ^= low
        return inc


def enumerate_saturated_covers(lat, guard=64, jobs=1):
    """All saturated covers, by backtracking over cover edges.

    Rule (1) propagates along precomputed implication masks; rule (2)
    watches each covering diamond, forcing the fourth edge at three-in, so
    no branch holds a three-in diamond and an exclusion cannot strand one.
    Edges are decided by decreasing height of their lower end, then by
    position: rule (1) forces edges downwards, so an edge tends to be
    decided before the edges it forces, which are then still open rather
    than excluded.  The search runs on the engine in `trsys.search`, split
    across worker processes when jobs > 1, and its leaves are wrapped
    without re-validation: the tests and `verify` compare them with the
    subset filter of `oracles.py` and with the saturated systems.
    """
    if not lat.is_modular():
        raise NotModular("saturated covers are defined on modular lattices")
    if guard is not None and len(lat.covers) > guard:
        raise SizeLimit(f"{len(lat.covers)} cover edges exceed guard {guard}")
    rules = _CoverRules(lat)
    n, height = lat.n, lat.height
    order = sorted(_bits(_cover_mask(lat)), key=lambda p: (-height[p // n], p))
    out = search.leaves(order, 0, rules.propagate, jobs=jobs)
    return [SaturatedCover._wrap(lat, b) for b in out]


def cover_to_system(cover):
    """Generate the saturated transfer system of a saturated cover: the
    closure of its bits on `closure_for(lat)`.

    That the result is saturated is the matchstick theorem; the tests and
    `verify` check it by mapping the covers onto the saturated systems.
    """
    lat = cover.lattice
    return TransferSystem._wrap(lat, closure_for(lat).close(cover.bits))


def system_to_cover(system):
    """Covering relations of a saturated transfer system, as a cover: its
    bits under the mask of the covering relations.

    Raises NotModular or NotSaturated outside the bijection.  The result
    is wrapped without re-validation; the tests and `verify` check that the
    images are exactly the enumerated covers.
    """
    lat = system.lattice
    if not lat.is_modular():
        raise NotModular("the bijection requires a modular ambient lattice")
    if not system.is_saturated():
        raise NotSaturated("only saturated systems restrict to saturated covers")
    return SaturatedCover._wrap(lat, system.bits & _cover_mask(lat))
