"""The matchstick game: saturated covers on modular lattices.

A saturated cover is a set Q of covering relations such that
(1) x Q (x v y) forces (x ^ y) Q y, and
(2) no covering diamond has exactly three of its four edges in Q.
On a finite modular lattice these are in bijection with the saturated
transfer systems, by generation one way and by taking covering relations
the other.
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
from .transfer import generate


@dataclass(frozen=True)
class CoverViolation:
    rule: int
    witness: tuple

    def __str__(self):
        return f"rule ({self.rule}) violated at {self.witness}"


def _cover_table(lat):
    cached = lat._cache.get("cover_table")
    if cached is None:
        edges = list(lat.covers)
        cached = (edges, {e: i for i, e in enumerate(edges)})
        lat._cache["cover_table"] = cached
    return cached


def covering_diamonds(lat):
    """All tetrads (m, x, y, j) whose four bounding relations are covers,
    as 4-tuples of cover-edge indices (mx, my, xj, yj)."""
    cached = lat._cache.get("diamonds")
    if cached is not None:
        return cached
    edges, eidx = _cover_table(lat)
    out = []
    for x in range(lat.n):
        for y in range(x + 1, lat.n):
            if lat.leq[x, y] or lat.leq[y, x]:
                continue
            m = int(lat.meet[x, y])
            j = int(lat.join[x, y])
            quad = ((m, x), (m, y), (x, j), (y, j))
            if all(e in eidx for e in quad):
                out.append(tuple(eidx[e] for e in quad))
    lat._cache["diamonds"] = out
    return out


def rule_one_implications(lat):
    """Implication graph over cover edges: edge (x, x v y) forces
    (x ^ y, y).  Built once per lattice; modularity guarantees the forced
    pair is itself a cover, and a missing one certifies non-modularity."""
    cached = lat._cache.get("rule_one")
    if cached is not None:
        return cached
    edges, eidx = _cover_table(lat)
    implies = [set() for _ in edges]
    for x in range(lat.n):
        for y in range(lat.n):
            j = int(lat.join[x, y])
            if j == x:
                continue
            src = eidx.get((x, j))
            if src is None:
                continue
            m = int(lat.meet[x, y])
            if m == y:
                continue
            dst = eidx.get((m, y))
            if dst is None:
                raise NotModular(f"{j} covers {x} but {y} does not cover {m}")
            if dst != src:
                implies[src].add(dst)
    cached = [tuple(sorted(s)) for s in implies]
    lat._cache["rule_one"] = cached
    return cached


def find_cover_violation(lat, bits):
    """First violated saturated-cover rule, or None.

    Diamonds are scanned before the restriction rule so that a
    three-of-four configuration is reported as such even when it also
    breaks rule (1).
    """
    edges, _ = _cover_table(lat)
    for quad in covering_diamonds(lat):
        inside = sum(bits >> e & 1 for e in quad)
        if inside == 3:
            missing = next(e for e in quad if not bits >> e & 1)
            return CoverViolation(2, tuple(edges[e] for e in quad) + (edges[missing],))
    implies = rule_one_implications(lat)
    for i in range(len(edges)):
        if bits >> i & 1:
            for t in implies[i]:
                if not bits >> t & 1:
                    return CoverViolation(1, (edges[i], edges[t]))
    return None


class SaturatedCover:
    """An immutable saturated cover on a modular lattice."""

    __slots__ = ("lattice", "bits")

    def __init__(self, lattice, bits):
        if not lattice.is_modular():
            raise NotModular("saturated covers are defined on modular lattices")
        violation = find_cover_violation(lattice, bits)
        if violation is not None:
            raise InvalidCover(violation)
        object.__setattr__(self, "lattice", lattice)
        object.__setattr__(self, "bits", bits)

    @classmethod
    def _wrap(cls, lattice, bits):
        obj = object.__new__(cls)
        object.__setattr__(obj, "lattice", lattice)
        object.__setattr__(obj, "bits", bits)
        return obj

    @classmethod
    def from_edges(cls, lattice, edge_pairs):
        _, eidx = _cover_table(lattice)
        bits = 0
        for pair in edge_pairs:
            pair = tuple(pair)
            if pair not in eidx:
                raise InvalidCover(f"{pair} is not a covering relation")
            bits |= 1 << eidx[pair]
        return cls(lattice, bits)

    def __setattr__(self, name, value):
        raise AttributeError("SaturatedCover is immutable")

    def edges(self):
        table, _ = _cover_table(self.lattice)
        return [table[i] for i in range(len(table)) if self.bits >> i & 1]

    def __eq__(self, other):
        return (
            isinstance(other, SaturatedCover)
            and self.bits == other.bits
            and self.lattice.same_order(other.lattice)
        )

    def __hash__(self):
        return hash((self.lattice.n, self.lattice.leq.tobytes(), self.bits))

    def __repr__(self):
        return f"SaturatedCover({self.edges()})"


class _CoverRules:
    """The two rules as masks over cover-edge bits: rule (1) as the edges
    each edge implies, rule (2) as the diamonds that watch each edge."""

    def __init__(self, lat):
        self.implies = [sum(1 << t for t in targets) for targets in rule_one_implications(lat)]
        self.watching = [[] for _ in self.implies]
        for quad in covering_diamonds(lat):
            mask = sum(1 << e for e in quad)
            for e in quad:
                self.watching[e].append(mask)

    def propagate(self, inc, exc, e):
        inc |= 1 << e
        work = [e]
        while work:
            e = work.pop()
            forced = self.implies[e] & ~inc
            for quad in self.watching[e]:
                missing = quad & ~inc
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
    index: rule (1) forces edges downwards, so an edge tends to be decided
    before the edges it forces, which are then still open rather than
    excluded.  The search runs on the engine in `trsys.search`, split
    across worker processes when jobs > 1, and its leaves are wrapped
    without re-validation: the tests and `verify` compare them with the
    subset filter of `oracles.py` and with the saturated systems.
    """
    if not lat.is_modular():
        raise NotModular("saturated covers are defined on modular lattices")
    edges, _ = _cover_table(lat)
    if guard is not None and len(edges) > guard:
        raise SizeLimit(f"{len(edges)} cover edges exceed guard {guard}")
    rules = _CoverRules(lat)
    order = sorted(range(len(edges)), key=lambda i: (-lat.height[edges[i][0]], i))
    out = search.leaves(order, 0, rules.propagate, jobs=jobs)
    return [SaturatedCover._wrap(lat, b) for b in out]


def cover_to_system(cover):
    """Generate the saturated transfer system of a saturated cover.

    That the result is saturated is the matchstick theorem; the tests and
    `verify` check it by mapping the covers onto the saturated systems.
    """
    return generate(cover.lattice, cover.edges())


def system_to_cover(system):
    """Covering relations of a saturated transfer system, as a cover.

    Raises NotModular or NotSaturated outside the bijection.  The result
    is wrapped without re-validation; the tests and `verify` check that the
    images are exactly the enumerated covers.
    """
    lat = system.lattice
    if not lat.is_modular():
        raise NotModular("the bijection requires a modular ambient lattice")
    if not system.is_saturated():
        raise NotSaturated("only saturated systems restrict to saturated covers")
    edges, _ = _cover_table(lat)
    n, bits = lat.n, system.bits
    cover = sum(1 << i for i, (x, y) in enumerate(edges) if bits >> x * n + y & 1)
    return SaturatedCover._wrap(lat, cover)
