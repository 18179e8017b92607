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
closure of its bits.  Every function below reads the one object of the
game per lattice, `_CoverRules`, whose tables are keyed by these positions.
"""
from __future__ import annotations

from dataclasses import dataclass

from . import search
from .errors import InvalidCover, NotModular, NotSaturated
from .lattice import _bits, per_lattice
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


def covering_diamonds(lat):
    """All tetrads (m, x, y, j) whose four bounding relations are covers,
    as 4-tuples of the positions x*n + y of their edges (mx, my, xj, yj)."""
    return _rules(lat).diamonds


def find_cover_violation(lat, bits):
    """First violated saturated-cover rule, or None.

    `bits` holds the edge (x, y) at position x*n + y.  A bit at a position
    that is not a covering relation violates rule 0 (a negative int has
    such bits at every high position), with the pair of the lowest such
    position as witness, or () when it lies outside the n x n matrix.
    Diamonds are scanned before the restriction rule so that a
    three-of-four configuration is reported as such even when it also
    breaks rule (1), which raises NotModular where modularity fails.
    """
    n, rules = lat.n, _rules(lat)
    stray = bits & ~rules.cover
    if stray:
        low = (stray & -stray).bit_length() - 1
        return CoverViolation(0, divmod(low, n) if low < n * n else ())
    for quad, mask in zip(rules.diamonds, rules.diamond_masks):
        if (bits & mask).bit_count() == 3:
            missing = next(p for p in quad if not bits >> p & 1)
            return CoverViolation(2, tuple(divmod(p, n) for p in quad + (missing,)))
    if rules.refusal:
        raise NotModular(rules.refusal)
    for p in _bits(bits):
        missing = rules.implies[p] & ~bits
        if missing:
            return CoverViolation(1, (divmod(p, n), divmod((missing & -missing).bit_length() - 1, n)))
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
    """The game on one lattice, built once by `_rules`: the mask `cover`
    of the covering relations, per position p the mask `implies[p]` of the
    edges rule (1) forces from edge p and the masks `watching[p]` of the
    covering diamonds that hold it, the `diamonds` as position tuples with
    their masks `diamond_masks`, and the search's branch `order`.  On a
    lattice where a forced pair is no cover, `refusal` names the first such
    pair, and rule (1) is not read: `find_cover_violation` raises it as
    NotModular after rules 0 and 2."""

    def __init__(self, lat):
        n, up, height, meet, join = lat.n, lat.up, lat.height, lat.meet, lat.join
        size = n * n
        self.cover = cover = sum(1 << x * n + y for x, y in lat.covers)
        # modularity makes each forced pair (x ^ y, y) a cover
        self.implies, self.refusal = [0] * size, None
        for x in range(n):
            for y in range(n):
                j, m = join[x][y], meet[x][y]
                src, dst = x * n + j, m * n + y
                if j == x or m == y or not cover >> src & 1:
                    continue
                if not cover >> dst & 1:
                    self.refusal = self.refusal or f"{j} covers {x} but {y} does not cover {m}"
                elif dst != src:
                    self.implies[src] |= 1 << dst
        self.diamonds, self.diamond_masks = [], []
        self.watching = [[] for _ in range(size)]
        for x in range(n):
            for y in range(x + 1, n):
                if up[x] >> y & 1 or up[y] >> x & 1:
                    continue
                m, j = meet[x][y], join[x][y]
                quad = (m * n + x, m * n + y, x * n + j, y * n + j)
                if all(cover >> p & 1 for p in quad):
                    self.diamonds.append(quad)
                    mask = sum(1 << p for p in quad)
                    self.diamond_masks.append(mask)
                    for p in quad:
                        self.watching[p].append(mask)
        self.order = sorted(_bits(cover), key=lambda p: (-height[p // n], p))

    def propagate(self, inc, exc, e):
        """Edge e and the edges it forces, up to an excluded one: the witness."""
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
                    return inc | forced
                inc |= forced
                while forced:
                    low = forced & -forced
                    work.append(low.bit_length() - 1)
                    forced ^= low
        return inc


_rules = per_lattice(_CoverRules)


def enumerate_saturated_covers(lat, guard=search.MAX_LEAVES):
    """All saturated covers, by backtracking over cover edges.

    Rule (1) propagates along precomputed implication masks; rule (2)
    watches each covering diamond, forcing the fourth edge at three-in, so
    no branch holds a three-in diamond and an exclusion cannot strand one.
    Edges are decided by decreasing height of their lower end, then by
    position: rule (1) forces edges downwards, so an edge tends to be
    decided before the edges it forces, which are then still open rather
    than excluded.  The search runs serially on the engine in
    `trsys.search`, and its leaves are wrapped without re-validation: the
    tests and `verify` compare them with the subset filter of `oracles.py`
    and with the saturated systems.  More than `guard` covers raise
    SizeLimit; None is no limit.
    """
    if not lat.is_modular():
        raise NotModular("saturated covers are defined on modular lattices")
    rules = _rules(lat)
    out = search.leaves(rules.order, 0, rules.propagate, guard=guard)
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
    return SaturatedCover._wrap(lat, system.bits & _rules(lat).cover)
