"""Pushforwards of transfer systems along lattice maps.

A monotone map f: P -> Q induces Tr(f): Tr(P) -> Tr(Q) sending R to the
system generated by the image pairs (f(x), f(y)).  This preserves identity
maps and composes when the maps preserve meets; for merely monotone maps
the intermediate closure can create strictly more relations, and
`check_functoriality` reports such witnesses.
"""
from __future__ import annotations

import random
from dataclasses import dataclass

from .errors import AmbientMismatch, InvariantViolation, NotComposable, NotMonotone
from .lattice import _bits, boolean_cube, from_order, product
from .transfer import TransferSystem, generate


class LatticeMap:
    """A monotone map between lattices, stored as its image tuple."""

    __slots__ = ("source", "target", "image")

    def __init__(self, source, target, image):
        """Raises ValueError when the image misses an element or leaves
        range(target.n), and NotMonotone at the first cover x < y of
        `source` with image[x] not <= image[y].  Covers suffice: <= is their
        reflexive-transitive closure, and a map preserving them preserves
        it."""
        image = tuple(map(int, image))
        if len(image) != source.n:
            raise ValueError("image must assign every source element")
        if min(image) < 0 or max(image) >= target.n:
            raise ValueError("image values out of range")
        up = target.up
        for x, y in source.covers:
            if not up[image[x]] >> image[y] & 1:
                raise NotMonotone(f"map reverses {x} <= {y}")
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "image", image)

    @classmethod
    def _wrap(cls, source, target, image):
        """The map without validation, for an image tuple correct by
        construction."""
        obj = object.__new__(cls)
        object.__setattr__(obj, "source", source)
        object.__setattr__(obj, "target", target)
        object.__setattr__(obj, "image", image)
        return obj

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __call__(self, x):
        return self.image[x]

    def pointwise_leq(self, other):
        """Whether self(x) <= other(x) in the target for every x."""
        up = self.target.up
        return all(up[a] >> b & 1 for a, b in zip(self.image, other.image))

    def is_meet_preserving(self):
        image, target_meet = self.image, self.target.meet
        return all(
            image[m] == target_meet[image[x]][image[y]]
            for x, row in enumerate(self.source.meet)
            for y, m in enumerate(row)
        )

    def __eq__(self, other):
        return (
            isinstance(other, LatticeMap)
            and self.image == other.image
            and self.source.same_order(other.source)
            and self.target.same_order(other.target)
        )

    def __hash__(self):
        return hash(self.image)

    def __repr__(self):
        return f"{type(self).__name__}{self.image}"


def identity_map(lat):
    return LatticeMap(lat, lat, range(lat.n))


def compose(g, f):
    """g after f; raises NotComposable on a target/source mismatch."""
    if not f.target.same_order(g.source):
        raise NotComposable("inner target differs from outer source")
    return LatticeMap(f.source, g.target, [g.image[v] for v in f.image])


def pushforward(f, system):
    """Tr(f): the system generated by the image pairs of the relation."""
    if not system.lattice.same_order(f.source):
        raise AmbientMismatch("system does not live on the map's source")
    pairs = [(f.image[x], f.image[y]) for x, y in system.pairs()]
    return generate(f.target, pairs)


@dataclass(frozen=True)
class FunctorialityReport:
    """Outcome of comparing Tr(g . f) with Tr(g) . Tr(f) on sample systems."""

    holds: bool
    meet_preserving: bool
    witnesses: tuple  # (system, composite image, staged image) triples


def check_functoriality(f, g, sample):
    """Compare the composite pushforward with the staged one.

    For meet-preserving f and g any discrepancy is an internal error; for
    general monotone maps discrepancies are returned as witnesses.
    """
    composite = compose(g, f)
    witnesses = []
    for system in sample:
        direct = pushforward(composite, system)
        staged = pushforward(g, pushforward(f, system))
        if direct != staged:
            witnesses.append((system, direct, staged))
    meet_preserving = f.is_meet_preserving() and g.is_meet_preserving()
    if meet_preserving and witnesses:
        raise InvariantViolation("meet-preserving maps failed to compose under Tr")
    return FunctorialityReport(
        holds=not witnesses, meet_preserving=meet_preserving, witnesses=tuple(witnesses)
    )


def composition_counterexample():
    """The standard two-step failure of functoriality for monotone maps.

    Returns (f, g, system): f embeds the diamond into a diamond with a
    tail, skipping the new middle; g repeats the trick one level down.
    Both maps are monotone but not meet-preserving, and the staged
    pushforward of the system strictly contains the composite one.
    """
    diamond = boolean_cube(2)
    tail_one = from_order(5, [(0, 1), (1, 2), (1, 3), (2, 4), (3, 4)])
    tail_two = from_order(6, [(0, 1), (1, 2), (2, 3), (2, 4), (3, 5), (4, 5)])
    f = LatticeMap(diamond, tail_one, [0, 2, 3, 4])
    g = LatticeMap(tail_one, tail_two, [0, 1, 3, 4, 5])
    system = TransferSystem.from_pairs(diamond, [(0, 1), (2, 3)])
    return f, g, system


def product_projections(pq, p, q):
    """The two projections of a componentwise product (index i*|Q| + j)."""
    if pq.n != p.n * q.n:
        raise AmbientMismatch("product size mismatch")
    left = LatticeMap(pq, p, [k // q.n for k in range(pq.n)])
    right = LatticeMap(pq, q, [k % q.n for k in range(pq.n)])
    return left, right


def product_split(r, t, pq=None):
    """The componentwise transfer system on P x Q induced by R and T.

    (p, q) relates to (p', q') exactly when p R p' and q T q'.  That the
    result is a transfer system, and that pushing it forward along the two
    projections recovers the operands, is a theorem: the bits are wrapped
    without re-validation, and the tests check both.
    """
    p, q = r.lattice, t.lattice
    if pq is None:
        pq = product(p, q)
    elif not pq.same_order(product(p, q)):
        raise AmbientMismatch("product lattice does not match the factors")
    bits = 0
    for a in range(pq.n):
        for b in range(pq.n):
            pa, qa = a // q.n, a % q.n
            pb, qb = b // q.n, b % q.n
            if r.contains(pa, pb) and t.contains(qa, qb):
                bits |= 1 << a * pq.n + b
    return TransferSystem._wrap(pq, bits)


def split_to_factors(system, p, q):
    """Push a system on P x Q to its factor systems (the canonical map)."""
    left, right = product_projections(system.lattice, p, q)
    return pushforward(left, system), pushforward(right, system)


# -- random monotone maps -------------------------------------------------------


def random_monotone_map(source, target, rng):
    """Monotone map sampled by randomized extension along the height order.

    Each element's image is drawn uniformly from the up-set of the join of
    the images of the elements below it, which precede it by height.
    """
    image = [None] * source.n
    for x in sorted(range(source.n), key=source.height.__getitem__):
        floor = target.bottom
        for y in _bits(source._down[x] & ~(1 << x)):
            floor = target.join[floor][image[y]]
        image[x] = rng.choice(list(_bits(target.up[floor])))
    return LatticeMap(source, target, image)


def sample_meet_preserving_pairs(pool, count, seed):
    """Seeded stream of composable meet-preserving pairs (f, g).

    Lattices are drawn from `pool`; maps are sampled monotone and filtered
    for meet preservation.
    """
    rng = random.Random(seed)
    out = []
    attempts = 0
    limit = 1000 * count
    while len(out) < count:
        attempts += 1
        if attempts > limit:
            raise InvariantViolation("sampling budget exhausted before finding enough pairs")
        p, q, l = (rng.choice(pool) for _ in range(3))
        f = random_monotone_map(p, q, rng)
        if not f.is_meet_preserving():
            continue
        g = random_monotone_map(q, l, rng)
        if not g.is_meet_preserving():
            continue
        out.append((f, g))
    return out
