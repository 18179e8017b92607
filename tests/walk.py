"""The include/exclude walk and the cover propagator: the reference routes
that the tests compare the layered lister and the interior search with.

A state [i, inc, exc] holds the included and excluded bits as ints, and
`order[i:]` the positions still to branch on, some maybe decided.  A kind
of search supplies its branch order and `propagate(inc, exc, k)`, a
relation R with inc | 1 << k <= R <= closure(inc + k): the closure when
it avoids `exc`, else an R whose bits in `exc` witness the failure.
Excluding a position never fails: a propagator that forces every position
it must leaves no state whose exclusion branch is dead.

An include child that leaves one position undecided is not pushed: it is
set aside, takes the exclusions its later siblings teach like a pushed
child, and is finished after its parent's spine by at most one include,
with no push, pop or scan of the order.
"""
import sys

from trsys import search
from trsys.covers import _rules
from trsys.errors import SizeLimit
from trsys.lattice import _bits


def leaves(order, root, propagate, guard=None):
    """The `inc` of every leaf below the closed set `root`, sorted; none
    repeats, and more than `guard` raise SizeLimit.  A guard whose leaves
    could hold more than `_LEAF_BITS` bits raises SizeLimit before the
    search starts.
    """
    search.check_width(max(order, default=-1) + 1, guard)  # the bits of one leaf
    limit = sys.maxsize if guard is None else guard  # no list holds more
    out = _walk(order, [[0, root, 0]], propagate, limit)
    out.sort()
    return out


def _walk(order, states, propagate, limit):
    """The leaves below `states`, at most `limit`.  A popped state runs down
    its exclusion spine, pushing each include child that leaves two or more
    positions undecided, setting aside those that leave one and taking the
    others as leaves.  An include of k that fails excludes k in each
    sibling this spine pushed or set aside whose `exc` meets the witness,
    which its closures with k hold; those `exc` grow along the spine, so
    the scan of each list stops at the newest that misses it.  The
    children set aside are finished after the spine, each by at most one
    include."""
    out = []
    cells = [(i + 1, k, 1 << k) for i, k in enumerate(order)]  # the next index, position and bit
    every = sum(1 << k for k in order)  # a state decides every position before its index
    pop, push = states.pop, states.append
    ones = []  # this spine's children with one undecided position, as [that bit, inc, exc]
    while states:
        i, inc, exc = pop()
        base, skip = len(states), inc | exc  # the spine adds to `exc` only bits it has passed
        for nxt, k, bit in cells[i:]:
            if skip & bit:
                continue
            with_k = propagate(inc, exc, k)
            if witness := with_k & exc:
                j = len(states)
                while j > base and states[j - 1][2] & witness:
                    j -= 1
                    states[j][2] |= bit
                j = len(ones)
                while j and ones[j - 1][2] & witness:
                    j -= 1
                    ones[j][2] |= bit
            elif rest := every & ~(with_k | exc):
                if rest & (rest - 1):
                    push([nxt, with_k, exc])
                else:
                    ones.append([rest, with_k, exc])
            else:
                out.append(with_k)
            exc |= bit
        for rest, with_k, exc in ones:
            if not rest & exc and not (last := propagate(with_k, exc, rest.bit_length() - 1)) & exc:
                out.append(last)
            out.append(with_k)
        ones.clear()
        out.append(inc)
        if len(out) > limit:
            raise SizeLimit(f"the search passed its guard of {limit} leaves")
    return out


class CoverPropagator:
    """The cover game of `_rules(lat)` as a propagator for the walk: the
    masks `watching[p]` of the covering diamonds that hold edge p, and the
    branch `order`, by decreasing height of the lower end, then by
    position: rule (1) forces edges downwards, so an edge tends to be
    decided before the edges it forces, which are then still open rather
    than excluded."""

    def __init__(self, lat):
        n, rules = lat.n, _rules(lat)
        self.implies = rules.implies
        self.watching = [[] for _ in range(n * n)]
        for quad, mask in zip(rules.diamonds, rules.diamond_masks):
            for p in quad:
                self.watching[p].append(mask)
        self.order = sorted(_bits(rules.cover), key=lambda p: (-lat.height[p // n], p))

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
