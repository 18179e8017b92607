"""The include/exclude backtracking engine of the cover and interior
searches, and the guards that every search shares.

A state [i, inc, exc] holds the included and excluded bits as ints, and
`order[i:]` the positions still to branch on, some maybe decided.  A kind
of search supplies its branch order and `propagate(inc, exc, k)`, a
relation R with inc | 1 << k <= R <= closure(inc + k): the closure when
it avoids `exc`, else an R whose bits in `exc` witness the failure.  The
cover search reads both off one object per lattice, built once through
`lattice.per_lattice`, and the interior search off one table.  Excluding
a position never fails: a propagator that forces every position it must
leaves no state whose exclusion branch is dead.

An include child that leaves one position undecided is not pushed: it is
set aside, takes the exclusions its later siblings teach like a pushed
child, and is finished after its parent's spine by at most one include,
with no push, pop or scan of the order.

The Tr and saturated kinds do not walk: `transfer._layers` lists them
one element at a time, under the same leaf guard and, through
`check_width`, the same memory guard.
"""
from __future__ import annotations

import os
import sys
from collections import deque
from itertools import repeat

from .errors import SizeLimit

MAX_LEAVES = 250_000  # the default guard of the Tr, saturated, cover and interior searches
# the bits that the leaves a guard admits may hold, one per position up to the
# last in the order: the default guard admits every lattice of up to 92 elements
_LEAF_BITS = 1 << 31


def check_width(width, guard):
    """Raise SizeLimit when `guard` leaves of `width` bits could pass `_LEAF_BITS`."""
    if guard is not None and guard * width > _LEAF_BITS:
        raise SizeLimit(f"{guard} leaves of {width} bits pass the search's memory guard of 2^31 bits")


def leaves(order, root, propagate, jobs=1, guard=None):
    """The `inc` of every leaf below the closed set `root`, sorted; none
    repeats, and more than `guard` raise SizeLimit.  With jobs > 1, at most
    the CPU count, the tree is opened breadth-first until four states per
    worker are open, and their subtrees run in worker processes; their
    leaves count against one guard.  A guard whose leaves could hold more
    than `_LEAF_BITS` bits raises SizeLimit before the search starts.
    """
    check_width(max(order, default=-1) + 1, guard)  # the bits of one leaf
    jobs = min(jobs, os.cpu_count() or 1)
    limit = sys.maxsize if guard is None else guard  # no list holds more
    states = deque([[0, root, 0]])
    out = _walk(order, states, propagate, limit, width=4 * jobs if jobs > 1 else 0)
    if states:
        # imported here, so that a serial start skips the pool's ~20 ms of imports
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            subtrees = ([state] for state in states)
            # a worker's SizeLimit cancels the pending subtrees inside map
            for chunk in pool.map(_walk, repeat(order), subtrees, repeat(propagate), repeat(limit)):
                out.extend(chunk)
                if len(out) > limit:
                    pool.shutdown(cancel_futures=True)
                    raise SizeLimit(f"the search passed its guard of {guard} leaves")
    out.sort()
    return out


def _walk(order, states, propagate, limit, width=0):
    """The leaves below `states`, at most `limit`.  A popped state runs down
    its exclusion spine, pushing each include child that leaves two or more
    positions undecided, setting aside those that leave one and taking the
    others as leaves.  An include of k that fails excludes k in each
    sibling this spine pushed or set aside whose `exc` meets the witness,
    which its closures with k hold; those `exc` grow along the spine, so
    the scan of each list stops at the newest that misses it.  The
    children set aside are finished after the spine, each by at most one
    include.  With `width`, the oldest state is popped first and the walk
    stops once `width` states are open, leaving them in `states`."""
    out = []
    cells = [(i + 1, k, 1 << k) for i, k in enumerate(order)]  # the next index, position and bit
    every = sum(1 << k for k in order)  # a state decides every position before its index
    pop = states.popleft if width else states.pop
    push = states.append
    ones = []  # this spine's children with one undecided position, as [that bit, inc, exc]
    while states:
        if width and len(states) >= width:
            break
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
