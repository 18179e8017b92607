"""The include/exclude backtracking engine behind every exhaustive search.

A state [i, inc, exc] holds the included and excluded bits as ints, and
`order[i:]` the positions still to branch on, some maybe decided.  A kind
of search supplies its branch order and `propagate(inc, exc, k)`, a
relation R with inc | 1 << k <= R <= closure(inc + k): the closure when
it avoids `exc`, else an R whose bits in `exc` witness the failure.  The
Tr, saturated and cover searches read both off one object per lattice and
kind, built once through `lattice.per_lattice`.  Excluding a position
never fails: a propagator that forces every position it must leaves no
state whose exclusion branch is dead.

An include child that leaves one position undecided is not pushed: it is
set aside, takes the exclusions its later siblings teach like a pushed
child, and is finished after its parent's spine by at most one include,
with no push, pop or scan of the order.

A search whose closure rules each have at most two premises may ask for
`pairwise` cubes.  When every one of the m >= BATCH undecided positions
of a state closes alone (its include gives inc | bit and meets no
exclusion), and every two of them close together, each of the 2^m
subsets is closed: a rule that fires on inc plus a subset reads at most
two of its positions, and those close together.  Such a state emits its
Boolean cube of leaves at once, in place of its children.  The Tr and
saturated searches ask for it: restriction has one premise, and
transitivity and two-out-of-three have two.  The cover search does not,
since matchstick rule (2) has three premises, and neither does the
interior search, whose includes never fail, so that it makes one include
per leaf.  BATCH is the least size at which the pair tests that fail add
no include to the walk of Tr(chain(9)).
"""
from __future__ import annotations

import os
import sys
from collections import deque
from itertools import repeat

from .errors import SizeLimit

BATCH = 7  # the fewest undecided positions whose cube a pairwise search emits whole
MAX_LEAVES = 250_000  # the default guard of the Tr, saturated, cover and interior searches
# the bits that the leaves a guard admits may hold, one per position up to the
# last in the order: the default guard admits every lattice of up to 92 elements
_LEAF_BITS = 1 << 31


def leaves(order, root, propagate, jobs=1, guard=None, pairwise=False):
    """The `inc` of every leaf below the closed set `root`, sorted; none
    repeats, and more than `guard` raise SizeLimit.  With jobs > 1, at most
    the CPU count, the tree is opened breadth-first until four states per
    worker are open, and their subtrees run in worker processes; their
    leaves count against one guard.  A guard whose leaves could hold more
    than `_LEAF_BITS` bits raises SizeLimit before the search starts.
    With `pairwise`, which only a propagator whose rules have at most two
    premises may ask for, free Boolean cubes of at least BATCH positions
    are emitted whole; a cube that would pass the guard raises SizeLimit
    before it is built, but with guard None it is built in one list.
    """
    width = max(order, default=-1) + 1  # the bits of one leaf
    if guard is not None and guard * width > _LEAF_BITS:
        raise SizeLimit(f"{guard} leaves of {width} bits pass the search's memory guard of 2^31 bits")
    jobs = min(jobs, os.cpu_count() or 1)
    limit = sys.maxsize if guard is None else guard  # no list holds more
    states = deque([[0, root, 0]])
    out = _walk(order, states, propagate, limit, pairwise, width=4 * jobs if jobs > 1 else 0)
    if states:
        # imported here, so that a serial start skips the pool's ~20 ms of imports
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            subtrees = ([state] for state in states)
            # a worker's SizeLimit cancels the pending subtrees inside map
            for chunk in pool.map(_walk, repeat(order), subtrees, repeat(propagate), repeat(limit), repeat(pairwise)):
                out.extend(chunk)
                if len(out) > limit:
                    pool.shutdown(cancel_futures=True)
                    raise SizeLimit(f"the search passed its guard of {guard} leaves")
    out.sort()
    return out


def _walk(order, states, propagate, limit, pairwise=False, width=0):
    """The leaves below `states`, at most `limit`.  A popped state runs down
    its exclusion spine, pushing each include child that leaves two or more
    positions undecided, setting aside those that leave one and taking the
    others as leaves.  An include of k that fails excludes k in each
    sibling this spine pushed or set aside whose `exc` meets the witness,
    which its closures with k hold; those `exc` grow along the spine, so
    the scan of each list stops at the newest that misses it.  The
    children set aside are finished after the spine, each by at most one
    include.  With `pairwise`, a spine of at least BATCH undecided
    positions whose includes all closed alone, and whose pairs all close,
    emits its Boolean cube of leaves in place of its children.  With
    `width`, the oldest state is popped first and the walk stops once
    `width` states are open, leaving them in `states`."""
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
        # the sum of the includes is m * inc + free exactly when each is inc | bit
        batch, total = pairwise and (free := every & ~skip).bit_count() >= BATCH, 0
        for nxt, k, bit in cells[i:]:
            if skip & bit:
                continue
            with_k = propagate(inc, exc, k)
            if batch:
                total += with_k
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
        if batch and total == free.bit_count() * inc + free and _pairs_close(propagate, inc, free, cells[i:]):
            # the cube replaces every child: those pushed, at the right end,
            # those set aside, and the one leaf the spine took, inc | the
            # last free bit, the only include to leave no position undecided
            for _ in range(len(states) - base):
                states.pop()
            ones.clear()
            out.pop()
            if len(out) + (1 << free.bit_count()) > limit:
                raise SizeLimit(f"the search passed its guard of {limit} leaves")
            out += _cube(inc, free)
            continue
        for rest, with_k, exc in ones:
            if not rest & exc and not (last := propagate(with_k, exc, rest.bit_length() - 1)) & exc:
                out.append(last)
            out.append(with_k)
        ones.clear()
        out.append(inc)
        if len(out) > limit:
            raise SizeLimit(f"the search passed its guard of {limit} leaves")
    return out


def _pairs_close(propagate, inc, free, cells):
    """Whether inc | a | b is closed for every two positions a, b of `free`,
    each of which closes alone."""
    pairs = [(k, bit) for _, k, bit in cells if free & bit]
    for j, (_, a) in enumerate(pairs):
        with_a = inc | a
        for k, b in pairs[j + 1:]:
            if propagate(with_a, 0, k) != with_a | b:
                return False
    return True


def _cube(inc, free):
    """inc | S for every subset S of the bits of `free`."""
    cube = [inc]
    while free:
        low = free & -free
        cube += [leaf | low for leaf in cube]
        free ^= low
    return cube
