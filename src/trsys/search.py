"""The include/exclude backtracking engine behind every exhaustive search.

A state (i, inc, exc) holds the included and excluded bits as ints, and
`order[i:]` the positions still to branch on.  States are immutable, so
backtracking needs no undo trail (Knuth, TAOCP 4B, 7.2.2).  A kind of
search supplies `propagate(inc, exc, k)`, the closure of `inc` plus
position k or None when it meets `exc`.  Excluding a position never
fails: a propagator that forces every position it must leaves no state
whose exclusion branch is dead.
"""
from __future__ import annotations

import os
import sys
from collections import deque
from itertools import repeat

from .errors import SizeLimit

MAX_LEAVES = 250_000  # the default guard of the Tr, saturated and cover searches
# the bits that the leaves a guard admits may hold, one per position up to the
# last in the order: the default guard admits every lattice of up to 92 elements
_LEAF_BITS = 1 << 31


def leaves(order, root, propagate, jobs=1, guard=None):
    """The `inc` of every leaf below the closed set `root`, sorted; none
    repeats, and more than `guard` raise SizeLimit.  With jobs > 1, at most
    the CPU count, the tree is opened breadth-first until four states per
    worker are open, and their subtrees run in worker processes; their
    leaves count against one guard.  A guard whose leaves could hold more
    than `_LEAF_BITS` bits raises SizeLimit before the search starts.
    """
    width = max(order, default=-1) + 1  # the bits of one leaf
    if guard is not None and guard * width > _LEAF_BITS:
        raise SizeLimit(f"{guard} leaves of {width} bits pass the search's memory guard of 2^31 bits")
    jobs = min(jobs, os.cpu_count() or 1)
    limit = sys.maxsize if guard is None else guard  # no list holds more
    states = deque([(0, root, 0)])
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
    its exclusion spine to a leaf, pushing each include child that survives
    propagation.  With `width`, the oldest state is popped first and the
    walk stops once `width` states are open, leaving them in `states`."""
    out = []
    n = len(order)
    masks = [1 << k for k in order]
    pop = states.popleft if width else states.pop
    push = states.append
    while states:
        if width and len(states) >= width:
            break
        i, inc, exc = pop()
        while True:
            decided = inc | exc
            while i < n and decided & masks[i]:
                i += 1
            if i == n:
                out.append(inc)
                if len(out) > limit:
                    raise SizeLimit(f"the search passed its guard of {limit} leaves")
                break
            k = order[i]
            i += 1
            with_k = propagate(inc, exc, k)
            if with_k is not None:
                push((i, with_k, exc))
            exc |= masks[i - 1]
    return out


def byte_tables(values):
    """Per byte of a bitset, a table from its value to the OR of values[j]
    over the set bits j it covers.  An entry that a zero value leaves
    unchanged shares the int of the entry without that bit, so sparse
    values cost few int objects."""
    values = list(values)
    values += [0] * (-len(values) % 8)
    tables = []
    for base in range(0, len(values), 8):
        table = [0] * 256
        for v in range(1, 256):
            low = v & -v
            value = values[base + low.bit_length() - 1]
            table[v] = table[v ^ low] | value if value else table[v ^ low]
        tables.append(table)
    return tables


def gather(tables, bits):
    """OR of `values[j]` over the set bits j of `bits` (see byte_tables)."""
    out = 0
    for table in tables:
        out |= table[bits & 255]
        if not (bits := bits >> 8):
            break
    return out
