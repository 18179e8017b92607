"""The guards that every search shares.

Each search lists its results in one list, serially, in the calling
process: `transfer._layers` lists the Tr, saturated and cover kinds one
element at a time, and `characteristic._interior_masks` searches the
interior systems depth first.  Each takes a leaf guard, `guard`, counted
in results (default `MAX_LEAVES`; None is no limit), and refuses through
`check_width`, before it starts, a guard whose results could hold more
than `_LEAF_BITS` bits.
"""
from __future__ import annotations

from .errors import SizeLimit

MAX_LEAVES = 250_000  # the default guard of the Tr, saturated, cover and interior searches
# the bits that the leaves a guard admits may hold, one per position up to the
# last that a search decides: the default guard admits every lattice of up to 92 elements
_LEAF_BITS = 1 << 31


def check_width(width, guard):
    """Raise SizeLimit when `guard` leaves of `width` bits could pass `_LEAF_BITS`."""
    if guard is not None and guard * width > _LEAF_BITS:
        raise SizeLimit(f"{guard} leaves of {width} bits pass the search's memory guard of 2^31 bits")
