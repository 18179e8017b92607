"""The headline-count verification table.

Each check returns a CheckResult; the CLI `verify` command prints one
pass/fail line per check and the pytest acceptance module asserts them
individually.  Expected constants live here, once.  The library calls
compute and classify without re-checking their results; the theorems
behind them, such as the rank-two block census with its covers and chi
structure (`check_bmt`) and the chi-fiber theorem (`check_fibers`), are
checked here and in the tests.

Several checks read the same lattices and list the same things on them.
`run_checks` gives its checks one table for the run: each lattice the
checks name is built once, and its Tr, its saturated systems, its
saturated covers and its interior count are listed once, by the first
check that asks, and read by the others; the listing's time counts
toward that first check's `seconds` (the `--json` field).  The table is
dropped when the run ends.  A check called directly, outside
`run_checks`, builds and lists everything itself.
"""
from __future__ import annotations

import contextvars
import itertools
import time
from dataclasses import dataclass, field

from .characteristic import chi_image_check, count_interior_operators, fiber_decomposition
from .counting import (
    bmt_decompose,
    count_tr_chain_fusion,
    count_tr_fusion,
    tr_rank_two,
)
from .covers import cover_to_system, enumerate_saturated_covers, system_to_cover
from .errors import InvalidInput
from .functorial import (
    check_functoriality,
    compose,
    composition_counterexample,
    pushforward,
    sample_meet_preserving_pairs,
)
from .lattice import (
    boolean_cube,
    chain,
    from_order,
    fusion,
    iterated_fusion,
    product,
)
from .oracles import naive_saturated_covers, naive_transfer_systems
from .transfer import closure_for, enumerate_saturated_systems, enumerate_transfer_systems

CATALAN_CHAIN_COUNTS = [1, 2, 5, 14, 42, 132]
ITERATED_FUSION_COUNTS = {n: 2 ** (n + 1) + n for n in range(1, 7)}
RANK_TWO_PRIMES = {2: 19, 3: 36, 5: 134}  # 2^(p+2) + p + 1
INTERIOR_CUBE_COUNTS = [1, 2, 7, 61, 2480, 1385552]
CUBE3_COVER_COUNT = 61
FUSE3_COVER_COUNT = 12
CHAIN_FUSION_SPOT = {(2, 3): 26, (2, 2): 10, (1, 1): 2}


def pentagon():
    return from_order(5, [(0, 1), (1, 2), (2, 4), (0, 3), (3, 4)])


# -- the table of one run -------------------------------------------------------

_TABLE = contextvars.ContextVar("verify_table", default=None)  # a dict while run_checks runs


def _shared(key, make):
    """`make()`, made once per `run_checks` call for each key, and afresh on
    every call outside one."""
    table = _TABLE.get()
    if table is None:
        return make()
    if key not in table:
        table[key] = make()
    return table[key]


def _lattice(build, *args):
    """`build(*args)`: one lattice object per run for the same builder and
    arguments, so that its listings and its per-lattice tables are shared."""
    return _shared((build, args), lambda: build(*args))


def _listing(list_, lat, **guard):
    """`list_(lat, **guard)` for `enumerate_transfer_systems`,
    `enumerate_saturated_systems`, `enumerate_saturated_covers` or
    `count_interior_operators`, listed once per run for each lattice.  The
    key leaves out the guard, which only refuses: every check's guards
    admit the lattices it lists.  The lister is looked up by the caller, so
    a patched one is the one called."""
    return _shared((list_, lat), lambda: list_(lat, **guard))


def _chain(m):
    return _lattice(chain, m)


def _cube(k):
    return _lattice(boolean_cube, k)


def _rect(m, n):
    return _lattice(product, _chain(m), _chain(n))


def _fuse2(n):
    return _lattice(iterated_fusion, _chain(2), n)


def _chains(ms):
    return [(f"chain({m})", _chain(m)) for m in ms]


def _fusions(ns):
    return [(f"[2]*{n}", _fuse2(n)) for n in ns]


def modular_family():
    """The modular lattices the count-coherence checks run over."""
    members = _chains(range(1, 5))
    members += [(f"cube({k})", _cube(k)) for k in range(2, 5)]
    members += _fusions(range(2, 6))
    members.append(("rect[2]x[3]", _rect(2, 3)))
    return members


def tr_feasible_family():
    """Lattices small enough for full Tr enumeration in the checks."""
    members = _chains(range(1, 5))
    members += [("cube(2)", _cube(2)), ("cube(3)", _cube(3))]
    members += _fusions(range(1, 6))
    members += [("pentagon", _lattice(pentagon)), ("rect[1]x[2]", _rect(1, 2))]
    return members


@dataclass
class CheckResult:
    name: str
    ok: bool
    lines: list = field(default_factory=list)
    seconds: float = 0.0  # wall time of the check, set by `run_checks`

    def note(self, ok, text):
        self.ok = self.ok and ok
        self.lines.append(("pass " if ok else "FAIL ") + text)


def check_catalan(max_n=5):
    """Chain counts |Tr([n])| follow the shifted Catalan numbers."""
    from .counting import catalan

    res = CheckResult("catalan", True)
    for n in range(max_n + 1):
        got = len(_listing(enumerate_transfer_systems, _chain(n)))
        want = CATALAN_CHAIN_COUNTS[n] if n < len(CATALAN_CHAIN_COUNTS) else catalan(n + 1)
        res.note(got == want, f"|Tr([{n}])| = {got} (want {want})")
    return res


def check_rank_two():
    """Iterated-fusion counts and the rank-two closed form agree."""
    res = CheckResult("ranktwo", True)
    for n in range(1, 6):
        got = len(_listing(enumerate_transfer_systems, _fuse2(n)))
        want = ITERATED_FUSION_COUNTS[n]
        res.note(got == want, f"|Tr([2]*{n})| = {got} (want {want})")
    for p, want in RANK_TWO_PRIMES.items():
        got = tr_rank_two(p)
        enumerated = len(_listing(enumerate_transfer_systems, _fuse2(p + 1)))
        res.note(
            got == want == enumerated,
            f"rank-two p={p}: closed form {got}, enumeration {enumerated} (want {want})",
        )
    return res


def check_matchstick():
    """Cover counts and the three-way count coherence on modular lattices."""
    res = CheckResult("matchstick", True)
    got3 = len(_listing(enumerate_saturated_covers, _cube(3)))
    res.note(got3 == CUBE3_COVER_COUNT, f"saturated covers on cube(3): {got3} (want 61)")
    gotf = len(_listing(enumerate_saturated_covers, _fuse2(3)))
    res.note(gotf == FUSE3_COVER_COUNT, f"saturated covers on [2]*3: {gotf} (want 12)")
    for name, lat in modular_family():
        covers = len(_listing(enumerate_saturated_covers, lat))
        saturated = len(_listing(enumerate_saturated_systems, lat))
        interior = _listing(count_interior_operators, lat)
        res.note(
            covers == saturated == interior,
            f"{name}: covers {covers} = saturated {saturated} = interior {interior}",
        )
    return res


def check_interior_sequence(max_n=4):
    """Interior-operator counts on boolean cubes follow the known values."""
    res = CheckResult("a102896", True)
    max_n = min(max_n, len(INTERIOR_CUBE_COUNTS) - 1)
    for n in range(max_n + 1):
        got = _listing(count_interior_operators, _cube(n), max_elements=1 << n)
        want = INTERIOR_CUBE_COUNTS[n]
        res.note(got == want, f"interior operators on cube({n}): {got} (want {want})")
    return res


def check_fibers():
    """Every chi-fiber is the interval [least, greatest] of Tr, closed under
    meet and join, whose top is saturated and is the saturated hull of each
    member; the fiber operators are the interior operators.  The interval,
    hull, meet and join tests compare bits on the one closure table of the
    lattice, `closure_for(lat)`, and wrap no system."""
    res = CheckResult("fibers", True)
    for name, lat in tr_feasible_family():
        tr = _listing(enumerate_transfer_systems, lat)
        fibers = fiber_decomposition(tr)
        ops = _listing(count_interior_operators, lat)
        closure = closure_for(lat)
        shaped = all(_is_interval_fiber(fiber, tr.bits, closure) for fiber in fibers)
        res.note(
            shaped and len(fibers) == ops and chi_image_check(tr),
            f"{name}: {len(fibers)} fibers over the {ops} interior operators",
        )
    return res


def _is_interval_fiber(fiber, tr_bits, closure):
    """The fiber theorem on one fiber, on bits: the members are the systems
    of Tr between the ends, the top is saturated and is the saturated hull
    of each member, and every pair of members has its meet (the AND) and
    its join (`closure.close`) among the members."""
    low, high = fiber.least.bits, fiber.greatest.bits
    bits = [r.bits for r in fiber.members]
    members = set(bits)
    interval = {b for b in tr_bits if low & b == low and b & high == b}
    close = closure.close
    return (
        members == interval
        and {low, high} <= members
        and fiber.greatest.is_saturated()
        and all(close(b, saturate=True) == high for b in bits)
        and all(a & b in members and close(b, base=a) in members for a, b in itertools.combinations(bits, 2))
    )


def check_fusion():
    """The four-term recursion and its chain specialization match brute force."""
    res = CheckResult("fusion", True)
    pool = [("[1]", _chain(1)), ("[2]", _chain(2)), ("[3]", _chain(3)), ("[2]*2", _fuse2(2)), ("cube(2)", _cube(2))]
    for (na, a), (nb, b) in itertools.product(pool, repeat=2):
        total = count_tr_fusion(a, b).total
        brute = len(enumerate_transfer_systems(fusion(a, b)))
        res.note(total == brute, f"recursion {na}*{nb}: {total} vs brute {brute}")
    for m in range(5):
        for n in range(5):
            formula = count_tr_chain_fusion(m, n)
            recursion = count_tr_fusion(chain(m), chain(n)).total
            if formula != recursion:
                res.note(False, f"chain corollary ({m},{n}): {formula} vs {recursion}")
    res.note(True, "chain corollary matches the recursion for 0 <= m, n <= 4")
    for (m, n), want in CHAIN_FUSION_SPOT.items():
        got = count_tr_chain_fusion(m, n)
        res.note(got == want, f"|Tr([{m}]*[{n}])| = {got} (want {want})")
    return res


def bmt_reference_lattice(n):
    """The expected shape of Tr([2]^{*n}): two n-cubes joined through a
    discrete n-set, with the published cross covers."""
    cube_size = 1 << n
    b_of = lambda mask: mask
    m_of = lambda i: cube_size + i
    t_of = lambda mask: cube_size + n + mask
    pairs = []
    for mask in range(cube_size):
        for i in range(n):
            if not mask >> i & 1:
                pairs.append((b_of(mask), b_of(mask | 1 << i)))
                pairs.append((t_of(mask), t_of(mask | 1 << i)))
    full = cube_size - 1
    for i in range(n):
        pairs.append((b_of(full & ~(1 << i)), m_of(i)))
        pairs.append((m_of(i), t_of(1 << i)))
    pairs.append((b_of(full), t_of(0)))
    return from_order(2 * cube_size + n, pairs)


def check_bmt(max_n=4):
    """The block census of Tr([2]^{*n}) for each n up to `max_n`: the
    blocks are full and fill Tr, each system is the one its key names, the
    Hasse edges are those of the reference shape, and the chi structure is
    the published one."""
    res = CheckResult("bmt", True)
    for n in range(1, max_n + 1):
        dec, cube = bmt_decompose(n), 1 << n
        tr, full, systems = dec.tr, True, {}  # label in bmt_reference_lattice(n) -> system
        blocks = ((0, dec.bottom_cube, cube), (cube, dec.middle, n), (cube + n, dec.top_cube, cube))
        for offset, block, keys in blocks:
            full = full and sorted(block) == list(range(keys))
            systems.update((offset + key, system) for key, system in block.items())
        sizes = (len(dec.bottom_cube), len(dec.middle), len(dec.top_cube))
        res.note(full and sum(sizes) == len(tr), f"n={n}: full blocks {sizes} fill the {len(tr)} systems")
        named = all(set(system.pairs()) == _bmt_pairs(n, label) for label, system in systems.items())
        res.note(named, f"n={n}: every system is the one its block key names")
        label_of = {system.bits: label for label, system in systems.items()}
        covers = sorted((label_of.get(tr.bits[i], -1), label_of.get(tr.bits[j], -1)) for i, j in tr.covers)
        res.note(
            covers == bmt_reference_lattice(n).covers,
            f"n={n}: the {len(covers)} Hasse edges are the reference shape's",
        )
        res.note(_has_bmt_chi_structure(dec, n), f"n={n}: chi structure of the blocks")
    return res


def _bmt_pairs(n, label):
    """The non-reflexive pairs of the system that a label of
    `bmt_reference_lattice(n)` names, on [2]^{*n} with bottom 0, the i-th
    middle i + 1 and top n + 1."""
    cube, top = 1 << n, n + 1
    middles = lambda mask: [1 + i for i in range(n) if mask >> i & 1]
    if label < cube:  # bottom R the masked middles
        return {(0, y) for y in middles(label)}
    if label < cube + n:  # the i-th middle R top, bottom R the others
        i = label - cube
        return {(0, y) for y in middles(cube - 1 ^ 1 << i)} | {(1 + i, top)}
    # bottom R everything, the masked middles R top
    return {(0, y) for y in range(1, top + 1)} | {(x, top) for x in middles(label - cube - n)}


def _has_bmt_chi_structure(dec, n):
    """The bottom-cube and middle systems are saturated singleton fibers,
    the top cube is one fiber of size 2^n over the constant-bottom
    operator, and fibers = saturated systems = 2^n + n + 1."""
    lat = dec.tr.lattice
    fibers = {f.operator.image: f for f in fiber_decomposition(dec.tr)}
    singletons = {f.members[0].bits for f in fibers.values() if len(f.members) == 1}
    saturated = {s.bits for s in dec.tr if s.is_saturated()}
    lower = {s.bits for s in (*dec.bottom_cube.values(), *dec.middle.values())}
    top_fiber = fibers[(lat.bottom,) * lat.n].members  # chi of the complete system
    return (
        lower <= singletons & saturated
        and {s.bits for s in top_fiber} == {s.bits for s in dec.top_cube.values()}
        and len(top_fiber) == 1 << n
        and len(fibers) == len(saturated) == (1 << n) + n + 1
    )


def check_roundtrips():
    """Cover <-> system round-trips are identities on modular lattices.

    `cover_to_system` runs once per listed cover, and again only for an
    image of a listed system that is not listed; `system_to_cover` runs on
    every listed system and on every generated one.  Covers and systems
    are compared by their bits, and only the bits of a generated system
    are kept.  In a `run_checks` call the covers and systems are the ones
    `check_matchstick` listed."""
    res = CheckResult("roundtrip", True)
    for name, lat in modular_family():
        covers = _listing(enumerate_saturated_covers, lat)
        systems = _listing(enumerate_saturated_systems, lat)
        images = [system_to_cover(r) for r in systems]
        generated, ok_cov = {}, True  # the bits of a cover -> the bits of its system
        for q in covers:
            system = cover_to_system(q)
            ok_cov = system_to_cover(system).bits == q.bits and ok_cov
            generated[q.bits] = system.bits
        ok_sys = all((generated.get(q.bits) or cover_to_system(q).bits) == r.bits for q, r in zip(images, systems))
        ok_onto = {q.bits for q in images} == generated.keys()
        ok_count = len(covers) == len(systems)
        res.note(
            ok_cov and ok_sys and ok_onto and ok_count,
            f"{name}: {len(covers)} covers <-> {len(systems)} saturated systems",
        )
    return res


def check_functorial():
    """The composition counterexample and 200 meet-preserving pairs, each
    checked on every system of its source.  In a `run_checks` call Tr of
    each pool lattice is listed once, not once per pair."""
    res = CheckResult("functorial", True)
    f, g, system = composition_counterexample()
    direct = pushforward(compose(g, f), system)
    staged = pushforward(g, pushforward(f, system))
    strict = direct.refines(staged) and direct != staged
    res.note(strict, "monotone counterexample: staged pushforward strictly larger")
    pool = [_chain(1), _chain(2), _chain(3), _cube(2), _fuse2(2), _rect(1, 2)]
    pairs = sample_meet_preserving_pairs(pool, 200, seed=20230811)
    failures = 0
    for fm, gm in pairs:
        sample = list(_listing(enumerate_transfer_systems, fm.source))
        report = check_functoriality(fm, gm, sample)
        if not report.holds:
            failures += 1
    res.note(failures == 0, f"200 seeded meet-preserving pairs compose ({failures} failures)")
    return res


def check_oracles():
    """Backtracking enumerations equal the naive subset filters."""
    res = CheckResult("oracle", True)
    rect = ("rect[1]x[2]", _rect(1, 2))
    tr_family = _chains(range(1, 5)) + [("cube(2)", _cube(2)), ("pentagon", _lattice(pentagon)), rect]
    for name, lat in tr_family + _fusions(range(2, 6)):
        fast = [s.bits for s in _listing(enumerate_transfer_systems, lat)]
        slow = [s.bits for s in naive_transfer_systems(lat)]
        res.note(fast == slow, f"transfer oracle on {name}: {len(fast)} systems")
    cover_family = _chains(range(1, 5)) + [("cube(2)", _cube(2)), ("cube(3)", _cube(3)), rect]
    for name, lat in cover_family + _fusions(range(2, 6)):
        fast = [q.bits for q in _listing(enumerate_saturated_covers, lat)]
        slow = [q.bits for q in naive_saturated_covers(lat)]
        res.note(fast == slow, f"cover oracle on {name}: {len(fast)} covers")
    return res


ALL_CHECKS = {
    "catalan": check_catalan,
    "ranktwo": check_rank_two,
    "matchstick": check_matchstick,
    "a102896": check_interior_sequence,
    "fibers": check_fibers,
    "fusion": check_fusion,
    "bmt": check_bmt,
    "roundtrip": check_roundtrips,
    "functorial": check_functorial,
    "oracle": check_oracles,
}


def run_checks(names=None, max_n=None):
    """The results of the named checks, or all, each with its wall time;
    one that notes no line fails, and a name that is no check, or a
    `max_n` below 1, raises InvalidInput.

    The checks of one call share one table of lattices and listings (see
    the module docstring), made empty for the call and dropped when it
    returns.  A shared listing is made by the first check that asks for
    it, so its time counts toward that check's `seconds` only."""
    unknown = sorted(set(names or ()) - ALL_CHECKS.keys())
    if unknown:
        raise InvalidInput(f"unknown checks {unknown}; choose from {sorted(ALL_CHECKS)}")
    if max_n is not None and max_n < 1:
        raise InvalidInput(f"max_n (--max) must be at least 1, got {max_n}")
    results, token = [], _TABLE.set({})
    try:
        for name, fn in ALL_CHECKS.items():
            if names and name not in names:
                continue
            start = time.perf_counter()
            result = fn(max_n) if max_n is not None and name in ("catalan", "a102896", "bmt") else fn()
            result.seconds = time.perf_counter() - start
            if not result.lines:
                result.note(False, "checked nothing")
            results.append(result)
    finally:
        _TABLE.reset(token)
    return results
