"""Command-line front end.

Subcommands: enumerate (stream systems/covers/operators), verify (run the
count-verification table), export (DOT diagrams), fusion-count (the
four-term breakdown), rank-two (closed form plus block census).

Exit codes: 0 success, 1 verification mismatch, 2 usage error or malformed
input, 3 size guard breached.
"""
from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import serialize
from .characteristic import fiber_decomposition, interior_images
from .counting import bmt_decompose, count_tr_fusion, tr_rank_two
from .covers import enumerate_saturated_covers
from .errors import InvalidInput, SizeLimit, TrsysError
from .lattice import (
    boolean_cube,
    chain,
    iterated_fusion,
    lattice_from_json,
    lattice_to_dot,
    product,
    sub_cp_cp,
)
from .transfer import enumerate_saturated_systems, enumerate_transfer_systems
from .verify import ALL_CHECKS, run_checks

# The largest lattice built or read without --unsafe-guard, checked before
# any row is built.  A lattice holds each element's up-set as an int, and
# its down-sets by transposing them.  The order checks and the covers then
# OR one n-bit row per comparable pair, and the meet and join tables look up
# the AND of two rows in a dict for each of the n^2 pairs, most of the
# cost; a lattice JSON is first closed transitively on its rows.  On 2 CPUs
# with Python 3.11, 1,024 elements load in about 0.4 s (cube(10)) or are
# refused as unbounded in a few ms (an antichain).
MAX_ELEMENTS = 1024

# The most systems that `export --what tr-hasse` searches for without
# --unsafe-guard.  `TrLattice.covers` holds three m-bit masks per system on
# m systems and ANDs two of them for each comparable pair: Tr(chain(8)), with
# 4,862, takes about 1 s at 26 MB on 2 CPUs, and Tr(chain(10)), with 58,786,
# would ask for about 0.9 GB of masks.
MAX_TR_HASSE = 5_000

# The largest --p of rank-two: 2^(p+2) + p + 1 prints in at most 3,011 digits,
# inside Python's limit of 4,300, and trial division takes at most 100 steps.
_MAX_RANK_TWO_P = 10_000

# family: its size arguments, its element count from them and its builder.
# The cube's count is clamped, so that a huge --n is not raised to a power.
_FAMILIES = {
    "chain": (("n",), lambda n: n + 1, chain),
    "cube": (("n",), lambda n: 2 ** min(n, 64), boolean_cube),
    "rect": (("m", "n"), lambda m, n: (m + 1) * (n + 1), lambda m, n: product(chain(m), chain(n))),
    "fuse2": (("n",), lambda n: n + 2, lambda n: iterated_fusion(chain(2), n)),
    "subcpcp": (("p",), lambda p: p + 3, sub_cp_cp),
}


def _add_lattice_args(parser):
    parser.add_argument(
        "--family",
        choices=[*_FAMILIES, "json"],
        required=True,
        help="builtin lattice family, or 'json' to load one",
    )
    parser.add_argument("--n", type=int, default=None, help="size parameter")
    parser.add_argument("--m", type=int, default=None, help="second size parameter (rect)")
    parser.add_argument("--p", type=int, default=None, help="prime parameter (subcpcp)")
    parser.add_argument("--json", dest="json_path", default=None, help="lattice JSON path")
    parser.add_argument("--unsafe-guard", action="store_true", help="lift the size guards")
    parser.add_argument("--jobs", type=int, default=1, help="worker processes of the cover and interior searches")


def _require_nonnegative(args, *flags):
    for flag in flags:
        value = getattr(args, flag)
        if value is not None and value < 0:
            raise InvalidInput(f"--{flag} must be nonnegative, got {value}")


def _build_lattice(args):
    _require_nonnegative(args, "n", "m")
    if args.jobs < 1:
        raise InvalidInput(f"--jobs must be at least 1, got {args.jobs}")
    if args.family == "json":
        _require(args.json_path is not None, "--family json needs --json PATH")
        return _read_lattice(args.json_path, args.unsafe_guard)
    names, size, build = _FAMILIES[args.family]
    values = [getattr(args, name) for name in names]
    needs = " and ".join(f"--{name}" for name in names)
    _require(None not in values, f"--family {args.family} needs {needs}")
    if size(*values) > MAX_ELEMENTS and not args.unsafe_guard:
        raise SizeLimit(f"--family {args.family} would have more than {MAX_ELEMENTS} elements, the lattice guard")
    return build(*values)


def _read_lattice(path, unsafe_guard):
    try:
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
        if obj["n"] > MAX_ELEMENTS and not unsafe_guard:
            # refused before any row is built
            raise SizeLimit(f"{obj['n']} elements exceed the lattice JSON guard {MAX_ELEMENTS}")
        return lattice_from_json(obj)
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        # no readable file, invalid JSON, or not an {"n", "leq_pairs"} object of ints
        raise InvalidInput(f"cannot load a lattice from {path}: {exc!r}") from exc


def _require(condition, message):
    if not condition:
        raise InvalidInput(message)


def _lifted(args):
    """The leaf guard to pass to a library call: none under --unsafe-guard,
    and otherwise the library default."""
    return {"guard": None} if args.unsafe_guard else {}


# kind: its enumeration; interior items are image rows
_KINDS = {
    "transfer": enumerate_transfer_systems,
    "saturated": enumerate_saturated_systems,
    "covers": enumerate_saturated_covers,
    "interior": interior_images,
}


def _items(kind, lat, args):
    """The items of `kind` on `lat` from its one library call, whose leaf
    guard --unsafe-guard lifts; covers and interior images split across
    --jobs worker processes."""
    return _KINDS[kind](lat, jobs=args.jobs, **_lifted(args))


def _dots(items, name):
    """The DOT text of each of `items`, titled `{name}-{i:04d}`: covers if `name` is "cover"."""
    to_dot = serialize.cover_to_dot if name == "cover" else serialize.system_to_dot
    return (to_dot(item, f"{name}-{i:04d}") for i, item in enumerate(items))


def _write(path, text):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


def cmd_enumerate(args):
    kind = args.kind
    _require(args.out is None or args.format == "dot", "--out writes DOT files: it needs --format dot")
    if args.report == "fibers":
        _require(kind == "transfer" and args.format != "dot",
                 "--report fibers reads transfer systems: it takes no other --kind and no --format dot")
    else:
        _require(kind != "interior" or args.format != "dot", "--format dot is not defined for interior operators")
    lat = _build_lattice(args)
    if args.report == "fibers":
        return _print_fiber_report(_items("transfer", lat, args), args)
    items = _items(kind, lat, args)
    if args.format == "table":
        sys.stdout.writelines(line + "\n" for line in serialize.table_lines(items, kind))
    elif args.format == "json":
        sys.stdout.writelines(line + "\n" for line in serialize.json_lines(items, kind))
    else:  # dot
        dots = _dots(items, "cover" if kind == "covers" else kind)
        if args.out:
            os.makedirs(args.out, exist_ok=True)
            for i, text in enumerate(dots):
                _write(os.path.join(args.out, f"{kind}_{i:04d}.dot"), text)
        else:
            sys.stdout.writelines(text + "\n" for text in dots)
    print(f"{len(items)} items", file=sys.stderr)
    return 0


def _print_fiber_report(tr, args):
    fibers = fiber_decomposition(tr)
    if args.format == "json":
        for fiber in fibers:
            print(json.dumps(serialize.fiber_to_json(fiber), sort_keys=True))
    else:
        print(f"{'operator':<24} {'size':>4}  least / greatest")
        for fiber in fibers:
            op = ",".join(map(str, fiber.operator.image))
            least, greatest = serialize.pair_label(fiber.least), serialize.pair_label(fiber.greatest)
            print(f"{op:<24} {len(fiber.members):>4}  {least} / {greatest}")
    print(f"{len(fibers)} fibers", file=sys.stderr)
    return 0


def cmd_verify(args):
    _require_nonnegative(args, "max")
    _require(not args.check or args.check in ALL_CHECKS, f"unknown check {args.check!r}; choose from {sorted(ALL_CHECKS)}")
    results = run_checks([args.check] if args.check else None, max_n=args.max)
    if args.json:
        for result in results:
            record = {"name": result.name, "ok": result.ok, "seconds": round(result.seconds, 6), "lines": result.lines}
            print(json.dumps(record))
        return 0 if all(result.ok for result in results) else 1
    failed = 0
    for result in results:
        print(("PASS" if result.ok else "FAIL") + f" {result.name}")
        for line in result.lines:
            if args.verbose or not result.ok:
                print("  " + line)
        failed += 0 if result.ok else 1
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return 0 if failed == 0 else 1


def cmd_export(args):
    lat = _build_lattice(args)
    if args.what == "hasse":
        files = [("hasse.dot", lattice_to_dot(lat))]
    elif args.what == "tr-hasse":
        tr = enumerate_transfer_systems(lat, jobs=args.jobs, guard=None if args.unsafe_guard else MAX_TR_HASSE)
        files = [("tr_hasse.dot", serialize.tr_hasse_to_dot(tr))]
    else:  # one file per system or per cover, its DOT text made as it is written
        kind, name = ("transfer", "system") if args.what == "systems" else ("covers", "cover")
        files = ((f"{name}_{i:04d}.dot", text) for i, text in enumerate(_dots(_items(kind, lat, args), name)))
    # made once the output is built, so that a guard breach leaves no directory
    os.makedirs(args.out, exist_ok=True)
    for file, text in files:
        print(_write(os.path.join(args.out, file), text))
    return 0


def cmd_fusion_count(args):
    left = _read_lattice(args.left, args.unsafe_guard)
    right = _read_lattice(args.right, args.unsafe_guard)
    breakdown = count_tr_fusion(left, right, **_lifted(args))
    print(f"top term        {breakdown.top_term}")
    print(f"bottom term     {breakdown.bottom_term}")
    for a, c in breakdown.middle_terms_left:
        print(f"left fibrant {a}  {c}")
    for b, c in breakdown.middle_terms_right:
        print(f"right fibrant {b} {c}")
    print(f"total           {breakdown.total}")
    return 0


def cmd_rank_two(args):
    p = args.p
    if p > _MAX_RANK_TWO_P:
        raise SizeLimit(f"--p {p} is above the rank-two cap of {_MAX_RANK_TWO_P}")
    print(f"transfer systems for C_{p} x C_{p}: {tr_rank_two(p)}")
    try:
        dec = bmt_decompose(p + 1, **_lifted(args))
    except SizeLimit:
        print("census skipped: lattice exceeds the enumeration guard")
        return 0
    print(
        f"census: bottom cube {len(dec.bottom_cube)}, middle {len(dec.middle)}, "
        f"top cube {len(dec.top_cube)} (total {len(dec.tr)})"
    )
    return 0


@functools.cache
def build_parser():
    """The one parser of the process: a fresh parser per `main` call would
    leave its argparse objects in reference cycles."""
    parser = argparse.ArgumentParser(prog="trsys", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_enum = sub.add_parser("enumerate", help="stream transfer systems, covers, or operators")
    _add_lattice_args(p_enum)
    p_enum.add_argument("--kind", choices=["transfer", "saturated", "covers", "interior"], default="transfer")
    p_enum.add_argument("--report", choices=["fibers"], default=None,
                        help="print the chi-fiber table instead of streaming items")
    p_enum.add_argument("--format", choices=["table", "json", "dot"], default="table")
    p_enum.add_argument("--out", default=None, help="output directory for dot format")
    p_enum.set_defaults(func=cmd_enumerate)

    p_verify = sub.add_parser("verify", help="run the count-verification table")
    p_verify.add_argument("--check", default=None, help="run a single named check")
    p_verify.add_argument("--max", type=int, default=None, help="cap the family size where applicable")
    p_verify.add_argument("--verbose", action="store_true", help="print per-line detail")
    p_verify.add_argument("--json", action="store_true", help="print one JSON line per check: name, ok, seconds and lines")
    p_verify.set_defaults(func=cmd_verify)

    p_export = sub.add_parser("export", help="write DOT diagrams")
    _add_lattice_args(p_export)
    p_export.add_argument("--what", choices=["hasse", "tr-hasse", "systems", "covers"], default="tr-hasse")
    p_export.add_argument("--out", required=True, help="output directory")
    p_export.set_defaults(func=cmd_export)

    p_fusion = sub.add_parser("fusion-count", help="four-term fusion breakdown")
    p_fusion.add_argument("--left", required=True, help="left lattice JSON")
    p_fusion.add_argument("--right", required=True, help="right lattice JSON")
    p_fusion.add_argument("--unsafe-guard", action="store_true")
    p_fusion.set_defaults(func=cmd_fusion_count)

    p_rank = sub.add_parser("rank-two", help="closed form and block census for C_p x C_p")
    p_rank.add_argument("--p", type=int, required=True)
    p_rank.add_argument("--unsafe-guard", action="store_true")
    p_rank.set_defaults(func=cmd_rank_two)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SizeLimit as exc:
        print(f"guard breached: {exc}", file=sys.stderr)
        return 3
    except TrsysError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
