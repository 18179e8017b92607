"""Write expected.json: every expected count from a second route, and the
digest of every checked output in the original labels.

    python3 benchmarks/record.py            # about half a minute

Each count is computed along a route other than the one the workload runs
(a closed formula, or another engine that must agree on modular lattices:
interior operators = saturated systems = saturated covers), and a pass on
the original labels must reproduce it before anything is written.  Run this
only when the workloads change, never to make a failing run pass.
"""
import importlib
import json
import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads  # noqa: E402
characteristic, counting, lattice, transfer = (
    importlib.import_module(f"trsys.{name}") for name in ("characteristic", "counting", "lattice", "transfer")
)


def interior(lat):
    return characteristic.count_interior_operators(lat, max_elements=lat.n)


def saturated(lat):
    return len(transfer.enumerate_saturated_systems(lat, guard=None))


def tr_parallel(lat):
    return len(transfer.enumerate_transfer_systems(lat, guard=None, jobs=2))


def rect(m, n):
    return lattice.product(lattice.chain(m), lattice.chain(n))


# op -> (description of the second route, its count)
ROUTES = {
    "search": {
        "full": {
            "tr_chain11": ("catalan(12)", lambda: counting.catalan(12)),
            "tr_subcpcp13": ("tr_rank_two(13)", lambda: counting.tr_rank_two(13)),
            "saturated_rect3x3": ("interior operators on [3]x[3]", lambda: interior(rect(3, 3))),
            "saturated_cube4": ("interior operators on cube(4)", lambda: interior(lattice.boolean_cube(4))),
            "covers_cube4": ("saturated systems on cube(4)", lambda: saturated(lattice.boolean_cube(4))),
            "interior_rect4x4": ("saturated systems on [4]x[4]", lambda: saturated(rect(4, 4))),
        },
        "tiny": {
            "tr_chain4": ("catalan(5)", lambda: counting.catalan(5)),
            "tr_subcpcp3": ("tr_rank_two(3)", lambda: counting.tr_rank_two(3)),
            "saturated_rect1x2": ("interior operators on [1]x[2]", lambda: interior(rect(1, 2))),
            "saturated_cube2": ("interior operators on cube(2)", lambda: interior(lattice.boolean_cube(2))),
            "covers_cube2": ("saturated systems on cube(2)", lambda: saturated(lattice.boolean_cube(2))),
            "interior_rect2x2": ("saturated systems on [2]x[2]", lambda: saturated(rect(2, 2))),
        },
    },
    "cli": {
        "full": {
            "transfer_json": ("tr_rank_two(11)", lambda: counting.tr_rank_two(11)),
            "interior_json": ("saturated systems on [3]x[4]", lambda: saturated(rect(3, 4))),
            "covers_json": ("interior operators on cube(4)", lambda: interior(lattice.boolean_cube(4))),
            "tr_hasse": ("Tr([2]x[2]) by the two-process frontier split", lambda: tr_parallel(rect(2, 2))),
        },
        "tiny": {
            "transfer_json": ("tr_rank_two(2)", lambda: counting.tr_rank_two(2)),
            "interior_json": ("saturated systems on [1]x[2]", lambda: saturated(rect(1, 2))),
            "covers_json": ("interior operators on cube(3)", lambda: interior(lattice.boolean_cube(3))),
            "tr_hasse": ("Tr(cube(2)) by the two-process frontier split", lambda: tr_parallel(lattice.boolean_cube(2))),
        },
    },
    "verify": {
        "full": {"verify": ("the ten checks of trsys.verify.ALL_CHECKS", lambda: 10)},
        "tiny": {"verify": ("the catalan check alone", lambda: 1)},
    },
}


def main():
    table = {}
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="record-", dir=os.path.join(HERE, "out"))
    try:
        for name, scales in ROUTES.items():
            table[name] = {}
            for scale, routes in scales.items():
                workload = workloads.WORKLOADS[name](scale, None, workdir)
                workload.run()
                outcomes = workload.outcomes()
                table[name][scale] = {}
                for op, (route, count) in routes.items():
                    want = count()
                    got = outcomes[op]
                    if got.code != 0 or got.count != want:
                        raise SystemExit(f"{name}/{scale}/{op}: pass gave {got.count} (exit {got.code}), {route} gives {want}")
                    entry = {"count": want, "route": route}
                    if got.digest is not None:
                        entry["digest"] = got.digest
                    table[name][scale][op] = entry
                    print(f"{name:7s} {scale:5s} {op:18s} {want:>8d}  {route}", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(os.path.join(HERE, "expected.json"), "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=2)
        fh.write("\n")


if __name__ == "__main__":
    main()
