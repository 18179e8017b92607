"""Seeded inputs, one timed pass and the correctness gate of each workload.

Every input lattice is relabelled by a permutation drawn from a key: run.py
gives pass i of a run with seed s the key "s/i", and seed 0 keeps the
original labels.  Varying the labelling from pass to pass averages out how
much search work a labelling happens to cost, so a run's median does not
hinge on one permutation.  Counts do not depend on labels, and CLI outputs
are mapped back through the inverse permutation before they are digested,
so every pass is checked against the same recorded digest in expected.json.
The verify workload has no input lattice and ignores the key.

Library calls go through module attributes (``transfer.enumerate_...``), so
the wrappers that tracing.py installs on those attributes see them.
"""
from __future__ import annotations

import collections
import contextlib
import hashlib
import importlib
import io
import json
import os
import random
import re

import numpy as np

# `trsys.characteristic` is also the name of a function the package exports
characteristic, cli, covers, lattice, transfer = (
    importlib.import_module(f"trsys.{name}") for name in ("characteristic", "cli", "covers", "lattice", "transfer")
)

# (op, kind, function building the input) per scale; "full" is the benchmark, "tiny" its test
SEARCH_OPS = {
    "full": [
        ("tr_chain11", "transfer", lambda: lattice.chain(11)),
        ("tr_subcpcp13", "transfer", lambda: lattice.sub_cp_cp(13)),
        ("saturated_rect3x3", "saturated", lambda: lattice.product(lattice.chain(3), lattice.chain(3))),
        ("saturated_cube4", "saturated", lambda: lattice.boolean_cube(4)),
        ("covers_cube4", "covers", lambda: lattice.boolean_cube(4)),
        ("interior_rect4x4", "interior", lambda: lattice.product(lattice.chain(4), lattice.chain(4))),
    ],
    "tiny": [
        ("tr_chain4", "transfer", lambda: lattice.chain(4)),
        ("tr_subcpcp3", "transfer", lambda: lattice.sub_cp_cp(3)),
        ("saturated_rect1x2", "saturated", lambda: lattice.product(lattice.chain(1), lattice.chain(2))),
        ("saturated_cube2", "saturated", lambda: lattice.boolean_cube(2)),
        ("covers_cube2", "covers", lambda: lattice.boolean_cube(2)),
        ("interior_rect2x2", "interior", lambda: lattice.product(lattice.chain(2), lattice.chain(2))),
    ],
}

# (op, function building the input, CLI arguments after the lattice arguments)
CLI_OPS = {
    "full": [
        ("transfer_json", lambda: lattice.sub_cp_cp(11), ["enumerate", "--kind", "transfer", "--format", "json"]),
        ("interior_json", lambda: lattice.product(lattice.chain(3), lattice.chain(4)),
         ["enumerate", "--kind", "interior", "--format", "json", "--unsafe-guard"]),
        ("covers_json", lambda: lattice.boolean_cube(4), ["enumerate", "--kind", "covers", "--format", "json"]),
        ("tr_hasse", lambda: lattice.product(lattice.chain(2), lattice.chain(2)),
         ["export", "--what", "tr-hasse", "--unsafe-guard"]),
    ],
    "tiny": [
        ("transfer_json", lambda: lattice.sub_cp_cp(2), ["enumerate", "--kind", "transfer", "--format", "json"]),
        ("interior_json", lambda: lattice.product(lattice.chain(1), lattice.chain(2)),
         ["enumerate", "--kind", "interior", "--format", "json", "--unsafe-guard"]),
        ("covers_json", lambda: lattice.boolean_cube(3), ["enumerate", "--kind", "covers", "--format", "json"]),
        ("tr_hasse", lambda: lattice.boolean_cube(2), ["export", "--what", "tr-hasse", "--unsafe-guard"]),
    ],
}

VERIFY_ARGV = {"full": ["verify"], "tiny": ["verify", "--check", "catalan", "--max", "3"]}


def relabel(lat, key):
    """Copy of `lat` with its elements renamed by the permutation drawn
    from `key` (None keeps the labels), and the inverse map (new label ->
    old label)."""
    inv = list(range(lat.n))
    if key is not None:
        random.Random(key).shuffle(inv)
    leq = lat.leq[np.ix_(inv, inv)]
    return lattice.Lattice(leq, names=[lat.names[x] for x in inv]), inv


def digest(value):
    return hashlib.sha256(json.dumps(value, separators=(",", ":")).encode()).hexdigest()


def count_outputs(kind, lat):
    """One count-only library call."""
    if kind == "transfer":
        return len(transfer.enumerate_transfer_systems(lat, guard=None))
    if kind == "saturated":
        return len(transfer.enumerate_saturated_systems(lat, guard=None))
    if kind == "covers":
        return len(covers.enumerate_saturated_covers(lat, guard=None))
    return characteristic.count_interior_operators(lat, max_elements=lat.n)


# What one operation produced: a count, an exit code and, for outputs
# checked exactly, the digest of their label-free form.
Outcome = collections.namedtuple("Outcome", "count code digest", defaults=(0, None))


class Search:
    """Count-only library calls on a few large inputs."""

    def __init__(self, scale, key, workdir):
        self.inputs = [(op, kind, relabel(build(), key)[0]) for op, kind, build in SEARCH_OPS[scale]]
        self.counts = {}

    def run(self):
        for op, kind, lat in self.inputs:
            self.counts[op] = count_outputs(kind, lat)

    def outcomes(self):
        return {op: Outcome(count) for op, count in self.counts.items()}

    def bytes_out(self):
        return 0


class Cli:
    """The in-process CLI materializing and printing every output."""

    def __init__(self, scale, key, workdir):
        self.workdir = workdir
        self.ops = []
        for op, build, args in CLI_OPS[scale]:
            lat, inv = relabel(build(), key)
            path = os.path.join(workdir, f"{op}.lattice.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(lattice.lattice_to_json(lat), fh)
            argv = args[:1] + ["--family", "json", "--json", path] + args[1:]
            if args[0] == "export":
                argv += ["--out", self._export_dir(op)]
            self.ops.append((op, argv, lat, inv))
        self.codes = {}

    def _export_dir(self, op):
        return os.path.join(self.workdir, f"{op}.export")

    def _stdout_path(self, op):
        return os.path.join(self.workdir, f"{op}.out")

    def run(self):
        for op, argv, _, _ in self.ops:
            with open(self._stdout_path(op), "w", encoding="utf-8") as out, \
                    contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                self.codes[op] = cli.main(argv)

    def written_files(self):
        for op, argv, _, _ in self.ops:
            yield self._stdout_path(op)
            if argv[0] == "export":
                yield os.path.join(self._export_dir(op), "tr_hasse.dot")

    def bytes_out(self):
        return sum(os.path.getsize(path) for path in self.written_files() if os.path.exists(path))

    def outcomes(self):
        result = {}
        for op, argv, lat, inv in self.ops:
            code = self.codes.get(op)
            try:
                if argv[0] == "export":
                    with open(os.path.join(self._export_dir(op), "tr_hasse.dot"), encoding="utf-8") as fh:
                        count, dig = hasse_digest(fh.read(), inv)
                else:
                    with open(self._stdout_path(op), encoding="utf-8") as fh:
                        count, dig = lines_digest(fh.read().splitlines(), lat, inv)
            except (OSError, ValueError, KeyError, TypeError, IndexError):
                count, dig = None, None
            result[op] = Outcome(count, code, dig)
        return result


def _pairs_back(pairs, inv):
    return sorted([inv[a], inv[b]] for a, b in pairs)


def lines_digest(lines, lat, inv):
    """Count and digest of JSON-lines output, in the original labels.

    Every line must carry the input lattice exactly as it was written."""
    lattice_json = lattice.lattice_to_json(lat)
    perm = [0] * len(inv)
    for new, old in enumerate(inv):
        perm[old] = new
    rows = []
    for line in lines:
        obj = json.loads(line)
        if "image" in obj:
            image = obj["image"]
            rows.append([inv[image[perm[x]]] for x in range(len(inv))])
            continue
        if obj["lattice"] != lattice_json:
            raise ValueError("output carries a different lattice")
        rows.append(_pairs_back(obj["pairs"] if "pairs" in obj else obj["edges"], inv))
    rows.sort()
    return len(rows), digest(rows)


_NODE = re.compile(r'\s*t(\d+) \[label="([^"]*)"\];$')
_EDGE = re.compile(r"\s*t(\d+) -> t(\d+);$")


def hasse_digest(text, inv):
    """Node count and digest of a tr-hasse DOT file, in the original labels."""
    nodes = {}
    edges = []
    for line in text.splitlines():
        match = _NODE.match(line)
        if match:
            label = match.group(2)
            pairs = [] if label == "discrete" else [p.split("<") for p in label.split()]
            nodes[match.group(1)] = _pairs_back([(int(a), int(b)) for a, b in pairs], inv)
            continue
        match = _EDGE.match(line)
        if match:
            edges.append([nodes[match.group(1)], nodes[match.group(2)]])
    edges.sort()
    return len(nodes), digest({"nodes": sorted(nodes.values()), "edges": edges})


class Verify:
    """`trsys verify`: all ten checks.  Has no input lattice to relabel."""

    def __init__(self, scale, key, workdir):
        self.argv = VERIFY_ARGV[scale]
        self.code = None
        self.stdout = ""

    def run(self):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            self.code = cli.main(self.argv)
        self.stdout = out.getvalue()

    def outcomes(self):
        passed = sum(line.startswith("PASS ") for line in self.stdout.splitlines())
        return {"verify": Outcome(passed, self.code, digest(self.stdout))}

    def bytes_out(self):
        return len(self.stdout.encode())


WORKLOADS = {"search": Search, "cli": Cli, "verify": Verify}


def gate(outcomes, expected):
    """Compare every operation with its expected count, exit code and
    digest.  Returns (failed operation names, verified output count)."""
    failed = []
    verified = 0
    for op, want in expected.items():
        got = outcomes.get(op)
        ok = (
            got is not None
            and got.code == 0
            and got.count == want["count"]
            and got.digest == want.get("digest")
        )
        if ok:
            verified += got.count
        else:
            failed.append(op)
    return failed, verified
