"""JSON and DOT formats for the toolkit's values.

Transfer-system diagrams draw every non-reflexive relation with upward
(unmarked) edges, not just the covering ones; saturated-cover diagrams
draw the chosen cover edges in bold over the gray Hasse background.
Every DOT text comes from `lattice.dot_digraph`.
"""
from __future__ import annotations

import json

from .covers import SaturatedCover
from .lattice import _bits, dot_digraph, lattice_from_json, lattice_to_json
from .transfer import TransferSystem, closure_for


def system_to_json(system):
    return {
        "lattice": lattice_to_json(system.lattice),
        "pairs": [[x, y] for x, y in system.pairs()],
    }


def system_from_json(obj):
    lat = lattice_from_json(obj["lattice"])
    return TransferSystem.from_pairs(lat, [tuple(p) for p in obj["pairs"]])


def cover_to_json(cover):
    return {
        "lattice": lattice_to_json(cover.lattice),
        "edges": [[x, y] for x, y in cover.edges()],
    }


def cover_from_json(obj):
    lat = lattice_from_json(obj["lattice"])
    return SaturatedCover.from_edges(lat, [tuple(e) for e in obj["edges"]])


def json_lines(lat, items, kind):
    """`json.dumps(..., sort_keys=True)` of `operator_to_json`, `cover_to_json`
    (kind "covers") or `system_to_json` of each item on `lat`, encoding `lat` once."""
    if kind == "interior":
        return (json.dumps(operator_to_json(op), sort_keys=True) for op in items)
    lattice = json.dumps(lattice_to_json(lat), sort_keys=True)
    head, tail = '{"lattice": ' + lattice + ', "pairs": ', "}"
    if kind == "covers":  # "edges" sorts before "lattice"
        head, tail = '{"edges": ', ', "lattice": ' + lattice + "}"
    n, diag = lat.n, closure_for(lat).diag
    text = {x * n + y: f"[{x}, {y}]" for x in range(n) for y in _bits(lat.up[x] & ~(1 << x))}
    return (head + "[" + ", ".join([text[p] for p in _bits(r.bits & ~diag)]) + "]" + tail for r in items)


def operator_to_json(operator):
    return {"image": list(operator.image)}


def fiber_to_json(fiber):
    return {
        "operator": list(fiber.operator.image),
        "least_pairs": [[x, y] for x, y in fiber.least.pairs()],
        "greatest_pairs": [[x, y] for x, y in fiber.greatest.pairs()],
        "size": len(fiber.members),
    }


def pair_label(system, empty="(none)"):
    """The non-reflexive pairs of `system` as "a<b a<c ...", or `empty`."""
    return " ".join(f"{a}<{b}" for a, b in system.pairs()) or empty


def system_to_dot(system, title="transfer-system"):
    """All non-reflexive relations as upward edges."""
    edges = ((x, y, "arrowhead=none") for x, y in system.pairs())
    return dot_digraph(title, "shape=circle", system.lattice.names, edges)


def cover_to_dot(cover, title="saturated-cover"):
    """Chosen cover edges bold over the gray Hasse diagram."""
    chosen = set(cover.edges())
    edges = ((x, y, "arrowhead=none, " + ("penwidth=3" if (x, y) in chosen else "color=gray"))
             for x, y in cover.lattice.covers)
    return dot_digraph(title, "shape=circle, color=gray", cover.lattice.names, edges)


def tr_hasse_to_dot(tr):
    """The Hasse diagram of the refinement order on the TrLattice `tr`, one
    box per system, labelled by its pairs."""
    labels = (pair_label(system, "discrete") for system in tr)
    return dot_digraph("tr-hasse", "shape=box", labels, ((i, j, "") for i, j in tr.covers), prefix="t")


def dump(obj, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")
