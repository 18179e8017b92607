"""JSON and DOT formats for the toolkit's values.

Transfer-system diagrams draw every non-reflexive relation with upward
(unmarked) edges, not just the covering ones; saturated-cover diagrams
draw the chosen cover edges in bold over the gray Hasse background.
"""
from __future__ import annotations

import json

from .covers import SaturatedCover
from .lattice import lattice_from_json, lattice_to_json
from .transfer import TransferSystem


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
    return (head + "[" + ", ".join(f"[{x}, {y}]" for x, y in r.pairs()) + "]" + tail for r in items)


def operator_to_json(operator):
    return {"image": list(operator.image)}


def fiber_to_json(fiber):
    return {
        "operator": list(fiber.operator.image),
        "least_pairs": [[x, y] for x, y in fiber.least.pairs()],
        "greatest_pairs": [[x, y] for x, y in fiber.greatest.pairs()],
        "size": len(fiber.members),
    }


def system_to_dot(system, title="transfer-system"):
    """All non-reflexive relations as upward edges."""
    lat = system.lattice
    lines = [f'digraph "{title}" {{', "  rankdir=BT;", "  node [shape=circle];"]
    for x in range(lat.n):
        lines.append(f'  v{x} [label="{lat.names[x]}"];')
    for x, y in system.pairs():
        lines.append(f"  v{x} -> v{y} [arrowhead=none];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def cover_to_dot(cover, title="saturated-cover"):
    """Chosen cover edges bold over the gray Hasse diagram."""
    lat = cover.lattice
    chosen = set(cover.edges())
    lines = [f'digraph "{title}" {{', "  rankdir=BT;", "  node [shape=circle, color=gray];"]
    for x in range(lat.n):
        lines.append(f'  v{x} [label="{lat.names[x]}"];')
    for x, y in lat.covers:
        if (x, y) in chosen:
            lines.append(f"  v{x} -> v{y} [arrowhead=none, penwidth=3];")
        else:
            lines.append(f"  v{x} -> v{y} [arrowhead=none, color=gray];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def dump(obj, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")
