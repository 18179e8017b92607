"""JSON and DOT formats for the toolkit's values.

Transfer-system diagrams draw every non-reflexive relation with upward
(unmarked) edges, not just the covering ones; saturated-cover diagrams
draw the chosen cover edges in bold over the gray Hasse background.
Every DOT text comes from `lattice.dot_digraph`.  The per-item writers
join text made once per lattice, read off a relation a byte at a time.
"""
from __future__ import annotations

import json

from .covers import SaturatedCover
from .lattice import _byte_tables, dot_digraph, lattice_from_json, lattice_to_json, per_lattice
from .transfer import TransferSystem, TrLattice


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


def json_lines(items, kind):
    """`json.dumps(..., sort_keys=True)` of `operator_to_json`, `cover_to_json`
    (kind "covers") or `system_to_json` of each of `items`, byte for byte.
    Interior items are image rows, as `characteristic.interior_images` gives
    them, each line that of the operator with that image, joined from number
    strings.  The others are joined from the lattice of the first, encoded
    once, and `_json_tables`, and must share that lattice; a `TrLattice` is
    read off its `bits` and `lattice`, without building its systems."""
    if kind == "interior":
        number = _NUMBERS.__getitem__
        return ('{"image": [' + ", ".join(map(number, row)) + "]}" for row in items)
    if not items:
        return []
    lat, rows = _relations(items)
    lattice = json.dumps(lattice_to_json(lat), sort_keys=True)
    head, tail = '{"lattice": ' + lattice + ', "pairs": [', "]}"
    if kind == "covers":  # "edges" sorts before "lattice"
        head, tail = '{"edges": [', '], "lattice": ' + lattice + "}"
    tables = _json_tables(lat)
    return (head + _pairs_text(tables, bits, ", ") + tail for bits in rows)


def table_lines(items, kind):
    """The `--format table` line of each of `items`: `image_text` of an
    interior image row, and otherwise `pair_label`, read like `json_lines`."""
    if kind == "interior":
        return map(image_text, items)
    return _pair_labels(items, "(none)")


def _relations(items):
    """The lattice of the non-empty `items` and the bits of each: a
    `TrLattice`'s own, so that none of its systems is built."""
    if isinstance(items, TrLattice):
        return items.lattice, items.bits
    return items[0].lattice, (item.bits for item in items)


_NUMBERS = [str(x) for x in range(256)]


def image_text(row):
    """The labels of an image row, each at most 255, as numbers joined by spaces."""
    return " ".join(map(_NUMBERS.__getitem__, row))


def _text_tables(lat, form, sep):
    """`_byte_tables` of a relation's bits to the `form` of each non-reflexive
    pair (x, y) it holds, joined by `sep`; the diagonal has no text."""
    up = [row & ~(1 << x) for x, row in enumerate(lat.up)]
    texts = [form.format(x, y) if up[x] >> y & 1 else "" for x in range(lat.n) for y in range(lat.n)]
    return _byte_tables(texts, lambda low, rest: low + sep + rest, "")


_json_tables = per_lattice(lambda lat: _text_tables(lat, "[{}, {}]", ", "))
_label_tables = per_lattice(lambda lat: _text_tables(lat, "{}<{}", " "))


def _pairs_text(tables, bits, sep):
    """The non-empty entries that the bytes of `bits` select, joined by `sep`."""
    return sep.join(filter(None, map(list.__getitem__, tables, bits.to_bytes(len(tables), "little"))))


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
    return _pairs_text(_label_tables(system.lattice), system.bits, " ") or empty


def _pair_labels(items, empty):
    """`pair_label` of each of `items`, which share one lattice (see `_relations`)."""
    if not items:
        return []
    lat, rows = _relations(items)
    tables = _label_tables(lat)
    return (_pairs_text(tables, bits, " ") or empty for bits in rows)


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
    box per system, labelled by its pairs, read off `tr.bits`."""
    labels = _pair_labels(tr, "discrete")
    return dot_digraph("tr-hasse", "shape=box", labels, ((i, j, "") for i, j in tr.covers), prefix="t")


def dump(obj, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")
