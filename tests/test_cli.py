import argparse
import json
import os
import random
import subprocess
import sys
import time
from unittest import mock

import numpy as np
import pytest

from trsys import cli
from trsys.characteristic import InteriorOperator, enumerate_interior_operators
from trsys.cli import main
from trsys.covers import enumerate_saturated_covers
from trsys.errors import InvalidInput
from trsys.lattice import (
    Lattice,
    boolean_cube,
    chain,
    iterated_fusion,
    lattice_to_dot,
    lattice_to_json,
    product,
    sub_cp_cp,
)
from trsys.search import leaves
from trsys.serialize import (
    cover_to_dot,
    cover_to_json,
    dump,
    json_lines,
    operator_to_json,
    pair_label,
    system_to_dot,
    system_to_json,
    table_lines,
    tr_hasse_to_dot,
)
from trsys.transfer import (
    TransferSystem,
    TrLattice,
    discrete_system,
    enumerate_saturated_systems,
    enumerate_transfer_systems,
)


def run_cli(args, capsys):
    code = main(args)
    out, err = capsys.readouterr()
    return code, out, err


def test_enumerate_transfer_counts(capsys):
    code, out, err = run_cli(
        ["enumerate", "--family", "chain", "--n", "2", "--kind", "transfer"], capsys
    )
    assert code == 0
    assert len(out.strip().splitlines()) == 5
    assert "5 items" in err


def test_enumerate_covers_count(capsys):
    code, out, err = run_cli(
        ["enumerate", "--family", "cube", "--n", "3", "--kind", "covers"], capsys
    )
    assert code == 0
    assert len(out.strip().splitlines()) == 61


def test_enumerate_interior_count(capsys):
    code, out, err = run_cli(
        ["enumerate", "--family", "fuse2", "--n", "3", "--kind", "interior"], capsys
    )
    assert code == 0
    assert len(out.strip().splitlines()) == 12


def test_enumerate_saturated_json(capsys):
    code, out, err = run_cli(
        ["enumerate", "--family", "fuse2", "--n", "3", "--kind", "saturated",
         "--format", "json"],
        capsys,
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 12
    for line in lines:
        obj = json.loads(line)
        assert set(obj) == {"lattice", "pairs"}
        assert set(obj["lattice"]) == {"n", "names", "leq_pairs"}


def relabelled(lat, seed):
    perm = random.Random(seed).sample(range(lat.n), lat.n)
    return Lattice(lat.leq[np.ix_(perm, perm)], names=[lat.names[x] for x in perm])


# Relations of n^2 = 64, 25, 36 and 144 bits: chain(4) and Sub(C3 x C3) end
# inside a table byte, and the relabelled [2]x[3] spans 18 table bytes
AWKWARD = [boolean_cube(3), chain(4), sub_cp_cp(3), relabelled(product(chain(2), chain(3)), 21)]

LIBRARY = {
    "transfer": (enumerate_transfer_systems, system_to_json),
    "saturated": (enumerate_saturated_systems, system_to_json),
    "covers": (enumerate_saturated_covers, cover_to_json),
    "interior": (enumerate_interior_operators, operator_to_json),
}


def enumerate_on(lat, tmp_path, capsys, *args):
    """The CLI's enumerate on `lat`, read back from its lattice JSON."""
    path = tmp_path / "lattice.json"
    path.write_text(json.dumps(lattice_to_json(lat)))
    return run_cli(["enumerate", "--family", "json", "--json", str(path), *args], capsys)


@pytest.mark.parametrize("kind", ["transfer", "saturated", "covers", "interior"])
def test_json_lines_are_the_dumps_of_the_library_dicts(capsys, tmp_path, kind):
    search, to_json = LIBRARY[kind]
    for lat in AWKWARD:
        items = search(lat)
        code, out, _ = enumerate_on(lat, tmp_path, capsys, "--kind", kind, "--format", "json")
        assert code == 0
        assert out == "".join(json.dumps(to_json(item), sort_keys=True) + "\n" for item in items)
        first = out.splitlines()[0]  # the discrete system, or its empty cover
        if kind in ("transfer", "saturated"):
            assert first == json.dumps(system_to_json(discrete_system(lat)), sort_keys=True)
            assert first.endswith(', "pairs": []}')
        elif kind == "covers":
            assert first.startswith('{"edges": [], ')


def test_json_lines_carry_the_lattice_of_their_items():
    # no lattice is passed beside the items, so none can disagree with theirs
    cube2 = boolean_cube(2)
    items = enumerate_transfer_systems(cube2)
    lines = list(json_lines(items, "transfer"))
    assert lines == [json.dumps(system_to_json(s), sort_keys=True) for s in items]
    assert all(json.loads(line)["lattice"] == lattice_to_json(cube2) for line in lines)
    for kind in LIBRARY:
        assert list(json_lines([], kind)) == []


def test_interior_lines_are_the_library_operators_and_build_none(capsys, tmp_path, monkeypatch):
    # the CLI writes the image rows of interior_images, in a table and in JSON,
    # and wraps no InteriorOperator on the way
    wanted = {lat: enumerate_interior_operators(lat) for lat in AWKWARD}
    monkeypatch.setattr(InteriorOperator, "_wrap", lambda *args: pytest.fail("wrapped an operator"))
    monkeypatch.setattr(InteriorOperator, "__init__", lambda *args: pytest.fail("built an operator"))
    for lat, ops in wanted.items():
        code, out, _ = enumerate_on(lat, tmp_path, capsys, "--kind", "interior", "--format", "table")
        assert code == 0
        assert out == "".join(" ".join(map(str, op.image)) + "\n" for op in ops)
        code, out, _ = enumerate_on(lat, tmp_path, capsys, "--kind", "interior", "--format", "json")
        assert code == 0
        assert out == "".join(json.dumps(operator_to_json(op), sort_keys=True) + "\n" for op in ops)
        assert list(json_lines([op.image for op in ops], "interior")) == out.splitlines()


def test_transfer_lines_and_tr_hasse_labels_build_no_system(capsys, tmp_path, monkeypatch):
    # the transfer writers read a TrLattice's bits and lattice, so the JSON and
    # table lines and the Tr Hasse labels build no TransferSystem on the way;
    # the export's guard admits the Tr of the first three lattices
    wanted = {}
    for lat in AWKWARD[:3]:
        systems = list(enumerate_transfer_systems(lat))
        assert len(systems) <= cli.MAX_TR_HASSE
        wanted[lat] = ([json.dumps(system_to_json(s), sort_keys=True) for s in systems],
                       [pair_label(s) for s in systems], [pair_label(s, "discrete") for s in systems])
    monkeypatch.setattr(TransferSystem, "_wrap", lambda *args: pytest.fail("wrapped a system"))
    monkeypatch.setattr(TransferSystem, "__init__", lambda *args: pytest.fail("built a system"))
    for lat, (dumps, labels, boxes) in wanted.items():
        code, out, _ = enumerate_on(lat, tmp_path, capsys, "--kind", "transfer", "--format", "json")
        assert (code, out.splitlines()) == (0, dumps)
        code, out, _ = enumerate_on(lat, tmp_path, capsys, "--kind", "transfer", "--format", "table")
        assert (code, out.splitlines()) == (0, labels)
        tr = enumerate_transfer_systems(lat)
        assert list(json_lines(tr, "transfer")) == dumps and list(table_lines(tr, "transfer")) == labels
        dot = tr_hasse_to_dot(tr).splitlines()
        assert [line for line in dot if "[label=" in line] == [f'  t{i} [label="{box}"];' for i, box in enumerate(boxes)]


def test_interior_enumeration_past_256_elements_exits_three(capsys, monkeypatch):
    # chain(256) passes the lattice guard, and --unsafe-guard lifts the leaf guard
    # of the interior search; its 257 labels do not fit a byte, so it stops before searching
    monkeypatch.setattr("trsys.search.leaves", lambda *args: pytest.fail("searched"))
    code, out, err = run_cli(["enumerate", "--family", "chain", "--n", "256", "--kind", "interior", "--unsafe-guard"], capsys)
    assert (code, out) == (3, "")
    assert err == "guard breached: 257 elements exceed the 256 labels of a one-byte image row\n"


@pytest.mark.parametrize("kind", ["transfer", "saturated", "covers"])
def test_table_lines_are_the_labels_of_the_pairs(capsys, tmp_path, kind):
    search, _ = LIBRARY[kind]
    for lat in AWKWARD:
        items = search(lat)
        code, out, _ = enumerate_on(lat, tmp_path, capsys, "--kind", kind)
        assert code == 0
        assert out == "".join((" ".join(f"{a}<{b}" for a, b in item.pairs()) or "(none)") + "\n" for item in items)
        assert pair_label(discrete_system(lat), "discrete") == "discrete"


def test_enumerate_interior_json_format(capsys):
    code, out, err = run_cli(
        ["enumerate", "--family", "chain", "--n", "2", "--kind", "interior",
         "--format", "json"],
        capsys,
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert [json.loads(l) for l in lines] == [
        {"image": [0, 0, 0]},
        {"image": [0, 0, 2]},
        {"image": [0, 1, 1]},
        {"image": [0, 1, 2]},
    ]


def test_fiber_report(capsys):
    code, out, err = run_cli(
        ["enumerate", "--family", "fuse2", "--n", "3", "--report", "fibers"], capsys
    )
    assert code == 0
    assert "12 fibers" in err
    lines = out.strip().splitlines()
    assert len(lines) == 13  # header plus one row per fiber
    assert lines[1].split()[1] == "8"  # the top-cube fiber is listed first


def test_fiber_report_json(capsys):
    code, out, err = run_cli(
        ["enumerate", "--family", "chain", "--n", "2", "--report", "fibers",
         "--format", "json"],
        capsys,
    )
    assert code == 0
    rows = [json.loads(l) for l in out.strip().splitlines()]
    assert len(rows) == 4
    assert all(set(r) == {"operator", "least_pairs", "greatest_pairs", "size"} for r in rows)
    assert sorted(r["size"] for r in rows) == [1, 1, 1, 2]


@pytest.mark.parametrize(
    "flags",
    [["--format", "dot"], ["--kind", "saturated"], ["--kind", "covers"], ["--kind", "interior"]],
    ids=["dot", "saturated", "covers", "interior"],
)
def test_fiber_report_refuses_other_formats_and_kinds(capsys, monkeypatch, flags):
    def built(*args):
        raise AssertionError("the lattice was built")

    monkeypatch.setitem(cli._FAMILIES, "chain", (("n",), lambda n: n + 1, built))
    code, out, err = run_cli(["enumerate", "--family", "chain", "--n", "2", "--report", "fibers", *flags], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: --report fibers") and err.count("\n") == 1


@pytest.mark.parametrize(
    "flags",
    [["--format", "table"], ["--format", "json"], ["--report", "fibers"]],
    ids=["table", "json", "fibers"],
)
def test_out_without_format_dot_exits_two(capsys, monkeypatch, tmp_path, flags):
    def built(*args):
        raise AssertionError("the lattice was built")

    monkeypatch.setitem(cli._FAMILIES, "chain", (("n",), lambda n: n + 1, built))
    out = tmp_path / "out"
    code, _, err = run_cli(["enumerate", "--family", "chain", "--n", "2", "--out", str(out), *flags], capsys)
    assert code == 2
    assert err == "error: --out writes DOT files: it needs --format dot\n"
    assert not out.exists()


def test_guard_breach_exits_three(capsys):
    code, out, err = run_cli(
        ["enumerate", "--family", "cube", "--n", "4", "--kind", "transfer"], capsys
    )
    assert code == 3
    assert "guard" in err


def test_default_guard_admits_the_grid_of_two_by_two(capsys):
    # 27 non-reflexive pairs, which the old guard of 26 pairs refused
    code, out, err = run_cli(
        ["enumerate", "--family", "rect", "--m", "2", "--n", "2", "--format", "json"], capsys
    )
    assert code == 0
    assert len(out.splitlines()) == 1396
    assert err == "1396 items\n"


@pytest.mark.parametrize(
    "family,at_cap,over_cap",
    [
        ("chain", ["--n", "1023"], ["--n", "1024"]),
        ("cube", ["--n", "10"], ["--n", "11"]),
        ("cube", ["--n", "10"], ["--n", str(10**100)]),
        ("rect", ["--m", "31", "--n", "31"], ["--m", "31", "--n", "32"]),
        ("fuse2", ["--n", "1022"], ["--n", "1023"]),
        ("subcpcp", ["--p", "1021"], ["--p", "1031"]),
    ],
    ids=["chain", "cube", "huge-cube", "rect", "fuse2", "subcpcp"],
)
def test_family_over_the_element_cap_is_refused_before_it_is_built(capsys, monkeypatch, family, at_cap, over_cap):
    # a lattice of 1,024 elements reaches its builder, and one past it is
    # refused from the arguments alone, also a cube whose element count
    # would have a googol of bits
    def build(*values):
        raise InvalidInput(f"built from {values}")

    names, size, _ = cli._FAMILIES[family]
    monkeypatch.setitem(cli._FAMILIES, family, (names, size, build))
    code, out, err = run_cli(["enumerate", "--family", family, *at_cap], capsys)
    assert code == 2 and err.startswith("error: built from")
    code, out, err = run_cli(["enumerate", "--family", family, *over_cap], capsys)
    assert code == 3
    assert err == f"guard breached: --family {family} would have more than 1024 elements, the lattice guard\n"
    code, out, err = run_cli(["enumerate", "--family", family, *over_cap, "--unsafe-guard"], capsys)
    assert code == 2 and err.startswith("error: built from")


def test_usage_error_exits_two(capsys):
    code, out, err = run_cli(["enumerate", "--family", "chain", "--kind", "transfer"], capsys)
    assert (code, out, err) == (2, "", "error: --family chain needs --n\n")


def test_interior_dot_exits_two_before_enumerating(monkeypatch, capsys):
    def enumerate_called(*args, **kwargs):
        raise AssertionError("enumerated before checking the format")

    monkeypatch.setattr("trsys.search.leaves", enumerate_called)
    code, out, err = run_cli(["enumerate", "--family", "cube", "--n", "3", "--kind", "interior", "--format", "dot"], capsys)
    assert (code, out, err) == (2, "", "error: --format dot is not defined for interior operators\n")


@pytest.mark.parametrize(
    "args,content",
    [
        (["--family", "json", "--json", "{path}"], None),
        (["--family", "json", "--json", "{path}"], "{not json"),
        (["--family", "json", "--json", "{path}"], '{"n": 3}'),
        (["--family", "json", "--json", "{path}"], '{"n": 3, "leq_pairs": [["a", 1]]}'),
        (["--family", "json", "--json", "{path}"], '{"n": true, "leq_pairs": []}'),
        (["--family", "json", "--json", "{path}"], '{"n": 1.0, "leq_pairs": []}'),
        (["--family", "json", "--json", "{path}"], '{"n": 2, "leq_pairs": [[0, true]]}'),
        (["--family", "json", "--json", "{path}"], '{"n": 2, "leq_pairs": [[0, 1, 1]]}'),
        (["--family", "json", "--json", "{path}"], '{"n": 3, "leq_pairs": [[0, 1], [1, 2]], "names": "abc"}'),
        (["--family", "json", "--json", "{path}"], '{"n": 3, "leq_pairs": [[0, 1], [1, 2]], "names": ["a", "a", "b"]}'),
        (["--family", "json", "--json", "{path}"], '{"n": 3, "leq_pairs": [[0, 1], [1, 2]], "names": ["a", "b"]}'),
        (["--family", "json", "--json", "{path}"], '{"n": 3, "leq_pairs": [[0, 1], [1, 2]], "names": [0, 1, 2]}'),
        (["--family", "chain", "--n", "-3"], None),
    ],
    ids=["missing-file", "invalid-json", "missing-leq-pairs", "non-int-pair", "bool-n", "float-n", "bool-pair",
         "three-int-pair", "string-names", "duplicate-names", "short-names", "int-names", "negative-n"],
)
def test_malformed_lattice_input_exits_two(tmp_path, capsys, args, content):
    path = tmp_path / "lat.json"
    if content is not None:
        path.write_text(content)
    argv = ["enumerate", *(a.format(path=path) for a in args), "--kind", "transfer"]
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_oversized_lattice_json_is_refused_before_it_is_built(tmp_path, capsys, monkeypatch):
    # n is read before any array is built: an order matrix for 100,000
    # elements would take 10 GB
    path = tmp_path / "lat.json"
    path.write_text('{"n": 100000, "leq_pairs": []}')
    with monkeypatch.context() as patched:
        patched.setattr(cli, "lattice_from_json", lambda obj: pytest.fail("built before the guard"))
        for argv in (
            ["enumerate", "--family", "json", "--json", str(path)],
            ["fusion-count", "--left", str(path), "--right", str(path)],
        ):
            start = time.perf_counter()
            code, out, err = run_cli(argv, capsys)
            assert time.perf_counter() - start < 1
            assert code == 3
            assert err.startswith("guard breached: 100000 elements")
    # one above the cap, --unsafe-guard builds the order, an antichain,
    # which is then refused as unbounded
    path.write_text(json.dumps({"n": cli.MAX_ELEMENTS + 1, "leq_pairs": []}))
    code, out, err = run_cli(
        ["enumerate", "--family", "json", "--json", str(path), "--unsafe-guard"], capsys
    )
    assert code == 2
    assert "bottom" in err


def test_output_is_deterministic_across_jobs(capsys):
    # the systems in JSON, the fiber report as a table and in JSON, and the
    # 533 interior operators of [2]x[3] in JSON
    fuse2, rect = ["--family", "fuse2", "--n", "4"], ["--family", "rect", "--m", "2", "--n", "3"]
    for lattice, flags in [
        (fuse2, ["--format", "json"]),
        (fuse2, ["--report", "fibers"]),
        (fuse2, ["--report", "fibers", "--format", "json"]),
        (rect, ["--kind", "interior", "--format", "json"]),
    ]:
        base = ["enumerate", *lattice, *flags]
        _, out1, _ = run_cli(base, capsys)
        _, out2, _ = run_cli(base + ["--jobs", "2"], capsys)
        _, out3, _ = run_cli(base, capsys)
        assert out1 == out2 == out3


def test_verify_single_check(capsys):
    code, out, err = run_cli(["verify", "--check", "catalan"], capsys)
    assert code == 0
    assert "PASS catalan" in out


@pytest.mark.parametrize("check", ["catalan", "a102896"])
def test_verify_negative_max_exits_two(capsys, check):
    code, out, err = run_cli(["verify", "--check", check, "--max", "-3"], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("jobs", ["0", "-3"])
@pytest.mark.parametrize("command", ["enumerate", "export"])
def test_jobs_below_one_exits_two(tmp_path, capsys, command, jobs):
    out_dir = tmp_path / "out"
    argv = [command, "--family", "chain", "--n", "2", "--jobs", jobs]
    argv += ["--kind", "transfer"] if command == "enumerate" else ["--out", str(out_dir)]
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert out == "" and not out_dir.exists()
    assert err == f"error: --jobs must be at least 1, got {jobs}\n"


def test_verify_check_that_compares_nothing_fails(capsys):
    # bmt checks n = 1 to --max, so --max 0 leaves it nothing to compare
    code, out, err = run_cli(["verify", "--check", "bmt", "--max", "0"], capsys)
    assert (code, out, err) == (1, "FAIL bmt\n  FAIL checked nothing\n0/1 checks passed\n", "")


def test_verify_json_prints_one_record_per_check(capsys):
    code, out, err = run_cli(["verify", "--check", "catalan", "--json"], capsys)
    assert (code, err) == (0, "")
    (record,) = [json.loads(line) for line in out.splitlines()]
    assert sorted(record) == ["lines", "name", "ok", "seconds"]
    assert (record["name"], record["ok"]) == ("catalan", True)
    assert isinstance(record["seconds"], float) and record["seconds"] >= 0
    _, verbose, _ = run_cli(["verify", "--check", "catalan", "--verbose"], capsys)
    assert record["lines"] == [line[2:] for line in verbose.splitlines()[1:-1]]
    code, out, _ = run_cli(["verify", "--check", "bmt", "--max", "0", "--json"], capsys)
    record = json.loads(out)
    assert (code, record["ok"], record["lines"]) == (1, False, ["FAIL checked nothing"])


def test_verify_unknown_check(capsys):
    code, out, err = run_cli(["verify", "--check", "nonsense"], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: unknown check 'nonsense'; choose from [") and err.count("\n") == 1


TR_HASSE_CHAIN2 = """\
digraph "tr-hasse" {
  rankdir=BT;
  node [shape=box];
  t0 [label="discrete"];
  t1 [label="0<1"];
  t2 [label="0<1 0<2"];
  t3 [label="1<2"];
  t4 [label="0<1 0<2 1<2"];
  t0 -> t1;
  t0 -> t3;
  t1 -> t2;
  t2 -> t4;
  t3 -> t4;
}
"""


def test_export_tr_hasse(tmp_path, capsys):
    code, out, err = run_cli(
        ["export", "--family", "chain", "--n", "2", "--what", "tr-hasse",
         "--out", str(tmp_path)],
        capsys,
    )
    assert (code, out, err) == (0, f"{tmp_path / 'tr_hasse.dot'}\n", "")
    # the pentagon: 5 systems and 5 edges, the empty label drawn as "discrete"
    assert (tmp_path / "tr_hasse.dot").read_text() == TR_HASSE_CHAIN2


@pytest.mark.parametrize("n", [9, 10])
def test_export_tr_hasse_stops_at_its_guard(tmp_path, capsys, monkeypatch, n):
    # Tr(chain(9)) and Tr(chain(10)) hold 16,796 and 58,786 systems, past
    # the 5,000 that the Hasse export searches for
    def covers(self):
        raise AssertionError("the Hasse edges were computed")

    monkeypatch.setattr(TrLattice, "covers", property(covers))
    out_dir = tmp_path / "out"
    code, out, err = run_cli(
        ["export", "--family", "chain", "--n", str(n), "--what", "tr-hasse", "--out", str(out_dir)], capsys
    )
    assert (code, out) == (3, "")
    assert err.startswith("guard breached:") and "5000" in err
    assert not out_dir.exists()


def test_export_systems_past_the_search_guard_leaves_no_directory(tmp_path, capsys):
    # Tr(cube(4)) passes the search's guard of 250,000 systems within about a second
    out_dir = tmp_path / "out"
    code, out, err = run_cli(
        ["export", "--family", "cube", "--n", "4", "--what", "systems", "--out", str(out_dir)], capsys
    )
    assert (code, out) == (3, "")
    assert err.startswith("guard breached:")
    assert not out_dir.exists()


def test_export_systems_draw_all_relations(tmp_path, capsys):
    code, out, err = run_cli(
        ["export", "--family", "chain", "--n", "2", "--what", "systems",
         "--out", str(tmp_path)],
        capsys,
    )
    assert code == 0
    files = sorted(os.listdir(tmp_path))
    assert len(files) == 5
    # the complete system shows all three relations, not just the covers
    full = (tmp_path / files[-1]).read_text()
    assert full.count("->") == 3


def test_export_covers(tmp_path, capsys):
    exported, enumerated = tmp_path / "export", tmp_path / "enumerate"
    code, out, err = run_cli(
        ["export", "--family", "fuse2", "--n", "3", "--what", "covers",
         "--out", str(exported)],
        capsys,
    )
    assert code == 0
    files = sorted(os.listdir(exported))
    assert len(files) == 12
    text = (exported / files[0]).read_text()
    assert "color=gray" in text
    # enumerate writes the same bytes, under the stem covers_ for cover_
    argv = ["enumerate", "--family", "fuse2", "--n", "3", "--kind", "covers", "--format", "dot", "--out", str(enumerated)]
    assert run_cli(argv, capsys)[0] == 0
    assert sorted(os.listdir(enumerated)) == ["covers_" + name.removeprefix("cover_") for name in files]
    for name in files:
        assert (exported / name).read_bytes() == (enumerated / ("covers_" + name.removeprefix("cover_"))).read_bytes()


def test_export_covers_passes_jobs_on(tmp_path, capsys, monkeypatch):
    original, calls = leaves, []

    def recorded(*args, **kwargs):
        calls.append(kwargs)
        return original(*args, **kwargs)

    monkeypatch.setattr("trsys.search.leaves", recorded)
    code, out, err = run_cli(
        ["export", "--family", "fuse2", "--n", "3", "--what", "covers", "--jobs", "2",
         "--out", str(tmp_path)],
        capsys,
    )
    assert code == 0
    assert [kwargs.get("jobs") for kwargs in calls] == [2]
    assert len(os.listdir(tmp_path)) == 12


def test_export_hasse(tmp_path, capsys):
    code, out, err = run_cli(
        ["export", "--family", "cube", "--n", "3", "--what", "hasse", "--out", str(tmp_path)], capsys
    )
    assert (code, out, err) == (0, f"{tmp_path / 'hasse.dot'}\n", "")
    assert os.listdir(tmp_path) == ["hasse.dot"]
    assert (tmp_path / "hasse.dot").read_text() == lattice_to_dot(boolean_cube(3))


@pytest.mark.parametrize("kind", ["transfer", "saturated", "covers"])
def test_enumerate_dot_to_stdout(capsys, kind):
    lat = chain(2)
    if kind == "covers":
        items = enumerate_saturated_covers(lat)
        texts = [cover_to_dot(c, f"cover-{i:04d}") for i, c in enumerate(items)]
    else:
        enumerate_ = enumerate_transfer_systems if kind == "transfer" else enumerate_saturated_systems
        items = enumerate_(lat)
        texts = [system_to_dot(s, f"{kind}-{i:04d}") for i, s in enumerate(items)]
    code, out, err = run_cli(["enumerate", "--family", "chain", "--n", "2", "--kind", kind, "--format", "dot"], capsys)
    assert (code, err) == (0, f"{len(items)} items\n")
    assert out == "".join(text + "\n" for text in texts)


@pytest.mark.parametrize("kind,count,title", [("transfer", 5, "transfer"), ("saturated", 4, "saturated"), ("covers", 4, "cover")])
def test_enumerate_dot_out_writes_one_file_per_item(tmp_path, capsys, kind, count, title):
    code, out, err = run_cli(
        ["enumerate", "--family", "chain", "--n", "2", "--kind", kind, "--format", "dot", "--out", str(tmp_path)],
        capsys,
    )
    assert (code, out, err) == (0, "", f"{count} items\n")
    names = [f"{kind}_{i:04d}.dot" for i in range(count)]
    assert sorted(os.listdir(tmp_path)) == names
    for i, name in enumerate(names):
        assert (tmp_path / name).read_text().startswith(f'digraph "{title}-{i:04d}" {{\n')


def test_verify_verbose_prints_every_line(capsys):
    code, out, err = run_cli(["verify", "--check", "catalan", "--verbose"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "PASS catalan" and lines[-1] == "1/1 checks passed"
    assert lines[1:-1] == [f"  pass |Tr([{n}])| = {c} (want {c})" for n, c in enumerate([1, 2, 5, 14, 42, 132])]
    _, quiet, _ = run_cli(["verify", "--check", "catalan"], capsys)
    assert quiet.splitlines() == [lines[0], lines[-1]]


def test_fusion_count_command(tmp_path, capsys):
    left = tmp_path / "left.json"
    right = tmp_path / "right.json"
    dump(lattice_to_json(chain(2)), left)
    dump(lattice_to_json(chain(3)), right)
    code, out, err = run_cli(
        ["fusion-count", "--left", str(left), "--right", str(right)], capsys
    )
    assert code == 0
    assert "total           26" in out


def test_rank_two_command(capsys):
    code, out, err = run_cli(["rank-two", "--p", "2"], capsys)
    assert code == 0
    assert "19" in out
    assert "bottom cube 8, middle 3, top cube 8" in out


def test_rank_two_census_inside_the_guard(capsys):
    # p = 11: 8,204 systems; the default guard of 250,000 leaves admits up to
    # p = 13 (32,782) and refuses p = 17 (524,306)
    code, out, err = run_cli(["rank-two", "--p", "11"], capsys)
    assert code == 0
    assert out == (
        "transfer systems for C_11 x C_11: 8204\n"
        "census: bottom cube 4096, middle 12, top cube 4096 (total 8204)\n"
    )


def test_rank_two_guard_skip(capsys):
    code, out, err = run_cli(["rank-two", "--p", "31"], capsys)
    assert code == 0
    assert "census skipped" in out


def test_rank_two_census_is_skipped_from_the_closed_count(capsys):
    # p = 1009 has 2^1011 + 1010 systems; the lattice of 1,012 elements is
    # never built, where it once exhausted the memory
    start = time.perf_counter()
    code, out, err = run_cli(["rank-two", "--p", "1009"], capsys)
    assert code == 0 and time.perf_counter() - start < 2
    assert out.startswith(f"transfer systems for C_1009 x C_1009: {2 ** 1011 + 1010}\n")
    assert out.endswith("census skipped: lattice exceeds the enumeration guard\n")


def test_rank_two_unsafe_guard_skips_a_census_past_the_memory_guard(capsys, monkeypatch):
    # p = 31 has 2^33 + 32 systems: with the leaf guard lifted, the census
    # once asked the search for all of them and ran out of memory
    def enumerated(*args, **kwargs):
        raise AssertionError("the census was enumerated")

    monkeypatch.setattr("trsys.counting.enumerate_transfer_systems", enumerated)
    code, out, err = run_cli(["rank-two", "--p", "31", "--unsafe-guard"], capsys)
    assert code == 0
    assert out == (
        f"transfer systems for C_31 x C_31: {2 ** 33 + 32}\n"
        "census skipped: lattice exceeds the enumeration guard\n"
    )


@pytest.mark.parametrize("p", [10_007, 14_293, 10**18 + 3], ids=["above-cap", "digit-limit", "18-digit"])
def test_rank_two_refuses_a_prime_above_its_cap_before_testing_it(capsys, monkeypatch, p):
    # 14,293 once ended in a traceback: 2^14295 has more digits than
    # Python prints; an 18-digit p would hang in trial division
    def tested(p):
        raise AssertionError("the primality test ran")

    monkeypatch.setattr("trsys.counting._is_prime", tested)
    code, out, err = run_cli(["rank-two", "--p", str(p)], capsys)
    assert code == 3 and out == ""
    assert err == f"guard breached: --p {p} is above the rank-two cap of 10000\n"


def test_rank_two_admits_the_largest_prime_under_its_cap(capsys):
    code, out, err = run_cli(["rank-two", "--p", "9973"], capsys)
    assert code == 0
    assert out.startswith(f"transfer systems for C_9973 x C_9973: {2 ** 9975 + 9974}\n")


def test_search_memory_guard_exits_three(capsys):
    # chain(300) is inside the element cap, but 250,000 leaves of 301^2
    # bits each are not inside the search's memory guard
    code, out, err = run_cli(["enumerate", "--family", "chain", "--n", "300"], capsys)
    assert code == 3 and out == ""
    assert err.startswith("guard breached: 250000 leaves of ") and "memory guard" in err


def test_dot_escapes_json_names(tmp_path, capsys):
    path = tmp_path / "lat.json"
    path.write_text(json.dumps({"n": 2, "leq_pairs": [[0, 1]], "names": ['a"b', "c\\d"]}))
    code, out, err = run_cli(
        ["enumerate", "--family", "json", "--json", str(path), "--format", "dot"], capsys
    )
    assert code == 0
    assert '  v0 [label="a\\"b"];\n  v1 [label="c\\\\d"];\n' in out


def test_json_family_round_trip(tmp_path, capsys):
    path = tmp_path / "lat.json"
    dump(lattice_to_json(iterated_fusion(chain(2), 3)), path)
    code, out, err = run_cli(
        ["enumerate", "--family", "json", "--json", str(path), "--kind", "transfer"],
        capsys,
    )
    assert code == 0
    assert len(out.strip().splitlines()) == 19


def test_successive_main_calls_share_one_parser(capsys):
    argv = ["enumerate", "--family", "chain", "--n", "2", "--kind", "transfer", "--format", "json"]
    parse = argparse.ArgumentParser.parse_args
    with mock.patch.object(argparse.ArgumentParser, "parse_args", autospec=True, side_effect=parse) as spy:
        first = run_cli(argv, capsys)
        second = run_cli(argv, capsys)
    assert first == second and first[0] == 0
    assert len(first[1].splitlines()) == 5
    parsers = [call.args[0] for call in spy.call_args_list]
    assert len(parsers) == 2 and parsers[0] is parsers[1]


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "trsys.cli", "verify", "--check", "ranktwo"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "PASS ranktwo" in proc.stdout


def test_enumerate_runs_without_numpy(tmp_path):
    # every lattice is stored on its int rows, and the Hasse edges of Tr on
    # int masks: numpy is imported only to read the matrix `Lattice.leq`
    code = (
        "import contextlib, io, sys\n"
        "from trsys import cli\n"
        "argvs = [['verify', '--check', 'bmt'],\n"
        "         ['export', '--family', 'rect', '--m', '2', '--n', '2', '--what', 'tr-hasse', '--out', sys.argv[1]]]\n"
        "for kind in ('transfer', 'saturated', 'covers', 'interior'):\n"
        "    for fmt in ('table', 'json'):\n"
        "        argvs.append(['enumerate', '--kind', kind, '--family', 'cube', '--n', '3', '--format', fmt])\n"
        "for argv in argvs:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert cli.main(argv) == 0, argv\n"
        "print('numpy' in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code, str(tmp_path)], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_import_leaves_the_process_pool_unloaded():
    # the pool is imported by the first search with jobs > 1, not on every start
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, trsys; print('concurrent.futures.process' in sys.modules)"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "False\n"
