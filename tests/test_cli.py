import argparse
import json
import os
import subprocess
import sys
import time
from unittest import mock

import pytest

from trsys import cli
from trsys.cli import main
from trsys.covers import enumerate_saturated_covers
from trsys.lattice import boolean_cube, chain, iterated_fusion, lattice_to_json
from trsys.serialize import cover_to_json, dump, system_to_json
from trsys.transfer import enumerate_saturated_systems, enumerate_transfer_systems


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


@pytest.mark.parametrize("kind", ["transfer", "saturated", "covers"])
def test_json_lines_are_the_dumps_of_the_library_dicts(capsys, kind):
    lat = boolean_cube(3)
    if kind == "transfer":
        items, to_json = enumerate_transfer_systems(lat), system_to_json
    elif kind == "saturated":
        items, to_json = enumerate_saturated_systems(lat), system_to_json
    else:
        items, to_json = enumerate_saturated_covers(lat), cover_to_json
    code, out, _ = run_cli(["enumerate", "--family", "cube", "--n", "3", "--kind", kind, "--format", "json"], capsys)
    assert code == 0
    assert out == "".join(json.dumps(to_json(item), sort_keys=True) + "\n" for item in items)


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


def test_guard_breach_exits_three(capsys):
    code, out, err = run_cli(
        ["enumerate", "--family", "cube", "--n", "4", "--kind", "transfer"], capsys
    )
    assert code == 3
    assert "guard" in err


def test_usage_error_exits_two(capsys):
    with pytest.raises(SystemExit) as info:
        main(["enumerate", "--family", "chain", "--kind", "transfer"])
    assert info.value.code == 2


def test_interior_dot_exits_two_before_enumerating(monkeypatch, capsys):
    def enumerate_called(*args, **kwargs):
        raise AssertionError("enumerated before checking the format")

    monkeypatch.setattr("trsys.cli.enumerate_interior_operators", enumerate_called)
    with pytest.raises(SystemExit) as info:
        main(["enumerate", "--family", "cube", "--n", "3", "--kind", "interior", "--format", "dot"])
    assert info.value.code == 2
    assert "--format dot is not defined for interior operators" in capsys.readouterr().err


@pytest.mark.parametrize(
    "args,content",
    [
        (["--family", "json", "--json", "{path}"], None),
        (["--family", "json", "--json", "{path}"], "{not json"),
        (["--family", "json", "--json", "{path}"], '{"n": 3}'),
        (["--family", "json", "--json", "{path}"], '{"n": 3, "leq_pairs": [["a", 1]]}'),
        (["--family", "chain", "--n", "-3"], None),
    ],
    ids=["missing-file", "invalid-json", "missing-leq-pairs", "non-int-pair", "negative-n"],
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
    path.write_text(json.dumps({"n": cli.MAX_JSON_ELEMENTS + 1, "leq_pairs": []}))
    code, out, err = run_cli(
        ["enumerate", "--family", "json", "--json", str(path), "--unsafe-guard"], capsys
    )
    assert code == 2
    assert "bottom" in err


def test_output_is_deterministic_across_jobs(capsys):
    base = ["enumerate", "--family", "fuse2", "--n", "4", "--kind", "transfer",
            "--format", "json"]
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


def test_verify_unknown_check(capsys):
    with pytest.raises(SystemExit) as info:
        main(["verify", "--check", "nonsense"])
    assert info.value.code == 2


def test_export_tr_hasse(tmp_path, capsys):
    code, out, err = run_cli(
        ["export", "--family", "chain", "--n", "2", "--what", "tr-hasse",
         "--out", str(tmp_path)],
        capsys,
    )
    assert code == 0
    text = (tmp_path / "tr_hasse.dot").read_text()
    assert text.count(" -> ") == 5  # the pentagon
    assert text.count("[label=") == 5


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
    code, out, err = run_cli(
        ["export", "--family", "fuse2", "--n", "3", "--what", "covers",
         "--out", str(tmp_path)],
        capsys,
    )
    assert code == 0
    files = sorted(os.listdir(tmp_path))
    assert len(files) == 12
    text = (tmp_path / files[0]).read_text()
    assert "color=gray" in text


def test_export_covers_passes_jobs_on(tmp_path, capsys, monkeypatch):
    original, calls = cli.enumerate_saturated_covers, []

    def recorded(*args, **kwargs):
        calls.append(kwargs)
        return original(*args, **kwargs)

    monkeypatch.setattr(cli, "enumerate_saturated_covers", recorded)
    code, out, err = run_cli(
        ["export", "--family", "fuse2", "--n", "3", "--what", "covers", "--jobs", "2",
         "--out", str(tmp_path)],
        capsys,
    )
    assert code == 0
    assert [kwargs.get("jobs") for kwargs in calls] == [2]
    assert len(os.listdir(tmp_path)) == 12


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
    # p = 11: 25 non-reflexive pairs, the largest prime the default guard admits
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


def test_import_leaves_the_process_pool_unloaded():
    # the pool is imported by the first search with jobs > 1, not on every start
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, trsys; print('concurrent.futures.process' in sys.modules)"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "False\n"
