"""The benchmark's own test, on tiny inputs (about half a minute):

    python3 -m pytest -q benchmarks/test_bench.py
"""
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(*args, root=ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join(root, "benchmarks", "run.py"), "--scale", "tiny", "--seconds", "0", *args],
        capture_output=True, text=True, timeout=170, cwd=root,
    )
    return proc.returncode, proc.stdout


def declared(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {metric["name"]: metric["unit"] for metric in json.load(fh)[kind]}


@pytest.mark.parametrize("workload", ["search", "cli", "verify"])
@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_match_benchmark_json(workload, trace, kind):
    code, stdout = run("--workload", workload, "--seed", "1", "--trace", str(trace))
    result = json.loads(stdout.splitlines()[-1])
    assert code == 0
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared(kind)


def copy_benchmark(dest, with_sources):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), dest)
    shutil.copytree(HERE, dest / "benchmarks", ignore=shutil.ignore_patterns("out", "__pycache__"))
    if with_sources:
        shutil.copytree(os.path.join(ROOT, "src"), dest / "src", ignore=shutil.ignore_patterns("__pycache__"))


def test_wrong_expected_count_fails_the_run(tmp_path):
    copy_benchmark(tmp_path, with_sources=True)
    path = tmp_path / "benchmarks" / "expected.json"
    table = json.loads(path.read_text(encoding="utf-8"))
    assert table["search"]["tiny"]["tr_chain4"]["count"] == 42  # catalan(5)
    table["search"]["tiny"]["tr_chain4"]["count"] = 41
    path.write_text(json.dumps(table), encoding="utf-8")
    code, stdout = run("--workload", "search", "--seed", "1", "--trace", "0", root=str(tmp_path))
    result = json.loads(stdout.splitlines()[-1])
    assert code == 1
    assert not result["correct"]
    assert result["failed"] / result["attempted"] > 0  # ops_failed_ratio


def test_without_the_sources_it_fails_without_a_result(tmp_path):
    copy_benchmark(tmp_path, with_sources=False)
    code, stdout = run("--workload", "search", "--seed", "1", "--trace", "0", root=str(tmp_path))
    assert code != 0
    assert stdout == ""
