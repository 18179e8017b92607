"""Benchmark of trsys: search, cli and verify workloads.

    python3 benchmarks/run.py --workload search --seed 1 --seconds 40 --trace 0

Runs passes of one workload, each in a fresh interpreter (one_pass.py),
as many as fit in --seconds, checks the outputs of every pass against
expected.json, and prints one JSON object as the last line of standard
output: {"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
metrics are the end-to-end ones, and set-up time is measured by a few
set-up-only processes before the passes; with --trace 1 the passes alternate
untraced and traced, the metrics are the per-layer ones and the spans of the
last traced pass are written to benchmarks/out/.  Exits 1 when an output is
wrong and 2 when the benchmark cannot run.

The end-to-end times are scaled to a fixed machine speed (reference.py): a
pass's time by reference.REFERENCE_S over the mean time of the reference
task, which the pass samples all through its timed work, and the set-up time
of a set-up-only process by reference.STARTUP_S over the start-up reference
that runs right after it.  The per-layer metrics keep the raw times, and
report the raw median pass time and the median of the reference task beside
them.
"""
import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

import reference

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
RUN_LIMIT_S = 170  # every pass must end within this many seconds of the start
SETUP_PROBES = 8  # set-up-only processes per untraced run, each followed by a start-up reference

END_TO_END_UNITS = {"pass_s": "s", "items_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}


def layer_unit(name):
    if name == "serialize.bytes_out":
        return "bytes"
    if name.endswith("_s"):
        return "s"
    if name.endswith((".share", "_yield")):
        return "ratio"
    return "count"


def now():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=["search", "cli", "verify"], required=True)
    parser.add_argument("--seed", type=int, default=0, help="pass i relabels the input lattices by a permutation drawn from (seed, i); 0 keeps the labels")
    parser.add_argument("--seconds", type=float, default=40, help="run as many passes as fit in this time, at least one")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--scale", choices=["full", "tiny"], default="full",
                        help="tiny inputs are for the benchmark's own test")
    return parser.parse_args(argv)


def expectations(args):
    with open(os.path.join(HERE, "expected.json"), encoding="utf-8") as fh:
        table = json.load(fh)[args.workload][args.scale]
    return {op: {"count": e["count"], "digest": e.get("digest")} for op, e in table.items()}


class PassFailed(Exception):
    """A pass crashed or ran out of time, so it reported nothing."""


def run_pass(args, index, expected, workdir, deadline, *extra):
    cmd = [
        sys.executable, os.path.join(HERE, "one_pass.py"),
        "--workload", args.workload, "--scale", args.scale, "--seed", str(args.seed),
        "--pass-index", str(index), "--workdir", workdir, "--expected", json.dumps(expected), *extra,
    ]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=max(1.0, deadline - now()))
    except subprocess.TimeoutExpired as exc:
        raise PassFailed(f"a {args.workload} pass did not end within {RUN_LIMIT_S} s of the start") from exc
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise PassFailed(f"a {args.workload} pass exited with code {proc.returncode}")
    record = json.loads(proc.stdout.splitlines()[-1])
    if record.get("failed"):
        print(f"wrong output from: {', '.join(record['failed'])}", file=sys.stderr)
    return record


def startup_reference(deadline):
    """CPU seconds a fresh interpreter takes to start and import numpy."""
    try:
        proc = subprocess.run([sys.executable, "-c", reference.STARTUP_CODE], capture_output=True, text=True,
                              check=True, timeout=max(1.0, deadline - now()))
    except (subprocess.SubprocessError, OSError) as exc:
        raise PassFailed(f"the start-up reference failed: {exc}") from exc
    return float(proc.stdout)


def pass_at_reference_speed(record):
    """The pass's time, scaled by REFERENCE_S over the mean time of the
    reference task during the pass."""
    return record["wall_s"] * reference.REFERENCE_S / statistics.fmean(record["reference_s"])


def end_to_end(records, setups):
    values = {
        "pass_s": [pass_at_reference_speed(r) for r in records],
        "items_per_s": [r["items"] / pass_at_reference_speed(r) for r in records],
        "setup_s": setups,
        "peak_rss_mb": [r["rss_mb"] for r in records],
    }
    return {name: {"value": statistics.median(values[name]), "unit": unit} for name, unit in END_TO_END_UNITS.items()}


def per_layer(untraced, traced):
    names = list(traced[0]["trace"])
    out = {
        name: {"value": statistics.median(r["trace"][name] for r in traced), "unit": layer_unit(name)}
        for name in names
    }
    traced_wall = statistics.median(r["build_s"] + r["wall_s"] for r in traced)
    untraced_wall = statistics.median(r["build_s"] + r["wall_s"] for r in untraced)
    out["trace.overhead_s"] = {"value": traced_wall - untraced_wall, "unit": "s"}
    out["pass.wall_s"] = {"value": statistics.median(r["wall_s"] for r in untraced), "unit": "s"}
    out["pass.reference_s"] = {
        "value": statistics.median(t for r in untraced for t in r["reference_s"]), "unit": "s",
    }
    return out


def _terminated(signum, frame):
    # unwinds through subprocess.run, which kills and waits for the pass
    raise SystemExit(128 + signum)


def main(argv=None):
    args = parse_args(argv)
    signal.signal(signal.SIGTERM, _terminated)
    if not os.path.isfile(os.path.join(ROOT, "src", "trsys", "__init__.py")):
        print(f"error: no trsys sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    expected = expectations(args)
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT)
    trace_out = os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.json.gz")
    start = now()
    deadline = start + RUN_LIMIT_S
    untraced, traced, setups = [], [], []
    try:
        if not args.trace:
            for index in range(SETUP_PROBES):
                setup_s = run_pass(args, index, expected, workdir, deadline, "--setup-only")["setup_s"]
                setups.append(setup_s * reference.STARTUP_S / startup_reference(deadline))
        passes_start = now()
        while True:
            tracing = bool(args.trace) and len(traced) < len(untraced)
            # a traced pass gets the labelling of the untraced pass it follows
            index = len(untraced) - 1 if tracing else len(untraced)
            extra = ["--trace-out", trace_out] if tracing else []
            (traced if tracing else untraced).append(run_pass(args, index, expected, workdir, deadline, *extra))
            # stop when one more pass of average length would overrun --seconds
            done = len(untraced) + len(traced)
            if (traced or not args.trace) and now() - start + (now() - passes_start) / done > args.seconds:
                break
    except PassFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    passes = untraced + traced
    failed = sum(len(r["failed"]) for r in passes)
    metrics = per_layer(untraced, traced) if args.trace else end_to_end(untraced, setups)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in passes),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
