"""One pass of one workload in a fresh interpreter; run.py starts it.

Builds the relabelled inputs, runs the pass, checks every output and prints one
JSON record on the last line of standard output.  Set-up is measured as the
CPU time the main thread has used when the inputs are ready (interpreter
start, imports and building the inputs).  Waiting for a CPU or for the disk
on a shared machine does not inflate it, nor do numpy's helper threads.
The pass is timed by the wall clock.  While an untraced pass runs, the
reference task (reference.py) is timed ten times a second and its time taken
off the pass's.
"""
import argparse
import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--scale", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pass-index", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--expected", required=True, help="JSON object: op -> {count, digest}")
    parser.add_argument("--trace-out", default=None, help="trace the pass and write its spans here")
    parser.add_argument("--setup-only", action="store_true", help="stop when the inputs are ready")
    args = parser.parse_args()

    import reference
    import workloads  # imports trsys, whose import time is part of set-up

    tracer = None
    if args.trace_out:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()

    start = time.perf_counter()
    key = None if args.seed == 0 else f"{args.seed}/{args.pass_index}"
    workload = workloads.WORKLOADS[args.workload](args.scale, key, args.workdir)
    setup_s = time.thread_time()
    ready = time.perf_counter()
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return
    sampler = reference.Sampler()
    if tracer is None:
        with sampler:
            workload.run()
            end = time.perf_counter()
        sampler.samples.append(reference.sample())  # one at least, however short the pass
    else:
        workload.run()
        end = time.perf_counter()
        tracer.uninstall()
    wall_s = end - ready - sampler.inside_s
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    expected = json.loads(args.expected)
    failed, verified = workloads.gate(workload.outcomes(), expected)
    record = {
        "build_s": ready - start,
        "setup_s": setup_s,
        "wall_s": wall_s,
        "reference_s": sampler.samples,
        "rss_mb": rss_mb,
        "attempted": len(expected),
        "failed": failed,
        "items": verified,
    }
    if tracer is not None:
        record["trace"] = tracer.metrics(ready - start + wall_s)
        record["trace"]["serialize.bytes_out"] = workload.bytes_out()
        tracer.write(args.trace_out)
    print(json.dumps(record))


if __name__ == "__main__":
    main()
