#!/usr/bin/env python3
"""Builds bench_hindsight from source and runs one workload (or all four).

    python3 hindsight_bench/run.py --workload <name|all> --seed N \\
        --seconds S --trace 0|1 [--trace-out PATH] [--out FILE]

Run from anywhere inside a checkout; the build goes to $CARGO_TARGET_DIR or
.bench_build at the checkout root, and every file the run writes stays under
that directory. The last line of stdout is the result JSON
{correct, attempted, failed, metrics}; the exit code is nonzero when the
build fails, a correctness check fails, or the run times out. --out appends
one {"workload", "seed", "trace", "result"} record per workload to FILE
(the input format of compare.py). See hindsight_bench/README.md.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

WORKLOADS = ["record_ckpt_heavy", "replay_inner", "replay_partial",
             "service_wire"]
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def run_checked(cmd, cwd, timeout, stdout=None, env=None):
    """Runs cmd in its own process group, which is killed if it is still
    running when the wait ends (timeout, or SIGTERM to this script)."""
    proc = subprocess.Popen(cmd, cwd=cwd, stdout=stdout,
                            stderr=sys.stderr, env=env,
                            start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    return proc.returncode, out


def build(root, build_dir):
    if not os.path.isfile(os.path.join(root, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(root, "src")):
        log("run.py: no flor sources (CMakeLists.txt, src/) at " + root)
        return None
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        rc, _ = run_checked(
            ["cmake", "-S", os.path.join(root, "hindsight_bench"), "-B",
             build_dir, "-DCMAKE_BUILD_TYPE=Release"],
            root, BUILD_TIMEOUT_S, stdout=sys.stderr)
        if rc != 0:
            return None
    rc, _ = run_checked(["cmake", "--build", build_dir, "-j", jobs,
                         "--target", "bench_hindsight"],
                        root, BUILD_TIMEOUT_S, stdout=sys.stderr)
    if rc != 0:
        return None
    return os.path.join(build_dir, "bench_hindsight")


def run_workload(args, root, binary, build_dir, workload):
    scratch = os.path.relpath(os.path.join(build_dir, "scratch"), root)
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scratch", scratch]
    if args.trace:
        trace_out = args.trace_out or os.path.join(
            build_dir, "trace_%s_seed%d.json" % (workload, args.seed))
        if args.workload == "all" and args.trace_out:
            base, ext = os.path.splitext(args.trace_out)
            trace_out = "%s_%s%s" % (base, workload, ext)
        cmd += ["--trace-out", trace_out]
    env = dict(os.environ)
    env["TMPDIR"] = os.path.join(root, scratch)
    os.makedirs(env["TMPDIR"], exist_ok=True)
    try:
        rc, out = run_checked(cmd, root, RUN_TIMEOUT_S,
                              stdout=subprocess.PIPE, env=env)
    except subprocess.TimeoutExpired:
        log("run.py: %s timed out" % workload)
        return None, 1
    lines = out.strip().splitlines()
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        log("run.py: %s printed no result line (exit %d)" % (workload, rc))
        return None, rc or 1
    return result, rc


def main():
    # SIGTERM unwinds like an exception, so run_checked kills its child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--trace-out", default="")
    parser.add_argument("--out", default="")
    parser.add_argument("--binary", default="",
                        help="use this bench_hindsight instead of building")
    args = parser.parse_args()
    if args.trace_out:
        args.trace_out = os.path.abspath(args.trace_out)

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(root, build_dir)
    binary = args.binary or build(root, build_dir)
    if binary is None:
        log("run.py: build failed")
        return 2
    os.makedirs(build_dir, exist_ok=True)

    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    results = {}
    exit_code = 0
    for w in workloads:
        result, rc = run_workload(args, root, binary, build_dir, w)
        if result is None:
            return rc or 1
        results[w] = result
        exit_code = exit_code or rc
        if args.out:
            with open(args.out, "a") as f:
                f.write(json.dumps({"workload": w, "seed": args.seed,
                                    "trace": args.trace,
                                    "result": result}) + "\n")

    if len(workloads) == 1:
        final = results[workloads[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {"%s/%s" % (w, k): v for w, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
