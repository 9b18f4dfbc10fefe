#!/usr/bin/env python3
"""Builds lethe_bench from this checkout's sources and runs it.

One run, as BENCHMARK.json names it (run from the root of the checkout):

    python3 lethe_bench/run.py --workload ycsb-deletes --seed 1 --seconds 20 --trace 0

prints the run's throughput and latency lines and, as its last line, one
JSON object with
the end-to-end metrics (--trace 0) or the per-layer metrics of a traced run
(--trace 1, which also writes a Chrome trace to <build>/traces/).

Every workload, N untraced runs plus one traced run each, into report files
that bench_compare.py reads:

    python3 lethe_bench/run.py --all --repeats 5 --seed 1 --seconds 20 --out DIR

With --parent CHECKOUT the same campaign runs on two commits: the benchmark
of that checkout (say, the parent commit) is built too, and every workload's
runs alternate between the two, parent first in even pairs and change first
in odd ones, so that both sides see the same host conditions. Reports go to
DIR/parent and DIR/change; run pair i is run i of each side. bench_compare.py
needs at least ten such pairs before it calls a difference a gain:

    python3 lethe_bench/run.py --all --repeats 10 --parent ../parent --out DIR
    python3 lethe_bench/bench_compare.py DIR/parent DIR/change

Smoke test: every workload at 1/20 size, then the model self-check (a run
whose shadow model is corrupted on purpose must fail):

    python3 lethe_bench/run.py --smoke

The build goes to $CARGO_TARGET_DIR (default .bench_build) under the
checkout root; the databases live there too while a run lasts.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["ycsb-deletes", "read-cached", "retention-kiwi", "serve-pipelined"]
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 800


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(root=ROOT, name="lethe_bench"):
    """Configures and builds the lethe_bench package of checkout `root` into
    <build>/<name>; returns the binary's path or None."""
    out = os.path.join(build_dir(), name)
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(root, "lethe_bench"), "-B",
                      out, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "lethe_bench",
                  "-j", "4"])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            log(f"build failed: {e}")
            return None
        if done.returncode != 0:
            log(f"build failed: {' '.join(cmd)} exited {done.returncode}")
            return None
    return os.path.join(out, "lethe_bench")


def run_once(binary, workload, seed, seconds, trace_dir=None, extra=()):
    """Runs one workload, traced when trace_dir is given; returns (exit code,
    stdout lines)."""
    db_root = os.path.join(build_dir(), "db")
    shutil.rmtree(db_root, ignore_errors=True)
    cmd = [binary, f"--workload={workload}", f"--seed={seed}",
           f"--seconds={seconds}", f"--db-root={db_root}", *extra]
    if trace_dir:
        cmd.append(f"--trace-dir={trace_dir}")
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{workload}: no result within {RUN_TIMEOUT_S} s")
        return 1, []
    finally:
        shutil.rmtree(db_root, ignore_errors=True)
    return done.returncode, done.stdout.splitlines()


def result_of(lines):
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        return None


def throughput_of(lines):
    """The run's ops_per_s line: throughput is printed, not a metric, since
    it follows the host's speed by more than any bound allows."""
    for line in lines:
        if line.startswith("ops_per_s="):
            return float(line.split("=", 1)[1])
    return None


def git_sha(root):
    """The checkout's commit, read from .git without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def metric_specs():
    """BENCHMARK.json's metric entries by name."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}


def summarize(results, specs):
    """Median and quartiles of every metric over a list of run results."""
    out = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                     else (values[0],) * 3)
        out[name] = {"unit": results[0]["metrics"][name]["unit"],
                     "better": specs.get(name, {}).get("better", "none"),
                     "median": statistics.median(values), "q1": q1, "q3": q3,
                     "values": values}
    return out


def run_all(sides, args):
    """Runs every workload on each (name, checkout, binary, out dir) side,
    alternating the sides run by run, and writes one report per workload and
    side."""
    specs = metric_specs()
    interleaved = len(sides) > 1
    failed = False
    for workload in WORKLOADS:
        runs = {name: [] for name, _, _, _ in sides}
        ops = {name: [] for name, _, _, _ in sides}
        ok = True
        for i in range(args.repeats):
            for name, _, binary, _ in (sides if i % 2 == 0 else sides[::-1]):
                code, lines = run_once(binary, workload, args.seed,
                                       args.seconds)
                result, throughput = result_of(lines), throughput_of(lines)
                if code != 0 or result is None or throughput is None:
                    log(f"{workload}: {name} run {i + 1} failed (exit {code})")
                    ok = False
                    break
                runs[name].append(result)
                ops[name].append(throughput)
            if not ok:
                break
        if not ok:
            failed = True
            continue
        for name, root, binary, out in sides:
            trace_dir = os.path.join(build_dir(), "traces")
            if interleaved:
                trace_dir = os.path.join(trace_dir, name)
            code, lines = run_once(binary, workload, args.seed, args.seconds,
                                   trace_dir)
            traced = result_of(lines)
            if code != 0 or traced is None:
                log(f"{workload}: {name} traced run failed (exit {code})")
                failed = True
                continue
            report = {"workload": workload, "git_sha": git_sha(root),
                      "seed": args.seed, "seconds": args.seconds,
                      "repeats": len(runs[name]), "interleaved": interleaved,
                      "summary": summarize(runs[name], specs),
                      "runs": runs[name], "ops_per_s": ops[name],
                      "traced": traced}
            traced_ops = traced["metrics"]["trace.ops_per_s"]["value"]
            report["tracing_overhead"] = (statistics.median(ops[name]) /
                                          traced_ops - 1)
            os.makedirs(out, exist_ok=True)
            with open(os.path.join(out, f"{workload}.json"), "w") as f:
                json.dump(report, f, indent=1)
                f.write("\n")
            print(f"{workload} ({name}): {len(runs[name])} runs, "
                  f"{statistics.median(ops[name]):.0f} ops/s, tracing "
                  f"overhead {report['tracing_overhead']:+.1%}")
            for metric, s in report["summary"].items():
                print(f"  {metric:22s} {s['median']:14.4f} {s['unit']:6s} "
                      f"[{s['q1']:.4f}, {s['q3']:.4f}]")
    return 1 if failed else 0


def smoke(binary):
    small = ["--scale=0.05"]
    for workload in WORKLOADS:
        for trace_dir in (None, os.path.join(build_dir(), "traces")):
            code, lines = run_once(binary, workload, 1, 2, trace_dir, small)
            result = result_of(lines)
            if code != 0 or result is None or not result["correct"]:
                log(f"smoke: {workload} (traced={bool(trace_dir)}) failed, "
                    f"exit {code}")
                return 1
    code, _ = run_once(binary, "read-cached", 1, 1, None,
                       small + ["--corrupt-model"])
    if code == 0:
        log("smoke: a corrupted model went unnoticed")
        return 1
    print("smoke: every workload matched its model; the self-check failed "
          "as it must")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true",
                        help="run every workload and write report files")
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--parent", metavar="CHECKOUT",
                        help="with --all: alternate runs with this checkout's "
                             "benchmark")
    parser.add_argument("--out", default=os.path.join(build_dir(), "report"))
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if not (args.workload or args.all or args.smoke):
        parser.error("one of --workload, --all or --smoke is required")
    if args.parent and not args.all:
        parser.error("--parent needs --all")

    binary = build()
    if binary is None:
        return 1
    if args.smoke:
        return smoke(binary)
    if args.all:
        sides = [("checkout", ROOT, binary, args.out)]
        if args.parent:
            parent = os.path.abspath(args.parent)
            parent_binary = build(parent, "lethe_bench-parent")
            if parent_binary is None:
                return 1
            sides = [("parent", parent, parent_binary,
                      os.path.join(args.out, "parent")),
                     ("change", ROOT, binary,
                      os.path.join(args.out, "change"))]
        return run_all(sides, args)
    code, lines = run_once(binary, args.workload, args.seed, args.seconds,
                           os.path.join(build_dir(), "traces")
                           if args.trace == 1 else None)
    if result_of(lines) is None:
        log(f"{args.workload}: no result (exit {code})")
        return code or 1
    print("\n".join(lines), flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
