#!/usr/bin/env python3
"""The repository benchmark: ingest, serve_lookup and serve_mixed.

Run from the repository root:

  python3 perfbench/run.py --workload ingest --seed 1 --seconds 20 --trace 0
  python3 perfbench/run.py --workload all --seed 1 --seconds 20
  python3 perfbench/run.py --self-check

Each run builds perfbench/ (an optimized build in .bench_build/), generates
the seeded BSBM input with `perfbench prep`, runs the workload in its own
process and checks every answer. The last line of standard output is

  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

holding, with --trace 0, the end_to_end metrics of BENCHMARK.json measured
on the chosen workload, and with --trace 1 its per_layer metrics. Every
per_layer metric belongs to one workload, so a traced run measures all
three workloads, traced. The line before it is the full report: host and
build provenance, seed, input sizes, every workload metric under its own
name with unit and sample count, and the per-layer self-time table.
perfbench/README.md lists the workloads, the metrics and the layers each
one should move. Exit status: 0 when every answer was correct, 1 when an
answer was wrong or a request failed, 2 when the benchmark could not run.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PKG = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
WORK = os.path.join(ROOT, ".bench_work")
SPANS = os.path.join(ROOT, ".bench_out")

WORKLOADS = ("ingest", "serve_lookup", "serve_mixed")
DEFAULT_TRIPLES = 1000000

# Each end_to_end metric of BENCHMARK.json is the workload's own measurement
# of the same user-visible quantity, named per workload in the report.
END_TO_END = {
    "setup_s": ("setup_s", "setup_s", "setup_s"),
    "peak_rss_mb": ("peak_rss_mb", "peak_rss_mb", "peak_rss_mb"),
    "throughput_per_s": ("ingest_triples_per_s", "lookup_qps",
                         "scan_rows_per_s"),
    "p50_ms": ("ingest_pass_p50_ms", "lookup_p50_ms", "scan_p50_ms"),
    "tail_ms": ("ingest_pass_p90_ms", "lookup_p95_ms", "lookup_p95_ms"),
    "first_result_ms": ("ingest_queryable_p50_ms", "lookup_first_row_p50_ms",
                        "scan_first_row_ms"),
    "image_bytes_per_input_byte": ("image_bytes_per_input_byte",) * 3,
}

# A run must end within this many seconds after the build.
BUDGET_S = 170


class BenchError(Exception):
    """The benchmark could not run (as opposed to a wrong answer)."""


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        raise BenchError(f"cannot read {path}: {e}")


def build():
    # The compiler's temporary files stay inside the checkout too.
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", PKG, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd, stdout=sys.stderr, env=env).returncode != 0:
            shutil.rmtree(BUILD, ignore_errors=True)
            raise BenchError("cmake configure failed")
    jobs = str(os.cpu_count() or 1)
    cmd = ["cmake", "--build", BUILD, "-j", jobs, "--target", "perfbench"]
    if subprocess.run(cmd, stdout=sys.stderr, env=env).returncode != 0:
        raise BenchError("build failed")


def provenance():
    """Host, compiler and code identity of this run."""
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        commit = out.stdout.strip() or None
    # The checkout a benchmark runs in need not be a git repository; the
    # digest of the sources identifies the code either way.
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, files in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(files):
                if name.endswith((".h", ".cc", ".txt", ".py")):
                    path = os.path.join(dirpath, name)
                    digest.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        digest.update(f.read())
    return {"nproc": os.cpu_count(), "commit": commit,
            "source_sha256": digest.hexdigest()}


class Runner:
    def __init__(self, seed, seconds, triples, deadline):
        self.seed = seed
        self.seconds = seconds
        self.triples = triples
        self.deadline = deadline
        self.dir = os.path.join(WORK, f"{os.getpid()}-{seed}")

    def call(self, args):
        """Runs perfbench; returns (exit code, its result JSON)."""
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise BenchError("time budget exhausted")
        try:
            out = subprocess.run([BINARY] + args, capture_output=True,
                                 text=True, timeout=left)
        except subprocess.TimeoutExpired:
            raise BenchError(f"perfbench {args[0]} ran out of time")
        sys.stderr.write(out.stderr)
        lines = out.stdout.strip().splitlines()
        if not lines:
            raise BenchError(f"perfbench {args[0]} printed no result "
                             f"(exit {out.returncode})")
        return out.returncode, json.loads(lines[-1])

    def prep(self, image):
        """Writes the seeded N-Triples file (and, for the serve workloads,
        the image frozen from it); returns the prep record."""
        os.makedirs(self.dir, exist_ok=True)
        args = ["prep", "--seed", str(self.seed), "--triples",
                str(self.triples), "--nt", self.nt]
        if image:
            args += ["--image", self.image]
        code, res = self.call(args)
        if code != 0:
            raise BenchError(f"prep failed: {res['errors']}")
        return res

    @property
    def nt(self):
        return os.path.join(self.dir, "data.nt")

    @property
    def image(self):
        return os.path.join(self.dir, "data.rsb")

    def workload(self, name, trace, inputs, inject=False):
        # A traced run measures all three workloads, each for half the time.
        seconds = self.seconds / 2 if trace else self.seconds
        args = [name, "--seed", str(self.seed), "--seconds", str(seconds),
                "--trace", "1" if trace else "0"]
        if name == "ingest":
            args += ["--nt", self.nt, "--work", self.dir]
        else:
            args += ["--image", self.image, "--input-bytes",
                     str(int(inputs["nt_bytes"]))]
        if trace:
            os.makedirs(SPANS, exist_ok=True)
            args += ["--trace-out", os.path.join(SPANS, f"spans-{name}.csv")]
        if inject:
            args.append("--inject-wrong-answer")
        _, res = self.call(args)
        return res

    def run(self, workloads, trace, inject=False):
        """Runs the workloads on one prepared input; returns their results."""
        try:
            serve = any(w != "ingest" for w in workloads)
            inputs = self.prep(image=serve)["inputs"]
            if "ingest" not in workloads:
                os.remove(self.nt)
            return [self.workload(w, trace, inputs, inject)
                    for w in workloads]
        finally:
            shutil.rmtree(self.dir, ignore_errors=True)


def declared_metrics(results, trace, bench):
    """The metrics of the final line, named and unit-labelled as BENCHMARK.json
    declares them."""
    out = {}
    if trace:
        measured = {}
        for res in results:
            measured.update(res["metrics"])
        for m in bench["per_layer"]:
            if m["name"] not in measured:
                raise BenchError(f"per_layer metric {m['name']} not measured")
            out[m["name"]] = {"value": measured[m["name"]]["value"],
                              "unit": m["unit"]}
        return out
    (res,) = results
    column = WORKLOADS.index(res["workload"])
    for m in bench["end_to_end"]:
        source = END_TO_END[m["name"]][column]
        if source not in res["metrics"]:
            raise BenchError(f"{res['workload']} did not report {source}")
        out[m["name"]] = {"value": res["metrics"][source]["value"],
                          "unit": m["unit"]}
    return out


def finite(metrics):
    return all(isinstance(v["value"], (int, float)) and math.isfinite(v["value"])
               for v in metrics.values())


def report(args, results, host):
    return {"report": {
        "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "triples_target": args.triples, "host": host,
        "build": {"compiler": results[0]["compiler"],
                  "build_type": results[0]["build_type"]},
        "workloads": {r["workload"]: {k: r[k] for k in (
            "attempted", "failed", "inputs", "metrics", "layers", "spans",
            "errors")}
            for r in results}}}


def print_summary(results):
    for r in results:
        log(f"== {r['workload']}: {r['attempted']} attempted, "
            f"{r['failed']} failed")
        for name, m in r["metrics"].items():
            log(f"   {name:42s} {m['value']:>16.6g} {m['unit']:10s} "
                f"n={m['samples']}")
        if r["layers"]:
            log("   per-layer self time (s):  " + ", ".join(
                f"{k} {v['self_s']:.4f} ({v['count']} spans)"
                for k, v in r["layers"].items()))
        for e in r["errors"]:
            log(f"   error: {e}")


def run_benchmark(args):
    bench = spec()
    deadline = time.monotonic() + BUDGET_S
    runner = Runner(args.seed, args.seconds, args.triples, deadline)
    # Per-layer metrics belong to their workloads, so a traced run measures
    # all three.
    if args.workload == "all" or args.trace:
        workloads = list(WORKLOADS)
    else:
        workloads = [args.workload]
    results = runner.run(workloads, args.trace, args.inject_wrong_answer)
    print_summary(results)
    print(json.dumps(report(args, results, provenance())))
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    if args.workload == "all" and not args.trace:
        metrics = {f"{r['workload']}/{k}": {"value": v["value"],
                                            "unit": v["unit"]}
                   for r in results for k, v in r["metrics"].items()}
    else:
        metrics = declared_metrics(results, args.trace, bench)
    correct = failed == 0 and attempted > 0 and finite(metrics)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}), flush=True)
    return 0 if correct else 1


def self_check(args):
    """Tiny scale: every named metric is emitted, and a deliberately wrong
    answer is caught by each workload."""
    bench = spec()
    problems = []
    for trace in (False, True):
        runner = Runner(args.seed, 1, 20000, time.monotonic() + BUDGET_S)
        results = runner.run(list(WORKLOADS), trace)
        for res in results:
            if res["failed"]:
                problems.append(f"{res['workload']} failed: {res['errors']}")
        groups = [results] if trace else [[r] for r in results]
        for group in groups:
            try:
                metrics = declared_metrics(group, trace, bench)
            except BenchError as e:
                problems.append(str(e))
                continue
            if not finite(metrics):
                problems.append(f"non-finite metric in {metrics}")
        log(f"self-check: trace={int(trace)} emitted every "
            f"{'per_layer' if trace else 'end_to_end'} metric")
    for name in WORKLOADS:
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", "1", "--triples", "20000",
             "--inject-wrong-answer"], capture_output=True, text=True)
        lines = out.stdout.strip().splitlines()
        caught = (out.returncode == 1 and bool(lines)
                  and json.loads(lines[-1])["correct"] is False)
        log(f"self-check: injected wrong answer in {name}: "
            f"{'caught' if caught else 'NOT caught'} (exit {out.returncode})")
        if not caught:
            problems.append(f"{name} missed a wrong answer")
    for p in problems:
        log(f"self-check problem: {p}")
    print(json.dumps({"self_check": "pass" if not problems else "fail",
                      "problems": problems}))
    return 0 if not problems else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",),
                    default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--triples", type=int, default=DEFAULT_TRIPLES,
                    help="dataset size (the benchmark uses the default)")
    ap.add_argument("--self-check", action="store_true")
    ap.add_argument("--inject-wrong-answer", action="store_true",
                    help="corrupt one expected answer (used by --self-check)")
    args = ap.parse_args()
    try:
        build()
        return self_check(args) if args.self_check else run_benchmark(args)
    except BenchError as e:
        log(f"benchmark error: {e}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
