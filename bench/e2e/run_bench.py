#!/usr/bin/env python3
"""Repository benchmark: builds bench/e2e/dnastore_bench and runs it.

One run (the form BENCHMARK.json's "command" is called with):

    python3 bench/e2e/run_bench.py --workload W --seed N --seconds S --trace 0|1

prints "workload metric value unit" for every metric, then one JSON line
{"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
with --trace 0, the per-layer metrics with --trace 1.  The exit status
is 0 only when every output was byte-exact and every check held.

Repeated sets and comparisons:

    python3 bench/e2e/run_bench.py --sets N [--seed N] [--seconds S]
                                   [--trace] [--out FILE]
    python3 bench/e2e/run_bench.py compare A.json B.json
    python3 bench/e2e/run_bench.py smoke [--binary PATH]

--sets runs every workload N times (each run its own process) and
reports each metric's median and quartiles; metrics whose spread exceeds
their bound are flagged "unresolved", and counts must repeat exactly.
compare applies the BENCHMARK.json bounds to two saved sets and lists
the untraced timings (latency, CPU per op), which have no bound.  smoke runs
every workload at tiny scale and checks outputs, metric names and units,
and the trace (bench/e2e/README.md).

Everything is built and written inside the checkout: the build in
.bench_build/, scratch archives and traces in .bench_work/.
"""

import argparse
import fcntl
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent.parent
BUILD_DIR = ROOT / ".bench_build"
WORK_DIR = ROOT / ".bench_work"
RUN_TIMEOUT_S = 170

# Per-layer metrics of layers a workload never reaches read 0 there:
# table3 has no server, archive or load generator; the serve workloads
# reach clustering and reconstruction through Archive::get, which
# exposes no ground truth to score them against.
UNREACHED = {
    "table3_nwa_c50": ("server.", "archive.", "gen."),
    "table3_dbma_c50": ("server.", "archive.", "gen."),
    "serve_hot": ("clustering.accuracy", "reconstruction.perfect_frac"),
    "serve_cold_rw": ("clustering.accuracy", "reconstruction.perfect_frac"),
}


class BenchError(Exception):
    """The benchmark itself could not run (build failure, crash)."""


def load_spec():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        return json.load(f)


def build():
    """Configure and build dnastore_bench once per checkout; returns its path."""
    if not (ROOT / "src" / "CMakeLists.txt").exists():
        raise BenchError(f"no toolkit sources under {ROOT / 'src'}")
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    log_path = BUILD_DIR / "build.log"
    with open(BUILD_DIR / ".lock", "w") as lock, open(log_path, "a") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (BUILD_DIR / "CMakeCache.txt").exists():
            configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                         "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            steps.append(configure)
        jobs = str(min(4, os.cpu_count() or 1))
        steps.append(["cmake", "--build", str(BUILD_DIR), "-j", jobs])
        for step in steps:
            done = subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                                  timeout=800, check=False)
            if done.returncode != 0:
                log.flush()
                tail = log_path.read_text(errors="replace")[-3000:]
                raise BenchError(f"build step failed: {' '.join(step)}\n{tail}")
    return BUILD_DIR / "dnastore_bench"


def check_spans(path):
    """Trace well-formedness: None when fine, else what is wrong."""
    try:
        with open(path, encoding="utf-8") as f:
            spans = json.load(f)["spans"]
    except (OSError, ValueError, KeyError) as error:
        return f"unreadable trace {path}: {error}"
    if not spans:
        return "trace has no spans"
    by_id = {s["id"]: s for s in spans}
    for s in spans:
        if s["end_s"] < s["start_s"]:
            return f"span {s['id']} ends before it starts"
        if s["parent"] == 0:
            continue
        parent = by_id.get(s["parent"])
        if parent is None:
            return f"span {s['id']} names missing parent {s['parent']}"
        if parent["request"] != s["request"]:
            return f"span {s['id']} and its parent belong to different requests"
        if (s["start_s"] < parent["start_s"] - 1e-6
                or s["end_s"] > parent["end_s"] + 1e-6):
            return f"span {s['id']} lies outside its parent"
    return None


def run_binary(binary, workload, seed, seconds, trace, smoke=False):
    """One dnastore_bench process; returns (report, trace_dir or None)."""
    WORK_DIR.mkdir(parents=True, exist_ok=True)
    args = [str(binary), f"--workload={workload}", f"--seed={seed}",
            f"--seconds={seconds}",
            f"--work-dir={WORK_DIR / f'{workload}-{os.getpid()}'}"]
    if smoke:
        args.append("--smoke")
    trace_dir = None
    if trace:
        trace_dir = WORK_DIR / "trace" / workload
        shutil.rmtree(trace_dir, ignore_errors=True)
        args.append(f"--trace-dir={trace_dir}")
    try:
        done = subprocess.run(args, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired as error:
        raise BenchError(f"{workload} did not finish in {RUN_TIMEOUT_S} s") \
            from error
    sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    try:
        report = json.loads(lines[-1])
    except (IndexError, ValueError) as error:
        raise BenchError(f"{workload} exited {done.returncode} without a "
                         "report") from error
    return report, trace_dir


def select_metrics(spec, report, trace):
    """The metrics BENCHMARK.json lists for this kind of run, by name."""
    wanted = spec["per_layer" if trace else "end_to_end"]
    unreached = UNREACHED.get(report["workload"], ())
    chosen = {}
    for metric in wanted:
        name, unit = metric["name"], metric["unit"]
        got = report["metrics"].get(name)
        if got is None:
            if not trace or not name.startswith(unreached):
                raise BenchError(f"{report['workload']} did not report {name}")
            got = {"value": 0.0, "unit": unit}
        if got["unit"] != unit:
            raise BenchError(f"{name} reported in {got['unit']}, "
                             f"BENCHMARK.json says {unit}")
        chosen[name] = {"value": got["value"], "unit": unit}
    return chosen


def run_once(args):
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        raise BenchError(f"unknown workload {args.workload}; one of {names}")
    binary = build()
    report, trace_dir = run_binary(binary, args.workload, args.seed,
                                   args.seconds, args.trace)
    correct = bool(report["correct"])
    if not correct:
        print(f"incorrect: {report['first_error']}", file=sys.stderr)
    if trace_dir is not None:
        problem = check_spans(trace_dir / "spans.json")
        if problem:
            print(f"trace: {problem}", file=sys.stderr)
            correct = False
    metrics = select_metrics(spec, report, args.trace)
    # Every metric the run measured, the untraced run's latency and CPU
    # timings included; the JSON line holds the ones BENCHMARK.json asks
    # for.
    for name, metric in sorted(report["metrics"].items()):
        print(f"{args.workload} {name} {metric['value']!r} {metric['unit']}")
    print(json.dumps({"correct": correct, "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": metrics}))
    return 0 if correct else 1


def spread(values):
    """(median, q1, q3, (q3 - q1) / median), quartiles by statistics.quantiles."""
    mid = statistics.median(values)
    if len(values) < 2:
        return mid, mid, mid, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return mid, q1, q3, (q3 - q1) / mid if mid else 0.0


def run_sets(args):
    spec = load_spec()
    binary = build()
    workloads = [w["name"] for w in spec["workloads"]]
    runs = {w: [] for w in workloads}
    traced = {w: [] for w in workloads}
    ok = True
    for i in range(args.sets):
        for workload in workloads:
            report, _ = run_binary(binary, workload, args.seed, args.seconds,
                                   False)
            runs[workload].append(report)
            ok = ok and report["correct"]
            if args.trace:
                report, trace_dir = run_binary(binary, workload, args.seed,
                                               args.seconds, True)
                traced[workload].append(report)
                problem = check_spans(trace_dir / "spans.json")
                ok = ok and report["correct"] and problem is None
            print(f"set {i + 1}/{args.sets} {workload} done", file=sys.stderr)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {"seed": args.seed, "seconds": args.seconds,
               "host": runs[workloads[0]][0]["host"], "workloads": {}}
    every = spec["end_to_end"] + spec["per_layer"]
    for workload in workloads:
        entry = {}
        # Untraced runs give the end-to-end metrics and the timings they
        # also report (latency, CPU per op); traced runs give the rest.
        for r in runs[workload]:
            select_metrics(spec, r, False)
        for r in traced[workload]:
            select_metrics(spec, r, True)
        plain = [m for m in every
                 if m["name"] in runs[workload][0]["metrics"]]
        groups = [(runs[workload], plain, False)]
        if traced[workload]:
            groups.append((traced[workload],
                           [m for m in spec["per_layer"] if m not in plain],
                           True))
        for reports, metrics, was_traced in groups:
            exact = set().union(*(r["exact"] for r in reports))
            for metric in metrics:
                name = metric["name"]
                values = [r["metrics"].get(name, {"value": 0.0})["value"]
                          for r in reports]
                mid, q1, q3, rel = spread(values)
                verdict = ""
                if name in exact and len(set(values)) > 1:
                    verdict = "COUNT DOES NOT REPEAT"
                    ok = False
                elif name in bounds and rel > bounds[name]:
                    verdict = "unresolved (spread > bound)"
                entry[name] = {"values": values, "median": mid, "q1": q1,
                               "q3": q3, "spread": rel,
                               "exact": name in exact, "traced": was_traced,
                               "unit": metric["unit"]}
                print(f"{workload} {name} {mid!r} {metric['unit']} "
                      f"[q1 {q1:.6g}, q3 {q3:.6g}, spread {100 * rel:.1f}%] "
                      f"{verdict}".rstrip())
        if traced[workload]:
            untraced_p50 = statistics.median(
                r["metrics"]["latency_p50_s"]["value"] for r in runs[workload])
            traced_p50 = statistics.median(
                r["metrics"]["latency_p50_s"]["value"]
                for r in traced[workload])
            entry["trace_overhead_frac"] = traced_p50 / untraced_p50 - 1.0
            print(f"{workload} trace_overhead_frac "
                  f"{entry['trace_overhead_frac']:.4f} ratio")
        summary["workloads"][workload] = entry

    out = Path(args.out) if args.out else (
        WORK_DIR / f"sets-{time.strftime('%Y%m%d-%H%M%S')}.json")
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(summary, indent=1) + "\n")
    print(f"wrote {out}")
    return 0 if ok else 1


def compare(path_a, path_b):
    """Apply the BENCHMARK.json bounds to set B against baseline set A."""
    spec = load_spec()
    a = json.loads(Path(path_a).read_text())
    b = json.loads(Path(path_b).read_text())
    failed = False
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        lower = metric["better"] == "lower"
        for workload in a["workloads"]:
            ma = a["workloads"][workload].get(name)
            mb = b["workloads"].get(workload, {}).get(name)
            if ma is None or mb is None:
                continue
            base = ma["median"]
            worse = (mb["median"] - base) / base if base else 0.0
            if not lower:
                worse = -worse
            b_always_better = (max(mb["values"]) < min(ma["values"]) if lower
                               else min(mb["values"]) > max(ma["values"]))
            if max(ma["spread"], mb["spread"]) > bound and not b_always_better:
                verdict = "unresolved"
            elif worse > bound:
                verdict = "REGRESSION"
                failed = True
            elif worse < -bound:
                verdict = "better"
            else:
                verdict = "within bound"
            print(f"{workload:16s} {name:28s} {ma['median']:.6g} -> "
                  f"{mb['median']:.6g} {metric['unit']:6s} "
                  f"({100 * worse:+.1f}% worse, bound {100 * bound:.0f}%) "
                  f"{verdict}")
    # Per-layer metrics have no bound.  Timings from untraced runs
    # (latency, CPU per op) are listed with both spreads, so a change can
    # show its gain; counts that repeat exactly are listed when they
    # changed.
    for metric in spec["per_layer"]:
        name = metric["name"]
        for workload in a["workloads"]:
            ma = a["workloads"][workload].get(name)
            mb = b["workloads"].get(workload, {}).get(name)
            if not ma or not mb:
                continue
            change = (mb["median"] - ma["median"]) / ma["median"] \
                if ma["median"] else 0.0
            if not ma["traced"]:
                print(f"{workload:16s} {name:28s} {ma['median']:.6g} -> "
                      f"{mb['median']:.6g} {metric['unit']:6s} "
                      f"({100 * change:+.1f}%, spreads "
                      f"{100 * ma['spread']:.1f}% / {100 * mb['spread']:.1f}%,"
                      f" no bound)")
            elif ma["exact"] and ma["median"] != mb["median"]:
                print(f"{workload:16s} {name:28s} {ma['median']:.6g} -> "
                      f"{mb['median']:.6g} {metric['unit']} (count changed)")
    return 1 if failed else 0


def smoke(binary):
    """Every workload at tiny scale: outputs, metric names/units, trace."""
    spec = load_spec()
    binary = Path(binary) if binary else build()
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        report, trace_dir = run_binary(binary, workload, 1, 1.5, True,
                                       smoke=True)
        if not report["correct"]:
            problems.append(f"{workload}: {report['first_error']}")
        try:
            for trace in (False, True):
                select_metrics(spec, report, trace)
        except BenchError as error:
            problems.append(str(error))
        problem = check_spans(trace_dir / "spans.json")
        if problem:
            problems.append(f"{workload}: {problem}")
        try:
            with open(trace_dir / "obs_trace.json", encoding="utf-8") as f:
                json.load(f)
        except (OSError, ValueError) as error:
            problems.append(f"{workload}: obs trace unreadable: {error}")
        print(f"{workload}: {report['attempted']} ops, "
              f"{report['failed']} failed")
    for problem in problems:
        print(f"FAIL {problem}")
    return 1 if problems else 0


def main(argv):
    if argv[:1] == ["compare"]:
        if len(argv) != 3:
            print("usage: run_bench.py compare A.json B.json", file=sys.stderr)
            return 2
        return compare(argv[1], argv[2])
    if argv[:1] == ["smoke"]:
        parser = argparse.ArgumentParser(prog="run_bench.py smoke")
        parser.add_argument("--binary")
        return smoke(parser.parse_args(argv[1:]).binary)
    parser = argparse.ArgumentParser(prog="run_bench.py")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0)
    parser.add_argument("--sets", type=int)
    parser.add_argument("--out", help="where --sets saves its summary")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = load_spec()["run_seconds"]
    if args.sets:
        return run_sets(args)
    if not args.workload:
        parser.error("--workload or --sets is required")
    return run_once(args)


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except (BenchError, OSError, ValueError) as error:
        print(f"run_bench.py: {error}", file=sys.stderr)
        sys.exit(1)
