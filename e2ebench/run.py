#!/usr/bin/env python3
"""End-to-end frame benchmark for RAVE: build, run, report.

Run from the repository root:

    python3 e2ebench/run.py --workload collab_view --seed 1 --seconds 25 --trace 0
    python3 e2ebench/run.py --all       # every workload, every metric, as a table
    python3 e2ebench/run.py --smoke     # the benchmark's own tests

The first form builds e2ebench/ (and with it the RAVE libraries from src/)
into the build directory ($CARGO_TARGET_DIR, default .bench_build), runs
one workload in its own process and prints, as the last line of stdout, a
JSON object with the keys correct, attempted, failed and metrics. With
--trace 0 the metrics are BENCHMARK.json's end_to_end metrics; with
--trace 1 its per_layer metrics. The harness's full result (host shape,
sample counts, exact counters, digests, ledger) is written next to the
build as results/<workload>-s<seed>-t<trace>.json, and a traced run's
spans as the matching .spans.jsonl.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"e2ebench: {message}", file=sys.stderr)
    sys.exit(code)


def load_spec():
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        fail(f"{path} not found")
    with open(path) as f:
        return json.load(f)


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def build():
    """Configure once, then an incremental build of the harness; returns its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail("RAVE sources (src/) not found next to e2ebench/")
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out), "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "--target", "e2e_frame", "-j", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail("build failed: " + " ".join(step))
    return out / "e2e_frame"


def run_harness(binary, workload, seed, seconds, trace, extra=()):
    """One harness process; returns (exit code, full result dict or None)."""
    results = build_dir() / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = results / f"{workload}-s{seed}-t{trace}"
    cmd = [str(binary), "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--out", f"{stem}.json"]
    if trace:
        cmd += ["--spans", f"{stem}.spans.jsonl"]
    cmd += list(extra)
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s", 3)
    lines = done.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    return done.returncode, result


def lookup(result, name):
    """A metric by name from any of the harness result's metric blocks."""
    for block in ("end_to_end", "counters", "per_layer"):
        metrics = result.get(block) or {}
        if name in metrics:
            return metrics[name]
    return None


def contract_line(spec, result, trace):
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics, correct = {}, bool(result.get("correct"))
    for entry in wanted:
        metric = lookup(result, entry["name"])
        if metric is None or metric["unit"] != entry["unit"] or metric["value"] is None:
            correct = False
            continue
        metrics[entry["name"]] = {"value": metric["value"], "unit": metric["unit"]}
    return {"correct": correct, "attempted": int(result["attempted"]),
            "failed": int(result["failed"]), "metrics": metrics}


def run_one(args, spec):
    binary = build()
    code, result = run_harness(binary, args.workload, args.seed, args.seconds, args.trace)
    if result is None:
        fail(f"harness exited {code} without a result", code or 4)
    print(json.dumps(contract_line(spec, result, args.trace)))
    return code


def run_all(args, spec):
    """Every workload, untraced then traced; one table with units and samples."""
    binary = build()
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    combined, status = {}, 0
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            code, result = run_harness(binary, workload, args.seed, seconds, trace)
            if result is None:
                fail(f"{workload} trace={trace} exited {code} without a result", code or 4)
            status = status or code
            combined[f"{workload}/trace{trace}"] = result
            host = result["host"]
            print(f"\n== {workload}  trace={trace}  seed={args.seed}  correct={result['correct']}"
                  f"  attempted={result['attempted']} failed={result['failed']}"
                  f"  host: nproc={host['nproc']} simd={host['simd']} {host['compiler']}"
                  f" {host['build_type']} timerslack={host['timerslack_ns']}ns")
            blocks = ("end_to_end",) if trace == 0 else ("counters", "per_layer")
            for block in blocks:
                for name, m in result[block].items():
                    print(f"  {block:10s} {name:42s} {m['value']:>14.6g} {m['unit']:6s}"
                          f" n={m['samples']}")
            if trace and result.get("ledger"):
                ledger = result["ledger"]
                print(f"  ledger: frame_ms_p50={ledger['frame_ms_p50']:.3f} unattributed="
                      f"{ledger['unattributed_share']:+.3f} (tolerance ±{ledger['tolerance']})"
                      f" ok={ledger['ok']}")
    out = build_dir() / "results" / "all.json"
    out.write_text(json.dumps(combined, indent=1) + "\n")
    print(f"\nfull results: {out}")
    return status


def run_smoke(spec):
    """Each workload twice for a few cycles with one seed: every metric named in
    BENCHMARK.json present with its unit, counters and digests identical."""
    binary = build()
    extra = ["--warmup", "2", "--window", "4", "--check", "3", "--setups", "1"]
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        before = len(problems)
        runs = []
        for _ in range(2):
            code, result = run_harness(binary, workload, 7, 0, 1, extra)
            if result is None or code != 0:
                problems.append(f"{workload}: exit {code}"
                                + (f" ({result.get('first_error')})" if result else ""))
                break
            runs.append(result)
        if len(runs) < 2:
            continue
        for entry in spec["end_to_end"] + spec["per_layer"]:
            metric = lookup(runs[0], entry["name"])
            if metric is None:
                problems.append(f"{workload}: metric {entry['name']} missing")
            elif metric["unit"] != entry["unit"]:
                problems.append(f"{workload}: {entry['name']} unit {metric['unit']},"
                                f" BENCHMARK.json says {entry['unit']}")
        first, second = runs
        if first["counters"] != second["counters"]:
            problems.append(f"{workload}: counters differ between runs of one seed")
        if first["digests"] != second["digests"]:
            problems.append(f"{workload}: digests differ between runs of one seed")
        digests = first["digests"]
        if not digests["check"] == digests["repeat"] == digests["scalar"]:
            problems.append(f"{workload}: replay digests differ: {digests}")
        print(f"smoke {workload}: {'ok' if len(problems) == before else 'FAILED'}"
              f" (window digest {first['digests']['window']})")
    for problem in problems:
        print("  " + problem)
    print("smoke: " + ("PASS" if not problems else "FAIL"))
    return 0 if not problems else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true", help="run every workload, print every metric")
    parser.add_argument("--smoke", action="store_true", help="run the benchmark's own tests")
    args = parser.parse_args()
    spec = load_spec()
    if args.smoke:
        return run_smoke(spec)
    if args.all:
        return run_all(args, spec)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload!r}")
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
