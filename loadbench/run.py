#!/usr/bin/env python3
"""The repo benchmark's entry point: build, guard, run, validate.

    python3 loadbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 loadbench/run.py --workload NAME --spread K [--seed N] [--seconds S]
    python3 loadbench/run.py --self-test

Run from the root of a checkout. The first call configures and builds
loadbench/ (which compiles ../src) into .bench_build/loadbench; later calls
only re-run the incremental build. A normal run prints a context line
(host, compiler, build type, commit, seed) and then, as its last line, the
JSON result {"correct", "attempted", "failed", "metrics"}. The metric names
must be exactly those BENCHMARK.json lists for the section (end_to_end with
--trace 0, per_layer with --trace 1), or the run fails.

--spread runs K untraced runs on seeds N..N+K-1 and prints, per end-to-end
metric, the median, the quartiles, the interquartile spread and the
max/min spread as shares of the median: the evidence behind the bounds.

--self-test builds and runs the benchmark's unit tests. Metric names and
units need no separate test: every run checks its result line against
BENCHMARK.json (check_result) and fails on any difference.

Exit codes: 0 ok; 1 correctness gate failed (result still printed);
2 build, guard or setup failure (no result printed).
"""

import argparse
import hashlib
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "loadbench"
SCRATCH = ROOT / ".bench_build" / "scratch"
NAME_RE = re.compile(r"^[A-Za-z0-9_.-]+$")
# Instrumentation that distorts timings by integer factors.
FORBIDDEN_OPTIONS = ("FPSS_SANITIZE", "FPSS_FUZZ", "FPSS_THREAD_SAFETY")
OPTIMISED_BUILD_TYPES = ("Release", "RelWithDebInfo")
# loadgen's own budget; a run normally takes the window plus a few seconds.
RUN_DEADLINE_S = 150


def fail(message, code=2):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(code)


def build(targets):
    """Configures (once) and builds `targets`; returns the build dir."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no source tree at {ROOT / 'src'}; run from a full checkout")
    cache = BUILD / "CMakeCache.txt"
    if not cache.is_file():
        cmd = ["cmake", "-S", str(HERE), "-B", str(BUILD),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            shutil.rmtree(BUILD, ignore_errors=True)
            fail("cmake configure failed")
    guard(cache)
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", str(BUILD), "-j", jobs, "--target"] + targets
    before = [t.stat().st_mtime_ns for t in map(BUILD.joinpath, targets)
              if t.exists()]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        fail("build failed")
    after = [t.stat().st_mtime_ns for t in map(BUILD.joinpath, targets)
             if t.exists()]
    if before != after:
        # A fresh build leaves ~100 MB of object files to write back; flush
        # them now rather than during the timed window.
        os.sync()
    return BUILD


def cache_values(cache):
    values = {}
    for line in cache.read_text().splitlines():
        m = re.match(r"^([A-Za-z_0-9]+):[A-Z]+=(.*)$", line)
        if m:
            values[m.group(1)] = m.group(2)
    return values


def guard(cache):
    """Refuses an instrumented or unoptimised build tree."""
    values = cache_values(cache)
    for opt in FORBIDDEN_OPTIONS:
        val = values.get(opt, "OFF")
        if val.upper() not in ("", "OFF", "0", "FALSE", "NO"):
            fail(f"{BUILD} is configured with {opt}={val}; timings need a "
                 "plain optimised build (delete the directory to rebuild)")
    build_type = values.get("CMAKE_BUILD_TYPE", "")
    if build_type not in OPTIMISED_BUILD_TYPES:
        fail(f"{BUILD} has build type '{build_type}'; need one of "
             f"{', '.join(OPTIMISED_BUILD_TYPES)}")
    return build_type


def source_digest():
    """A digest of the sources the benchmark builds."""
    digest = hashlib.sha256()
    for base in (ROOT / "src", ROOT / "bench", HERE):
        for path in sorted(base.rglob("*")):
            if path.is_file():
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git(*args):
    out = subprocess.run(["git", "-C", str(ROOT), *args],
                         capture_output=True, text=True)
    return out.stdout.strip() if out.returncode == 0 else None


def commit_id():
    """The git commit when the checkout is a repository, suffixed with
    "+dirty-<source digest>" when the working tree differs from it, so a
    run of uncommitted changes never carries its parent's label; outside a
    repository, "tree-<source digest>"."""
    head = git("rev-parse", "HEAD") if (ROOT / ".git").exists() else None
    if not head:
        return "tree-" + source_digest()
    if git("status", "--porcelain"):
        return f"{head}+dirty-{source_digest()}"
    return head


def metric_units():
    """Section -> {name: unit} from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {section: {m["name"]: m["unit"] for m in spec[section]}
            for section in ("end_to_end", "per_layer")}, spec


def check_result(result, section, expected):
    """Errors in a result line against the contract and BENCHMARK.json."""
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"result keys {sorted(result)}")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        errors.append("attempted must be an integer >= 1")
    if not isinstance(result.get("failed"), int):
        errors.append("failed must be an integer")
    metrics = result.get("metrics", {})
    for name, entry in metrics.items():
        if not NAME_RE.match(name):
            errors.append(f"metric name {name!r} is not [A-Za-z0-9_.-]+")
        elif name not in expected:
            errors.append(f"metric {name} is not a {section} metric of "
                          "BENCHMARK.json")
        elif entry.get("unit") != expected[name]:
            errors.append(f"metric {name} unit {entry.get('unit')} != "
                          f"{expected[name]}")
    for name in expected:
        if name not in metrics:
            errors.append(f"{section} metric {name} missing from the run")
    return errors


def run_once(binary, workload, seed, seconds, trace, commit):
    """Runs loadgen once; returns (exit code, result dict or None)."""
    scratch = SCRATCH
    scratch.mkdir(parents=True, exist_ok=True)
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--scratch", str(scratch)]
    started = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_DEADLINE_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"loadgen ran past {RUN_DEADLINE_S}s")
    lines = [line for line in out.splitlines() if line.strip()]
    if proc.returncode not in (0, 1) or not lines:
        fail(f"loadgen exited {proc.returncode} without a result")
    context = {}
    for line in lines[:-1]:
        if line.startswith('{"context"'):
            context.update(json.loads(line)["context"])
    context.update(commit=commit, seed=seed,
                   wall_s=round(time.monotonic() - started, 3))
    return proc.returncode, context, json.loads(lines[-1])


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(binary, args, commit, expected):
    per_metric = {name: [] for name in expected}
    for k in range(args.spread):
        seed = args.seed + k
        code, _, result = run_once(binary, args.workload, seed, args.seconds,
                                   0, commit)
        if code != 0 or not result["correct"]:
            fail(f"seed {seed}: correctness gate failed", 1)
        for name in expected:
            per_metric[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: " + " ".join(
            f"{n}={result['metrics'][n]['value']:.6g}" for n in expected),
            file=sys.stderr)
    report = {}
    print(f"{'metric':<24}{'median':>14}{'q1':>14}{'q3':>14}"
          f"{'iqr/med':>10}{'range/med':>11}")
    for name, values in per_metric.items():
        q1, med, q3 = quartiles(values)
        iqr = (q3 - q1) / med if med else 0.0
        rng = (max(values) - min(values)) / med if med else 0.0
        report[name] = {"median": med, "q1": q1, "q3": q3,
                        "iqr_share": iqr, "range_share": rng,
                        "values": values}
        print(f"{name:<24}{med:>14.6g}{q1:>14.6g}{q3:>14.6g}"
              f"{iqr:>10.4f}{rng:>11.4f}")
    print(json.dumps({"workload": args.workload, "runs": args.spread,
                      "first_seed": args.seed, "seconds": args.seconds,
                      "commit": commit, "spread": report}))


def self_test():
    build_dir = build(["loadgen", "loadbench_tests"])
    tests = build_dir / "loadbench_tests"
    if not tests.is_file():
        fail("loadbench_tests not built (GTest not found)")
    if subprocess.run([str(tests)]).returncode:
        fail("unit tests failed", 1)
    print("self-test passed")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int,
                        help="window length (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spread", type=int, default=0, metavar="K")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        self_test()
        return
    if not (ROOT / "BENCHMARK.json").is_file():
        fail("no BENCHMARK.json at the checkout root")
    sections, spec = metric_units()
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]
    if args.workload not in workloads:
        fail(f"--workload must be one of {', '.join(workloads)}")
    binary = build(["loadgen"]) / "loadgen"
    commit = commit_id()
    if args.spread:
        spread(binary, args, commit, sections["end_to_end"])
        return
    section = "per_layer" if args.trace else "end_to_end"
    code, context, result = run_once(binary, args.workload, args.seed,
                                     args.seconds, args.trace, commit)
    errors = check_result(result, section, sections[section])
    if errors:
        fail("; ".join(errors))
    print(json.dumps({"context": context}))
    print(json.dumps(result))
    sys.exit(code)


if __name__ == "__main__":
    main()
