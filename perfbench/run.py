#!/usr/bin/env python3
"""Trading-session benchmark: builds tradefl and the harness from this
checkout, runs one workload in a process of its own and prints its metrics,
ending with one JSON result line.

  python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
  python3 perfbench/run.py --self-test

The build lands in .bench_build/ and run files in .bench_run/ at the root of
the checkout. Exits non-zero without a result line when the build or the run
fails.
"""

import argparse
import fcntl
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
RUNS = os.path.join(ROOT, ".bench_run")
LIB_BUILD = os.path.join(BUILD, "tradefl")
HARNESS_BUILD = os.path.join(BUILD, "perfbench")
HARNESS = os.path.join(HARNESS_BUILD, "perfbench")
BUILD_TYPE = "RelWithDebInfo"  # the repository's default build type
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def load_json(path):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def build():
    """Configures and builds the tradefl libraries with the repository's own
    CMake project, then the harness against them. Incremental after the first
    run in a checkout."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")):
        fail(f"no CMakeLists.txt at {ROOT}: not a tradefl checkout")
    os.makedirs(BUILD, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    steps = []
    if not os.path.isfile(os.path.join(LIB_BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", ROOT, "-B", LIB_BUILD, *generator,
                      f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}", "-DTRADEFL_BUILD_TESTS=OFF",
                      "-DTRADEFL_BUILD_BENCH=OFF", "-DTRADEFL_BUILD_EXAMPLES=OFF"])
    steps.append(["cmake", "--build", LIB_BUILD, "--target", "tradefl_session", "-j", jobs])
    if not os.path.isfile(os.path.join(HARNESS_BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", HARNESS_BUILD, *generator,
                      f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}", f"-DTRADEFL_SOURCE_DIR={ROOT}",
                      f"-DTRADEFL_BUILD_DIR={LIB_BUILD}"])
    steps.append(["cmake", "--build", HARNESS_BUILD, "-j", jobs])
    # The compiler's temporary files stay inside the checkout too.
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    log_path = os.path.join(BUILD, "build.log")
    with open(os.path.join(BUILD, "lock"), "w", encoding="utf-8") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        with open(log_path, "w", encoding="utf-8") as log:
            for step in steps:
                if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT, env=env,
                                  check=False).returncode != 0:
                    log.flush()
                    with open(log_path, encoding="utf-8", errors="replace") as text:
                        sys.stderr.write("".join(text.readlines()[-40:]))
                    fail("build failed: " + " ".join(step))


def harness(args, timeout=RUN_TIMEOUT_S):
    """Runs the harness; returns its stdout lines and the parsed last line."""
    try:
        done = subprocess.run([HARNESS, *args], stdout=subprocess.PIPE, text=True,
                              timeout=timeout, check=False)
    except subprocess.TimeoutExpired:
        fail(f"harness timed out after {timeout} s: {' '.join(args)}")
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        sys.stdout.write(done.stdout)
        fail(f"harness exited with {done.returncode}: {' '.join(args)}")
    try:
        return lines[:-1], json.loads(lines[-1])
    except json.JSONDecodeError:
        sys.stdout.write(done.stdout)
        fail("harness printed no result line")


def run_workload(workload, seed, seconds, trace, setup_runs):
    """One run: `setup_runs` cold set-ups (setup_s is their median), one of
    them followed by the measured loop. The others run half before and half
    after it, so that they sample the host's speed at both ends of the run."""
    run_dir = os.path.join(RUNS, f"{workload}-{seed}-{'trace' if trace else 'plain'}-{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    base = ["--workload", workload, "--seed", str(seed), "--root", run_dir]
    extra = 0 if trace else setup_runs - 1

    def set_ups(count):
        return [harness([*base, "--setup-only"])[1]["setup_s"] for _ in range(count)]

    try:
        before = set_ups(extra // 2)
        lines, result = harness([*base, "--seconds", str(seconds), "--trace", "1" if trace else "0"],
                                timeout=RUN_TIMEOUT_S + 10)
        after = set_ups(extra - extra // 2)
        spans = os.path.join(run_dir, "spans.jsonl")
        if os.path.isfile(spans):
            kept = os.path.join(RUNS, f"spans-{workload}-{seed}.jsonl")
            os.replace(spans, kept)
            lines = [f"spans: {os.path.relpath(kept, ROOT)}" if line.startswith("spans:") else line
                     for line in lines]
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    if not trace:
        setup = result["metrics"]["setup_s"]
        setups = [*before, setup["value"], *after]
        setup["value"] = statistics.median(setups)
        lines = [line for line in lines if not line.startswith("setup_s = ")]
        lines.append(f"setup_s = {setup['value']!r} s (median of {len(setups)} cold set-ups: "
                     + ", ".join(f"{value:.6g}" for value in setups) + ")")
    return lines, result


def metric_line(line):
    """'name = value unit' -> (name, unit), else None."""
    parts = line.split()
    if len(parts) >= 4 and parts[1] == "=":
        return parts[0], parts[3]
    return None


def self_test():
    """Tiny runs of every workload plus the check-function self-test."""
    bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    manifest = load_json(os.path.join(HERE, "manifest.json"))
    problems = []
    names = [w["name"] for w in bench["workloads"]]
    if names != [w["name"] for w in manifest["workloads"]]:
        problems.append("BENCHMARK.json and manifest.json list different workloads")

    work_dir = os.path.join(RUNS, f"self-test-{os.getpid()}")
    os.makedirs(work_dir, exist_ok=True)
    try:
        done = subprocess.run([HARNESS, "--self-test", "--root", work_dir], stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S, check=False)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    sys.stdout.write(done.stdout)
    if done.returncode != 0:
        problems.append("check-function self-test failed")

    for spec in manifest["workloads"]:
        workload, seed = spec["name"], 7
        described = (f"workload: {workload}  orgs: {spec['orgs']}  schemes: "
                     + " ".join(spec["sessions_per_consortium"]))
        tail = f"session_s.tail is p{manifest['tail_percentile']:g} "
        digests = []
        for trace, section in ((0, "end_to_end"), (0, "end_to_end"), (1, "per_layer")):
            lines, result = run_workload(workload, seed, 0, trace, 1)
            want = {m["name"]: m["unit"] for m in bench[section]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            printed = dict(filter(None, map(metric_line, lines)))
            digest = next((line.split()[2] for line in lines
                           if line.startswith("output_digest = ")), None)
            digests.append(digest)
            label = f"{workload} trace={trace}"
            if result["failed"] != 0 or not result["correct"]:
                problems.append(f"{label}: {result['failed']} failed session(s)")
            if got != want:
                problems.append(f"{label}: metrics {sorted(got.items())} != {sorted(want.items())}")
            if any(printed.get(name) != unit for name, unit in want.items()):
                problems.append(f"{label}: not every metric is printed with its unit")
            if not any(line.startswith(described) for line in lines) or (
                    not trace and not any(line.startswith(tail) for line in lines)):
                problems.append(f"{label}: the harness's workload differs from manifest.json")
            print(f"self-test {label}: {result['attempted']} sessions, digest {digest}")
        if None in digests or len(set(digests)) != 1:
            problems.append(f"{workload}: digests differ across tiny runs: {digests}")

    for problem in problems:
        print(f"self-test FAILED: {problem}")
    print("self-test: " + ("ok" if not problems else f"{len(problems)} problem(s)"))
    return 0 if not problems else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    manifest = load_json(os.path.join(HERE, "manifest.json"))
    build()
    if args.self_test:
        return self_test()
    spec = next((w for w in manifest["workloads"] if w["name"] == args.workload), None)
    if spec is None:
        parser.error(f"--workload must be one of {[w['name'] for w in manifest['workloads']]}")
    seed = spec["default_seed"] if args.seed is None else args.seed
    lines, result = run_workload(args.workload, seed, args.seconds, args.trace,
                                 spec["setup_runs"])
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
