#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload, or all of them.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --workload all --seed <n> --seconds <s>

Run from the repository root. The product libraries and the perfbench binary
are compiled (Release) into .bench_build/, the trained-model cache lives in
.bench_build/model-cache/, and the binary's report goes to stdout; its last
line is the JSON result. Build output goes to stderr. Exits non-zero, without
printing a result, when the build or the run fails.

`--workload all` runs every workload in BENCHMARK.json untraced and then
traced, printing each report in turn, and exits non-zero if any run failed or
failed a check.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")
# A run must end within 180 s; it normally ends far sooner.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def build():
    """Configures (once) and builds the binary; returns True on success."""
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench", "-j", "4"])
    for step in steps:
        try:
            done = subprocess.run(step, cwd=ROOT, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as error:
            sys.stderr.write("perfbench: build step failed: %s\n" % error)
            return False
        sys.stderr.write(done.stdout.decode(errors="replace")[-4000:])
        if done.returncode != 0:
            sys.stderr.write("perfbench: build failed: %s\n" % " ".join(step))
            return False
    return os.path.exists(BINARY)


def run_one(argv):
    """Runs the binary once; returns its parsed result, or None on failure."""
    env = dict(os.environ)
    env["LITERECONFIG_CACHE_DIR"] = os.path.join(ROOT, ".bench_build", "model-cache")
    try:
        done = subprocess.run([BINARY] + argv, cwd=ROOT, env=env,
                              stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        return None
    lines = done.stdout.decode(errors="replace").rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        result = None
    if done.returncode != 0 or not isinstance(result, dict) or \
            set(result) != {"correct", "attempted", "failed", "metrics"}:
        sys.stderr.write("\n".join(lines) + "\n")
        sys.stderr.write("perfbench: the binary exited with %d and no result line\n"
                         % done.returncode)
        return None
    sys.stdout.write("\n".join(lines) + "\n")
    sys.stdout.flush()
    return result


def main(argv):
    if not build():
        return 1
    if "--workload" not in argv[:-1] or argv[argv.index("--workload") + 1] != "all":
        return 0 if run_one(argv) is not None else 1
    at = argv.index("--workload")
    rest = argv[:at] + argv[at + 2:]
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        workloads = [w["name"] for w in json.load(handle)["workloads"]]
    failed = 0
    for name in workloads:
        for trace in ("0", "1"):
            result = run_one(["--workload", name, "--trace", trace] + rest)
            failed += 0 if result is not None and result["correct"] else 1
    print("perfbench: %d of %d runs failed" % (failed, 2 * len(workloads)))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
