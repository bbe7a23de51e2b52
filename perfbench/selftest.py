#!/usr/bin/env python3
"""Smoke self-test of the benchmark at tiny input sizes.

    python3 perfbench/selftest.py

Run from the repository root. For every workload in BENCHMARK.json it checks
that an untraced and a traced run pass their output checks and print every
named metric with its declared unit, that the span file parses, and that the
per-layer self times plus the residual add up to the traced wall time. It also
checks that the benchmark fails, without printing a result, in a directory
that holds only BENCHMARK.json and the benchmark's own files.
"""

import json
import math
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402

WORK_DIR = os.path.join(run.ROOT, ".bench_build", "selftest")
SPAN_KEYS = {"id", "name", "parent", "start_us", "end_us", "lane", "workload"}


def fail(message):
    sys.stderr.write("selftest: FAIL: %s\n" % message)
    sys.exit(1)


def run_binary(workload, trace, spans):
    env = dict(os.environ)
    env["LITERECONFIG_CACHE_DIR"] = os.path.join(run.ROOT, ".bench_build", "model-cache")
    done = subprocess.run(
        [run.BINARY, "--workload", workload, "--seed", "7", "--seconds", "0.2",
         "--trace", str(trace), "--scale", "tiny", "--spans", spans],
        cwd=run.ROOT, env=env, stdout=subprocess.PIPE, timeout=run.RUN_TIMEOUT_S)
    lines = done.stdout.decode().rstrip("\n").split("\n")
    if done.returncode != 0:
        fail("%s trace=%d exited with %d" % (workload, trace, done.returncode))
    return lines, json.loads(lines[-1])


def check_metrics(workload, lines, result, declared, nonzero):
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        fail("%s: checks failed: %s" % (workload, lines[-1]))
    metrics = result["metrics"]
    if set(metrics) != {m["name"] for m in declared}:
        fail("%s: metric names %s differ from BENCHMARK.json" % (workload, sorted(metrics)))
    report = "\n".join(lines[:-1])
    for m in declared:
        got = metrics[m["name"]]
        if got["unit"] != m["unit"] or not math.isfinite(got["value"]):
            fail("%s: %s printed as %s" % (workload, m["name"], got))
        if nonzero and got["value"] == 0:
            fail("%s: end-to-end metric %s is 0" % (workload, m["name"]))
        printed = re.search(r"\] +%s = \S+ %s$" % (re.escape(m["name"]), re.escape(m["unit"])),
                            report, re.MULTILINE)
        if not printed:
            fail("%s: %s is not in the report with its unit" % (workload, m["name"]))


def check_trace(workload, lines, spans_path):
    rows = [float(line.split("\t")[2]) for line in lines if line.startswith("[perfbench] layer\t")]
    tagged = dict(line.split("\t")[:2] for line in lines
                  if line.startswith(("[perfbench] residual\t", "[perfbench] traced_wall\t")))
    residual = float(tagged["[perfbench] residual"])
    wall = float(tagged["[perfbench] traced_wall"])
    if not rows or residual < 0 or abs(sum(rows) + residual - wall) > 1e-3 * max(wall, 1.0):
        fail("%s: layer self times %s + residual %s != traced wall %s"
             % (workload, rows, residual, wall))
    if not any(line.startswith("[perfbench] largest layer on %s: " % workload) for line in lines):
        fail("%s: the report names no largest layer" % workload)
    with open(spans_path) as handle:
        spans = [json.loads(line) for line in handle if line.strip()]
    for i, span in enumerate(spans):
        if set(span) != SPAN_KEYS or span["id"] != i or span["workload"] != workload:
            fail("%s: malformed span %s" % (workload, span))
        if span["end_us"] < span["start_us"] or span["parent"] >= i:
            fail("%s: span %s is not well nested" % (workload, span))
    roots = [s for s in spans if s["parent"] == -1]
    calls = [s for s in spans if s["name"] in ("pipeline.run", "serve.run")]
    if len(roots) != 1 or len(calls) != 1:
        fail("%s: want one root span and one call span" % workload)
    call_ms = (calls[0]["end_us"] - calls[0]["start_us"]) / 1000.0
    if abs(call_ms - wall) > 0.01:
        fail("%s: call span %.3f ms != traced wall %.3f ms" % (workload, call_ms, wall))


def check_bare_checkout(bench):
    """The benchmark alone (no product sources) must fail without a result."""
    bare = os.path.join(WORK_DIR, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
    for path in bench["paths"]:
        shutil.copytree(os.path.join(run.ROOT, path), os.path.join(bare, path),
                        ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(bench["command"] + ["--workload", bench["workloads"][0]["name"],
                                              "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          timeout=180)
    shutil.rmtree(bare, ignore_errors=True)
    if done.returncode == 0 or b'"correct"' in done.stdout:
        fail("a checkout without product sources did not fail cleanly")


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    if not run.build():
        fail("build")
    os.makedirs(WORK_DIR, exist_ok=True)
    for workload in (w["name"] for w in bench["workloads"]):
        spans = os.path.join(WORK_DIR, "spans_%s.jsonl" % workload)
        lines, result = run_binary(workload, 0, spans)
        check_metrics(workload, lines, result, bench["end_to_end"], nonzero=True)
        lines, result = run_binary(workload, 1, spans)
        check_metrics(workload, lines, result, bench["per_layer"], nonzero=False)
        check_trace(workload, lines, spans)
        print("selftest: %s ok" % workload)
    check_bare_checkout(bench)
    print("selftest: bare checkout fails cleanly")
    print("selftest: PASS")


if __name__ == "__main__":
    main()
