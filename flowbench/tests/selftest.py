#!/usr/bin/env python3
"""Reduced-size self-test of the flowbench driver.

    python3 flowbench/tests/selftest.py

Runs every workload at reduced size (small apps, an 8-particle x
4-iteration swarm), untraced and traced, and checks that:
  * the run passes its output checks and exits 0;
  * the result line carries every metric BENCHMARK.json names for that mode,
    each with its unit, and the same metrics appear as `metric` lines;
  * a traced run writes its spans, each with a name, module, start, end and
    parent;
  * two runs with one seed agree exactly on every simulated metric;
  * in a directory holding only BENCHMARK.json and flowbench/, the runner
    exits nonzero without printing a result.
Exits nonzero on the first failed check.
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.dont_write_bytecode = True
sys.path.insert(0, str(ROOT / "flowbench"))
import run as runner  # noqa: E402  (the runner's build-directory rule)

SCRATCH = runner.build_dir().parent / "flowbench-selftest"
SIMULATED = ("aer_packets", "global_energy_uj", "mean_latency_cycles",
             "max_latency_cycles")


def fail(message):
    print(f"selftest: FAIL: {message}")
    sys.exit(1)


def run(workload, trace, cwd=ROOT, seed=7):
    cmd = [sys.executable, "flowbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", "0.2", "--trace", str(trace),
           "--reduced"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=600)


def check_result(workload, trace, proc):
    if proc.returncode != 0:
        fail(f"{workload} trace={trace} exited {proc.returncode}:\n"
             f"{proc.stderr[-2000:]}")
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{workload}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        fail(f"{workload}: checks failed: {result}")
    expected = SPEC["per_layer" if trace else "end_to_end"]
    metrics = result["metrics"]
    if set(metrics) != {m["name"] for m in expected}:
        names = {m["name"] for m in expected}
        fail(f"{workload} trace={trace}: metric names differ from "
             f"BENCHMARK.json: {sorted(set(metrics) ^ names)}")
    printed = {}
    for line in lines:
        parts = line.split()
        if len(parts) == 4 and parts[0] == "metric":
            printed[parts[1]] = parts[3]
    for m in expected:
        got = metrics[m["name"]]
        value = got["value"]
        if got["unit"] != m["unit"] or not isinstance(value, (int, float)):
            fail(f"{workload}: {m['name']} printed as {got}, "
                 f"unit {m['unit']}")
        if printed.get(m["name"]) != m["unit"]:
            fail(f"{workload}: no 'metric {m['name']} <value> "
                 f"{m['unit']}' line")
    return metrics


def check_spans(workload):
    path = runner.build_dir() / "spans" / f"{workload}-seed7.json"
    spans = json.loads(path.read_text())["spans"]
    if not spans:
        fail(f"{workload}: no spans in {path}")
    for s in spans:
        keys = {"name", "module", "start_s", "end_s", "parent", "self_s"}
        if not keys <= set(s):
            fail(f"{workload}: malformed span {s}")
        if s["end_s"] < s["start_s"] or s["parent"] >= s["id"]:
            fail(f"{workload}: inconsistent span {s}")


def check_bare_directory():
    bare = SCRATCH / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(ROOT / "flowbench", bare / "flowbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run("map-is", 0, cwd=bare)
    shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0:
        fail("runner exited 0 without the snnmap sources")
    last = proc.stdout.strip().splitlines()[-1:] or [""]
    if last[0].startswith("{"):
        fail("runner printed a result without the snnmap sources")


def main():
    for name in runner.WORKLOADS:
        first = check_result(name, 0, run(name, 0))
        again = check_result(name, 0, run(name, 0))
        for key in SIMULATED:
            if first[key]["value"] != again[key]["value"]:
                fail(f"{name}: {key} differs between runs of one seed")
        check_result(name, 1, run(name, 1))
        check_spans(name)
        print(f"selftest: {name} ok")
    check_bare_directory()
    print("selftest: bare directory ok")
    print("selftest: PASS")


if __name__ == "__main__":
    main()
