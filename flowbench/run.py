#!/usr/bin/env python3
"""Build the flowbench driver from source and run one workload (or all).

    python3 flowbench/run.py --workload map-is --seed 42 --seconds 10 --trace 0
    python3 flowbench/run.py --workload all

Run from the root of a snnmap checkout.  The driver is configured and built
(Release) under $CARGO_TARGET_DIR/flowbench, default .bench_build/flowbench,
inside the checkout.  Each workload runs in its own process, so its peak RSS
is its own.  The last stdout line is the result JSON; the exit code is
nonzero when the build fails or any output check fails.  Traced runs write
their spans to <build dir>/spans/.
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("map-is", "cosim-synth")


def build_dir():
    """$CARGO_TARGET_DIR/flowbench (a relative path is taken from the
    checkout root), default .bench_build/flowbench."""
    return ROOT / (os.environ.get("CARGO_TARGET_DIR") or ".bench_build") \
        / "flowbench"


def run_timeout(seconds):
    """Covers the untraced loop, the traced pass and the last call started
    just before the loop ends."""
    return 3 * seconds + 60


def build(bdir):
    """Configure once, then let the build tool decide what is stale."""
    quiet = {"stdout": sys.stderr, "stderr": sys.stderr}
    if not (bdir / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(HERE), "-B", str(bdir),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, **quiet).returncode != 0:
            return None
    cmd = ["cmake", "--build", str(bdir), "--parallel", "4"]
    if subprocess.run(cmd, **quiet).returncode != 0:
        return None
    return bdir / "flowbench"


def revision():
    """The git commit when run inside a git work tree, else a digest of the
    sources the driver is built from."""
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel"],
                             cwd=ROOT, capture_output=True, text=True)
        if top.returncode == 0 and Path(top.stdout.strip()) == ROOT:
            head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                  capture_output=True, text=True)
            if head.returncode == 0:
                return "git:" + head.stdout.strip()
    except OSError:
        pass
    h = hashlib.sha256()
    for tree in (ROOT / "src", HERE):
        for path in sorted(p for p in tree.rglob("*") if p.is_file()):
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return "src-sha256:" + h.hexdigest()[:16]


def run_one(exe, args, workload, rev, spans_dir):
    """Runs the driver for one workload; returns (exit code, result JSON)."""
    cmd = [str(exe), "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--revision", rev]
    if args.reduced:
        cmd.append("--reduced")
    if args.trace:
        spans_dir.mkdir(parents=True, exist_ok=True)
        cmd += ["--spans-out",
                str(spans_dir / f"{workload}-seed{args.seed}.json")]
    timeout = run_timeout(args.seconds)
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired as e:
        partial = e.stdout or ""
        if isinstance(partial, bytes):
            partial = partial.decode(errors="replace")
        sys.stdout.write(partial)
        print(f"flowbench: {workload} exceeded {timeout:g} s",
              file=sys.stderr)
        return 1, None
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    body = lines[:-1] if result is not None else lines
    for line in body:
        print(f"{workload}: {line}" if args.workload == "all" else line)
    return proc.returncode, result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reduced", action="store_true",
                        help="small inputs, for the driver's self-test")
    args = parser.parse_args()

    if not (ROOT / "src" / "CMakeLists.txt").exists():
        print(f"flowbench: no snnmap sources under {ROOT}; run from the "
              "root of a snnmap checkout", file=sys.stderr)
        return 2
    bdir = build_dir()
    exe = build(bdir)
    if exe is None:
        print("flowbench: build failed", file=sys.stderr)
        return 2
    rev = revision()
    sys.stdout.flush()

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    worst = 0
    for workload in workloads:
        code, result = run_one(exe, args, workload, rev, bdir / "spans")
        if result is None:
            return code or 1
        worst = max(worst, code)
        results[workload] = result
    if args.workload != "all":
        print(json.dumps(results[args.workload]))
        return worst
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}/{name}": m for w, r in results.items()
                    for name, m in r["metrics"].items()},
    }))
    return worst


if __name__ == "__main__":
    sys.exit(main())
