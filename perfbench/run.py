#!/usr/bin/env python3
"""Run one benchmark workload of the matching stack.

    python3 perfbench/run.py --workload ids_scan --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

Builds perfbench_runner and ca_server from the repository's sources into
.bench_build/perfbench (CMake; the first run compiles, later runs only
check that the build is current), then runs the workload in its own
process. The last line of standard output is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 prints the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones and writes a Chrome trace to
.bench_build/perfbench/traces/. The exit code is 0 only when the build
succeeded, every output check passed and the printed metrics are exactly
the ones BENCHMARK.json declares. See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("ids_scan", "bio_align", "av_serve")
BUILD_TIMEOUT_S = 880
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the runner; False on failure."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not any((BUILD / f).exists() for f in ("build.ninja", "Makefile")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD), *gen,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs,
                  "--target", "perfbench_runner", "ca_server"])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            log(f"build step failed: {e}")
            return False
        if done.returncode != 0:
            log(f"build step failed: {' '.join(cmd)}")
            return False
    return True


def run_workload(args):
    """Runs one workload in its own process group; (exit code, stdout)."""
    proc = subprocess.Popen(args, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # The runner may have a ca_server child: stop the whole group.
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        log(f"run exceeded {RUN_TIMEOUT_S} s")
        return 1, ""
    return proc.returncode, out


def declared_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="check that every output check rejects a "
                         "corrupted report or score")
    a = ap.parse_args()
    if not a.selftest and not a.workload:
        ap.error("--workload is required")
    if not build():
        return 1
    runner = str(BUILD / "perfbench_runner")
    if a.selftest:
        return subprocess.run([runner, "--selftest"]).returncode

    work = BUILD / "work" / f"{a.workload}-{os.getpid()}"
    traces = BUILD / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    trace_file = traces / f"{a.workload}-seed{a.seed}.json"
    try:
        code, out = run_workload([
            runner, "--workload", a.workload, "--seed", str(a.seed),
            "--seconds", str(a.seconds), "--trace", str(a.trace),
            "--trace-file", str(trace_file), "--work-dir", str(work),
            "--server-bin", str(BUILD / "ca_server")])
    finally:
        shutil.rmtree(work, ignore_errors=True)
    sys.stdout.write(out)
    sys.stdout.flush()
    if code != 0:
        log(f"{a.workload} failed (exit {code})")
        return code or 1
    lines = out.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    got = {k: v["unit"] for k, v in result.get("metrics", {}).items()}
    want = declared_metrics(a.trace)
    if got != want:
        log(f"printed metrics differ from BENCHMARK.json: "
            f"missing {sorted(set(want) - set(got))}, "
            f"extra {sorted(set(got) - set(want))}, units "
            f"{sorted(k for k in got if k in want and got[k] != want[k])}")
        return 1
    if a.trace:
        log(f"trace written to {trace_file}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
