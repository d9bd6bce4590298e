#!/usr/bin/env python3
"""Build xks and the benchmark executable from source, then run one workload.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the repository root.  The build goes to .bench_build/ and the
run's files (corpus, index image, socket, server log) to
.bench_work/<workload>/.  xksbench's last stdout line is the result
object; it is passed through unchanged, and a run whose xksbench fails,
prints no result or reports a wrong answer exits non-zero.
See perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

WORKLOADS = ("batch-enum", "topk-interactive")
BUILD_DIR = ".bench_build"
WORK_DIR = ".bench_work"
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def run_group(cmd, timeout, **kw):
    """Run cmd in its own process group; kill the whole group on timeout."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kw)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        sys.exit(f"run.py: {cmd[0]} timed out after {timeout}s")
    return proc.returncode, out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    root = os.getcwd()
    env = dict(os.environ, DUNE_CACHE="disabled")
    code, _ = run_group(
        ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
         "--profile", "release", "--display", "quiet",
         "./bin/xks.exe", "./perfbench/xksbench.exe"],
        BUILD_TIMEOUT_S, cwd=root, env=env, stdout=sys.stderr)
    if code != 0:
        sys.exit(f"run.py: build failed (exit {code})")

    build = os.path.join(root, BUILD_DIR, "default")
    work = os.path.join(root, WORK_DIR, args.workload)
    os.makedirs(work, exist_ok=True)
    code, out = run_group(
        [os.path.join(build, "perfbench", "xksbench.exe"),
         "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--xks", os.path.join(build, "bin", "xks.exe")],
        RUN_TIMEOUT_S, cwd=work, stdout=subprocess.PIPE, text=True)
    lines = out.strip().splitlines()
    for line in lines[:-1]:
        print(line)
    if not lines:
        sys.exit(f"run.py: xksbench printed no result (exit {code})")
    result = json.loads(lines[-1])
    print(lines[-1])
    if code != 0 or not result["correct"]:
        sys.exit(f"run.py: xksbench exit {code}, correct={result['correct']}")


if __name__ == "__main__":
    main()
