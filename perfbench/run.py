#!/usr/bin/env python3
"""perfbench entry point: build lapx and the harness from source, run one workload.

    python3 perfbench/run.py --workload serve_cold --seed 1 --seconds 10 --trace 0

Run from the repository root.  The first call configures and builds into
.bench_build/perfbench (Release); later calls only rebuild what changed.
Each run gets a fresh scratch directory under .bench_build/ for daemon
sockets, logs and the out-of-core file, removed again on every exit path.
The last line of standard output is the JSON result; the lines before it
(prefixed "# ") are the detail report.  See perfbench/README.md.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(BUILD_ROOT, "perfbench")
WORKLOADS = ["serve_cold", "serve_hot_sharded", "serve_mutate", "batch_pipeline"]
RUN_TIMEOUT_S = 175


def fail(msg, code=1):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build():
    for needed in ("src/CMakeLists.txt", "tools/lapx_cli.cpp"):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            fail("missing %s: run from a full checkout of the repository" % needed, 2)
    os.makedirs(BUILD_ROOT, exist_ok=True)
    log_path = os.path.join(BUILD_ROOT, "build.log")
    with open(log_path, "w") as log:
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            cmd = ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
                   "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            if subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT) != 0:
                shutil.rmtree(BUILD, ignore_errors=True)
                return False, log_path
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        cmd = ["cmake", "--build", BUILD, "-j", jobs, "--target",
               "perfbench_harness", "lapx_cli"]
        ok = subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT) == 0
    return ok, log_path


def find_binary(name):
    for dirpath, _, files in os.walk(BUILD):
        if name in files:
            return os.path.join(dirpath, name)
    return None


def on_signal(signum, _frame):
    # Unwind through main's finally: stop the harness (which kills its
    # daemons) and remove the scratch directory.
    raise SystemExit(128 + signum)


def main():
    signal.signal(signal.SIGTERM, on_signal)
    signal.signal(signal.SIGINT, on_signal)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = ap.parse_args()
    if args.seconds <= 0 or args.seed < 0:
        fail("--seconds must be positive and --seed non-negative", 2)

    ok, log_path = build()
    if not ok:
        with open(log_path) as f:
            sys.stderr.write("".join(f.readlines()[-40:]))
        fail("build failed (full log: %s)" % log_path)
    harness = find_binary("perfbench_harness")
    cli = find_binary("lapx_cli")
    if harness is None or cli is None:
        fail("build produced no perfbench_harness / lapx_cli")

    reports = os.path.join(BUILD_ROOT, "reports")
    os.makedirs(reports, exist_ok=True)
    workdir = os.path.join(BUILD_ROOT, "run-%d" % os.getpid())
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    cmd = [harness, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--cli", cli, "--report-dir", reports]
    proc = None
    try:
        proc = subprocess.Popen(cmd, cwd=workdir, stdout=subprocess.PIPE)
        try:
            out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            fail("run exceeded %d s" % RUN_TIMEOUT_S)  # finally stops it
        if proc.returncode != 0:
            sys.stderr.write(out.decode(errors="replace"))
            fail("harness exited with code %d" % proc.returncode)
        sys.stdout.write(out.decode(errors="replace"))
        sys.stdout.flush()
    finally:
        if proc is not None and proc.poll() is None:
            proc.send_signal(signal.SIGTERM)  # the harness kills its daemons
            try:
                proc.wait(timeout=5)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
