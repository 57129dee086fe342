#!/usr/bin/env python3
"""Runs one benchmark workload from the root of a source checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the library, the replica server and the benchmark binary from source
(CMake, into $CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench),
runs the workload in a private working directory under .bench_runs/ that is
removed afterwards, and prints, as the last stdout line, one JSON object with
the keys correct, attempted, failed and metrics.  A `host` line before it
records the host fingerprint, a `record` line the run's checks and details.

Refuses to run when PPGNN_NUM_THREADS or PPGNN_ISA is set: both change the
program under test (thread-pool size, int8 kernel arm), so two commits
measured under different settings would not be comparable.
"""
import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

WORKLOADS = ("serve_closed_int8", "serve_open_xproc", "train_igb_storage",
             "train_sgc_storage_rr")
RUN_LIMIT_S = 170  # the run itself, after the build


def eprint(*args):
    print(*args, file=sys.stderr, flush=True)


def host_fingerprint():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_1m_5m_15m": [round(x, 2) for x in os.getloadavg()],
    }


def build(root, build_dir):
    """Configures once, then (re)builds the benchmark's targets."""
    if not os.path.isfile(os.path.join(root, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(root, "src")):
        eprint("run.py: no program sources in", root)
        return False
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        rc = subprocess.call(
            ["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"], stdout=sys.stderr)
        if rc != 0:
            return False
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    rc = subprocess.call(
        ["cmake", "--build", build_dir, "-j", jobs, "--target", "ppbench",
         "replica_server_cli"], stdout=sys.stderr)
    return rc == 0


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    for var in ("PPGNN_NUM_THREADS", "PPGNN_ISA"):
        if var in os.environ:
            eprint(f"run.py: refusing to run with {var} set: it changes the "
                   "program under test")
            return 2

    host = host_fingerprint()
    root = os.getcwd()
    build_dir = os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                             "perfbench")
    if not build(root, build_dir):
        eprint("run.py: build failed")
        return 1

    # Short relative paths: unix socket paths are limited to 107 bytes.
    run_dir = os.path.join(".bench_runs", str(os.getpid()))
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    trace_dir = ".bench_traces"
    os.makedirs(trace_dir, exist_ok=True)
    cmd = [os.path.join(build_dir, "ppbench"),
           f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds}", f"--trace={args.trace}",
           f"--dir={run_dir}",
           f"--server-bin={os.path.join(build_dir, 'replica_server_cli')}",
           f"--trace-out={os.path.join(trace_dir, args.workload + '.json')}"]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        eprint(f"run.py: workload exceeded {RUN_LIMIT_S} s")
        return 1
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
        shutil.rmtree(run_dir, ignore_errors=True)

    lines = [l for l in out.splitlines() if l.strip()]
    try:
        result = json.loads(lines[-1])
        result = {k: result[k] for k in ("correct", "attempted", "failed",
                                         "metrics")}
    except (IndexError, ValueError, KeyError):
        eprint("run.py: the workload printed no result")
        return 1
    print("host " + json.dumps(host))
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result), flush=True)
    return 0 if proc.returncode == 0 and result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
