#!/usr/bin/env python3
"""Runs one workload of the Reo serving benchmark from a checkout's root.

    python3 perfbench/run.py --workload hot_read --seed 1 --seconds 10 --trace 0

Builds reo_server and the benchmark client from the checkout's sources
(CMake, into $CARGO_TARGET_DIR or .bench_build), then runs the client.
The client prints every metric with its unit and clock and, as its last
line, the JSON result; this script passes its output and exit code on.
Build output goes to stderr so the result stays the last line of stdout.
"""
import argparse
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
CLIENT_TIMEOUT_S = 170


def build(build_dir):
    subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                    "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                   stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", build_dir, "-j", str(os.cpu_count() or 1),
                    "--target", "perfbench_client"],
                   stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "perfbench_client")


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    try:
        client = build(build_dir)
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"build failed: {e}", file=sys.stderr)
        return 1

    cmd = [client, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", os.path.join(build_dir, "run")]
    # Own session, so the client and every server it starts can be killed
    # together whatever happens.
    proc = subprocess.Popen(cmd, start_new_session=True)
    try:
        code = proc.wait(timeout=CLIENT_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"client exceeded {CLIENT_TIMEOUT_S} s", file=sys.stderr)
        code = 1
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    return code


if __name__ == "__main__":
    sys.exit(main())
