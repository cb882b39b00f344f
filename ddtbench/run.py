#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the root of a checkout:

    python3 ddtbench/run.py --workload corpus --seed 1 --seconds 20 --trace 0

It builds ddtbench/ddtbench.exe from source with dune, runs it with the
given arguments and relays its standard output; the last line is one JSON
object with the keys correct, attempted, failed and metrics. Workloads,
metrics and the trace file are described in ddtbench/METRICS.md.

Extra modes, passed through to the benchmark program:
    --selftest        a wrong oracle must drive fail_frac above 0
    --record-oracle   print a fresh ddtbench/oracle.ml
"""

import argparse
import hashlib
import os
import signal
import subprocess
import sys
import time

EXE = os.path.join("_build", "default", "ddtbench", "ddtbench.exe")
OUT = os.path.join("ddtbench", "_out")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
TREE_DIRS = ("lib", "bin", "ddtbench")
ADDR_NO_RANDOMIZE = 0x0040000


def fail(msg, code=2):
    print("ddtbench: " + msg, file=sys.stderr)
    sys.exit(code)


def tree_hash():
    """A hash of the sources the benchmark builds, for checkouts without git."""
    h = hashlib.sha256()
    for top in TREE_DIRS:
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames[:] = sorted(d for d in dirnames if not d.startswith(("_", ".")))
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(path.encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def commit_hash():
    if not os.path.isdir(".git"):
        return "none"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10
        )
        return out.stdout.strip() or "none"
    except (OSError, subprocess.SubprocessError):
        return "none"


def fixed_layout():
    """Turn off address-space randomization for the benchmark process.

    Run to run, a randomized layout moves pass times by up to 20 % on the
    same code; one fixed layout keeps that noise out of the comparison.
    Where the kernel refuses, the run goes on with a randomized layout.
    """
    try:
        import ctypes

        libc = ctypes.CDLL(None, use_errno=True)
        persona = libc.personality(0xFFFFFFFF)
        if persona != -1:
            libc.personality(persona | ADDR_NO_RANDOMIZE)
    except (OSError, AttributeError):
        pass


def stop_group(pgid):
    """Kill whatever is left of the benchmark's process group and wait for it."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        return
    deadline = time.time() + 5
    while time.time() < deadline:
        try:
            os.killpg(pgid, 0)
        except (ProcessLookupError, PermissionError):
            return
        time.sleep(0.05)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="corpus", choices=["corpus", "small", "serve"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, default=0, choices=[0, 1])
    ap.add_argument("--selftest", action="store_true")
    ap.add_argument("--record-oracle", action="store_true")
    args = ap.parse_args()

    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        fail("run from the root of a repository checkout (no dune-project or lib/ here)")

    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "--display", "quiet", "./" + EXE],
            stdout=sys.stderr,
            env=env,
            timeout=BUILD_TIMEOUT_S,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e)
    if build.returncode != 0 or not os.path.isfile(EXE):
        fail("build failed (dune exit %d)" % build.returncode)

    os.makedirs(OUT, exist_ok=True)
    cmd = [
        EXE,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--out", OUT,
        "--commit", commit_hash(),
        "--tree", tree_hash(),
    ]
    if args.selftest:
        cmd.append("--selftest")
    if args.record_oracle:
        cmd.append("--record-oracle")
    proc = subprocess.Popen(
        cmd, stdout=subprocess.PIPE, text=True, start_new_session=True, preexec_fn=fixed_layout
    )
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        stop_group(proc.pid)
        proc.wait()
        fail("benchmark did not finish within %d s" % RUN_TIMEOUT_S, code=3)
    finally:
        stop_group(proc.pid)
    sys.stdout.write(out)
    sys.stdout.flush()
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
