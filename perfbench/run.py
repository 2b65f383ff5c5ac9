#!/usr/bin/env python3
"""Build the FASEA benchmark and run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload serve-paper --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --smoke        # every workload, briefly, traced

The script builds the server binary (`fasea-exp`, from the repository's
own workspace) and the benchmark binary (`perfbench`, its own workspace)
with cargo into CARGO_TARGET_DIR (default `.bench_build`), then runs the
benchmark binary, pinned to one CPU together with the server it starts,
and passes on its exit code. The last line the binary prints is the JSON
result; build output goes to standard error.
"""

import os
import signal
import subprocess
import sys


def main():
    root = os.getcwd()
    here = os.path.dirname(os.path.abspath(__file__))
    if not os.path.isfile(os.path.join(root, "Cargo.toml")) or not os.path.isdir(
        os.path.join(root, "crates")
    ):
        sys.stderr.write("perfbench: run from the repository root (no Cargo.toml/crates here)\n")
        return 2
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        ["cargo", "build", "--release", "--offline", "-q", "-p", "fasea-experiments", "--bin", "fasea-exp"],
        ["cargo", "build", "--release", "--offline", "-q", "--manifest-path",
         os.path.join(os.path.relpath(here, root), "Cargo.toml")],
    ]
    for cmd in builds:
        # Build output must not reach standard output: its last line is the result.
        code = subprocess.call(cmd, env=env, stdout=sys.stderr.fileno())
        if code != 0:
            sys.stderr.write("perfbench: build failed: %s\n" % " ".join(cmd))
            return code or 1
    release = os.path.join(target, "release")
    bench = os.path.join(release, "perfbench")
    server = os.path.join(release, "fasea-exp")
    args = [bench, "--server", server, "--commit", commit(root)] + sys.argv[1:]
    pin_to_one_cpu()
    sys.stdout.flush()
    # The benchmark runs in a process group of its own, so whatever ends
    # this script also ends the benchmark and the server child it started.
    child = subprocess.Popen(args, start_new_session=True)
    stopped_by = []

    def stop(signum, _frame):
        # The wait below returns once the group is gone.
        stopped_by.append(signum)
        kill_group(child.pid)

    for sig in (signal.SIGTERM, signal.SIGINT, signal.SIGHUP):
        signal.signal(sig, stop)
    code = child.wait()
    # A server left behind by a benchmark that died goes too.
    kill_group(child.pid)
    if stopped_by:
        return 128 + stopped_by[0]
    return code if code >= 0 else 128 - code


def kill_group(pgid):
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def pin_to_one_cpu():
    """Restrict this process, and so the benchmark and the server child it
    starts, to the first CPU it may use.

    On a virtual machine whose vCPUs share physical cores with other
    tenants, a load spread over two vCPUs waits on cross-CPU wake-ups
    whenever the hypervisor deschedules one of them, and figures then
    swing by a factor of two between runs. On one CPU they do not.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def commit(root):
    """The checked-out commit, or `unknown` outside a git repository."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
        )
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


if __name__ == "__main__":
    sys.exit(main())
