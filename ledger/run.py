#!/usr/bin/env python3
"""Serving ledger: one measured run of one workload.

    python3 ledger/run.py --workload cyclic-local --seed 1 --seconds 10 --trace 0

Builds `pegcli` and the ledger harness from the checkout this file sits
in (into $CARGO_TARGET_DIR, default `.bench_build`), then runs the
harness in a process group of its own. The last line of standard output
is the run's JSON result. Every process the run starts is killed and
reaped before this script returns, also on failure and on SIGINT/SIGTERM.
See ledger/README.md for the workloads and metrics.
"""

import hashlib
import os
import signal
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HARNESS_MANIFEST = os.path.join("ledger", "harness", "Cargo.toml")
# The harness itself stays well inside the 180-second budget of a run;
# this only stops a hung run.
RUN_TIMEOUT_S = 170
SOURCE_DIRS = ("crates", "src", "ledger")


def log(msg):
    print(f"ledger/run.py: {msg}", file=sys.stderr, flush=True)


# The child running now (a build or the harness), for the signal handler.
running = None


def cargo_build(args, env):
    global running
    # Cargo's own output goes to stderr so stdout ends with the result.
    cmd = ["cargo", "build", "--release", "--offline", "--quiet"] + args
    running = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=sys.stderr, start_new_session=True)
    if running.wait() != 0:
        log(f"build failed: {' '.join(cmd)}")
        sys.exit(3)


def source_stamp():
    """The commit when the checkout is a git repository; otherwise a hash
    of the sources the benchmark builds from."""
    try:
        head = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
        if head.returncode == 0 and head.stdout.strip():
            return head.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    paths = [os.path.join(ROOT, f) for f in ("Cargo.toml", "Cargo.lock")]
    for top in SOURCE_DIRS:
        for d, dirs, files in os.walk(os.path.join(ROOT, top)):
            dirs[:] = sorted(x for x in dirs if x != "target")
            paths.extend(os.path.join(d, f) for f in sorted(files))
    for p in paths:
        if os.path.isfile(p):
            digest.update(os.path.relpath(p, ROOT).encode())
            with open(p, "rb") as f:
                digest.update(f.read())
    return "tree-" + digest.hexdigest()[:16]


def rustc_version(env):
    try:
        out = subprocess.run(["rustc", "--version"], env=env, capture_output=True, text=True, timeout=30)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def reap_group(proc):
    """Kills a child's whole process group (it leads one) and waits until
    none of it is left."""
    pgid = proc.pid
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        proc.poll()  # reap the harness itself once it is gone
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)
    log(f"process group {pgid} did not exit")


def on_signal(signum, _frame):
    if running is not None:
        reap_group(running)
    sys.exit(128 + signum)


def main():
    global running
    for s in (signal.SIGINT, signal.SIGTERM, signal.SIGHUP):
        signal.signal(s, on_signal)
    for needed in ("Cargo.toml", "crates", HARNESS_MANIFEST):
        if not os.path.exists(os.path.join(ROOT, needed)):
            log(f"{needed} is missing: run from a full checkout of the repository")
            sys.exit(2)
    env = dict(os.environ)
    target = env.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    env["CARGO_TARGET_DIR"] = target
    cargo_build(["--bin", "pegcli"], env)
    cargo_build(["--manifest-path", HARNESS_MANIFEST], env)

    cmd = [
        os.path.join(target, "release", "ledger"),
        "--pegcli", os.path.join(target, "release", "pegcli"),
        "--commit", source_stamp(),
        "--rustc", rustc_version(env),
    ] + sys.argv[1:]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, start_new_session=True)
    running = proc
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s")
        reap_group(proc)
        sys.exit(4)
    finally:
        reap_group(proc)
    sys.stdout.write(out.decode())
    sys.stdout.flush()
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
