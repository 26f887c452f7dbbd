#!/usr/bin/env python3
"""Build and run the lazygraph benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the `perfbench` package and the repository's `lazygraph-worker`
binary in release mode (into $CARGO_TARGET_DIR, default `.bench_build`),
then runs one measurement. The last line of standard output is the JSON
result. Scratch files live under the target directory and are removed on
exit; traced runs leave their spans in `<target>/perfbench-out/`.
"""

import hashlib
import os
import shutil
import signal
import subprocess
import sys
import time

ROOT = os.getcwd()
# Files and directories whose contents identify the code under test;
# Markdown files under them are documentation and are skipped.
SOURCE_ROOTS = ["Cargo.toml", "Cargo.lock", "src", "crates", "shims", "perfbench"]


def source_digest():
    h = hashlib.sha256()
    for top in SOURCE_ROOTS:
        path = os.path.join(ROOT, top)
        if os.path.isfile(path):
            files = [path]
        else:
            files = []
            for d, dirs, names in os.walk(path):
                dirs[:] = sorted(x for x in dirs if not x.startswith(".") and x not in ("target", "__pycache__"))
                files += [os.path.join(d, n) for n in sorted(names) if not n.endswith(".md")]
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def git_rev():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def cargo_build(manifest, *extra):
    cmd = ["cargo", "build", "--release", "--offline", "--manifest-path", manifest, *extra]
    # Build output goes to stderr so the result stays the last stdout line.
    return subprocess.run(cmd, stdout=sys.stderr).returncode == 0


def main():
    target = os.environ.setdefault("CARGO_TARGET_DIR", ".bench_build")
    target = os.path.join(ROOT, target)
    if not os.path.isfile(os.path.join(ROOT, "Cargo.toml")):
        print("perfbench: run from the root of a lazygraph checkout", file=sys.stderr)
        return 2
    if not (cargo_build(os.path.join("perfbench", "Cargo.toml"))
            and cargo_build("Cargo.toml", "--bin", "lazygraph-worker")):
        print("perfbench: build failed", file=sys.stderr)
        return 2

    work = os.path.join(target, "perfbench-work", str(os.getpid()))
    os.makedirs(work, exist_ok=True)
    env = dict(os.environ, TMPDIR=work)  # the multiprocess launcher's scratch files
    cmd = [
        os.path.join(target, "release", "perfbench"), *sys.argv[1:],
        "--worker-bin", os.path.join(target, "release", "lazygraph-worker"),
        "--work-dir", work,
        "--out-dir", os.path.join(target, "perfbench-out"),
        "--git-rev", git_rev(),
        "--source-digest", source_digest(),
    ]
    # The program and its worker processes form one process group, so a
    # stop signal reaches all of them and the wait below covers all of them.
    child = subprocess.Popen(cmd, env=env, start_new_session=True)
    signal.signal(signal.SIGTERM, interrupt)
    signal.signal(signal.SIGINT, interrupt)
    try:
        code = child.wait()
    except Interrupted as e:
        code = 128 + e.signum
    finally:
        stop_group(child)
        shutil.rmtree(work, ignore_errors=True)
    return code


class Interrupted(Exception):
    def __init__(self, signum):
        super().__init__(signum)
        self.signum = signum


def interrupt(signum, _frame):
    # Unwinds the main thread's wait; the cleanup runs there, not here.
    raise Interrupted(signum)


def stop_group(child):
    """Terminates what is left of the child's process group and waits for it."""
    try:
        os.killpg(child.pid, signal.SIGTERM)
    except ProcessLookupError:
        return
    child.wait()
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(child.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)
    try:
        os.killpg(child.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


if __name__ == "__main__":
    sys.exit(main())
