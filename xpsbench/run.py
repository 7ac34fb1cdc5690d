#!/usr/bin/env python3
"""Build and run the xp-scalar benchmark for one workload.

    python3 xpsbench/run.py --workload campaign|serve \
        --seed N --seconds S --trace 0|1

Run from the repository root. Builds the harness package in
`xpsbench/harness` (release, offline) into `$CARGO_TARGET_DIR`
(default `.bench_build`), runs the workload in a fresh process, and
prints the harness's output; the last line is the result object
`{"correct", "attempted", "failed", "metrics"}`. Exits non-zero, with
no result line, when the build or the run fails.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("campaign", "serve")
# A run must end within 180 s; leave room to report.
RUN_TIMEOUT_S = 170


def commit():
    """The commit under test, or a digest of the sources outside git."""
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha1()
    for base in ("crates", "vendor", "src"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, base)):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".rs", ".toml")):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return "tree-" + h.hexdigest()[:12]


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    a = p.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    target = os.path.join(ROOT, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "harness", "Cargo.toml")],
        cwd=ROOT, env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("xpsbench: build failed", file=sys.stderr)
        return 2

    exe = os.path.join(target, "release", "xpsbench")
    work = os.path.join(target, "xpsbench-work", f"{a.workload}-{a.seed}-{a.trace}")
    env["XPSBENCH_COMMIT"] = commit()
    cmd = [exe, "run", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
           "--trace", str(a.trace), "--work", work,
           "--digests", os.path.join(HERE, "digests.json")]
    # Its own session, so a timed-out run takes its daemon with it.
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        print(f"xpsbench: {a.workload} did not finish in {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3

    lines = out.rstrip("\n").splitlines()
    try:
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
    except (IndexError, ValueError, AssertionError):
        sys.stderr.write(out)
        print(f"xpsbench: {a.workload} printed no result (exit {proc.returncode})",
              file=sys.stderr)
        return 4
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    return 0 if proc.returncode == 0 and result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
