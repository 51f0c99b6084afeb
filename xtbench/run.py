#!/usr/bin/env python3
"""Repository benchmark entry point.

Run from the repository root:

    python3 xtbench/run.py --workload <batch_cold|app_cold|daemon_mixed> \
        --seed N --seconds S --trace 0|1

Builds the library, the `extractocol` CLI and the xtbench binary from the
sources next to this directory (RelWithDebInfo, into $CARGO_TARGET_DIR or
.bench_build), then runs one workload. The last line of stdout is the JSON
result; the full record (metrics plus machine record) lands in
.bench_out/<workload>-t<trace>-s<seed>/result.json.

Extra arguments after the four above (--jobs N, --corrupt-digest) are passed
to the xtbench binary unchanged; xtbench/selftest.py uses them.

Exit codes: 0 correct run; 1 build failure, run error or wrong outputs;
2 usage error or refused configuration.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RUN_TIMEOUT_S = 175


def log(message):
    print(f"xtbench/run.py: {message}", file=sys.stderr, flush=True)


def build(build_dir, env):
    """Configures once, then builds the two targets; output goes to a log."""
    log_path = os.path.join(build_dir, "xtbench-build.log")
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs,
                  "--target", "xtbench", "extractocol"])
    with open(log_path, "w") as out:
        for step in steps:
            if subprocess.run(step, stdout=out, stderr=subprocess.STDOUT,
                              env=env).returncode != 0:
                with open(log_path) as f:
                    tail = f.read()[-4000:]
                sys.stderr.write(tail)
                log(f"build failed: {' '.join(step)} (full log: {log_path})")
                return False
    return True


def commit_id():
    """The git commit when run in a git checkout, else 'unknown'."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                       capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def source_digest():
    """SHA-256 over every file the benchmark builds from, in path order."""
    h = hashlib.sha256()
    for top in ("src", "tools", "xtbench"):
        base = os.path.join(ROOT, top)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode() + b"\0")
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args, extra = parser.parse_known_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log(f"no program sources under {ROOT}/src")
        return 1
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.abspath(os.path.join(ROOT, build_dir))
    # Compiler and program temporaries stay inside the build tree.
    tmp_dir = os.path.join(build_dir, "tmp")
    os.makedirs(tmp_dir, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp_dir)
    if not build(build_dir, env):
        return 1

    out_dir = os.path.join(".bench_out", f"{args.workload}-t{args.trace}-s{args.seed}")
    shutil.rmtree(os.path.join(ROOT, out_dir), ignore_errors=True)
    command = [
        os.path.join(build_dir, "xtbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--extractocol", os.path.join(build_dir, "xt_tools", "extractocol"),
        "--accuracy-profile", os.path.join("bench", "BENCH_accuracy.json"),
        "--out-dir", out_dir,
        "--commit", commit_id(),
        "--source-digest", source_digest(),
    ] + extra
    sys.stdout.flush()
    # Relative paths keep the daemon's Unix socket path short; xtbench
    # and its daemon run with the repository root as working directory.
    proc = subprocess.Popen(command, cwd=ROOT, env=env)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        log(f"run exceeded {RUN_TIMEOUT_S} s")
        code = 1
    # Keep result.json and trace.json; drop daemon sockets and caches.
    out_path = os.path.join(ROOT, out_dir)
    if os.path.isdir(out_path):
        for entry in os.scandir(out_path):
            if entry.is_dir():
                shutil.rmtree(entry.path, ignore_errors=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
