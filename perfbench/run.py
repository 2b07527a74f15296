#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload plan-cc --seed 1 --seconds 10 --trace 0

The first call configures and builds perfbench (and the tce libraries it
links) with CMake into .bench_build/ (or $CARGO_TARGET_DIR when set);
later calls rebuild incrementally.  Build output goes to stderr, so the
last line on stdout is the benchmark's result JSON.  `--self-test` builds
and runs the benchmark's own tests instead.  See perfbench/README.md.
"""

import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent


def build_dir() -> Path:
    return Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build(target: str) -> Path:
    if not (REPO_ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit(f"error: no tce sources next to {BENCH_DIR} "
                 "(expected src/CMakeLists.txt); nothing to benchmark")
    out = build_dir()
    if not (out / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(out), "--target", target,
                    "-j", jobs], stdout=sys.stderr, check=True)
    return out / target


def main() -> int:
    args = sys.argv[1:]
    if args == ["--self-test"]:
        tests = build("perfbench_tests")
        # The serving tests bind their socket in the working directory.
        return subprocess.run([str(tests.resolve())],
                              cwd=str(build_dir())).returncode
    binary = build("perfbench")
    # The serving workload binds a Unix socket in the build directory; a
    # relative path keeps it under the 108-byte socket path limit.
    socket_dir = os.path.relpath(build_dir())
    return subprocess.run([str(binary), "--socket-dir", socket_dir] + args
                          ).returncode


if __name__ == "__main__":
    try:
        sys.exit(main())
    except subprocess.CalledProcessError as e:
        sys.exit(f"error: {' '.join(e.cmd)} failed with exit code "
                 f"{e.returncode}")
