#!/usr/bin/env python3
"""Builds the end-to-end benchmark from source and runs it.

Run from the repository root:

    python3 bench/e2e/run.py --workload hot_cached --seed 1 --seconds 10 --trace 0
    python3 bench/e2e/run.py            # every workload, one after another

The build is a Release build of bench/e2e/CMakeLists.txt, which compiles
the engine with the repository's default options. It goes to
$CARGO_TARGET_DIR when that is set, else to .bench_build. Every argument
is passed on to the bench_e2e binary; with --trace 1 the trace lands in
the build directory as trace-<workload>.json. The binary's last stdout
line is the result; this script exits with the binary's exit code.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
# One workload's run must end within 180 s; stop it before that.
RUN_TIMEOUT_S = 170


def build(build_dir):
    """Configures (once) and builds bench_e2e; returns the binary path."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "--target", "bench_e2e",
                    "-j", jobs], check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "bench_e2e")


def main(argv):
    build_dir = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(build_dir):
        build_dir = os.path.join(ROOT, build_dir)
    try:
        binary = build(build_dir)
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"build failed: {e}", file=sys.stderr)
        return 1

    args = list(argv)
    workload = None
    if "--workload" in args and args.index("--workload") + 1 < len(args):
        workload = args[args.index("--workload") + 1]
    if workload and "--trace" in args and "--trace-file" not in args:
        args += ["--trace-file",
                 os.path.join(build_dir, f"trace-{workload}.json")]

    # One workload is bounded; the run of every workload is not.
    timeout = RUN_TIMEOUT_S if workload else None
    try:
        return subprocess.run([binary] + args, cwd=ROOT,
                              timeout=timeout).returncode
    except subprocess.TimeoutExpired:
        print(f"bench_e2e did not finish within {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
