#!/usr/bin/env python3
"""End-to-end explore benchmark: build, run one workload, print the result.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Run from the root of an adlsym checkout. The first call configures and
builds perfbench/ (a CMake package that compiles ../src) into
.bench_build/perfbench; later calls rebuild incrementally. Build logs go
to stderr; stdout carries the benchmark's own report, whose last line is
the JSON result. See perfbench/README.md.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")


def build(targets):
    if not os.path.isfile(os.path.join(ROOT, "src", "driver", "cli.h")):
        sys.exit("perfbench: no adlsym sources under %s/src; run from a full checkout" % ROOT)
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs, "--target"] + targets,
                   stdout=sys.stderr, check=True)


def main(argv):
    if argv == ["--selftest"]:
        build(["perfbench_test"])
        return subprocess.run([os.path.join(BUILD, "perfbench_test")]).returncode
    build(["perfbench_e2e"])
    cmd = [os.path.join(BUILD, "perfbench_e2e"), "--root", ROOT] + argv
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except subprocess.CalledProcessError as e:
        print("perfbench: build step failed: %s" % e, file=sys.stderr)
        sys.exit(1)
