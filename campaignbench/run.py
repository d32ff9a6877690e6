#!/usr/bin/env python3
"""Build the campaign benchmark from source and run it.

Usage, from the root of a checkout:

    python3 campaignbench/run.py --workload lego --seed 1 --seconds 35 --trace 0

Everything the build and the run write goes under .bench_build/ in the
checkout: the Go build cache, the binary, checkpoints and trace files. The
arguments are passed to the benchmark binary, which prints the result as the
last line of standard output.
"""

import os
import resource
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")

# Address-space cap for the benchmark and the processes it starts: a campaign
# that runs away with memory fails its run instead of exhausting the machine.
MEMORY_LIMIT = 3 << 30


def main():
    if not os.path.isfile(os.path.join(ROOT, "go.mod")):
        sys.exit("campaignbench: %s holds no go.mod; run from a checkout of the repository" % ROOT)
    for d in ("gocache", "gopath", "tmp"):
        os.makedirs(os.path.join(BUILD, d), exist_ok=True)
    env = dict(
        os.environ,
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOPATH=os.path.join(BUILD, "gopath"),
        GOTMPDIR=os.path.join(BUILD, "tmp"),
        TMPDIR=os.path.join(BUILD, "tmp"),
        GOTOOLCHAIN="local",
        GOFLAGS="",
        GOWORK="off",
        GOPROXY="off",
        CGO_ENABLED="0",
    )
    binary = os.path.join(BUILD, "campaignbench")
    build = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env, stdout=sys.stderr)
    if build.returncode != 0:
        sys.exit("campaignbench: build failed")
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT, MEMORY_LIMIT))
    os.chdir(ROOT)
    os.execve(binary, [binary] + sys.argv[1:], env)


if __name__ == "__main__":
    main()
