#!/usr/bin/env python3
"""Build and run the end-to-end benchmark from the repository root.

    python3 e2ebench/run.py --workload search|serve-persist|serve-repeat|all \
        --seed N --seconds S --trace 0|1

Builds the `digamma-netd` daemon in the repository's workspace and the
benchmark package beside this file (release, offline, into
$CARGO_TARGET_DIR or .bench_build), then runs the benchmark binary with
the given arguments. The binary's standard output is passed through; its
last line is the JSON result. `--workload all` runs every workload listed
in BENCHMARK.json in turn, each ending with its own result line. Build
output goes to standard error. Exits with the binary's code (the first
nonzero one for `all`), or 2 when the build fails.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def cargo_build(args):
    """Runs one release build; its output goes to standard error."""
    command = ["cargo", "build", "--release", "--offline", "--quiet"] + args
    return subprocess.run(command, cwd=ROOT, stdout=sys.stderr).returncode == 0


def workload_runs(args):
    """The argument lists to run: `args` itself, or one per workload."""
    if "--workload" not in args[:-1] or args[args.index("--workload") + 1] != "all":
        return [args]
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        names = [w["name"] for w in json.load(f)["workloads"]]
    at = args.index("--workload") + 1
    return [args[:at] + [name] + args[at + 1 :] for name in names]


def main():
    target = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    os.environ["CARGO_TARGET_DIR"] = target
    manifest = os.path.join(HERE, "Cargo.toml")
    built = cargo_build(["-p", "digamma-net", "--bin", "digamma-netd"]) and cargo_build(
        ["--manifest-path", manifest]
    )
    if not built:
        print("e2ebench: build failed", file=sys.stderr)
        return 2
    binary = os.path.join(target, "release", "e2ebench")
    netd = os.path.join(target, "release", "digamma-netd")
    out = os.path.join(ROOT, ".bench_out")
    codes = []
    for args in workload_runs(sys.argv[1:]):
        command = [binary, "--netd", netd, "--out", out] + args
        codes.append(subprocess.run(command, cwd=ROOT).returncode)
    return next((code for code in codes if code != 0), 0)


if __name__ == "__main__":
    sys.exit(main())
