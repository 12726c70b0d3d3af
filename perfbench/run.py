#!/usr/bin/env python3
"""Build and run the cracking store's benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The Go program under perfbench/ is built into .bench_build/ (or
$CARGO_TARGET_DIR) with its build cache there too, so nothing is written
outside the checkout. The program prints a report; its last line carries
every metric it measured. This script repeats the report and then prints,
as its own last line, one JSON object with the metrics BENCHMARK.json
names: the end-to-end ones for --trace 0, the per-layer ones for --trace 1.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build_dir, "gocache"),
        "GOPATH": os.path.join(build_dir, "gopath"),
        "XDG_CONFIG_HOME": os.path.join(build_dir, "config"),
        "GOTOOLCHAIN": "local",
        "GOFLAGS": "-mod=mod",
        "GOPROXY": "off",
    })
    binary = os.path.join(build_dir, "perfbench")
    proc = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        fail("build failed:\n" + proc.stdout)
    return binary


def commit():
    """The git revision when there is one, and always a digest of the Go
    sources and module files, which identifies the code in a checkout
    that is not a git repository."""
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(ROOT):
        dirnames[:] = sorted(d for d in dirnames if not d.startswith("."))
        for name in sorted(filenames):
            if name.endswith(".go") or name == "go.mod":
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    rev = "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, stdout=subprocess.PIPE,
                             stderr=subprocess.DEVNULL, text=True, timeout=10)
        if out.returncode == 0:
            rev = out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "%s (sources sha256 %s)" % (rev, digest.hexdigest()[:16])


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload %r" % args.workload)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = target if os.path.isabs(target) else os.path.join(ROOT, target)
    os.makedirs(build_dir, exist_ok=True)
    binary = build(build_dir)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", os.path.join(build_dir, "work"), "--commit", commit()]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    if not lines or not lines[-1].startswith("RESULT "):
        fail("no result line (exit code %d)" % proc.returncode)
    res = json.loads(lines[-1][len("RESULT "):])
    have = res["layer"] if args.trace else res["e2e"]
    metrics = {}
    for m in wanted:
        got = have.get(m["name"])
        if got is None:
            fail("metric %s was not measured" % m["name"])
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}
    print(json.dumps({"correct": res["correct"] and proc.returncode == 0, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
