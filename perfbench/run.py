#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test
    python3 perfbench/run.py --write-references

Run from the repository root. Builds the benchmark package
(perfbench/Cargo.toml) and the `fig6a` figure binary in release mode
into $CARGO_TARGET_DIR (default .bench_build), runs one workload, and
checks its result line against BENCHMARK.json before printing it as the
last line of standard output. Any failure exits non-zero without a
result line. `--self-test` runs the benchmark's unit tests and checks
its metric catalog against BENCHMARK.json. `--write-references`
rewrites the committed results of the validation seed
(perfbench/reference/) that every run checks its outputs against; only a
change that means to move the simulated results should run it.
"""

import json
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
RUN_TIMEOUT_S = 175


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def target_dir():
    return os.environ.get("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build"))


def cargo(*args):
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    done = subprocess.run(["cargo", *args], cwd=ROOT, env=env, stdout=sys.stderr)
    if done.returncode != 0:
        fail(f"cargo {' '.join(args)} failed with exit code {done.returncode}")


def build():
    if not os.path.isfile(os.path.join(ROOT, "Cargo.toml")):
        fail(f"no repository workspace at {ROOT}: the benchmark builds the repository's crates")
    cargo("build", "--release", "--offline", "--manifest-path", "Cargo.toml",
          "-p", "bench", "--bin", "fig6a")
    cargo("build", "--release", "--offline", "--manifest-path", "perfbench/Cargo.toml")


def binary(name):
    return os.path.join(ROOT, target_dir(), "release", name)


def declared():
    """The metric catalogs of BENCHMARK.json: {trace: {name: unit}}."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {
        "0": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "1": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def check_result(line, trace, catalogs):
    """Problems with a result line (empty when it meets the contract)."""
    try:
        result = json.loads(line)
    except ValueError as e:
        return [f"last line is not JSON: {e}"]
    problems = []
    if not isinstance(result, dict) or set(result) != {"correct", "attempted", "failed", "metrics"}:
        return ["result keys must be exactly correct, attempted, failed, metrics"]
    if not isinstance(result["correct"], bool):
        problems.append("correct must be a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or isinstance(result[key], bool) or result[key] < 0:
            problems.append(f"{key} must be a whole number")
    if isinstance(result["attempted"], int) and result["attempted"] < 1:
        problems.append("attempted must be at least 1")
    want = catalogs[trace]
    metrics = result["metrics"]
    if not isinstance(metrics, dict):
        return problems + ["metrics must be an object"]
    for name, entry in metrics.items():
        if not NAME.match(name):
            problems.append(f"malformed metric name {name!r}")
        if name not in want:
            problems.append(f"metric {name} is not declared for --trace {trace} in BENCHMARK.json")
            continue
        if not isinstance(entry, dict) or set(entry) != {"value", "unit"}:
            problems.append(f"metric {name} must have exactly value and unit")
            continue
        if entry["unit"] != want[name]:
            problems.append(f"metric {name} has unit {entry['unit']!r}, declared {want[name]!r}")
        value = entry["value"]
        if not isinstance(value, (int, float)) or isinstance(value, bool) or value != value:
            problems.append(f"metric {name} has no numeric value")
    for name in want:
        if name not in metrics:
            problems.append(f"declared metric {name} was not printed")
    return problems


def self_test():
    build()
    cargo("test", "--release", "--offline", "--manifest-path", "perfbench/Cargo.toml")
    catalogs = declared()
    listed = subprocess.run([binary("perfbench"), "--list-metrics"], capture_output=True,
                            text=True, check=True).stdout.split("\n")
    printed = {"0": {}, "1": {}}
    for row in filter(None, listed):
        kind, name, unit = row.split(" ")
        printed["0" if kind == "end_to_end" else "1"][name] = unit
    problems = []
    for trace in ("0", "1"):
        for name, unit in printed[trace].items():
            if not NAME.match(name):
                problems.append(f"malformed metric name {name!r}")
            if not unit:
                problems.append(f"metric {name} has no unit")
        if printed[trace] != catalogs[trace]:
            problems.append(f"--trace {trace} catalog differs from BENCHMARK.json: "
                            f"{sorted(set(printed[trace].items()) ^ set(catalogs[trace].items()))}")
    # The result check itself: a well-formed line passes, an undeclared
    # or unit-less metric does not.
    good = {n: {"value": 1.5, "unit": u} for n, u in catalogs["0"].items()}
    line = {"correct": True, "attempted": 1, "failed": 0, "metrics": good}
    if check_result(json.dumps(line), "0", catalogs):
        problems.append("a well-formed result line was refused")
    for bad in ({**good, "made.up": {"value": 1, "unit": "s"}},
                {**good, "wall_s": {"value": 1}}):
        if not check_result(json.dumps({**line, "metrics": bad}), "0", catalogs):
            problems.append(f"a malformed result line was accepted: {sorted(bad)[-1]}")
    for p in problems:
        print(f"self-test: {p}", file=sys.stderr)
    print("self-test: " + ("FAILED" if problems else "ok"), file=sys.stderr)
    sys.exit(1 if problems else 0)


def write_references():
    build()
    done = subprocess.run([binary("perfbench"), "--write-references"], cwd=ROOT)
    sys.exit(done.returncode)


def main(argv):
    if argv == ["--self-test"]:
        self_test()
    if argv == ["--write-references"]:
        write_references()
    opts = dict(zip(argv[::2], argv[1::2]))
    if len(argv) % 2 or set(opts) != {"--workload", "--seed", "--seconds", "--trace"}:
        fail("usage: run.py --workload NAME --seed N --seconds S --trace 0|1"
             " | --self-test | --write-references")
    if opts["--trace"] not in ("0", "1"):
        fail("--trace must be 0 or 1")
    catalogs = declared()
    build()
    cmd = [binary("perfbench"), *argv, "--fig6a-bin", binary("fig6a")]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark exceeded {RUN_TIMEOUT_S} s")
    lines = done.stdout.strip().split("\n")
    if done.returncode != 0 or not lines[-1]:
        fail(f"benchmark exited with code {done.returncode}")
    problems = check_result(lines[-1], opts["--trace"], catalogs)
    if problems:
        fail("result line breaks the contract: " + "; ".join(problems))
    sys.stdout.write("\n".join(lines) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
