#!/usr/bin/env python3
"""Paired perfbench regression gate.

    python3 .github/perf_gate.py <baseline-checkout> <head-checkout>

Runs every workload of HEAD's BENCHMARK.json as 5 alternating pairs
(seeds 1-5, the side that runs first flipping each pair) with
`python3 perfbench/run.py --workload W --seed S --seconds <run_seconds>
--trace 0` inside each checkout, and exits 1 when:

- any run is not `correct: true, failed: 0` (or exits without a result);
- for some end-to-end metric, HEAD's best run is worse than the
  baseline's median by more than that metric's `bound`.

A gate on HEAD's best run fails only when HEAD's whole range clears the
bound, so one slow run on a noisy host cannot fail it. Workloads, run
length, directions and bounds come from HEAD's BENCHMARK.json; the
baseline's must declare the same workloads and end-to-end metrics.
The baseline commit is the one named in `.github/perf-baseline`.

The decision rule, on synthetic runs:

>>> spec = [{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
...         {"name": "packets_per_s", "unit": "1/s", "better": "higher", "bound": 0.25}]
>>> def runs(wall, rate):
...     return [{"wall_s": w, "packets_per_s": r} for w, r in zip(wall, rate)]
>>> base = runs([1.0] * 5, [100.0] * 5)
>>> regressions(spec, base, base)
[]

A HEAD 30 % slower on every run fails both directions:

>>> for line in regressions(spec, base, runs([1.3] * 5, [70.0] * 5)):
...     print(line)
wall_s: best 1.3 is 30.0 % worse than the baseline median 1 (bound 25 %)
packets_per_s: best 70 is 30.0 % worse than the baseline median 100 (bound 25 %)

A HEAD whose best run is 10 % worse passes, however slow its other runs:

>>> regressions(spec, base, runs([1.1, 1.4, 1.5, 1.4, 1.6], [90.0, 60.0, 65.0, 70.0, 50.0]))
[]

The baseline must declare what HEAD declares:

>>> mismatch({"workloads": [{"name": "a"}], "end_to_end": spec},
...          {"workloads": [{"name": "a"}, {"name": "b"}], "end_to_end": spec[:1]})
['workloads differ: baseline a; HEAD a, b', 'end-to-end metrics differ: baseline packets_per_s, wall_s; HEAD wall_s']
"""

import json
import os
import statistics
import subprocess
import sys

PAIRS = 5


def fail(msg):
    print(f"perf_gate: {msg}", file=sys.stderr)
    sys.exit(1)


def load_spec(checkout):
    with open(os.path.join(checkout, "BENCHMARK.json")) as f:
        return json.load(f)


def mismatch(base_spec, head_spec):
    """Ways the baseline's BENCHMARK.json differs from HEAD's in what
    the gate pairs (empty when the two can be paired)."""
    problems = []
    for key, what in (("workloads", "workloads"), ("end_to_end", "end-to-end metrics")):
        sides = [{m["name"]: (m.get("unit"), m.get("better")) for m in spec[key]}
                 for spec in (base_spec, head_spec)]
        if sides[0] != sides[1]:
            problems.append(f"{what} differ: baseline {', '.join(sorted(sides[0]))}; "
                            f"HEAD {', '.join(sorted(sides[1]))}")
    return problems


def regressions(end_to_end, base_runs, head_runs):
    """One line per end-to-end metric whose best HEAD run is worse than
    the baseline median by more than the metric's bound."""
    found = []
    for m in end_to_end:
        name, higher = m["name"], m["better"] == "higher"
        median = statistics.median(r[name] for r in base_runs)
        best = (max if higher else min)(r[name] for r in head_runs)
        worse = (median - best if higher else best - median) / median
        if worse > m["bound"]:
            found.append(f"{name}: best {best:g} is {100 * worse:.1f} % worse than the "
                         f"baseline median {median:g} (bound {100 * m['bound']:g} %)")
    return found


def run(checkout, workload, seed, seconds):
    """One perfbench run inside `checkout`: its metric values."""
    # Each checkout builds into its own target directory.
    env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(os.path.abspath(checkout), ".bench_build"))
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=checkout, env=env, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.strip().split("\n")
    if done.returncode != 0 or not lines[-1]:
        fail(f"{checkout}: {workload} seed {seed} exited with code {done.returncode}")
    print(f"{checkout} {workload} seed {seed}: {lines[-1]}", flush=True)
    result = json.loads(lines[-1])
    if result["correct"] is not True or result["failed"] != 0:
        fail(f"{checkout}: {workload} seed {seed} is not correct: true, failed: 0")
    return {name: entry["value"] for name, entry in result["metrics"].items()}


def main(argv):
    if len(argv) != 2:
        fail("usage: perf_gate.py <baseline-checkout> <head-checkout>")
    base, head = argv
    spec = load_spec(head)
    problems = mismatch(load_spec(base), spec)
    if problems:
        fail("the baseline's BENCHMARK.json cannot be paired with HEAD's: " + "; ".join(problems))
    found = []
    for workload in (w["name"] for w in spec["workloads"]):
        base_runs, head_runs = [], []
        for seed in range(1, PAIRS + 1):
            order = [(base, base_runs), (head, head_runs)]
            for checkout, runs in order if seed % 2 else order[::-1]:
                runs.append(run(checkout, workload, seed, spec["run_seconds"]))
        for name in (m["name"] for m in spec["end_to_end"]):
            median = statistics.median(r[name] for r in base_runs)
            head_values = " ".join(f"{r[name]:g}" for r in head_runs)
            print(f"{workload} {name}: baseline median {median:g}, HEAD runs {head_values}")
        found += [f"{workload} {line}" for line in regressions(spec["end_to_end"], base_runs, head_runs)]
    for line in found:
        print(f"perf_gate: regression: {line}", file=sys.stderr)
    print("perf_gate: " + ("FAILED" if found else "ok"), file=sys.stderr)
    sys.exit(1 if found else 0)


if __name__ == "__main__":
    main(sys.argv[1:])
