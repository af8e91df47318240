#!/usr/bin/env python3
"""Paired perfbench regression gate.

    python3 .github/perf_gate.py <baseline-checkout> <head-checkout>

Runs every workload of HEAD's BENCHMARK.json as 5 alternating pairs
(seeds 1-5, the side that runs first flipping each pair) with
`python3 perfbench/run.py --workload W --seed S --seconds <run_seconds>
--trace 0` inside each checkout, and exits 1 when:

- any run is not `correct: true, failed: 0` (or exits without a result);
- for some end-to-end metric, every seed's HEAD/baseline ratio is worse
  than 1 + that metric's `bound`.

Seeds are not equal work, so each HEAD run is compared with the
baseline run of its own seed. The ratio is oriented so that > 1 is
worse (head/base for a lower-is-better metric, base/head for a
higher-is-better one), which makes the bound symmetric in log space: a
25 % bound fails a 1.25x longer `wall_s` and a 1/1.25 = 0.8x
`packets_per_s` alike. With 5 pairs, [min, max] of the ratios is a
distribution-free ~94 % interval for their median, and the gate fails
only when that whole interval lies beyond the bound, i.e. when the
smallest ratio does; one fast or slow seed on a noisy host can neither
fail it nor rescue a real regression. Workloads, run length, directions
and bounds come from HEAD's BENCHMARK.json; the baseline's must declare
the same workloads and end-to-end metrics. The baseline commit is the
one named in `.github/perf-baseline`.

The decision rule, on runs built from two real gate runs (per-seed
HEAD/baseline values of fig6a-campaign, seeds 1-5):

>>> spec = [{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
...         {"name": "packets_per_s", "unit": "1/s", "better": "higher", "bound": 0.25}]
>>> def runs(wall, rate):
...     return [{"wall_s": w, "packets_per_s": r} for w, r in zip(wall, rate)]
>>> base = runs([1.0] * 5, [1.0] * 5)

HEAD against itself passes, though one seed ran 14 % slower:

>>> regressions(spec, base, runs([1.138, 0.993, 1.007, 1.056, 1.004],
...                              [0.879, 1.007, 0.993, 0.947, 0.996]))
[]

A branch that runs the SISO kernel twice fails both metrics. Its
fastest seed is 1.273x the baseline, and its 21.5 % drop in
`packets_per_s` is a 1/0.785 = 1.274x slowdown:

>>> for line in regressions(spec, base, runs([1.273, 1.436, 1.419, 1.427, 1.642],
...                                          [0.785, 0.697, 0.705, 0.701, 0.609])):
...     print(line)
wall_s: every seed is worse than 1.25x the baseline (ratios 1.273 1.436 1.419 1.427 1.642)
packets_per_s: every seed is worse than 1.25x the baseline (ratios 1.274 1.435 1.418 1.427 1.642)

Ratios pair by seed, so a HEAD as fast as the baseline on slow and
fast seeds alike passes, however unequal the seeds:

>>> uneven = runs([0.46, 0.63, 0.5, 0.55, 0.6], [130.0, 95.0, 120.0, 109.0, 100.0])
>>> regressions(spec, uneven, uneven)
[]

The baseline must declare what HEAD declares:

>>> mismatch({"workloads": [{"name": "a"}], "end_to_end": spec},
...          {"workloads": [{"name": "a"}, {"name": "b"}], "end_to_end": spec[:1]})
['workloads differ: baseline a; HEAD a, b', 'end-to-end metrics differ: baseline packets_per_s, wall_s; HEAD wall_s']
"""

import json
import os
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


def ratios(metric, base_runs, head_runs):
    """Per-seed HEAD/baseline ratios of one end-to-end metric, oriented
    so that > 1 is worse. Runs pair by position, i.e. by seed."""
    name = metric["name"]
    pairs = [(b[name], h[name]) for b, h in zip(base_runs, head_runs, strict=True)]
    if metric["better"] == "higher":
        return [b / h for b, h in pairs]
    return [h / b for b, h in pairs]


def regressions(end_to_end, base_runs, head_runs):
    """One line per end-to-end metric whose smallest per-seed ratio is
    worse than 1 + the metric's bound."""
    found = []
    for m in end_to_end:
        r = ratios(m, base_runs, head_runs)
        if min(r) > 1 + m["bound"]:
            found.append(f"{m['name']}: every seed is worse than {1 + m['bound']:g}x the "
                         f"baseline (ratios {' '.join(f'{x:.3f}' for x in r)})")
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
        for m in spec["end_to_end"]:
            r = " ".join(f"{x:.3f}" for x in ratios(m, base_runs, head_runs))
            print(f"{workload} {m['name']}: HEAD/baseline per seed (> 1 is worse) {r}")
        found += [f"{workload} {line}" for line in regressions(spec["end_to_end"], base_runs, head_runs)]
    for line in found:
        print(f"perf_gate: regression: {line}", file=sys.stderr)
    print("perf_gate: " + ("FAILED" if found else "ok"), file=sys.stderr)
    sys.exit(1 if found else 0)


if __name__ == "__main__":
    main(sys.argv[1:])
