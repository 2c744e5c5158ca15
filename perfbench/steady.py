"""Steadiness of the benchmark: two sets of runs of the same code.

Usage, from the root of the repository::

    python3 perfbench/steady.py [--runs 10] [--sets 2]
    python3 perfbench/steady.py --overhead [--runs 3]

``--runs 1 --sets 1`` runs each workload once and prints every end-to-end
metric with its unit and the ops attempted and failed.

Each run uses its own seed; the workloads are interleaved seed by seed so
that a slow spell of the machine hits all of them alike. For every
end-to-end metric and workload it prints each set's median and quartiles,
the quartile spread as a share of the median, whether that spread is within
the metric's bound in ``BENCHMARK.json``, and whether the last set's
median differs from the first's, either way, by no more than the bound.
``--overhead`` instead runs every seed untraced and twice traced, prints
the traced run's end-to-end medians against the untraced ones, and checks
that the per-layer counts repeat exactly between the two traced runs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent

# Per-layer counts that must repeat exactly between runs with one seed.
DETERMINISTIC = (
    "distillation.evaluate_calls",
    "estimator.interlock_passes",
    "codes.select_code_calls",
)


def bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} failed:\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.splitlines()[-1])
    if trace:
        # The traced run's own end-to-end figures, for the overhead.
        saved = Path(".perfbench_out") / f"{workload}-seed{seed}-trace1" / "result.json"
        result["end_to_end"] = json.loads(saved.read_text(encoding="utf-8"))["end_to_end"]
    else:
        result["end_to_end"] = {k: v["value"] for k, v in result["metrics"].items()}
    return result


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def worse_by(metric: dict, base: float, other: float) -> float:
    """How much worse ``other`` is than ``base``, as a share of ``base``."""
    change = (other - base) / base
    return change if metric["better"] == "lower" else -change


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--overhead", action="store_true")
    args = parser.parse_args()
    spec = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = [w["name"] for w in spec["workloads"]]
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]

    if args.overhead:
        seeds = range(1, args.runs + 1)
        for workload in workloads:
            plain = [bench(workload, s, seconds, 0) for s in seeds]
            traced = [bench(workload, s, seconds, 1) for s in seeds]
            again = [bench(workload, s, seconds, 1) for s in seeds]
            for name, metric in metrics.items():
                a = statistics.median(r["end_to_end"][name] for r in plain)
                b = statistics.median(r["end_to_end"][name] for r in traced)
                print(f"{workload:<13} {name:<12} untraced {a:.6g}  traced {b:.6g}  "
                      f"traced worse by {worse_by(metric, a, b):+.1%}")
            for name in DETERMINISTIC:
                values = [[r["metrics"][name]["value"] for r in runs] for runs in (traced, again)]
                print(f"{workload:<13} {name:<28} {values[0]} then {values[1]}: "
                      + ("repeats exactly" if values[0] == values[1] else "DIFFERS"))
        return 0

    sets = []  # per set: {workload: [result, ...]}
    for index in range(args.sets):
        runs = {w: [] for w in workloads}
        for r in range(args.runs):
            seed = 1 + index * args.runs + r
            for workload in workloads:
                result = bench(workload, seed, seconds, 0)
                runs[workload].append(result)
                print(f"set {index + 1} seed {seed} {workload}: attempted={result['attempted']} "
                      f"failed={result['failed']} "
                      + " ".join(f"{k}={m['value']:.5g} {m['unit']}"
                                 for k, m in result["metrics"].items()),
                      file=sys.stderr, flush=True)
        sets.append(runs)

    ok = True
    for workload in workloads:
        shares = {r["failed"] / r["attempted"] for runs in sets for r in runs[workload]}
        correct = all(r["correct"] for runs in sets for r in runs[workload])
        print(f"{workload}: correct={correct} failed shares={sorted(shares)}")
        ok &= correct and len(shares) == 1
        for name, metric in metrics.items():
            row = []
            medians = []
            for runs in sets:
                q1, q2, q3 = quartiles([r["end_to_end"][name] for r in runs[workload]])
                spread = (q3 - q1) / q2
                medians.append(q2)
                steady = spread <= metric["bound"]
                ok &= steady
                row.append(f"median {q2:.5g} [{q1:.5g}, {q3:.5g}] spread {spread:6.1%}"
                           f"{'' if steady else ' WIDE'}")
            drift = worse_by(metric, medians[0], medians[-1])
            agree = abs(drift) <= metric["bound"]
            ok &= agree
            print(f"  {name:<12} bound {metric['bound']:.0%}  " + " | ".join(row)
                  + f" | last vs first {drift:+.1%} {'ok' if agree else 'APART'}")
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
