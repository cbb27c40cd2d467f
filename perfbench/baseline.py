"""Repeated benchmark runs: spreads, medians and the per-layer table.

Run from the root of an mms checkout:

    python3 perfbench/baseline.py --runs 10 --out perfbench/BASELINE.json

For each workload, runs ``run.py`` ``--runs`` times untraced, each with a
different seed, then twice traced at the default seed.  Reports per
end-to-end metric the median, the quartiles and the spread (quartile
distance over median) against the metric's bound, the per-layer medians,
the tracing overhead, and whether every count repeated exactly across the
two traced runs.  ``--out`` merges the result into a JSON file together
with the machine's description.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

from workloads import DEFAULT_SEED

HERE = os.path.dirname(os.path.abspath(__file__))


def load_benchmark() -> dict:
    with open("BENCHMARK.json", "r", encoding="utf-8") as fh:
        return json.load(fh)


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One ``run.py`` invocation; its final JSON line."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        timeout=600,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} trace {trace} failed:\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def traced_pair(workload: str, seconds: int) -> tuple[list[dict], list[str]]:
    """Two traced runs at the default seed and the count metrics that did
    not repeat exactly between them."""
    bench = load_benchmark()
    counts = [m["name"] for m in bench["per_layer"] if m["unit"] == "count"]
    pair = [run_once(workload, DEFAULT_SEED, seconds, 1) for _ in range(2)]
    differ = [
        name for name in counts
        if pair[0]["metrics"][name]["value"] != pair[1]["metrics"][name]["value"]
    ]
    return pair, differ


def spread(values: list[float]) -> tuple[float, float, float, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2 if q2 else 0.0


def machine() -> dict:
    import numpy

    cpu = ""
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), "")
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


def main() -> int:
    bench = load_benchmark()
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--traced", type=int, choices=(0, 1), default=1,
                        help="also make the two traced runs")
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--out", default=None)
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    report = {}
    ok = True
    for workload in args.workloads.split(","):
        runs = [run_once(workload, args.first_seed + i, args.seconds, 0) for i in range(args.runs)]
        entry = {"runs": args.runs, "seeds": [args.first_seed, args.first_seed + args.runs - 1],
                 "run_seconds": args.seconds, "end_to_end": {}}
        print(f"{workload}: {args.runs} runs, correct {all(r['correct'] for r in runs)}")
        ok &= all(r["correct"] for r in runs)
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            q1, q2, q3, rel = spread(values)
            entry["end_to_end"][name] = {
                "unit": runs[0]["metrics"][name]["unit"],
                "median": q2, "q1": q1, "q3": q3, "spread": rel, "bound": bound,
            }
            flag = "" if rel <= bound / 3 else "  <-- above a third of the bound"
            print(f"  {name:14s} median {q2:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}  "
                  f"spread {rel:7.4f}  bound {bound}{flag}")
        if args.traced:
            pair, differ = traced_pair(workload, args.seconds)
            ok &= not differ and all(r["correct"] for r in pair)
            layers = {
                name: {"value": statistics.median(r["metrics"][name]["value"] for r in pair),
                       "unit": pair[0]["metrics"][name]["unit"]}
                for name in pair[0]["metrics"]
            }
            entry["traced"] = {"runs": 2, "seed": DEFAULT_SEED, "counts_repeat": not differ,
                               "per_layer": layers}
            print(f"  traced: overhead {layers['trace.overhead_pct']['value']:.1f}%, "
                  f"counts repeat: {not differ} {differ or ''}")
        report[workload] = entry
    if args.out:
        existing = {}
        if os.path.exists(args.out):
            with open(args.out, "r", encoding="utf-8") as fh:
                existing = json.load(fh)
        existing.setdefault("workloads", {}).update(report)
        existing["machine"] = machine()
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(existing, fh, indent=2)
            fh.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
