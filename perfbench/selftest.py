"""Self-test of the benchmark: exact counts repeat, so no cache survives
from one worker process to the next.

Run from the root of an mms checkout:

    python3 perfbench/selftest.py [--seconds 5]

For every workload, makes two traced runs at the default seed (each run
already requires its own traced workers to agree) and fails unless both
runs are correct and every count metric, such as ``engine.mms_calls`` and
``canon.orbit_calls``, is identical between them.  A cache that outlived
its process would make a later worker do less work and break the equality.
"""
import argparse
import sys

from baseline import load_benchmark, traced_pair


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seconds", type=int, default=5)
    args = parser.parse_args()
    failures = 0
    for workload in (w["name"] for w in load_benchmark()["workloads"]):
        pair, differ = traced_pair(workload, args.seconds)
        correct = all(r["correct"] for r in pair)
        counts = pair[0]["metrics"]
        print(
            f"{workload}: correct {correct}, engine.mms_calls "
            f"{counts['engine.mms_calls']['value']}, canon.orbit_calls "
            f"{counts['canon.orbit_calls']['value']}, counts differing: {differ or 'none'}"
        )
        failures += (not correct) + bool(differ)
    print("PASS" if not failures else "FAIL")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
