#!/usr/bin/env python3
"""Exhaustive planar classification survey: enumerate every 2-simplicial set
of maximal degree <= --deg, classify all of them, and report the census.
Any INTERMEDIATE class is printed verbatim (vertices plus full MMS); the
dichotomy claim is that none exists.

The default --deg 30 finishes in seconds.  The full-scale run

    python3 scripts/planar_dichotomy_survey.py --deg 150 --out /tmp/survey150

takes hours on one core and is expected to end with exactly

    simplicial sets 4266834  (H 4250533, M 16301, INTERMEDIATE 0)
    lattice classes 886297

which the script checks automatically at that degree (exit 1 on mismatch,
exit 2 on a dichotomy counterexample).
"""
import argparse
import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from mms.pipeline import check_conjecture, default_workers

FULL_SCALE = {"deg": 150, "sim": 4266834, "h": 4250533, "m": 16301, "lat": 886297}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--deg", type=int, default=30, help="maximal degree 2d (even)")
    ap.add_argument("--out", default=None, help="keep run artifacts here")
    ap.add_argument("--workers", type=int, default=None)
    args = ap.parse_args()
    workers = args.workers if args.workers is not None else default_workers()
    report = check_conjecture(args.deg, workers=workers, out_dir=args.out)
    sim, lat = report.simplicial, report.lattices
    print(
        f"simplicial sets {sim.total_count}  "
        f"(H {sim.h_count}, M {sim.m_count}, INTERMEDIATE {sim.intermediate_count})"
    )
    print(f"lattice classes {lat.total_count}")
    for found in report.counterexamples:
        print("INTERMEDIATE class found:")
        print(json.dumps({"delta": found["delta"], "mms": found["mms_points"]}))
    if not report.passed:
        return 2
    if args.deg == FULL_SCALE["deg"]:
        observed = (sim.total_count, sim.h_count, sim.m_count, lat.total_count)
        expected = (FULL_SCALE["sim"], FULL_SCALE["h"], FULL_SCALE["m"], FULL_SCALE["lat"])
        if observed != expected:
            print(f"full-scale totals mismatch: {observed} != {expected}", file=sys.stderr)
            return 1
        print("full-scale totals match the recorded figures")
    return 0


if __name__ == "__main__":
    sys.exit(main())
