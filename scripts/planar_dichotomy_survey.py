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

At each degree of CHECKED the script compares its totals with the recorded
ones (exit 1 on mismatch, exit 2 on a dichotomy counterexample).  The rows:

- 30: the default run, measured with this script.
- 50: a ``--deg 50 --workers 2`` run of this script; CI runs it, so it
  covers larger hulls, removals of several rounds and the merge's
  progress line.
- 100: a cold ``--deg 100 --workers 2`` run of the two-phase pipeline,
  matching the figures recorded earlier in ROADMAP.md.
- 150: the full-scale figures above, recorded from a full run.
"""
import argparse
import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from mms.pipeline import check_conjecture

# degree -> (simplicial sets, H, M, lattice classes); INTERMEDIATE is always 0
CHECKED = {
    30: (8768, 8453, 315, 1851),
    50: (60217, 59019, 1198, 12497),
    100: (873200, 866934, 6266, 180814),
    150: (4266834, 4250533, 16301, 886297),
}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--deg", type=int, default=30, help="maximal degree 2d (even)")
    ap.add_argument("--out", default=None, help="keep run artifacts here")
    ap.add_argument("--workers", type=int, default=None)
    args = ap.parse_args()
    report = check_conjecture(args.deg, workers=args.workers, out_dir=args.out)
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
    expected = CHECKED.get(args.deg)
    if expected is not None:
        observed = (sim.total_count, sim.h_count, sim.m_count, lat.total_count)
        if observed != expected:
            print(f"totals at 2d={args.deg} mismatch: {observed} != {expected}", file=sys.stderr)
            return 1
        print(f"totals match the recorded figures for 2d={args.deg}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
