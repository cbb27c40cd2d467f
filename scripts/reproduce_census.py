#!/usr/bin/env python3
"""Rerun the bundled full-census configurations and compare the resulting
statistics against recorded reference figures.

Desk-scale rows run in seconds to minutes on one core:

    python3 scripts/reproduce_census.py --out /tmp/census
    python3 scripts/reproduce_census.py --out /tmp/census --rows 3x10
    python3 scripts/reproduce_census.py --out /tmp/census --extended   # adds 7x4

Exit code 0 when every figure matches, 1 otherwise.
"""
import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from mms.pipeline import run_pipeline

# recorded figures: (sim_total, lat_total, sim_mean, lat_mean, decrease)
REFERENCE = {
    "2x6": (30, 10, 0.966667, 0.900000, 3.000000),
    "2x10": (169, 44, 0.928994, 0.909091, 3.840909),
    "3x10": (21636, 782, 0.724138, 0.592994, 27.667519),
    "7x4": (1207253, 19, 0.931788, 0.853923, 63539.631579),
}
DESK_ROWS = ("2x6", "2x10", "3x10")
MEAN_TOL = 1e-5


def run_row(row: str, out_root: str, workers: int | None) -> list[str]:
    n_str, d_str = row.split("x")
    n, two_d = int(n_str), int(d_str)
    out_dir = os.path.join(out_root, f"census-{row}")
    sim, lat = run_pipeline(n, two_d, "full", workers, out_dir)
    exp_sim, exp_lat, exp_sim_mean, exp_lat_mean, exp_dec = REFERENCE[row]
    failures = []
    if sim.total_count != exp_sim:
        failures.append(f"simplex total {sim.total_count} != {exp_sim}")
    if lat.total_count != exp_lat:
        failures.append(f"lattice total {lat.total_count} != {exp_lat}")
    if abs(float(sim.mean_h_ratio) - exp_sim_mean) > MEAN_TOL:
        failures.append(f"simplex mean {float(sim.mean_h_ratio):.6f} != {exp_sim_mean}")
    if abs(float(lat.mean_h_ratio) - exp_lat_mean) > MEAN_TOL:
        failures.append(f"lattice mean {float(lat.mean_h_ratio):.6f} != {exp_lat_mean}")
    if abs(float(lat.decrease_factor) - exp_dec) > MEAN_TOL:
        failures.append(f"decrease {float(lat.decrease_factor):.6f} != {exp_dec}")
    status = "ok" if not failures else "MISMATCH"
    print(
        f"{row:>5}  sim={sim.total_count:>8}  lat={lat.total_count:>6}  "
        f"mean={float(sim.mean_h_ratio):.6f}/{float(lat.mean_h_ratio):.6f}  "
        f"decrease={float(lat.decrease_factor):.6f}  {status}"
    )
    for f in failures:
        print(f"       {f}", file=sys.stderr)
    return failures


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True, help="root directory for run artifacts")
    ap.add_argument("--rows", nargs="*", choices=sorted(REFERENCE), default=None)
    ap.add_argument("--extended", action="store_true", help="include the 7x4 row (seconds)")
    ap.add_argument("--workers", type=int, default=None)
    args = ap.parse_args()
    rows = args.rows
    if rows is None:
        rows = list(DESK_ROWS) + (["7x4"] if args.extended else [])
    print(f"{'row':>5}  {'simplices':>12}  {'lattices':>10}")
    bad = 0
    for row in rows:
        bad += len(run_row(row, args.out, args.workers))
    return 0 if bad == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
