"""Record the reference figures that the census, planar and sample checks
compare against (sample: at the default seed only).

Run from the root of an mms checkout whose outputs are trusted:

    python3 perfbench/record_reference.py

It rewrites ``perfbench/reference.json``.  Do this only when a change is
meant to alter the recorded figures, and say why in the change.
"""
import json
import os
import shutil
import sys

from workloads import DEFAULT_SEED, REFERENCE_PATH, WORKLOADS, store_summary


def main() -> int:
    root = os.getcwd()
    sys.path.insert(0, os.path.join(root, "src"))
    reference = {}
    for name in ("census", "planar", "sample"):
        workload = WORKLOADS[name]
        params, _ = workload.prepare(DEFAULT_SEED)
        out_dir = os.path.join(root, ".perfbench", f"reference-{name}")
        shutil.rmtree(out_dir, ignore_errors=True)
        try:
            workload.run({"params": params, "out_dir": out_dir})
            summary, problems = store_summary(out_dir)
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        if problems:
            print(f"{name}: {problems}", file=sys.stderr)
            return 1
        reference[name] = summary
        print(f"{name}: {summary}", file=sys.stderr)
    with open(REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=2)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
