"""One cold run of one workload, in a fresh interpreter.

Usage: python3 worker.py SPEC_JSON SPAWN_NS

``SPAWN_NS`` is the parent's ``time.monotonic_ns()`` just before it started
this process, so set-up time covers interpreter start-up plus
``import mms.cli``, which every ``mms`` command pays.  ``mms`` must be
importable (the parent puts the checkout's ``src`` on ``PYTHONPATH``).
"""
import sys
import time

import mms.cli  # noqa: F401  (the set-up being timed)

SETUP_DONE_NS = time.monotonic_ns()

import json  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402

from spans import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def main() -> int:
    spec_path, spawn_ns = sys.argv[1], int(sys.argv[2])
    with open(spec_path, "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    tracer = Tracer() if spec["traced"] else None
    if tracer is not None:
        tracer.install()
    result = {"setup_ns": SETUP_DONE_NS - spawn_ns}
    try:
        result.update(WORKLOADS[spec["workload"]].run(spec))
    except Exception:
        result["error"] = traceback.format_exc()
    # ru_maxrss is in KiB on Linux
    result["peak_rss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None and "error" not in result:
        from mms import sos

        memo_entries = sum(len(v) for v in sos._memo._by_key.values())
        result["layers"] = tracer.layer_metrics(result["wall_ns"], memo_entries)
    with open(spec["result_path"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
