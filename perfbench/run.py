"""Benchmark of the mms package: cold runs of one workload, checked.

Run from the root of an mms checkout (``src/mms`` present; the package need
not be installed):

    python3 perfbench/run.py --workload census --seed 1 --seconds 30 --trace 0

Workloads: census, planar, sample, query (see ``workloads.py``).  For
``--seconds`` the runner starts one fresh interpreter after another
(``worker.py``), each doing the whole workload once, cold.  Each worker's
outputs are checked against the reference figures or an oracle.  The last
line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json:
the median set-up time and, for every other figure, the worst worker.  With ``--trace 1`` workers alternate between
untraced and traced, and the metrics are the per-layer ones plus the
tracing overhead.  A summary with quartiles goes to stderr.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

from workloads import DEFAULT_SEED, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
MIN_WORKERS = 3  # per run; a traced run needs this many of each kind
RUN_LIMIT_S = 150  # a run must end well inside 180 s, whatever --seconds says


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def run_worker(spec: dict, work_dir: str, env: dict, time_left: float) -> dict:
    """Start one worker, wait for it, and return its result record."""
    spec_path = os.path.join(work_dir, "spec.json")
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump(spec, fh)
    with open(os.path.join(work_dir, "stderr.txt"), "wb") as err:
        spawn_ns = time.monotonic_ns()
        proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "worker.py"), spec_path, str(spawn_ns)],
            cwd=work_dir,
            env=env,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=err,
        )
        try:
            code = proc.wait(timeout=max(1.0, time_left))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            return {"error": "worker timed out"}
        except BaseException:
            proc.kill()  # interrupted or terminated: leave no worker behind
            proc.wait()
            raise
    try:
        with open(spec["result_path"], "r", encoding="utf-8") as fh:
            result = json.load(fh)
    except (OSError, ValueError):
        with open(os.path.join(work_dir, "stderr.txt"), "r", errors="replace") as fh:
            tail = fh.read()[-2000:]
        return {"error": f"worker exited {code} without a result:\n{tail}"}
    return result


def measure(workload, args, src: str, run_dir: str, layer_units: dict) -> dict:
    params, oracle = workload.prepare(args.seed)
    old_path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + old_path if old_path else ""))
    traced_run = bool(args.trace)
    min_workers = 2 * MIN_WORKERS if traced_run else MIN_WORKERS
    start = time.monotonic()
    durations: list[float] = []
    workers: list[dict] = []
    while True:
        elapsed = time.monotonic() - start
        estimate = statistics.median(durations) if durations else 0.0
        if elapsed + estimate > RUN_LIMIT_S:
            break
        if len(workers) >= min_workers and elapsed + estimate > args.seconds:
            break
        traced = traced_run and len(workers) % 2 == 1
        work_dir = os.path.join(run_dir, f"worker-{len(workers)}")
        os.makedirs(work_dir)
        spec = {
            "workload": workload.name,
            "traced": traced,
            "params": params,
            "out_dir": os.path.join(work_dir, "out"),
            "result_path": os.path.join(work_dir, "result.json"),
        }
        t0 = time.monotonic()
        result = run_worker(spec, work_dir, env, RUN_LIMIT_S - elapsed)
        durations.append(time.monotonic() - t0)
        result["traced"] = traced
        if "error" in result:
            result["problems"] = [result["error"]]
        else:
            result["problems"] = workload.check(oracle, spec["out_dir"], result)
        shutil.rmtree(work_dir, ignore_errors=True)
        workers.append(result)
    return summarize(workload, params, workers, traced_run, layer_units)


def summarize(workload, params: dict, workers: list[dict], traced_run: bool, layer_units: dict) -> dict:
    ops = workload.operations(params)
    attempted = ops * len(workers)
    failed = 0
    problems: list[str] = []
    for w in workers:
        if "error" in w:
            failed += ops
        else:
            failed += w.get("failed_ops", 1 if w["problems"] else 0)
        problems += w["problems"]
    ok = [w for w in workers if "error" not in w]
    if not ok:
        for p in problems[:3]:
            print(p, file=sys.stderr)
        fail("no worker finished")
    # every worker does the same work, so their outputs must agree
    summaries = [w["summary"] for w in ok if "summary" in w]
    if any(s != summaries[0] for s in summaries):
        problems.append("workers disagree on the pipeline outputs")
    plain = [w for w in ok if not w["traced"]]
    traced = [w for w in ok if w["traced"]]
    per_worker: dict[str, list[float]] = {}
    if not traced_run:
        # Host speed on a shared VM alternates between regimes that last
        # minutes, and a run's median worker flips between them.  The
        # slowest worker of a run is far steadier from run to run, so every
        # time figure except set-up is the worst over the run's workers.
        walls = [w["wall_ns"] / 1e9 for w in plain]
        if "latencies_ns" in plain[0]:
            worker_ms = [[ns / 1e6 for ns in w["latencies_ns"]] for w in plain]
        else:
            worker_ms = [[s * 1e3] for s in walls]
        per_worker = {
            "setup_s": [w["setup_ns"] / 1e9 for w in plain],
            "wall_s": walls,
            "peak_rss_mb": [w["peak_rss_kib"] / 1024 for w in plain],
            "items_per_s": [workload.items(w) / (w["wall_ns"] / 1e9) for w in plain],
            "op_p50_ms": [percentile(ms, 0.50) for ms in worker_ms],
            "op_p99_ms": [percentile(ms, 0.99) for ms in worker_ms],
        }
        metrics = {
            "setup_s": (statistics.median(per_worker["setup_s"]), "s"),
            "wall_s": (max(walls), "s"),
            "peak_rss_mb": (max(per_worker["peak_rss_mb"]), "MiB"),
            "items_per_s": (min(per_worker["items_per_s"]), "1/s"),
            "op_p50_ms": (max(per_worker["op_p50_ms"]), "ms"),
            "op_p99_ms": (max(per_worker["op_p99_ms"]), "ms"),
        }
        print(
            f"{workload.name}: {len(plain)} workers, {sum(map(len, worker_ms))} operations",
            file=sys.stderr,
        )
    else:
        if len(traced) < 2 or not plain:
            fail("a traced run needs two traced workers and one untraced worker to finish")
        layers = [w["layers"] for w in traced]
        counts = [name for name, unit in layer_units.items() if unit == "count"]
        for other in layers[1:]:
            for name in counts:
                if other[name] != layers[0][name]:
                    problems.append(f"count {name} differs between traced workers")
        metrics = {}
        for name, unit in layer_units.items():
            if name.startswith("trace.") and name not in layers[0]:
                continue
            values = [layer[name] for layer in layers]
            per_worker[name] = values
            value = values[0] if unit == "count" else statistics.median(values)
            metrics[name] = (value, unit)
        traced_wall = statistics.median(w["wall_ns"] / 1e9 for w in traced)
        plain_wall = statistics.median(w["wall_ns"] / 1e9 for w in plain)
        per_worker["trace.wall_s"] = [w["wall_ns"] / 1e9 for w in traced]
        per_worker["trace.untraced_wall_s"] = [w["wall_ns"] / 1e9 for w in plain]
        metrics["trace.wall_s"] = (traced_wall, "s")
        metrics["trace.untraced_wall_s"] = (plain_wall, "s")
        metrics["trace.overhead_pct"] = (100.0 * (traced_wall - plain_wall) / plain_wall, "%")
        missing = set(layer_units) - set(metrics)
        if missing:
            problems.append(f"per-layer metrics not produced: {sorted(missing)}")
        print(
            f"{workload.name}: {len(traced)} traced and {len(plain)} untraced workers",
            file=sys.stderr,
        )
    for name, values in per_worker.items():
        q1, q2, q3 = quartiles(values)
        print(f"  {name:34s} median {q2:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}  "
              f"min {min(values):12.6g}  max {max(values):12.6g}  n {len(values)}",
              file=sys.stderr)
    for p in problems[:20]:
        print(f"  CHECK FAILED: {p}", file=sys.stderr)
    if problems and failed == 0:
        failed = 1  # a run-level check failed; count it against the run
    if not traced_run:
        metrics["success_rate"] = (1.0 - failed / attempted, "ratio")
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**64:
        fail("--seed must fit in an unsigned 64-bit integer")
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "mms", "__init__.py")):
        fail("no src/mms package here; run from the root of an mms checkout")
    try:
        with open(os.path.join(root, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
            layer_units = {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}
    except (OSError, ValueError, KeyError) as exc:
        fail(f"cannot read the per-layer metrics from BENCHMARK.json: {exc}")
    sys.path.insert(0, src)
    # turn SIGTERM into SystemExit, so the worker and the scratch directory
    # are cleaned up as on any other exit
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    run_dir = os.path.join(root, ".perfbench", f"{args.workload}-{os.getpid()}")
    os.makedirs(run_dir)
    try:
        result = measure(WORKLOADS[args.workload], args, src, run_dir, layer_units)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(run_dir))
        except OSError:
            pass  # another run is still using it
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
