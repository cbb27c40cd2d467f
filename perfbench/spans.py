"""Span tracing of the mms modules from outside the package.

Each traced function is replaced, in every ``mms`` module that holds a
reference to it, by a wrapper that records one span per call (name, start,
end, parent span) and optional counts.  Nothing inside ``src/mms`` changes:
the wrappers are installed in the benchmark's worker process after
``import mms.cli`` and before the workload runs.

Per-layer figures are derived once the workload has finished: a span's self
time is its duration minus the durations of its direct child spans.
"""
from __future__ import annotations

import os
import sys
from collections import Counter
from time import perf_counter_ns

# span name -> (defining module, attribute).  A dotted attribute names a
# method on a class, which is patched on the class itself.
SPANS = {
    "enumeration.walk": ("mms.enumeration", "_iter_full_rank_sets"),
    "canon.hnf": ("mms.canon", "hnf"),
    "canon.orbit": ("mms.canon", "hnf_orbit"),
    "canon.key": ("mms.canon", "canonical_key"),
    "pipeline.run": ("mms.pipeline", "run_pipeline"),
    "pipeline.conjecture": ("mms.pipeline", "check_conjecture"),
    "pipeline.enum_task": ("mms.pipeline", "_enum_task"),
    "pipeline.sample_task": ("mms.pipeline", "_sample_task"),
    "pipeline.aggregate": ("mms.pipeline", "_aggregate_to_shard"),
    "pipeline.key_of_hnf": ("mms.pipeline", "_key_of_hnf"),
    "pipeline.invariants": ("mms.pipeline", "_invariants_for"),
    "geometry.hull_scan": ("mms.geometry", "_integral_points"),
    "geometry.det_adjugate": ("mms.geometry", "_det_and_adjugate"),
    "geometry.midpoint": ("mms.geometry", "midpoint_set"),
    "engine.mms": ("mms.engine", "compute_mms"),
    "engine.removal": ("mms.engine", "mms_removal"),
    "sampler.sample": ("mms.sampler", "sample_simplex"),
    "store.shard_write": ("mms.store", "Shard.write"),
    "store.merge": ("mms.store", "merge"),
    "store.audit": ("mms.store", "_audit_record"),
    "store.stats": ("mms.store", "stats"),
    "sos.mms_of": ("mms.sos", "_MmsMemo.mms_of"),
}

# count-only wrappers: (defining module, attribute) -> counter name
COUNTED = {
    ("mms.geometry", "_candidate_array"): "geometry.candidates",
    ("mms.geometry", "even_lattice_points"): "engine.even_points",
}

# the generator whose every ``next`` is one span
GENERATORS = {"enumeration.walk"}


class Tracer:
    """Spans and counts of one worker process, kept in memory."""

    def __init__(self) -> None:
        # one [name, start_ns, end_ns, parent_index] per call
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.counts: Counter = Counter()

    # -- recording -----------------------------------------------------

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(len(self.spans))
        rec = [name, 0, 0, parent]
        self.spans.append(rec)
        rec[1] = perf_counter_ns()
        return rec

    def _close(self, rec: list) -> None:
        rec[2] = perf_counter_ns()
        self._stack.pop()

    def _call_wrapper(self, name: str, fn, after):
        def traced(*args, **kwargs):
            rec = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if after is not None:
                after(result, args)
            return result

        return traced

    def _generator_wrapper(self, name: str, fn, after):
        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                rec = self._open(name)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self._close(rec)
                after(item, args)
                yield item

        return traced

    def _count_wrapper(self, counter: str, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            counts[counter] += len(result)
            return result

        return counted

    def _after_hooks(self) -> dict:
        counts = self.counts

        def index_set(item, args):
            counts["enumeration.index_sets"] += 1

        def hull_points(result, args):
            counts["geometry.hull_points"] += len(result)

        def midpoint_pairs(result, args):
            k = len(args[0])
            counts["geometry.midpoint_pairs"] += k * (k - 1) // 2

        def shard_bytes(result, args):
            counts["store.shard_bytes"] += os.path.getsize(args[1])

        def merged_records(result, args):
            counts["store.records"] += len(result)

        return {
            "enumeration.walk": index_set,
            "geometry.hull_scan": hull_points,
            "geometry.midpoint": midpoint_pairs,
            "store.shard_write": shard_bytes,
            "store.merge": merged_records,
        }

    # -- installation --------------------------------------------------

    def install(self) -> None:
        """Wrap every traced function wherever an ``mms`` module refers to
        it, so each caller's own name lookup reaches the wrapper."""
        after = self._after_hooks()
        replacements = {}
        for name, (module, attr) in SPANS.items():
            owner, fn = _resolve(module, attr)
            make = self._generator_wrapper if name in GENERATORS else self._call_wrapper
            wrapper = make(name, fn, after.get(name))
            if owner is not sys.modules[module]:
                setattr(owner, attr.rsplit(".", 1)[1], wrapper)
            replacements[id(fn)] = (fn, wrapper)
        for (module, attr), counter in COUNTED.items():
            _, fn = _resolve(module, attr)
            replacements[id(fn)] = (fn, self._count_wrapper(counter, fn))
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "mms" or mod_name.startswith("mms.")):
                continue
            for attr, value in list(vars(mod).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])

    # -- summary ---------------------------------------------------------

    def layer_metrics(self, wall_ns: int, memo_entries: int) -> dict:
        """Per-layer counts, ratios and self-time shares (percent of
        ``wall_ns``, the traced region's duration)."""
        spans = self.spans
        child_ns = [0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        self_ns: Counter = Counter()
        calls: Counter = Counter()
        # calls of a span name made directly under a given parent span name
        under: Counter = Counter()
        sos_key_ns = 0
        for i, (name, start, end, parent) in enumerate(spans):
            self_ns[name] += end - start - child_ns[i]
            calls[name] += 1
            if parent >= 0:
                pname = spans[parent][0]
                under[(name, pname)] += 1
                if name == "canon.key" and pname == "sos.mms_of":
                    sos_key_ns += end - start

        def pct(ns: int) -> float:
            return 100.0 * ns / wall_ns

        def hit_ratio(misses: int, lookups: int) -> float:
            return 1.0 - misses / lookups if lookups else 0.0

        c = self.counts
        pipeline_ns = sum(v for k, v in self_ns.items() if k.startswith("pipeline."))
        traced_ns = sum(self_ns.values())
        return {
            "enumeration.index_sets": c["enumeration.index_sets"],
            "enumeration.walk_pct": pct(self_ns["enumeration.walk"]),
            "canon.hnf_calls": calls["canon.hnf"],
            "canon.hnf_pct": pct(self_ns["canon.hnf"]),
            "canon.orbit_calls": calls["canon.orbit"],
            "canon.orbit_pct": pct(self_ns["canon.orbit"]),
            "canon.key_calls": calls["canon.key"],
            "canon.key_pct": pct(self_ns["canon.key"]),
            "pipeline.orbit_cache_hit_ratio": hit_ratio(
                under[("canon.orbit", "pipeline.key_of_hnf")], calls["pipeline.key_of_hnf"]
            ),
            "pipeline.class_cache_hit_ratio": hit_ratio(
                under[("engine.mms", "pipeline.invariants")], calls["pipeline.invariants"]
            ),
            "pipeline.self_pct": pct(pipeline_ns),
            "geometry.hull_scans": calls["geometry.hull_scan"],
            "geometry.hull_scan_pct": pct(self_ns["geometry.hull_scan"]),
            "geometry.det_adjugate_pct": pct(self_ns["geometry.det_adjugate"]),
            "geometry.candidates": c["geometry.candidates"],
            "geometry.hull_points": c["geometry.hull_points"],
            "geometry.scan_yield": (
                c["geometry.hull_points"] / c["geometry.candidates"]
                if c["geometry.candidates"]
                else 0.0
            ),
            "geometry.midpoint_calls": calls["geometry.midpoint"],
            "geometry.midpoint_pairs": c["geometry.midpoint_pairs"],
            "geometry.midpoint_pct": pct(self_ns["geometry.midpoint"]),
            "engine.mms_calls": calls["engine.mms"],
            "engine.mms_pct": pct(self_ns["engine.mms"]),
            "engine.removal_pct": pct(self_ns["engine.removal"]),
            "engine.even_points": c["engine.even_points"],
            "sampler.samples": calls["sampler.sample"],
            "sampler.sample_pct": pct(self_ns["sampler.sample"]),
            "store.shard_writes": calls["store.shard_write"],
            "store.shard_bytes": c["store.shard_bytes"],
            "store.shard_write_pct": pct(self_ns["store.shard_write"]),
            "store.records": c["store.records"],
            "store.merge_pct": pct(self_ns["store.merge"]),
            "store.audits": calls["store.audit"],
            "store.audit_pct": pct(self_ns["store.audit"]),
            "store.stats_pct": pct(self_ns["store.stats"]),
            "sos.mms_of_calls": calls["sos.mms_of"],
            "sos.mms_of_pct": pct(self_ns["sos.mms_of"]),
            "sos.key_pct": pct(sos_key_ns),
            "sos.memo_hit_ratio": hit_ratio(
                under[("engine.removal", "sos.mms_of")], calls["sos.mms_of"]
            ),
            "sos.memo_entries": memo_entries,
            "trace.spans": len(spans),
            "trace.unattributed_pct": pct(wall_ns - traced_ns),
        }


def _resolve(module: str, attr: str):
    """(object holding the attribute, the original function)."""
    owner = sys.modules[module]
    parts = attr.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, getattr(owner, parts[-1])
