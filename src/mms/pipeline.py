"""Batch orchestration: enumerate or sample, canonicalize, shard, merge,
compute MMS per lattice class, and summarize.

A run has two phases, in one pool of workers (or none at ``workers=1``).
Phase 1: each task walks its partition or samples its block and hands
its items, each a member (vertex tuple), the greatest member it stands for
and its count, to :func:`_aggregate_to_shard`, the one tail of both task
kinds.  The tail brings every member's generator matrix to HNF in one
stacked call (``canon.member_hnfs``) and keys all those HNFs in one
``canon._key_of_hnf`` call, makes each item a
:class:`mms.store.ShardLine` and hands the lines to a
:class:`mms.store.Shard`, which groups them by canonical key and combines
each key's lines with ``store._combine``, the only combine: the summed
count and the least and the greatest vertex tuple.  It writes one shard
line per key and computes no MMS.  A census task runs the orderly walk of
:mod:`mms.enumeration`: it walks only the vertex tuples least in their
coordinate-permutation orbit, each an item standing for its orbit (its
size counted, its greatest tuple a member), so only the partitions whose
first row is ascending get a task.  A sample is an item of count 1.
Phase 2: :func:`mms.store.merge` groups and combines each key's lines
across shards the same way and streams members to
:func:`_invariants_for`, the one function that turns a member into its
class's counts, through the pool's ordered ``imap`` (or ``map`` when
serial): each merged class's least member once, and every
``AUDIT_STRIDE``-th class's greatest member for the audit, so the audits
run in the pool too.  A planar class that the boundary rule forces H gets
its counts from Pick's theorem; audits always recompute from scratch.
Only members go to the workers and only counts come back.  One pass over
the merged store then yields the statistics of both scopes.

Determinism contract: every shard is a pure function of (parameters, its
partition or sample-block), never of worker scheduling, and the merge keeps
the least of the least members, so the merged representative is the
tuple-minimal simplex of its class over the whole run (every simplex
enumerated, or every sample drawn), however the work was distributed.  A
census multiplicity is a sum of orbit sizes, which counts every simplex of
the class, and the least simplex of a class is least in its orbit, so the
walk reaches it: the merged records are those of a walk over every
simplex.  The counts are written in key order whatever order the workers
finish in.
Canonical keys resolve through the orbit table in :mod:`mms.canon`: the
tail hands it all of a task's member HNFs in one call, so the orbits of
the task's new classes are computed in batches.
"""
from __future__ import annotations

import dataclasses
import json
import multiprocessing
import os
import sys
import tempfile
from contextlib import nullcontext
from dataclasses import dataclass
from datetime import datetime, timezone
from functools import partial
from typing import Iterable

from . import __version__
from .canon import _key_of_hnf, member_hnfs
from .engine import Classification, Counts, boundary_h_counts, compute_mms
from .enumeration import _iter_full_rank_sets, check_shape, orbit_codes, vertex_list
from .geometry import Point, SimplicialSet
from .sampler import SamplerConfig, sample_simplex
from .store import (
    Shard,
    ShardLine,
    StatsSummary,
    Store,
    atomic_open,
    merge,
    stats,
    stats_csv,
    stats_json,
)

SAMPLE_BLOCK = 2000  # fixed block size; results never depend on worker count
# members per pool round trip in phase 2: at one each, the round trips add
# about 30% to the CPU time of a 2d=50 survey
CLASS_CHUNK = 32


@dataclass
class RunManifest:
    command: str
    parameters: dict
    seed: int | None
    worker_count: int
    shard_paths: list[str]
    started_at: str
    finished_at: str | None
    tool_version: str
    status: str

    def write(self, path: str) -> None:
        with atomic_open(path) as fh:
            json.dump(dataclasses.asdict(self), fh, indent=2)
            fh.write("\n")

    @classmethod
    def read(cls, path: str) -> "RunManifest":
        """Load a manifest; ValueError names any unknown or missing field,
        and any field of the wrong type: ``parameters`` must be an object
        with integer ``n`` and ``two_d``, an integer or no ``count`` and a
        ``mode`` of "full" or "sample", ``seed`` an integer or null and
        ``worker_count`` an integer."""
        with open(path, "r", encoding="utf-8") as fh:
            try:
                payload = json.load(fh)
            except ValueError as exc:  # not JSON, or not UTF-8
                raise ValueError(f"{path}: bad manifest: {exc}") from exc
        if not isinstance(payload, dict):
            raise ValueError(f"{path}: manifest must be a JSON object")
        fields = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(payload.keys() - fields)
        missing = sorted(fields - payload.keys())
        if unknown or missing:
            raise ValueError(
                f"{path}: bad manifest: unknown fields {unknown}, missing fields {missing}"
            )
        params = payload["parameters"]
        if not isinstance(params, dict):
            raise ValueError(f"{path}: bad manifest: parameters must be an object")
        for field, value, nullable in (
            ("parameters.n", params.get("n"), False),
            ("parameters.two_d", params.get("two_d"), False),
            ("parameters.count", params.get("count"), True),
            ("seed", payload["seed"], True),
            ("worker_count", payload["worker_count"], False),
        ):
            # a JSON true or false is a bool, not an integer
            if type(value) is not int and not (nullable and value is None):
                kind = "an integer or null" if nullable else "an integer"
                raise ValueError(f"{path}: bad manifest: {field} must be {kind}")
        if params.get("mode") not in ("full", "sample"):
            raise ValueError(f'{path}: bad manifest: parameters.mode must be "full" or "sample"')
        return cls(**payload)


def _invariants_for(item: tuple[tuple[Point, ...], bool]) -> Counts:
    """Phase 2: the three counts (#MMS, #conv, #floor) of the lattice class
    of the vertex tuple ``member``, for an ``(member, audit)`` item of the
    merge; they are invariants of the class, and a record's classification
    and h-ratio are derived from them.  A class member (``audit`` false)
    takes the planar rule first, :func:`mms.engine.boundary_h_counts`
    (Pick's count of a triangle that the boundary rule forces H), and runs
    :func:`compute_mms` only where the rule returns None.  An audit member
    always runs :func:`compute_mms`, so the audit recomputes from scratch
    and checks the rule on every audited class it covers.  The member is
    not validated again: phase 1 took it from a simplex, the shard reader
    checked its form (the merge checks an audited member with
    ``SimplicialSet.of``), and validation costs about 5% of a 4x16 class's
    MMS."""
    member, audit = item
    counts = None if audit else boundary_h_counts(member)
    if counts is None:
        result = compute_mms(SimplicialSet(member))
        counts = result.mms_size, result.conv_count, result.floor_count
    return counts


def _aggregate_to_shard(items: Iterable[tuple], shard_path: str) -> str:
    """Phase 1, the one tail of both task kinds: write a task's ``items``,
    each ``(member, greatest member, count)``, to ``shard_path``.  The
    members' HNFs come from one :func:`member_hnfs` call and are keyed in
    one :func:`_key_of_hnf` call, so the orbits of the task's new classes
    are computed in batches; each item becomes one :class:`ShardLine`, and
    the :class:`Shard` combines the lines of each key
    (:func:`mms.store._combine`).  No MMS is computed here.  A task's items
    are held at once: a census task holds its walked sets (at most 155 at
    ``6x4`` and 523 at ``3x10``, 222 and 3,721 over all tasks), and in the
    plain walk, which shapes past ``enumeration.ORBIT_WORDS`` fall back to
    (n = 2 from 2d = 254 on; the n >= 3 shapes past it take days), every
    simplex of its partition."""
    items = list(items)
    keys = _key_of_hnf(member_hnfs([m for m, _, _ in items]))
    Shard(ShardLine(k.key_text, m, g, c) for k, (m, g, c) in zip(keys, items)).write(shard_path)
    return shard_path


def _enum_task(args: tuple) -> str:
    n, two_d, partition, shard_path = args
    # each walked set stands for its orbit, which lies in one lattice class
    walk = _iter_full_rank_sets(vertex_list(n, two_d), n, partition, orbit_codes(n, two_d))
    return _aggregate_to_shard(walk, shard_path)


def _sample_task(args: tuple) -> str:
    n, two_d, seed, lo, hi, shard_path = args
    # the origin is each sample's lex-min point
    samples = (sample_simplex(n, two_d, seed, index).points for index in range(lo, hi))
    return _aggregate_to_shard(((points, points, 1) for points in samples), shard_path)


def default_workers() -> int:
    env = os.environ.get("MMS_WORKERS")
    if env:
        try:
            value = int(env)
        except ValueError as exc:
            raise ValueError(f"MMS_WORKERS must be an integer, got {env!r}") from exc
        if value < 1:
            raise ValueError("MMS_WORKERS must be at least 1")
        return value
    return os.cpu_count() or 1


def run_pipeline(
    n: int,
    two_d: int,
    mode: str,
    workers: int | None,
    out_dir: str,
    seed: int | None = None,
    count: int | None = None,
) -> tuple[StatsSummary, StatsSummary]:
    """Full batch run into ``out_dir``: shards, merged store (merged.jsonl
    plus .idx), stats.csv, stats.json, manifest.json.  Returns the
    (simplicial-set scope, lattice scope) summaries.  ``workers`` None
    means :func:`default_workers`.  Every parameter is checked, the sample
    ones as ``mms sample`` checks them, before anything is written: a bad
    value raises ValueError naming it."""
    if mode not in ("full", "sample"):
        raise ValueError(f"mode must be 'full' or 'sample', got {mode!r}")
    if mode == "full":
        check_shape(n, two_d)
    elif seed is None or count is None:
        raise ValueError("sample mode requires seed and count")
    else:
        SamplerConfig(n=n, two_d=two_d, seed=seed, count=count)
    if workers is None:
        workers = default_workers()
    if workers < 1:
        raise ValueError("workers must be at least 1")
    os.makedirs(out_dir, exist_ok=True)
    shard_dir = os.path.join(out_dir, "shards")
    os.makedirs(shard_dir, exist_ok=True)
    params = {"n": n, "two_d": two_d, "mode": mode}
    if mode == "sample":
        params["count"] = count
        params["sample_block"] = SAMPLE_BLOCK
    manifest = RunManifest(
        command="pipeline",
        parameters=params,
        seed=seed,
        worker_count=workers,
        shard_paths=[],
        started_at=datetime.now(timezone.utc).isoformat(),
        finished_at=None,
        tool_version=__version__,
        status="running",
    )
    manifest_path = os.path.join(out_dir, "manifest.json")
    manifest.write(manifest_path)
    shard_path = os.path.join(shard_dir, "shard-{:05d}.jsonl").format
    serial = workers == 1
    try:
        # one pool serves both phases
        with (nullcontext() if serial else multiprocessing.Pool(processes=workers)) as pool:
            if mode == "full":
                task_fn, label = _enum_task, "partitions"
                rows = vertex_list(n, two_d)
                # a set least in its orbit starts at an ascending row
                orderly = orbit_codes(n, two_d) is not None
                task_args = [
                    (n, two_d, p, shard_path(p))
                    for p, row in enumerate(rows[: max(0, len(rows) - n + 1)])
                    if not orderly or list(row) == sorted(row)
                ]
            else:
                assert seed is not None and count is not None
                task_fn, label = _sample_task, "sample blocks"
                task_args = [
                    (n, two_d, seed, lo, min(lo + SAMPLE_BLOCK, count), shard_path(i))
                    for i, lo in enumerate(range(0, count, SAMPLE_BLOCK))
                ]
            # phase 1, with a progress line about every tenth task
            total, shard_paths = len(task_args), []
            imap = map if serial else pool.imap_unordered
            for done, path in enumerate(imap(task_fn, task_args), start=1):
                shard_paths.append(path)
                if done % max(1, total // 10) == 0 or done == total:
                    print(f"[mms] {label}: {done}/{total}", file=sys.stderr)
            manifest.shard_paths = sorted(shard_paths)
            print(f"[mms] merging {len(shard_paths)} shards", file=sys.stderr)
            counts_of = (
                partial(map, _invariants_for)
                if serial
                else partial(pool.imap, _invariants_for, chunksize=CLASS_CHUNK)
            )
            store = merge(manifest.shard_paths, os.path.join(out_dir, "merged.jsonl"), counts_of)
        sim, lat = stats(store)
        with atomic_open(os.path.join(out_dir, "stats.csv")) as fh:
            fh.write(stats_csv([sim, lat], n, two_d))
        with atomic_open(os.path.join(out_dir, "stats.json")) as fh:
            json.dump(stats_json([sim, lat]), fh, indent=2)
            fh.write("\n")
        manifest.status = "complete"
        manifest.finished_at = datetime.now(timezone.utc).isoformat()
        manifest.write(manifest_path)
        return sim, lat
    except Exception:
        manifest.status = "failed"
        manifest.finished_at = datetime.now(timezone.utc).isoformat()
        manifest.write(manifest_path)
        raise


def replay(manifest_path: str, out_dir: str, workers: int | None = None) -> tuple[StatsSummary, StatsSummary]:
    """Re-run a recorded pipeline into a fresh directory.  Outputs are
    byte-identical to the original run (worker count is free to differ)."""
    manifest = RunManifest.read(manifest_path)
    if manifest.command != "pipeline":
        raise ValueError(f"manifest records command {manifest.command!r}, not a pipeline")
    params = manifest.parameters
    return run_pipeline(
        n=params["n"],
        two_d=params["two_d"],
        mode=params["mode"],
        workers=workers if workers is not None else manifest.worker_count,
        out_dir=out_dir,
        seed=manifest.seed,
        count=params.get("count"),
    )


def run_shape(store_path: str) -> tuple[int, int] | None:
    """(n, 2d) of the pipeline run that wrote ``store_path``, read from the
    ``manifest.json`` beside it; None when there is no such manifest or it
    records another command."""
    path = os.path.join(os.path.dirname(store_path), "manifest.json")
    if not os.path.exists(path):
        return None
    manifest = RunManifest.read(path)
    if manifest.command != "pipeline":
        return None
    return manifest.parameters["n"], manifest.parameters["two_d"]


@dataclass(frozen=True)
class ConjectureReport:
    """The planar dichotomy check at one degree: the run's two stats
    summaries and every INTERMEDIATE class found."""

    two_d: int
    simplicial: StatsSummary
    lattices: StatsSummary
    counterexamples: tuple[dict, ...]

    @property
    def passed(self) -> bool:
        return not self.counterexamples

    def to_json_dict(self) -> dict:
        return {
            "two_d": self.two_d,
            "total_simplices": self.simplicial.total_count,
            "total_lattices": self.lattices.total_count,
            "h_lattice_classes": self.lattices.h_count,
            "m_lattice_classes": self.lattices.m_count,
            "intermediate_lattice_classes": self.lattices.intermediate_count,
            "passed": self.passed,
            "counterexamples": list(self.counterexamples),
        }


def check_conjecture(
    two_d: int, workers: int | None = 1, out_dir: str | None = None
) -> ConjectureReport:
    """Exhaustively classify every 2-simplex of maximal degree <= two_d and
    report any INTERMEDIATE class verbatim (vertices plus full MMS).  The
    dichotomy statement is specific to the plane.  ``workers`` goes to
    :func:`run_pipeline`.  The merged store is read again only when the
    lattice scope counts INTERMEDIATE classes."""
    with (
        nullcontext(out_dir)
        if out_dir is not None
        else tempfile.TemporaryDirectory(prefix="mms-conjecture-")
    ) as run_dir:
        sim, lat = run_pipeline(2, two_d, "full", workers, run_dir)
        counterexamples = []
        if lat.intermediate_count:
            for rec in Store.open(os.path.join(run_dir, "merged.jsonl")):
                if rec.classification is Classification.INTERMEDIATE:
                    result = compute_mms(SimplicialSet.parse(rec.representative))
                    counterexamples.append(
                        {
                            "delta": str(result.delta),
                            "mms_points": [list(p) for p in result.mms_points],
                            "conv_count": result.conv_count,
                            "floor_count": result.floor_count,
                            "mms_size": result.mms_size,
                        }
                    )
    return ConjectureReport(two_d, sim, lat, tuple(counterexamples))
