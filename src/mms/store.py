"""Persistent store of MMS records: sorted JSONL shards, a k-way
deterministic merge that has each class's counts computed, statistics,
export.

One line per canonical lattice key, in strictly increasing key order: the
one reader, :func:`_read_lines`, streams a shard or store from start to end
and refuses a key that is not greater than the key before it.  It reads
through :func:`numbered_lines`, the one line reader, which the ``.idx``
check of :meth:`Store.open` and ``mms mms --in`` use too.

A shard line (:class:`ShardLine`) is what one task saw of a class: the key,
the least and the greatest member (vertex tuples, origin included) and the
multiplicity.  No MMS is computed before the merge.  One grouping,
:func:`_combined` -- the lines of each key, sorted by key, combined by
:func:`_combine` into the least of the leasts, the greatest of the
greatests and the summed multiplicity -- serves both phases: a
:class:`Shard` combines one task's lines of a key before it is written,
and the merge combines them across shards, so the merged store does not
depend on how the keys were spread over shards or in what order the shards
are listed.  The store computes no MMS itself: the merge streams members to
a ``counts_of`` map (the pipeline's serial ``map`` or its pool's ordered
``imap``) and gets back the three counts that are invariants of the class
(#MMS, #conv, #floor), once per class from its least member, and writes one
record per class whose representative is that member as simplex text.
Every AUDIT_STRIDE-th class also has its greatest member mapped as an
audit member, which the map always computes from scratch, and
:func:`_audit_record` checks that it gives the same counts, a check of the
invariance the store relies on and of any shortcut the map took.

Simplicial-set statistics are recovered by multiplicity weighting instead of
storing every simplex.  The classification and h-ratio of a record are
derived from its counts: they are written to each line for readers, and a
record whose stored values disagree with its counts is rejected as
malformed.
"""
from __future__ import annotations

import csv
import heapq
import io
import itertools
import json
import math
import os
import sys
import tempfile
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from operator import attrgetter
from typing import IO, Any, Callable, Iterable, Iterator, NamedTuple

from .engine import Classification, Counts, HRatio, classify, h_ratio
from .geometry import Point, SimplicialSet

HISTOGRAM_BINS = 20
AUDIT_STRIDE = 100  # every 100th merged record is recomputed from another member
PROGRESS_CLASSES = 10_000  # the merge prints a progress line per this many classes
MERGE_FANIN = 256  # the most shard or run files the merge reads at once


class StoreFormatError(ValueError):
    """Malformed content of a line file that :func:`numbered_lines` reads (a
    shard, a store, its ``.idx`` sidecar, an ``mms mms --in`` file); the
    message carries path and line."""


class StoreAuditError(AssertionError):
    """A record's counts disagree with a recomputation from another member
    of its class."""


@contextmanager
def atomic_open(path: str) -> Iterator[IO[str]]:
    """Text file handle for writing ``path`` all at once: the block writes a
    sibling temp file, which ``os.replace`` moves onto ``path`` only when the
    block ends without error; on error the temp file is removed and ``path``
    is left as it was.  So a crashed run never leaves a half-written file.
    When the temp file cannot be created, the OSError names ``path``, the
    file the caller asked for.  A path that exists but is not a regular
    file (a device or pipe such as /dev/stdout) cannot be replaced, so it
    is written in place."""
    if os.path.exists(path) and not os.path.isfile(path):
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            yield fh
        return
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        fh = open(tmp, "w", encoding="utf-8", newline="\n")
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from None
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


class StatsScope(str, Enum):
    SIMPLICIAL_SETS = "simplicial_sets"
    LATTICES = "lattices"


@dataclass(frozen=True)
class MmsRecord:
    key: str
    representative: str  # serialized SimplicialSet
    mms_size: int
    conv_count: int
    floor_count: int
    simplex_multiplicity: int

    @property
    def classification(self) -> Classification:
        return classify(self)

    @property
    def h_ratio(self) -> HRatio:
        return h_ratio(self)

    def to_json(self) -> str:
        payload = {
            "key": self.key,
            "representative": self.representative,
            "mms_size": self.mms_size,
            "conv_count": self.conv_count,
            "floor_count": self.floor_count,
            "classification": self.classification.value,
            "h_ratio": str(self.h_ratio),
            "simplex_multiplicity": self.simplex_multiplicity,
        }
        return json.dumps(payload, separators=(",", ":"))

    @classmethod
    def from_json(cls, line: str) -> "MmsRecord":
        """Parse one line; ValueError when it is malformed or misses a
        field, ``key`` or ``representative`` is not a string, one of the
        four counts is not a JSON integer, the counts break
        0 <= #floor <= #MMS <= #conv (the floor lies inside the MMS, the MMS
        inside the hull) or the multiplicity is below 1, or its stored
        classification or h-ratio disagrees with its counts."""
        payload = json.loads(line)
        if not isinstance(payload, dict):
            raise ValueError("a record must be a JSON object")
        for field in ("key", "representative"):
            if not isinstance(json_field(payload, field), str):
                raise ValueError(f"bad field type: {field} must be a string")
        counts = ("mms_size", "conv_count", "floor_count", "simplex_multiplicity")
        for field in counts:
            # a JSON true or false is a bool, not an integer
            if type(json_field(payload, field)) is not int:
                raise ValueError(f"bad field type: {field} must be an integer")
        rec = cls(payload["key"], payload["representative"], *(payload[f] for f in counts))
        if not 0 <= rec.floor_count <= rec.mms_size <= rec.conv_count:
            raise ValueError("counts must satisfy 0 <= floor_count <= mms_size <= conv_count")
        if rec.simplex_multiplicity < 1:
            raise ValueError("simplex_multiplicity must be at least 1")
        if rec.classification.value != json_field(payload, "classification"):
            raise ValueError("classification does not match stored counts")
        if str(rec.h_ratio) != json_field(payload, "h_ratio"):
            raise ValueError("h-ratio does not match stored counts")
        return rec


def json_field(payload: dict, name: str) -> Any:
    """``payload[name]``; ValueError saying the field is missing when it is."""
    if name not in payload:
        raise ValueError(f"missing field {name}")
    return payload[name]


class ShardLine(NamedTuple):
    """One class as one task saw it: its key, its least and greatest members
    (vertex tuples, origin included) and how many simplices of the class the
    task met.  A shard stores it as a JSON array, each member an array of
    integer points."""

    key: str
    least: tuple[Point, ...]
    greatest: tuple[Point, ...]
    multiplicity: int

    @classmethod
    def from_json(cls, text: str) -> "ShardLine":
        """Parse one shard line, the one place a member is decoded; ValueError
        unless it is an array of a string key, two members and an integer,
        each member a non-empty array of arrays of JSON integers."""
        line = json.loads(text)
        if not (isinstance(line, list) and len(line) == 4) or not (
            isinstance(line[0], str) and type(line[3]) is int
        ):
            raise ValueError("a shard line must be [key, least, greatest, multiplicity]")
        key, *members, multiplicity = line
        for member in members:
            # a JSON true or false is a bool, not an integer
            if (
                not isinstance(member, list)
                or set(map(type, member)) != {list}
                or set(map(type, itertools.chain.from_iterable(member))) != {int}
            ):
                raise ValueError("a member must be a non-empty array of integer points")
        return cls(key, *(tuple(map(tuple, m)) for m in members), multiplicity)


_by_key = attrgetter("key")


class Shard:
    """One task's shard lines, combined to one line per key (see
    :func:`_combined`) and written sorted by key."""

    def __init__(self, lines: Iterable[ShardLine]) -> None:
        self._lines = list(_combined(sorted(lines, key=_by_key)))

    def write(self, path: str) -> None:
        _write_lines(path, self._lines)


def _write_lines(path: str, lines: Iterable[ShardLine]) -> None:
    """Write shard lines to ``path``, one JSON array a line: the one writer
    of shards and of the merge's runs."""
    with atomic_open(path) as fh:
        for line in lines:
            fh.write(json.dumps(line, separators=(",", ":")))
            fh.write("\n")


def _combine(lines: list[ShardLine]) -> ShardLine:
    """The one line of a key from its lines, within a task or across
    shards: the least of the least members, the greatest of the greatest
    members (vertex tuple order) and the summed multiplicity."""
    return ShardLine(
        key=lines[0].key,
        least=min(line.least for line in lines),
        greatest=max(line.greatest for line in lines),
        multiplicity=sum(line.multiplicity for line in lines),
    )


def _combined(lines: Iterable[ShardLine]) -> Iterator[ShardLine]:
    """One line per key, by :func:`_combine`, from lines sorted by key: the
    grouping of a task's shard and of the merge alike."""
    return (_combine(list(group)) for _, group in itertools.groupby(lines, key=_by_key))


def numbered_lines(path: str, parse: Callable[[str], Any], what: str) -> Iterator[tuple[int, Any]]:
    """``(line number, parse(line))`` for each non-blank line of ``path``,
    stripped, in file order: the one line reader of shards, stores, ``.idx``
    sidecars and ``mms mms --in`` files.  StoreFormatError reading
    "<path>:<line>: <what>: <cause>" when a line is not UTF-8 or ``parse``
    raises ValueError."""
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8").strip()
                if not line:
                    continue
                item = parse(line)
            except ValueError as exc:  # malformed, or not UTF-8
                raise StoreFormatError(f"{path}:{lineno}: {what}: {exc}") from exc
            yield lineno, item


def _read_lines(path: str, parse: Callable[[str], Any]) -> Iterator[Any]:
    """The lines of a shard (``ShardLine.from_json``) or store
    (``MmsRecord.from_json``) in file order, skipping blank lines.
    StoreFormatError naming path and line when a line is malformed or its
    key is not greater than the key before it."""
    last_key: str | None = None
    for lineno, rec in numbered_lines(path, parse, "bad record"):
        if last_key is not None and rec.key <= last_key:
            raise StoreFormatError(f"{path}:{lineno}: keys out of order")
        last_key = rec.key
        yield rec


def _index_offset(line: str) -> int:
    """The offset of a ``.idx`` line: the key is everything before its last
    tab, and a line without a tab is a ValueError."""
    _, off = line.rsplit("\t", 1)
    return int(off)


def merge(
    shard_paths: Iterable[str],
    out_path: str,
    counts_of: Callable[[Iterable[tuple[tuple[Point, ...], bool]]], Iterator[Counts]],
) -> "Store":
    """K-way merge of sorted shards into one sorted store file plus its
    ``.idx`` sidecar of key offsets.  The lines of each key are combined
    once (see :func:`_combined`), so shard order cannot affect the output.

    ``counts_of`` maps ``(member, audit)`` pairs, a vertex tuple and
    whether it is an audit's, to the member's counts (#MMS, #conv, #floor),
    in order: a serial ``map`` or a pool's ordered ``imap``.  The merge
    feeds it, in key order, ``(least, False)`` for each class, so each
    class of the run is counted once, here, whatever the number of shards
    it spans; after every AUDIT_STRIDE-th class it also feeds
    ``(greatest, True)``, the greatest member checked by
    ``SimplicialSet.of``, for the audit.  The pipeline's map counts a class
    member by the planar rule when it applies and an audit member always
    from scratch, so the audit also checks the rule.  A FIFO of classes in
    flight pairs the counts with their classes; a pool reads the members in
    its task-handler thread, so the FIFO is a thread-safe ``deque``.  A
    progress line goes to stderr after every PROGRESS_CLASSES-th class.

    At most MERGE_FANIN files are open at once: while more paths remain,
    each run of MERGE_FANIN consecutive ones is merged and combined into
    one run file, in a temporary directory beside ``out_path`` that is
    removed when the merge ends.  ``_combine`` is associative, so the
    store does not change.
    """
    paths = sorted(shard_paths)
    in_flight: deque[tuple[ShardLine, SimplicialSet | None]] = deque()

    def members(lines: Iterable[ShardLine]) -> Iterator[tuple[tuple[Point, ...], bool]]:
        for count, line in enumerate(lines):
            audit = SimplicialSet.of(line.greatest) if count % AUDIT_STRIDE == 0 else None
            in_flight.append((line, audit))
            yield line.least, False
            if audit is not None:
                yield audit.points, True

    offset = 0
    with (
        tempfile.TemporaryDirectory(dir=os.path.dirname(os.path.abspath(out_path))) as runs,
        atomic_open(out_path) as out,
        atomic_open(out_path + ".idx") as idx,
    ):
        names = itertools.count()
        while len(paths) > MERGE_FANIN:
            groups = [paths[i : i + MERGE_FANIN] for i in range(0, len(paths), MERGE_FANIN)]
            paths = [os.path.join(runs, f"run-{next(names)}.jsonl") for _ in groups]
            for run, group in zip(paths, groups):
                _write_lines(run, _merged_lines(group))
        results = counts_of(members(_merged_lines(paths)))
        for done, counts in enumerate(results, start=1):
            line, audit = in_flight.popleft()
            rec = MmsRecord(line.key, str(SimplicialSet(line.least)), *counts, line.multiplicity)
            if audit is not None:
                _audit_record(rec, audit, next(results))
            text = rec.to_json() + "\n"
            idx.write(f"{rec.key}\t{offset}\n")
            out.write(text)
            offset += len(text.encode("utf-8"))
            if done % PROGRESS_CLASSES == 0:
                print(f"[mms] classes: {done}", file=sys.stderr)
    return Store.open(out_path)


def _merged_lines(paths: list[str]) -> Iterator[ShardLine]:
    """One line per key, by :func:`_combine`, over the shard or run files
    at ``paths``, all open at once."""
    return _combined(heapq.merge(*(_read_lines(p, ShardLine.from_json) for p in paths), key=_by_key))


def _audit_record(rec: MmsRecord, member: SimplicialSet, counts: Counts) -> None:
    """StoreAuditError naming the key unless ``counts``, computed from
    ``member``, another simplex of the record's class, equal the record's
    counts.  Passed the class's greatest member, which differs from the
    representative whenever the multiplicity is 2 or more, this tests the
    invariance of the counts over the class."""
    stored = (rec.mms_size, rec.conv_count, rec.floor_count)
    if counts != stored:
        raise StoreAuditError(
            f"audit failed for key {rec.key}: member {member} recomputes to "
            f"(#MMS, #conv, #floor) = {counts}, the record holds {stored}"
        )


def _check_index_end(path: str, idx_path: str, last: int | None) -> None:
    """StoreFormatError unless ``last`` (the sidecar's last offset, None for
    an empty sidecar) starts the final, newline-terminated line of ``path``."""
    with open(path, "rb") as fh:
        if last is None:
            ok = not fh.read(1)
        else:
            ok = last >= 0
            if ok and last > 0:
                fh.seek(last - 1)
                ok = fh.read(1) == b"\n"
            if ok:
                fh.seek(last)
                ok = fh.readline().endswith(b"\n") and not fh.read(1)
    if not ok:
        raise StoreFormatError(f"{path}: does not end where its index {idx_path} ends")


class Store:
    """A merged JSONL store: one record per key, keys strictly increasing,
    with a ``.idx`` sidecar of key offsets.  Records are read by streaming
    the file (see :func:`_read_lines`), so a repeated or out-of-order key
    is refused with StoreFormatError naming path and line."""

    def __init__(self, path: str, size: int):
        self.path = path
        self._size = size

    @classmethod
    def open(cls, path: str) -> "Store":
        """Open a store file and check its ``.idx`` sidecar, or parse every
        record when there is no sidecar.  StoreFormatError when a sidecar
        line is malformed or the sidecar does not end where the file does:
        its last offset must start the file's final, newline-terminated
        line, and an empty sidecar needs an empty file.  Only the record
        count and the last offset are kept."""
        idx_path = path + ".idx"
        if not os.path.exists(idx_path):
            return cls(path, sum(1 for _ in _read_lines(path, MmsRecord.from_json)))
        size, last = 0, None
        for _, last in numbered_lines(idx_path, _index_offset, "bad index line"):
            size += 1
        _check_index_end(path, idx_path, last)
        return cls(path, size)

    def __len__(self) -> int:
        """The number of records, counted once by :meth:`open`."""
        return self._size

    def __iter__(self) -> Iterator[MmsRecord]:
        return _read_lines(self.path, MmsRecord.from_json)


@dataclass(frozen=True)
class StatsSummary:
    scope: StatsScope
    total_count: int
    h_count: int
    m_count: int
    intermediate_count: int
    mean_h_ratio: Fraction
    sd_population: float
    sd_sample: float | None
    histogram: tuple[int, ...]
    decrease_factor: Fraction | None

    def to_json_dict(self) -> dict:
        return {
            "scope": self.scope.value,
            "total_count": self.total_count,
            "h_count": self.h_count,
            "m_count": self.m_count,
            "intermediate_count": self.intermediate_count,
            "mean": f"{float(self.mean_h_ratio):.9f}",
            "mean_exact": f"{self.mean_h_ratio.numerator}/{self.mean_h_ratio.denominator}",
            "sd_population": f"{self.sd_population:.9f}",
            "sd_sample": None if self.sd_sample is None else f"{self.sd_sample:.9f}",
            "histogram_bins": HISTOGRAM_BINS,
            "histogram": list(self.histogram),
            "decrease_factor": (
                None if self.decrease_factor is None else f"{float(self.decrease_factor):.6f}"
            ),
        }


class _ScopeSums:
    """Weighted sums of one stats scope.  The h-ratio sums are exact: per
    reduced denominator q they hold the integer numerators of h and h^2."""

    def __init__(self) -> None:
        self.total = 0
        self.by_class = {label: 0 for label in Classification}
        self.histogram = [0] * HISTOGRAM_BINS
        self.by_denominator: dict[int, list[int]] = {}

    def add(self, w: int, label: Classification, p: int, q: int, bin_idx: int) -> None:
        self.total += w
        self.by_class[label] += w
        self.histogram[bin_idx] += w
        sums = self.by_denominator.get(q)
        if sums is None:
            self.by_denominator[q] = [w * p, w * p * p]
        else:
            sums[0] += w * p
            sums[1] += w * p * p

    def summary(self, scope: StatsScope, decrease: Fraction | None) -> StatsSummary:
        n = self.total
        sum_h = sum((Fraction(a, q) for q, (a, _) in self.by_denominator.items()), Fraction(0))
        sum_h2 = sum((Fraction(b, q * q) for q, (_, b) in self.by_denominator.items()), Fraction(0))
        mean = sum_h / n
        # exact rationals: both variances are sums of squares, never negative
        var_pop = sum_h2 / n - mean * mean
        sd_samp = None
        if n > 1:
            sd_samp = math.sqrt(float((sum_h2 - n * mean * mean) / (n - 1)))
        return StatsSummary(
            scope=scope,
            total_count=n,
            h_count=self.by_class[Classification.H],
            m_count=self.by_class[Classification.M],
            intermediate_count=self.by_class[Classification.INTERMEDIATE],
            mean_h_ratio=mean,
            sd_population=math.sqrt(float(var_pop)),
            sd_sample=sd_samp,
            histogram=tuple(self.histogram),
            decrease_factor=decrease,
        )


def stats(store: Store) -> tuple[StatsSummary, StatsSummary]:
    """Weighted h-ratio statistics over the store, (simplicial-set scope,
    lattice scope), from one pass over its records.

    SIMPLICIAL_SETS weights each record by its multiplicity, LATTICES counts
    each key once.  Mean and variance are exact rationals: the pass sums
    integer numerators per reduced h-ratio denominator, and each scope then
    forms one Fraction per distinct denominator, so the cost grows linearly
    with the number of records.  Only the final square roots are floating
    point.  Both population and sample standard deviations are provided (the
    convention used by any given reference table is not always stated).
    """
    sim, lat = _ScopeSums(), _ScopeSums()
    for rec in store:
        h = rec.h_ratio.value
        p, q = h.numerator, h.denominator
        label = rec.classification
        bin_idx = min(HISTOGRAM_BINS - 1, (p * HISTOGRAM_BINS) // q)
        sim.add(rec.simplex_multiplicity, label, p, q, bin_idx)
        lat.add(1, label, p, q, bin_idx)
    if lat.total == 0:
        raise ValueError("cannot compute statistics of an empty store")
    return (
        sim.summary(StatsScope.SIMPLICIAL_SETS, None),
        lat.summary(StatsScope.LATTICES, Fraction(sim.total, lat.total)),
    )


def stats_json(summaries: Iterable[StatsSummary]) -> dict:
    """The JSON payload of ``stats.json``, ``mms pipeline`` and ``mms stats``:
    each summary under its scope name."""
    return {s.scope.value: s.to_json_dict() for s in summaries}


def stats_csv(
    summaries: Iterable[StatsSummary], n: int, two_d: int
) -> str:
    """Stats table as CSV text: a fixed header, then one row per summary
    (sd is the population convention; decrease_factor only for lattices)."""
    buf = io.StringIO()
    buf.write("scope,n,2d,total,h_count,m_count,intermediate_count,mean,sd,decrease_factor\n")
    writer = csv.writer(buf, lineterminator="\n")
    for s in summaries:
        writer.writerow(
            [
                s.scope.value,
                n,
                two_d,
                s.total_count,
                s.h_count,
                s.m_count,
                s.intermediate_count,
                f"{float(s.mean_h_ratio):.6f}",
                f"{s.sd_population:.6f}",
                "" if s.decrease_factor is None else f"{float(s.decrease_factor):.6f}",
            ]
        )
    return buf.getvalue()


def export(store: Store, fmt: str, path: str, shape: tuple[int, int] | None = None) -> None:
    """Deterministic dumps: "jsonl" writes the records in key order (byte
    round-trip with the store file), "csv" writes the two-scope stats table
    for ``shape`` = (n, 2d).  Key order is enforced: a store whose keys
    repeat or go out of order raises StoreFormatError, and ``path`` is left
    as it was.  Without a shape, n and 2d are derived from the
    stored representatives: the ambient dimension and the largest vertex
    degree, which is below the run's 2d when no class reaches it; a
    representative that is not a simplex raises StoreFormatError naming the
    store and the record's key."""
    if fmt == "jsonl":
        with atomic_open(path) as fh:
            for rec in store:
                fh.write(rec.to_json())
                fh.write("\n")
        return
    if fmt == "csv":
        summaries = stats(store)
        if shape is None:
            n = two_d = 0
            for rec in store:
                try:
                    delta = SimplicialSet.parse(rec.representative)
                except ValueError as exc:
                    raise StoreFormatError(f"{store.path}: key {rec.key}: {exc}") from exc
                n, two_d = delta.ambient_dim, max(two_d, delta.max_degree)
            shape = n, two_d
        with atomic_open(path) as fh:
            fh.write(stats_csv(summaries, *shape))
        return
    raise ValueError(f"unknown export format {fmt!r}")
