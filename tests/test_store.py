"""Store layer: shards, deterministic merge, the streaming reader, stats, export."""

import itertools
import json
import math
import multiprocessing
import os
from contextlib import nullcontext
from fractions import Fraction
from functools import partial

import pytest

from mms import store
from mms.canon import canonical_key
from mms.engine import Classification, compute_mms
from mms.geometry import SimplicialSet
from mms.pipeline import CLASS_CHUNK, _invariants_for, run_pipeline
from mms.store import (
    HISTOGRAM_BINS,
    MmsRecord,
    Shard,
    ShardLine,
    StatsScope,
    StatsSummary,
    Store,
    StoreAuditError,
    StoreFormatError,
    _combine,
    _read_lines,
    atomic_open,
    export,
    merge,
    stats,
    stats_csv,
)

MOTZKIN = SimplicialSet.parse("0,0;2,4;4,2")
TWIN = SimplicialSet.parse("0,0;2,0;4,6")  # same lattice as MOTZKIN
HURWITZ = SimplicialSet.parse("0,0;0,4;4,0")
DIM4 = SimplicialSet.parse("0,0,0,0;0,0,0,4;0,2,2,0;2,0,2,0;2,2,0,0")


def record_for(delta, multiplicity=1):
    result = compute_mms(delta)
    return MmsRecord(
        key=canonical_key(delta).key_text,
        representative=str(delta),
        mms_size=result.mms_size,
        conv_count=result.conv_count,
        floor_count=result.floor_count,
        simplex_multiplicity=multiplicity,
    )


def line_for(delta, multiplicity=1, greatest=None):
    """The shard line of a task that met ``delta`` (and ``greatest``)."""
    return ShardLine(
        key=canonical_key(delta).key_text,
        least=delta.points,
        greatest=(greatest or delta).points,
        multiplicity=multiplicity,
    )


# phase 2 in this process: the counts of each member, in order
serial_counts = partial(map, _invariants_for)


def read_shard(path):
    return list(_read_lines(path, ShardLine.from_json))


def write_shards(tmp_path, *shards):
    """Write each list of shard lines as one shard; the shard paths."""
    paths = []
    for i, lines in enumerate(shards):
        paths.append(str(tmp_path / f"shard-{i}.jsonl"))
        Shard(lines).write(paths[-1])
    return paths


def golden_shard_paths(tmp_path):
    # MOTZKIN and TWIN share a key, so they go to different shards
    return write_shards(
        tmp_path,
        [line_for(MOTZKIN, 2), line_for(HURWITZ, 2), line_for(DIM4, 1)],
        [line_for(TWIN, 1)],
    )


def test_record_json_round_trip():
    rec = record_for(MOTZKIN)
    line = rec.to_json()
    assert line == (
        '{"key":"2x2w1:2,4;0,6","representative":"0,0;2,4;4,2",'
        '"mms_size":6,"conv_count":10,"floor_count":6,'
        '"classification":"M","h_ratio":"0/4","simplex_multiplicity":1}'
    )
    assert MmsRecord.from_json(line) == rec


def test_record_json_rejects_unknown_classification():
    payload = json.loads(record_for(MOTZKIN).to_json())
    payload["classification"] = "X"
    with pytest.raises(ValueError):
        MmsRecord.from_json(json.dumps(payload))


@pytest.mark.parametrize("field, value", [("classification", "H"), ("h_ratio", "1/4")])
def test_record_json_rejects_derived_fields_that_disagree_with_counts(field, value):
    # the counts 6, 10, 6 say M and 0/4
    payload = json.loads(record_for(MOTZKIN).to_json())
    payload[field] = value
    with pytest.raises(ValueError, match="does not match stored counts"):
        MmsRecord.from_json(json.dumps(payload))


@pytest.mark.parametrize(
    "field, value, kind",
    [
        (field, value, "an integer")
        for field in ("mms_size", "conv_count", "floor_count", "simplex_multiplicity")
        for value in (2.9, "9", True, None)
    ]
    + [(field, value, "a string") for field in ("key", "representative") for value in (5, None)],
)
def test_record_json_rejects_fields_of_the_wrong_type(field, value, kind):
    # no coercion: int(2.9) would read a multiplicity of 2 and int("9") a count
    payload = json.loads(record_for(MOTZKIN).to_json())
    payload[field] = value
    with pytest.raises(ValueError, match=f"bad field type: {field} must be {kind}"):
        MmsRecord.from_json(json.dumps(payload))


@pytest.mark.parametrize(
    "counts, message",
    [
        ((3, 10, 6, 1), "0 <= floor_count <= mms_size <= conv_count"),  # INTERMEDIATE, -3/4
        ((-3, 10, 6, 1), "0 <= floor_count <= mms_size <= conv_count"),  # INTERMEDIATE, -9/4
        ((6, 10, -1, 1), "0 <= floor_count <= mms_size <= conv_count"),  # INTERMEDIATE, 7/11
        ((12, 10, 6, 1), "0 <= floor_count <= mms_size <= conv_count"),  # INTERMEDIATE, 6/4
        ((6, 10, 6, -5), "simplex_multiplicity must be at least 1"),
        ((6, 10, 6, 0), "simplex_multiplicity must be at least 1"),
    ],
    ids=[
        "mms-below-floor",
        "mms-negative",
        "floor-negative",
        "mms-above-conv",
        "mult-negative",
        "mult-zero",
    ],
)
def test_record_json_rejects_counts_outside_the_sandwich(counts, message):
    # the floor lies inside the MMS and the MMS inside the hull; each line's
    # classification and h-ratio agree with its counts, so only the order fails
    line = MmsRecord("2x2w1:2,4;0,6", str(MOTZKIN), *counts).to_json()
    with pytest.raises(ValueError, match=message):
        MmsRecord.from_json(line)


@pytest.mark.parametrize("field", ["key", "mms_size", "classification", "h_ratio"])
def test_record_json_names_a_missing_field(field):
    payload = json.loads(record_for(MOTZKIN).to_json())
    del payload[field]
    with pytest.raises(ValueError, match=f"^missing field {field}$"):
        MmsRecord.from_json(json.dumps(payload))


def test_shard_line_format(tmp_path):
    # key, least member, greatest member, multiplicity
    (path,) = write_shards(tmp_path, [line_for(TWIN, 3, greatest=MOTZKIN)])
    with open(path) as fh:
        assert fh.read() == '["2x2w1:2,4;0,6",[[0,0],[2,0],[4,6]],[[0,0],[2,4],[4,2]],3]\n'
    assert read_shard(path) == [line_for(TWIN, 3, greatest=MOTZKIN)]


def test_shard_combines_same_key(tmp_path):
    # a shard holds one line per key, so the combine happens in the merge
    paths = write_shards(tmp_path, [line_for(MOTZKIN, 2)], [line_for(TWIN, 3)])
    (rec,) = merge(paths, str(tmp_path / "m.jsonl"), serial_counts)
    assert rec.simplex_multiplicity == 5
    # the tuple-minimal representative survives
    assert rec.representative == "0,0;2,0;4,6"
    assert rec.mms_size == 6 and rec.classification is Classification.M


def test_shard_combines_a_keys_lines_as_the_merge_does(tmp_path):
    lines = [line_for(MOTZKIN, 2), line_for(HURWITZ), line_for(TWIN, 3, greatest=MOTZKIN)]
    one = str(tmp_path / "one.shard")
    Shard(lines).write(one)
    assert read_shard(one) == [_combine([lines[0], lines[2]]), lines[1]]
    # the same lines one per shard: the merge combines them to the same store
    apart = write_shards(tmp_path, *([line] for line in lines))
    merge([one], str(tmp_path / "one.jsonl"), serial_counts)
    merge(apart, str(tmp_path / "apart.jsonl"), serial_counts)
    with open(tmp_path / "one.jsonl", "rb") as f1, open(tmp_path / "apart.jsonl", "rb") as f2:
        assert f1.read() == f2.read()


@pytest.mark.parametrize("order", [(0, 1), (1, 0)], ids=["wide-first", "tall-first"])
def test_merge_keeps_tuple_minimal_representative(tmp_path, order):
    # the text order would keep "0,0;0,10;2,0" ("1" < "2"); (0, 2) < (0, 10)
    wide = SimplicialSet.parse("0,0;0,10;2,0")
    tall = SimplicialSet.parse("0,0;0,2;10,0")
    assert canonical_key(tall) == canonical_key(wide)
    lines = [line_for(wide), line_for(tall)]
    paths = write_shards(tmp_path, *([lines[i]] for i in order))
    (rec,) = merge(paths, str(tmp_path / "m.jsonl"), serial_counts)
    assert rec.representative == "0,0;0,2;10,0"
    assert rec.simplex_multiplicity == 2


def test_combine_keeps_least_and_greatest_members():
    lines = [line_for(TWIN, 3, greatest=MOTZKIN), line_for(MOTZKIN, 2)]
    assert _combine(lines) == line_for(TWIN, 5, greatest=MOTZKIN)
    # the text order would keep "0,0;0,2;10,0" as the greatest; (0, 10) > (0, 2)
    wide = SimplicialSet.parse("0,0;0,10;2,0")
    tall = SimplicialSet.parse("0,0;0,2;10,0")
    assert _combine([line_for(tall), line_for(wide)]).greatest == wide.points


def recording_counts(fed):
    """A serial ``counts_of`` that appends each member it is fed to ``fed``."""
    return partial(map, lambda member: fed.append(member) or _invariants_for(member))


def test_merge_audits_each_class_from_its_greatest_member(tmp_path):
    # phase 2 computes the least member, TWIN; the audit computes MOTZKIN
    computed = []
    paths = write_shards(tmp_path, [line_for(MOTZKIN, 2)], [line_for(TWIN, 3)])
    (rec,) = merge(paths, str(tmp_path / "m.jsonl"), recording_counts(computed))
    assert rec.representative == str(TWIN)
    assert computed == [TWIN.points, MOTZKIN.points]


def test_merge_feeds_least_members_in_key_order_and_audits_after_their_least(
    tmp_path, monkeypatch
):
    # classes in key order: Motzkin's (least TWIN), HURWITZ's, DIM4's; at
    # stride 2 the first and the third are audited
    monkeypatch.setattr(store, "AUDIT_STRIDE", 2)
    fed = []
    merge(golden_shard_paths(tmp_path), str(tmp_path / "m.jsonl"), recording_counts(fed))
    assert fed == [TWIN.points, MOTZKIN.points, HURWITZ.points, DIM4.points, DIM4.points]


def test_combine_requires_equal_keys(tmp_path):
    # distinct keys stay separate, in the shard and through the merge
    (path,) = write_shards(tmp_path, [line_for(MOTZKIN), line_for(HURWITZ)])
    assert read_shard(path) == [line_for(MOTZKIN), line_for(HURWITZ)]
    merged = merge([path], str(tmp_path / "m.jsonl"), serial_counts)
    assert list(merged) == [record_for(MOTZKIN), record_for(HURWITZ)]


def test_shard_writes_sorted_jsonl(tmp_path):
    path = golden_shard_paths(tmp_path)[0]
    keys = [line.key for line in read_shard(path)]
    assert keys == sorted(keys)
    assert keys == [
        "2x2w1:2,4;0,6",
        "2x2w1:4,0;0,4",
        "4x4w1:2,0,0,2;0,2,0,2;0,0,4,0;0,0,0,4",
    ]


def test_iter_shard_rejects_out_of_order(tmp_path):
    # a key must be greater than the one before it: neither lower nor equal
    path = str(tmp_path / "bad.jsonl")
    for first, second in [(HURWITZ, MOTZKIN), (MOTZKIN, MOTZKIN)]:
        with open(path, "w") as fh:
            fh.write(json.dumps(line_for(first)) + "\n" + json.dumps(line_for(second)) + "\n")
        with pytest.raises(StoreFormatError, match=f"^{path}:2: keys out of order$"):
            read_shard(path)


def test_iter_shard_rejects_garbage_line(tmp_path):
    path = str(tmp_path / "bad.jsonl")
    garbage_lines = [
        "not json",
        '{"key":"k","least":"0,0;2,0","greatest":"0,0;2,0","multiplicity":2}',
        '["k","0,0;2,0","0,0;2,0"]',
        '["k","0,0;2,0","0,0;2,0","2"]',
        '["k",["0,0","2,0"],"0,0;2,0",2]',
        '[5,[[0,0],[2,0]],[[0,0],[2,0]],2]',  # a key that is not a string
        '["k","0,0;2,0",[[0,0],[2,0]],2]',  # a member in simplex text
        '["k",[[0,0],[2,0]],[],2]',  # an empty member
        '["k",[[0,0],[2.0,0]],[[0,0],[2,0]],2]',  # a float coordinate
        '["k",[[0,0],[2,0]],[[0,0],[true,0]],2]',  # a true coordinate
        '["k",[[0,0],2],[[0,0],[2,0]],2]',  # a point that is not an array
    ]
    for garbage in garbage_lines:
        with open(path, "w") as fh:
            fh.write(garbage + "\n")
        with pytest.raises(StoreFormatError, match=f"^{path}:1: bad record"):
            read_shard(path)


def test_iter_shard_skips_blank_lines(tmp_path):
    path = str(tmp_path / "gaps.jsonl")
    with open(path, "w") as fh:
        fh.write("\n" + json.dumps(line_for(MOTZKIN)) + "\n\n")
    assert read_shard(path) == [line_for(MOTZKIN)]


def test_merge_combines_across_shards(tmp_path):
    paths = write_shards(
        tmp_path,
        [line_for(MOTZKIN, 2), line_for(HURWITZ, 1)],
        [line_for(TWIN, 3), line_for(DIM4, 1)],
    )
    store = merge(paths, str(tmp_path / "m.jsonl"), serial_counts)
    assert len(store) == 3
    rec = next(rec for rec in store if rec.key == "2x2w1:2,4;0,6")
    assert rec.simplex_multiplicity == 5
    assert rec.representative == "0,0;2,0;4,6"


def test_merge_output_independent_of_shard_order(tmp_path):
    pa, pb = write_shards(
        tmp_path,
        [line_for(MOTZKIN, 1), line_for(DIM4, 4)],
        [line_for(HURWITZ, 2), line_for(TWIN, 1)],
    )
    merge([pa, pb], str(tmp_path / "m1.jsonl"), serial_counts)
    merge([pb, pa], str(tmp_path / "m2.jsonl"), serial_counts)
    with open(tmp_path / "m1.jsonl", "rb") as f1, open(tmp_path / "m2.jsonl", "rb") as f2:
        assert f1.read() == f2.read()
    with open(tmp_path / "m1.jsonl.idx", "rb") as f1, open(tmp_path / "m2.jsonl.idx", "rb") as f2:
        assert f1.read() == f2.read()


# the greatest member a corrupt shard line claims for the Motzkin class: a
# simplex of another class, whose counts differ
STRANGER = SimplicialSet.parse("0,0;4,0;4,4")


def test_merge_audits_first_record(tmp_path):
    # the first merged class sits at audit stride 0: its greatest member,
    # from the second shard, is not in its class, and the audit catches it
    paths = write_shards(
        tmp_path,
        [line_for(MOTZKIN, 2), line_for(HURWITZ)],
        [line_for(TWIN, 1, greatest=STRANGER)],
    )
    with pytest.raises(
        StoreAuditError, match=f"^audit failed for key 2x2w1:2,4;0,6: member {STRANGER} "
    ):
        merge(paths, str(tmp_path / "m.jsonl"), serial_counts)
    assert not os.path.exists(tmp_path / "m.jsonl")


ODD = ((0, 0), (5, 2), (6, 6))  # a greatest member with an odd vertex


@pytest.mark.parametrize(
    "greatest, error, message",
    [
        (STRANGER.points, StoreAuditError, f"audit failed for key 2x2w1:2,4;0,6: member {STRANGER}"),
        (ODD, ValueError, "vertex 5,2 is not even"),
    ],
    ids=["stranger", "odd"],
)
@pytest.mark.parametrize("workers", [1, 2])
def test_merge_stops_at_a_bad_audit_member(tmp_path, greatest, error, message, workers):
    # the audit's member goes through counts_of, in a pool as run_pipeline
    # builds it too; the merge stops at the first class and leaves no store
    paths = write_shards(
        tmp_path,
        [line_for(MOTZKIN, 2), line_for(HURWITZ)],
        [line_for(TWIN)._replace(greatest=greatest)],
    )
    with nullcontext() if workers == 1 else multiprocessing.Pool(workers) as pool:
        counts_of = (
            serial_counts
            if pool is None
            else partial(pool.imap, _invariants_for, chunksize=CLASS_CHUNK)
        )
        with pytest.raises(error, match=f"^{message}"):
            merge(paths, str(tmp_path / "m.jsonl"), counts_of)
    assert not os.path.exists(tmp_path / "m.jsonl")
    assert not os.path.exists(tmp_path / "m.jsonl.idx")


def test_merge_audit_stride_skips_later_records(tmp_path):
    # the 2nd and 3rd classes are off-stride; a stranger there slips through
    (path,) = write_shards(
        tmp_path,
        [line_for(MOTZKIN), line_for(HURWITZ), line_for(DIM4, greatest=STRANGER)],
    )
    *_, rec = merge([path], str(tmp_path / "m.jsonl"), serial_counts)
    assert rec == record_for(DIM4)


def test_store_iteration_order(tmp_path):
    out = str(tmp_path / "m.jsonl")
    store = merge(golden_shard_paths(tmp_path), out, serial_counts)
    assert len(store) == 3
    records = list(store)
    keys = [rec.key for rec in records]
    assert keys == sorted(keys)
    assert keys[1] == "2x2w1:4,0;0,4" and records[1].classification is Classification.H
    # the sidecar lists the same keys, each at the offset of its line
    with open(out, "rb") as fh:
        starts = [0] + list(itertools.accumulate(len(line) for line in fh))[:-1]
    with open(out + ".idx") as fh:
        assert fh.read() == "".join(f"{k}\t{o}\n" for k, o in zip(keys, starts))


def test_store_open_rebuilds_missing_index(tmp_path):
    # without a sidecar, open parses every record and iteration is unchanged
    out = str(tmp_path / "m.jsonl")
    merge(golden_shard_paths(tmp_path), out, serial_counts)
    with_idx = Store.open(out)
    os.remove(out + ".idx")
    rebuilt = Store.open(out)
    assert len(rebuilt) == len(with_idx) == 3
    assert list(rebuilt) == list(with_idx)


@pytest.mark.parametrize(
    "edit",
    [
        lambda text: text[: text.rindex("\n", 0, -1) + 1],  # last line dropped
        lambda text: text + text.splitlines(keepends=True)[0],  # a line appended
        lambda text: text[:-1],  # final newline cut
        lambda text: text + "\n",  # blank line after the last record
    ],
    ids=["dropped", "appended", "unterminated", "trailing-blank"],
)
def test_store_open_refuses_index_that_does_not_end_with_its_file(tmp_path, edit):
    out = str(tmp_path / "m.jsonl")
    merge(golden_shard_paths(tmp_path), out, serial_counts)
    with open(out) as fh:
        text = fh.read()
    with open(out, "w") as fh:
        fh.write(edit(text))
    with pytest.raises(StoreFormatError, match=f"{out}: does not end where its index"):
        Store.open(out)


def test_store_open_skips_blank_index_lines_and_refuses_one_without_a_tab(tmp_path):
    # .idx lines are read like store lines: a whitespace-only line is blank
    out = str(tmp_path / "m.jsonl")
    merge(golden_shard_paths(tmp_path), out, serial_counts)
    with open(out + ".idx") as fh:
        lines = fh.readlines()
    with open(out + ".idx", "w") as fh:
        fh.writelines([lines[0], " \t \n", lines[1], "\n", *lines[2:]])
    assert len(Store.open(out)) == 3
    with open(out + ".idx", "w") as fh:
        fh.writelines([lines[0], "no-tab-0\n", *lines[1:]])
    with pytest.raises(StoreFormatError, match=f"{out}.idx:2: bad index line: "):
        Store.open(out)


def test_store_open_refuses_empty_index_of_nonempty_file(tmp_path):
    out = str(tmp_path / "m.jsonl")
    merge(golden_shard_paths(tmp_path), out, serial_counts)
    open(out + ".idx", "w").close()
    with pytest.raises(StoreFormatError, match="does not end where its index"):
        Store.open(out)
    open(out, "w").close()
    assert len(Store.open(out)) == 0


def test_atomic_open_leaves_the_old_file_when_the_write_fails(tmp_path):
    path = tmp_path / "stats.json"
    path.write_text("old\n")
    with pytest.raises(RuntimeError):
        with atomic_open(str(path)) as fh:
            fh.write("half")
            raise RuntimeError("crash mid-write")
    assert path.read_text() == "old\n"
    assert os.listdir(tmp_path) == ["stats.json"]
    with atomic_open(str(path)) as fh:
        fh.write("new\n")
    assert path.read_text() == "new\n"
    assert os.listdir(tmp_path) == ["stats.json"]


def test_atomic_open_writes_a_device_in_place():
    with atomic_open(os.devnull) as fh:
        fh.write("discarded\n")
    assert os.path.exists(os.devnull) and not os.path.isfile(os.devnull)


def test_store_iteration_rejects_inconsistent_record(tmp_path):
    out = str(tmp_path / "m.jsonl")
    merge(golden_shard_paths(tmp_path), out, serial_counts)
    with open(out) as fh:
        text = fh.read()
    # the Motzkin class: counts 6, 10, 6 say M; the same-length edit says H
    with open(out, "w") as fh:
        fh.write(text.replace('"classification":"M"', '"classification":"H"', 1))
    store = Store.open(out)  # the sidecar still ends where the file does
    with pytest.raises(StoreFormatError, match=f"{out}:1: bad record: classification"):
        list(store)


@pytest.fixture()
def golden_store(tmp_path):
    return merge(golden_shard_paths(tmp_path), str(tmp_path / "m.jsonl"), serial_counts)


def test_stats_simplicial_scope(golden_store):
    # weights 3, 2, 1 with h-ratios 0, 1, 5/7
    s, _ = stats(golden_store)
    assert s.scope is StatsScope.SIMPLICIAL_SETS
    assert s.total_count == 6
    assert (s.h_count, s.m_count, s.intermediate_count) == (2, 3, 1)
    assert s.mean_h_ratio == Fraction(19, 42)
    assert s.sd_population == pytest.approx(0.462297329, abs=1e-9)
    assert s.sd_sample == pytest.approx(0.506421351, abs=1e-9)
    assert s.decrease_factor is None
    hist = [0] * 20
    hist[0], hist[14], hist[19] = 3, 1, 2
    assert list(s.histogram) == hist


def test_stats_lattice_scope(golden_store):
    _, s = stats(golden_store)
    assert s.scope is StatsScope.LATTICES
    assert s.total_count == 3
    assert (s.h_count, s.m_count, s.intermediate_count) == (1, 1, 1)
    assert s.mean_h_ratio == Fraction(4, 7)
    assert s.sd_population == pytest.approx(0.420560041, abs=1e-9)
    assert s.decrease_factor == Fraction(2)


def reference_stats(store, scope):
    """One scope's summary by a plain loop that adds one Fraction per record."""
    weight_total = simplex_total = lattice_total = 0
    counts = {label: 0 for label in Classification}
    sum_h = sum_h2 = Fraction(0)
    hist = [0] * HISTOGRAM_BINS
    for rec in store:
        w = rec.simplex_multiplicity if scope is StatsScope.SIMPLICIAL_SETS else 1
        simplex_total += rec.simplex_multiplicity
        lattice_total += 1
        weight_total += w
        value = rec.h_ratio.value
        sum_h += w * value
        sum_h2 += w * value * value
        counts[rec.classification] += w
        hist[min(HISTOGRAM_BINS - 1, int(value * HISTOGRAM_BINS))] += w
    mean = sum_h / weight_total
    var_pop = max(sum_h2 / weight_total - mean * mean, Fraction(0))
    var_samp = None
    if weight_total > 1:
        var_samp = max((sum_h2 - weight_total * mean * mean) / (weight_total - 1), Fraction(0))
    return StatsSummary(
        scope=scope,
        total_count=weight_total,
        h_count=counts[Classification.H],
        m_count=counts[Classification.M],
        intermediate_count=counts[Classification.INTERMEDIATE],
        mean_h_ratio=mean,
        sd_population=math.sqrt(float(var_pop)),
        sd_sample=None if var_samp is None else math.sqrt(float(var_samp)),
        histogram=tuple(hist),
        decrease_factor=(
            Fraction(simplex_total, lattice_total) if scope is StatsScope.LATTICES else None
        ),
    )


@pytest.fixture(scope="module")
def sampled_store(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("sample4x16"))
    run_pipeline(4, 16, "sample", 1, out, seed=7, count=400)
    return Store.open(os.path.join(out, "merged.jsonl"))


@pytest.mark.parametrize("which", ["golden", "sampled"])
def test_one_pass_stats_equals_per_scope_reference(request, which):
    store = request.getfixturevalue(f"{which}_store")
    if which == "sampled":
        # many distinct h-ratio denominators, so the per-denominator sums matter
        assert len({rec.h_ratio.value.denominator for rec in store}) > 20
    assert stats(store) == (
        reference_stats(store, StatsScope.SIMPLICIAL_SETS),
        reference_stats(store, StatsScope.LATTICES),
    )


def test_stats_rejects_empty_store(tmp_path):
    out = str(tmp_path / "empty.jsonl")
    open(out, "w").close()
    store = Store.open(out)
    assert len(store) == 0
    with pytest.raises(ValueError):
        stats(store)


def test_stats_csv_layout(golden_store):
    assert stats_csv(stats(golden_store), 4, 6) == (
        "scope,n,2d,total,h_count,m_count,intermediate_count,mean,sd,decrease_factor\n"
        "simplicial_sets,4,6,6,2,3,1,0.452381,0.462297,\n"
        "lattices,4,6,3,1,1,1,0.571429,0.420560,2.000000\n"
    )


def test_export_jsonl_round_trips_store_bytes(golden_store, tmp_path):
    out = str(tmp_path / "dump.jsonl")
    export(golden_store, "jsonl", out)
    with open(golden_store.path, "rb") as a, open(out, "rb") as b:
        assert a.read() == b.read()


def test_export_csv_matches_stats(golden_store, tmp_path):
    out = str(tmp_path / "dump.csv")
    export(golden_store, "csv", out)
    with open(out) as fh:
        text = fh.read()
    assert text.startswith("scope,n,2d,")
    assert "lattices,4,10,3,1,1,1," in text  # n and 2d recovered from reps
    export(golden_store, "csv", out, shape=(4, 12))
    with open(out) as fh:
        assert fh.read() == stats_csv(stats(golden_store), 4, 12)


def test_export_rejects_unknown_format(golden_store, tmp_path):
    with pytest.raises(ValueError):
        export(golden_store, "xml", str(tmp_path / "x"))
