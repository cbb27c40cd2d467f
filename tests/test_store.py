"""Store layer: shards, deterministic merge, the streaming reader, stats, export."""

import dataclasses
import itertools
import json
import math
import os
from fractions import Fraction

import pytest

from mms.canon import canonical_key
from mms.engine import Classification, compute_mms
from mms.geometry import SimplicialSet
from mms.pipeline import run_pipeline
from mms.store import (
    HISTOGRAM_BINS,
    MmsRecord,
    Shard,
    StatsScope,
    StatsSummary,
    Store,
    StoreAuditError,
    StoreFormatError,
    _read_records,
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


def write_shards(tmp_path, *shards):
    """Write each list of records as one shard; the shard paths."""
    paths = []
    for i, records in enumerate(shards):
        sh = Shard()
        for rec in records:
            sh.put(rec)
        paths.append(str(tmp_path / f"shard-{i}.jsonl"))
        sh.write(paths[-1])
    return paths


def golden_shard_paths(tmp_path):
    # MOTZKIN and TWIN share a key, so they go to different shards
    return write_shards(
        tmp_path,
        [record_for(MOTZKIN, 2), record_for(HURWITZ, 2), record_for(DIM4, 1)],
        [record_for(TWIN, 1)],
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


def test_shard_combines_same_key(tmp_path):
    # a shard holds one record per key, so the combine happens in the merge
    paths = write_shards(tmp_path, [record_for(MOTZKIN, 2)], [record_for(TWIN, 3)])
    (rec,) = merge(paths, str(tmp_path / "m.jsonl"))
    assert rec.simplex_multiplicity == 5
    # the tuple-minimal representative survives
    assert rec.representative == "0,0;2,0;4,6"
    assert rec.mms_size == 6 and rec.classification is Classification.M


def test_shard_refuses_a_second_record_for_a_key():
    sh = Shard()
    sh.put(record_for(MOTZKIN, 2))
    with pytest.raises(ValueError, match="already holds a record for key 2x2w1:2,4;0,6"):
        sh.put(record_for(TWIN, 3))


@pytest.mark.parametrize("order", [(0, 1), (1, 0)], ids=["wide-first", "tall-first"])
def test_merge_keeps_tuple_minimal_representative(tmp_path, order):
    # the text order would keep "0,0;0,10;2,0" ("1" < "2"); (0, 2) < (0, 10)
    wide = SimplicialSet.parse("0,0;0,10;2,0")
    tall = SimplicialSet.parse("0,0;0,2;10,0")
    assert canonical_key(tall) == canonical_key(wide)
    records = [record_for(wide), record_for(tall)]
    paths = write_shards(tmp_path, *([records[i]] for i in order))
    (rec,) = merge(paths, str(tmp_path / "m.jsonl"))
    assert rec.representative == "0,0;0,2;10,0"
    assert rec.simplex_multiplicity == 2


@pytest.mark.parametrize("field", ["mms_size", "conv_count", "floor_count"])
def test_merge_rejects_conflicting_invariants(tmp_path, field):
    twin = record_for(TWIN)
    bad = dataclasses.replace(twin, **{field: getattr(twin, field) + 1})
    paths = write_shards(tmp_path, [record_for(MOTZKIN)], [record_for(HURWITZ)], [bad])
    with pytest.raises(StoreAuditError, match=f"key 2x2w1:2,4;0,6 disagree on {field}"):
        merge(paths, str(tmp_path / "m.jsonl"))


def test_combine_requires_equal_keys(tmp_path):
    # distinct keys stay separate, in the shard and through the merge
    (path,) = write_shards(tmp_path, [record_for(MOTZKIN), record_for(HURWITZ)])
    assert list(_read_records(path)) == [record_for(MOTZKIN), record_for(HURWITZ)]
    assert list(merge([path], str(tmp_path / "m.jsonl"))) == list(_read_records(path))


def test_shard_writes_sorted_jsonl(tmp_path):
    path = golden_shard_paths(tmp_path)[0]
    keys = [rec.key for rec in _read_records(path)]
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
            fh.write(record_for(first).to_json() + "\n" + record_for(second).to_json() + "\n")
        with pytest.raises(StoreFormatError, match=f"^{path}:2: keys out of order$"):
            list(_read_records(path))


def test_iter_shard_rejects_garbage_line(tmp_path):
    path = str(tmp_path / "bad.jsonl")
    with open(path, "w") as fh:
        fh.write("not json\n")
    with pytest.raises(StoreFormatError, match="bad record"):
        list(_read_records(path))


def test_iter_shard_skips_blank_lines(tmp_path):
    path = str(tmp_path / "gaps.jsonl")
    with open(path, "w") as fh:
        fh.write("\n" + record_for(MOTZKIN).to_json() + "\n\n")
    assert list(_read_records(path)) == [record_for(MOTZKIN)]


def test_merge_combines_across_shards(tmp_path):
    a = Shard()
    a.put(record_for(MOTZKIN, 2))
    a.put(record_for(HURWITZ, 1))
    b = Shard()
    b.put(record_for(TWIN, 3))
    b.put(record_for(DIM4, 1))
    pa, pb = str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl")
    a.write(pa)
    b.write(pb)
    store = merge([pa, pb], str(tmp_path / "m.jsonl"))
    assert len(store) == 3
    rec = next(rec for rec in store if rec.key == "2x2w1:2,4;0,6")
    assert rec.simplex_multiplicity == 5
    assert rec.representative == "0,0;2,0;4,6"


def test_merge_output_independent_of_shard_order(tmp_path):
    a = Shard()
    a.put(record_for(MOTZKIN, 1))
    a.put(record_for(DIM4, 4))
    b = Shard()
    b.put(record_for(HURWITZ, 2))
    b.put(record_for(TWIN, 1))
    pa, pb = str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl")
    a.write(pa)
    b.write(pb)
    merge([pa, pb], str(tmp_path / "m1.jsonl"))
    merge([pb, pa], str(tmp_path / "m2.jsonl"))
    with open(tmp_path / "m1.jsonl", "rb") as f1, open(tmp_path / "m2.jsonl", "rb") as f2:
        assert f1.read() == f2.read()
    with open(tmp_path / "m1.jsonl.idx", "rb") as f1, open(tmp_path / "m2.jsonl.idx", "rb") as f2:
        assert f1.read() == f2.read()


def test_merge_audits_first_record(tmp_path):
    # first merged record sits at audit stride 0, so tampering it is caught
    path = str(tmp_path / "t.jsonl")
    tampered = dataclasses.replace(record_for(MOTZKIN), mms_size=7)
    with open(path, "w") as fh:
        fh.write(tampered.to_json() + "\n")
        fh.write(record_for(HURWITZ).to_json() + "\n")
    with pytest.raises(StoreAuditError, match="audit failed"):
        merge([path], str(tmp_path / "m.jsonl"))


def test_merge_audit_stride_skips_later_records(tmp_path):
    # the 2nd and 3rd records are off-stride; a tampered tail slips through
    path = str(tmp_path / "t.jsonl")
    tampered = dataclasses.replace(record_for(DIM4), mms_size=19)
    with open(path, "w") as fh:
        fh.write(record_for(MOTZKIN).to_json() + "\n")
        fh.write(record_for(HURWITZ).to_json() + "\n")
        fh.write(tampered.to_json() + "\n")
    *_, rec = merge([path], str(tmp_path / "m.jsonl"))
    assert rec.key == tampered.key and rec.mms_size == 19


def test_store_iteration_order(tmp_path):
    out = str(tmp_path / "m.jsonl")
    store = merge(golden_shard_paths(tmp_path), out)
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
    merge(golden_shard_paths(tmp_path), out)
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
    merge(golden_shard_paths(tmp_path), out)
    with open(out) as fh:
        text = fh.read()
    with open(out, "w") as fh:
        fh.write(edit(text))
    with pytest.raises(StoreFormatError, match=f"{out}: does not end where its index"):
        Store.open(out)


def test_store_open_refuses_empty_index_of_nonempty_file(tmp_path):
    out = str(tmp_path / "m.jsonl")
    merge(golden_shard_paths(tmp_path), out)
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
    merge(golden_shard_paths(tmp_path), out)
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
    return merge(golden_shard_paths(tmp_path), str(tmp_path / "m.jsonl"))


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
