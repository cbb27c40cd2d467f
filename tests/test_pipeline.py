"""Pipeline orchestration: artifacts, determinism, replay, dichotomy check."""

import heapq
import json
import os
import resource
import subprocess
import sys
from fractions import Fraction

import pytest

import mms
from mms import __version__, enumeration, pipeline, store
from mms.canon import canonical_key, generator_matrix, hnf
from mms.engine import compute_mms
from mms.enumeration import enumerate_simplices, orbit_codes
from mms.geometry import SimplicialSet
from mms.pipeline import (
    SAMPLE_BLOCK,
    RunManifest,
    check_conjecture,
    replay,
    run_pipeline,
)
from mms.store import AUDIT_STRIDE, ShardLine, _by_key, _combined, _read_lines
from strategies import row_major


def read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


@pytest.fixture(scope="module")
def full_run(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("full26"))
    sim, lat = run_pipeline(2, 6, "full", 1, out)
    return out, sim, lat


def test_full_run_writes_all_artifacts(full_run):
    out, _, _ = full_run
    for name in ("manifest.json", "merged.jsonl", "merged.jsonl.idx", "stats.csv", "stats.json"):
        assert os.path.exists(os.path.join(out, name))
    shards = sorted(os.listdir(os.path.join(out, "shards")))
    # 9 candidate vertices at 2d=6, so 9 - 2 + 1 partitions, and a task for
    # each of the 5 whose first row is ascending: (0,2) (0,4) (0,6) (2,2) (2,4)
    assert shards == [f"shard-{p:05d}.jsonl" for p in (0, 1, 2, 4, 5)]


def test_full_run_stats(full_run):
    _, sim, lat = full_run
    assert sim.total_count == 30
    assert (sim.h_count, sim.m_count, sim.intermediate_count) == (29, 1, 0)
    assert sim.mean_h_ratio == Fraction(29, 30)
    assert lat.total_count == 10
    assert (lat.h_count, lat.m_count, lat.intermediate_count) == (9, 1, 0)
    assert lat.mean_h_ratio == Fraction(9, 10)
    assert lat.decrease_factor == Fraction(3)


def test_full_run_first_merged_record(full_run):
    out, _, _ = full_run
    with open(os.path.join(out, "merged.jsonl")) as fh:
        first = fh.readline().strip()
    assert first == (
        '{"key":"2x2w1:2,0;0,2","representative":"0,0;0,2;2,0",'
        '"mms_size":6,"conv_count":6,"floor_count":6,'
        '"classification":"H","h_ratio":"0/0","simplex_multiplicity":7}'
    )


def test_full_run_manifest(full_run):
    out, _, _ = full_run
    manifest = RunManifest.read(os.path.join(out, "manifest.json"))
    assert manifest.command == "pipeline"
    assert manifest.parameters == {"n": 2, "two_d": 6, "mode": "full"}
    assert manifest.seed is None
    assert manifest.status == "complete"
    assert manifest.finished_at is not None
    assert manifest.tool_version == __version__
    assert manifest.shard_paths == sorted(manifest.shard_paths)
    assert len(manifest.shard_paths) == 5


def test_full_run_stats_files(full_run):
    out, sim, _ = full_run
    with open(os.path.join(out, "stats.csv")) as fh:
        csv_text = fh.read()
    assert csv_text.startswith("scope,n,2d,")
    assert "simplicial_sets,2,6,30,29,1,0,0.966667," in csv_text
    with open(os.path.join(out, "stats.json")) as fh:
        payload = json.load(fh)
    assert payload["simplicial_sets"]["total_count"] == 30
    assert payload["simplicial_sets"]["mean"] == "0.966666667"
    assert payload["simplicial_sets"]["mean_exact"] == "29/30"
    assert payload["lattices"]["decrease_factor"] == "3.000000"
    assert float(payload["simplicial_sets"]["mean"]) == pytest.approx(float(sim.mean_h_ratio))


def test_merged_representatives_are_tuple_minima(tmp_path):
    # at 2x16 many classes span several partitions, so the merge chooses
    # between shard minima and must keep the least vertex tuple too
    run_pipeline(2, 16, "full", 1, str(tmp_path))
    recount = {}  # key -> (least, greatest, count) over every simplex
    for delta in enumerate_simplices(2, 16):
        key = canonical_key(delta).key_text
        least, greatest, count = recount.get(key, (delta.points, delta.points, 0))
        recount[key] = (min(least, delta.points), max(greatest, delta.points), count + 1)
    with open(tmp_path / "merged.jsonl") as fh:
        stored = {rec["key"]: rec["representative"] for rec in map(json.loads, fh)}
    assert stored == {key: str(SimplicialSet(least)) for key, (least, _, _) in recount.items()}
    # the tasks walk only sets least in their orbit, so a shard holds other
    # lines than a plain walk of its partition; combined across shards they
    # must give each key the plain walk's least, greatest and count
    shards = sorted(str(path) for path in (tmp_path / "shards").iterdir())
    lines = heapq.merge(*(_read_lines(path, ShardLine.from_json) for path in shards), key=_by_key)
    assert {line.key: line[1:] for line in _combined(lines)} == recount


def test_worker_count_does_not_change_outputs(full_run, tmp_path):
    base, _, _ = full_run
    out = str(tmp_path / "w2")
    run_pipeline(2, 6, "full", 2, out)
    for name in ("merged.jsonl", "merged.jsonl.idx", "stats.csv", "stats.json"):
        assert read_bytes(os.path.join(out, name)) == read_bytes(os.path.join(base, name))


def test_uneven_census_tasks_give_the_same_bytes_at_one_and_two_workers(tmp_path):
    # 6x4 has 3 tasks, one of them holding most of the walked sets
    runs = []
    for workers in (1, 2):
        out = tmp_path / f"w{workers}"
        sim, lat = run_pipeline(6, 4, "full", workers, str(out))
        runs.append(out)
    assert (sim.total_count, lat.total_count) == (72450, 14)
    assert len(os.listdir(runs[0] / "shards")) == 3
    for name in ("merged.jsonl", "merged.jsonl.idx", "stats.csv", "stats.json"):
        assert read_bytes(runs[1] / name) == read_bytes(runs[0] / name)


def test_the_plain_walk_fallback_gives_the_orderly_runs_bytes(monkeypatch, tmp_path):
    # past ORBIT_WORDS a census task walks every simplex of its partition,
    # and every partition gets a task: 43 at 2x16 against 24 ascending ones
    run_pipeline(2, 16, "full", 1, str(tmp_path / "orderly"))
    orbit_codes.cache_clear()
    monkeypatch.setattr(enumeration, "ORBIT_WORDS", 0)
    try:
        run_pipeline(2, 16, "full", 1, str(tmp_path / "plain"))
    finally:
        orbit_codes.cache_clear()
    assert len(os.listdir(tmp_path / "orderly" / "shards")) == 24
    assert len(os.listdir(tmp_path / "plain" / "shards")) == 43
    for name in ("merged.jsonl", "merged.jsonl.idx", "stats.csv", "stats.json"):
        assert read_bytes(tmp_path / "plain" / name) == read_bytes(tmp_path / "orderly" / name)


def test_the_tail_writes_one_combined_line_per_class(monkeypatch, tmp_path):
    # a and c share an HNF; b, a with its coordinates swapped, has another
    a, b, c = ((0, 0), (0, 6), (2, 0)), ((0, 0), (0, 2), (6, 0)), ((0, 0), (0, 6), (2, 6))
    hnfs = [row_major(hnf(generator_matrix(SimplicialSet(m)))) for m in (a, b, c)]
    assert hnfs[0] == hnfs[2] != hnfs[1]
    calls = []
    real = pipeline._key_of_hnf
    monkeypatch.setattr(pipeline, "_key_of_hnf", lambda hs: calls.append(hs) or real(hs))
    path = str(tmp_path / "shard.jsonl")
    items = [(a, a, 1), (b, b, 2), (c, c, 4)]
    assert pipeline._aggregate_to_shard(iter(items), path) == path
    assert calls == [hnfs]
    key = canonical_key(SimplicialSet(a)).key_text
    assert list(_read_lines(path, ShardLine.from_json)) == [ShardLine(key, b, c, 7)]


@pytest.mark.parametrize("mode, seed, count, tasks", [("full", None, None, 6), ("sample", 3, 25, 3)])
def test_each_task_makes_one_member_hnfs_call_and_one_key_call(
    monkeypatch, tmp_path, mode, seed, count, tasks
):
    calls = []

    def spy(name):
        real = getattr(pipeline, name)
        monkeypatch.setattr(pipeline, name, lambda xs: calls.append(name) or real(xs))

    spy("member_hnfs")
    spy("_key_of_hnf")
    monkeypatch.setattr(pipeline, "SAMPLE_BLOCK", 10)
    run_pipeline(3, 6, mode, 1, str(tmp_path), seed, count)
    assert calls == ["member_hnfs", "_key_of_hnf"] * tasks


@pytest.mark.parametrize("workers", [1, 2])
def test_each_class_is_computed_once(monkeypatch, tmp_path, workers):
    # every compute_mms call, in this process or a pool child, appends a
    # line; at 2x16 many classes span several partitions
    log = tmp_path / "calls.log"

    def logged(delta):
        with open(log, "a") as fh:
            fh.write(f"{delta}\n")
        return compute_mms(delta)

    monkeypatch.setattr(pipeline, "compute_mms", logged)
    _, lat = run_pipeline(2, 16, "full", workers, str(tmp_path / "run"))
    audits = -(-lat.total_count // AUDIT_STRIDE)
    assert lat.total_count > AUDIT_STRIDE
    assert len(log.read_text().splitlines()) == lat.total_count + audits


@pytest.mark.parametrize("workers", [1, 2])
def test_merge_prints_a_progress_line_per_classes(monkeypatch, capsys, tmp_path, workers):
    monkeypatch.setattr(store, "PROGRESS_CLASSES", 5)
    _, lat = run_pipeline(2, 8, "full", workers, str(tmp_path / "run"))
    err = capsys.readouterr().err.splitlines()
    expected = [f"[mms] classes: {done}" for done in range(5, lat.total_count + 1, 5)]
    assert lat.total_count % 5 and len(expected) >= 2
    # the lines follow the merge's own line, one per 5 classes computed
    assert err[-len(expected) :] == expected
    assert err[-len(expected) - 1].startswith("[mms] merging ")


def test_replay_reproduces_bytes(full_run, tmp_path):
    base, _, _ = full_run
    out = str(tmp_path / "replayed")
    replay(os.path.join(base, "manifest.json"), out)
    for name in ("merged.jsonl", "merged.jsonl.idx", "stats.csv", "stats.json"):
        assert read_bytes(os.path.join(out, name)) == read_bytes(os.path.join(base, name))


def test_replay_rejects_foreign_manifest(full_run, tmp_path):
    base, _, _ = full_run
    manifest = RunManifest.read(os.path.join(base, "manifest.json"))
    manifest.command = "export"
    bad = str(tmp_path / "bad-manifest.json")
    manifest.write(bad)
    with pytest.raises(ValueError, match="not a pipeline"):
        replay(bad, str(tmp_path / "out"))


def test_run_pipeline_validates_arguments(tmp_path):
    with pytest.raises(ValueError, match="mode"):
        run_pipeline(2, 6, "stream", 1, str(tmp_path / "x"))
    with pytest.raises(ValueError, match="seed and count"):
        run_pipeline(2, 6, "sample", 1, str(tmp_path / "y"))
    with pytest.raises(ValueError, match="workers"):
        run_pipeline(2, 6, "full", 0, str(tmp_path / "z"))


@pytest.fixture(scope="module")
def sample_run(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("sample26"))
    sim, lat = run_pipeline(2, 6, "sample", 1, out, seed=11, count=300)
    return out, sim, lat


def test_sample_run_counts(sample_run):
    _, sim, lat = sample_run
    assert sim.total_count == 300
    assert lat.total_count == 10
    assert sim.mean_h_ratio == Fraction(29, 30)


def test_sample_run_manifest_parameters(sample_run):
    out, _, _ = sample_run
    manifest = RunManifest.read(os.path.join(out, "manifest.json"))
    assert manifest.parameters["mode"] == "sample"
    assert manifest.parameters["count"] == 300
    assert manifest.seed == 11


def test_sample_run_is_repeatable(sample_run, tmp_path):
    base, _, _ = sample_run
    out = str(tmp_path / "again")
    run_pipeline(2, 6, "sample", 1, out, seed=11, count=300)
    assert read_bytes(os.path.join(out, "merged.jsonl")) == read_bytes(
        os.path.join(base, "merged.jsonl")
    )


def test_sample_run_splits_into_blocks(tmp_path):
    out = str(tmp_path / "blocks")
    sim, _ = run_pipeline(2, 6, "sample", 1, out, seed=3, count=2100)
    shards = sorted(os.listdir(os.path.join(out, "shards")))
    assert shards == ["shard-00000.jsonl", "shard-00001.jsonl"]
    assert sim.total_count == 2100


def test_pooled_sample_run_matches_serial(tmp_path):
    count = 2 * SAMPLE_BLOCK + 100  # three blocks
    for workers in (1, 2):
        run_pipeline(3, 8, "sample", workers, str(tmp_path / f"w{workers}"), seed=5, count=count)
    assert len(os.listdir(tmp_path / "w2" / "shards")) == 3
    for name in ("merged.jsonl", "merged.jsonl.idx", "stats.csv", "stats.json"):
        assert read_bytes(tmp_path / "w2" / name) == read_bytes(tmp_path / "w1" / name)


ARTIFACTS = ("merged.jsonl", "merged.jsonl.idx", "stats.csv", "stats.json")


def test_the_merge_opens_at_most_merge_fanin_files(tmp_path):
    # the deg-28 survey writes 63 shards; the child alone gets a soft limit
    # of 48 open files, which a merge that opens every shard at once breaks
    def limit_open_files():
        hard = resource.getrlimit(resource.RLIMIT_NOFILE)[1]
        resource.setrlimit(resource.RLIMIT_NOFILE, (48, hard))

    code = (
        "import sys\n"
        "from mms import pipeline, store\n"
        "store.MERGE_FANIN = 8\n"
        "pipeline.check_conjecture(28, 1, sys.argv[1])\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(mms.__file__)))
    child = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path / "limited")],
        env=env,
        preexec_fn=limit_open_files,
        capture_output=True,
        text=True,
    )
    assert child.returncode == 0, child.stderr
    check_conjecture(28, 1, str(tmp_path / "free"))
    assert len(os.listdir(tmp_path / "free" / "shards")) == 63
    for name in ARTIFACTS:
        assert read_bytes(tmp_path / "limited" / name) == read_bytes(tmp_path / "free" / name)


def test_merging_in_rounds_of_two_gives_the_same_bytes(monkeypatch, tmp_path):
    run_pipeline(2, 16, "full", 2, str(tmp_path / "once"))
    monkeypatch.setattr(store, "MERGE_FANIN", 2)
    run_pipeline(2, 16, "full", 2, str(tmp_path / "rounds"))
    # 24 shards take four rounds of run files, and the run files are gone
    assert sorted(os.listdir(tmp_path / "rounds")) == sorted(os.listdir(tmp_path / "once"))
    for name in ARTIFACTS:
        assert read_bytes(tmp_path / "rounds" / name) == read_bytes(tmp_path / "once" / name)


def test_conjecture_check_small_degree():
    report = check_conjecture(6)
    assert report.passed is True
    assert report.counterexamples == ()
    payload = report.to_json_dict()
    assert payload == {
        "two_d": 6,
        "total_simplices": 30,
        "total_lattices": 10,
        "h_lattice_classes": 9,
        "m_lattice_classes": 1,
        "intermediate_lattice_classes": 0,
        "passed": True,
        "counterexamples": [],
    }


def test_conjecture_check_reports_each_intermediate_class(monkeypatch, tmp_path):
    # no planar class is INTERMEDIATE; the 3x6 census has 10 such classes
    real = pipeline.run_pipeline
    monkeypatch.setattr(
        pipeline, "run_pipeline", lambda n, two_d, *args: real(3, 6, *args)
    )
    report = check_conjecture(6, out_dir=str(tmp_path))
    assert not report.passed
    assert report.lattices.intermediate_count == len(report.counterexamples) == 10
    for found in report.counterexamples:
        delta = SimplicialSet.parse(found["delta"])
        result = compute_mms(delta)
        assert found["mms_points"] == [list(p) for p in result.mms_points]
        assert found["floor_count"] < found["mms_size"] < found["conv_count"]


def test_conjecture_check_reads_the_store_only_for_intermediate_classes(monkeypatch):
    monkeypatch.setattr(pipeline, "Store", None)  # any store read would fail
    assert check_conjecture(6).passed
