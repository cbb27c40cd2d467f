"""Command-line interface: argument handling, output shape, exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mms
from mms.cli import EXIT_COUNTEREXAMPLE, EXIT_INVALID, EXIT_IO, EXIT_OK, main
from mms.geometry import SCAN_ENTRIES, SimplicialSet
from mms.pipeline import check_conjecture
from strategies import _leibniz_det

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
# the directory holding the mms package under test, e.g. src/ in a checkout
PACKAGE_ROOT = Path(mms.__file__).resolve().parents[1]


def run_main(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_python(*args, **kwargs):
    """Run ``python *args`` in a child process that imports this same mms;
    keyword arguments go to ``subprocess.run``."""
    env = dict(os.environ)
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(PACKAGE_ROOT)] + ([inherited] if inherited else [])
    )
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, **kwargs
    )


def run_console_script(name, *argv):
    """Run the ``[project.scripts]`` entry ``name`` as its installed launcher
    would, through the current interpreter rather than a binary on PATH."""
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")
    with open(PYPROJECT, "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"][name]
    module, _, func = target.partition(":")
    code = f"import sys; from {module} import {func}; sys.exit({func}())"
    return run_python("-c", code, *argv)


def test_enumerate_stdout(capsys):
    code, out, _ = run_main(capsys, "enumerate", "--dim", "2", "--deg", "4")
    assert code == EXIT_OK
    lines = out.strip().split("\n")
    assert len(lines) == 8
    assert lines[0] == '{"delta":"0,0;0,2;2,0"}'
    for line in lines:
        json.loads(line)


def test_enumerate_to_file(capsys, tmp_path):
    path = str(tmp_path / "enum.jsonl")
    code, out, _ = run_main(
        capsys, "enumerate", "--dim", "2", "--deg", "4", "--out", path
    )
    assert code == EXIT_OK
    assert out == ""
    with open(path) as fh:
        assert len(fh.readlines()) == 8


def test_enumerate_partition(capsys):
    code, out, _ = run_main(
        capsys, "enumerate", "--dim", "2", "--deg", "4", "--partition", "0"
    )
    assert code == EXIT_OK
    for line in out.strip().split("\n"):
        assert json.loads(line)["delta"].startswith("0,0;0,2;")


def test_enumerate_rejects_odd_degree(capsys):
    code, _, err = run_main(capsys, "enumerate", "--dim", "2", "--deg", "5")
    assert code == EXIT_INVALID
    assert "mms: error:" in err


def test_sample_stdout_matches_frozen_stream(capsys):
    code, out, _ = run_main(
        capsys, "sample", "--dim", "2", "--deg", "6", "--seed", "7", "--count", "3"
    )
    assert code == EXIT_OK
    assert [json.loads(s)["delta"] for s in out.strip().split("\n")] == [
        "0,0;0,6;4,2",
        "0,0;2,2;4,0",
        "0,0;2,0;2,4",
    ]


def test_mms_single_delta(capsys):
    code, out, _ = run_main(capsys, "mms", "--delta", "0,0;2,4;4,2")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["classification"] == "M"
    assert payload["h_ratio"] == "0/4"
    assert len(payload["mms_points"]) == 6


def test_mms_method_choice(capsys):
    base = run_main(capsys, "mms", "--delta", "0,0;2,4;4,2", "--method", "removal")
    alt = run_main(capsys, "mms", "--delta", "0,0;2,4;4,2", "--method", "fixed-point")
    assert base[0] == alt[0] == EXIT_OK
    assert base[1] == alt[1]


def test_mms_from_file(capsys, tmp_path):
    path = str(tmp_path / "in.jsonl")
    with open(path, "w") as fh:
        fh.write('{"delta":"0,0;2,4;4,2"}\n{"delta":"0,0;0,4;4,0"}\n')
    code, out, _ = run_main(capsys, "mms", "--in", path)
    assert code == EXIT_OK
    lines = out.strip().split("\n")
    assert len(lines) == 2
    assert json.loads(lines[1])["classification"] == "H"


def test_mms_bad_input_line(capsys, tmp_path):
    path = str(tmp_path / "in.jsonl")
    with open(path, "w") as fh:
        fh.write("nope\n")
    code, _, err = run_main(capsys, "mms", "--in", path)
    assert code == EXIT_INVALID
    assert ":1: bad input line" in err


def test_mms_out_is_written_all_or_nothing(capsys, tmp_path):
    # the first line is valid and the second is not: the run must leave no
    # one-record --out file behind, and must not replace an earlier one
    path = tmp_path / "in.jsonl"
    path.write_text('{"delta":"0,0;2,4;4,2"}\nnope\n')
    out = tmp_path / "out.jsonl"
    code, _, err = run_main(capsys, "mms", "--in", str(path), "--out", str(out))
    assert code == EXIT_INVALID
    assert ":2: bad input line" in err
    assert not out.exists()
    out.write_text("earlier\n")
    code, _, _ = run_main(capsys, "mms", "--in", str(path), "--out", str(out))
    assert code == EXIT_INVALID
    assert out.read_text() == "earlier\n"
    assert sorted(os.listdir(tmp_path)) == ["in.jsonl", "out.jsonl"]


def _one_simplex_then_fail(*args):
    yield SimplicialSet.parse("0,0;2,4;4,2")
    raise ValueError("stream failed")


@pytest.mark.parametrize(
    "argv, stream",
    [
        (["enumerate", "--dim", "2", "--deg", "4"], "enumerate_simplices"),
        (["sample", "--dim", "2", "--deg", "4", "--seed", "1", "--count", "3"], "sample_stream"),
    ],
)
def test_failed_stream_leaves_no_out_file(capsys, monkeypatch, tmp_path, argv, stream):
    monkeypatch.setattr(f"mms.cli.{stream}", _one_simplex_then_fail)
    out = tmp_path / "out.jsonl"
    code, _, err = run_main(capsys, *argv, "--out", str(out))
    assert code == EXIT_INVALID
    assert "stream failed" in err
    assert os.listdir(tmp_path) == []


GOOD_RECORD = {
    "key": "2x2w1:2,4;0,6",
    "representative": "0,0;2,4;4,2",
    "mms_size": 6,
    "conv_count": 10,
    "floor_count": 6,
    "classification": "M",
    "h_ratio": "0/4",
    "simplex_multiplicity": 1,
}


@pytest.mark.parametrize(
    "argv, content, message",
    [
        (["check-sos", "--delta", "0,0;2,4;4,2", "--terms"], '["2,2"]', "must be a JSON object"),
        (["check-sos", "--delta", "0,0;2,4;4,2", "--terms"], '[{"beta": 5}]', "not a string"),
        (["mms", "--in"], '["0,0;2,4;4,2"]\n', "must be a JSON object"),
        (["mms", "--in"], '{"delta": 5}\n', "not a string"),
        (["stats", "--store"], "[1]\n", "must be a JSON object"),
        (["stats", "--store"], json.dumps({**GOOD_RECORD, "mms_size": [6]}), "bad field type"),
        (
            ["stats", "--store"],
            json.dumps({**GOOD_RECORD, "simplex_multiplicity": 2.9}),
            ":1: bad record: bad field type: simplex_multiplicity must be an integer",
        ),
        (
            ["stats", "--store"],
            json.dumps({**GOOD_RECORD, "classification": "H", "h_ratio": "4/4"}),
            "classification does not match stored counts",
        ),
        (
            # derived fields agree with the counts, which break floor <= MMS
            ["stats", "--store"],
            json.dumps(
                {**GOOD_RECORD, "mms_size": 3, "classification": "INTERMEDIATE", "h_ratio": "-3/4"}
            ),
            ":1: bad record: counts must satisfy 0 <= floor_count <= mms_size <= conv_count",
        ),
        (
            ["stats", "--store"],
            json.dumps({k: v for k, v in GOOD_RECORD.items() if k != "mms_size"}),
            ":1: bad record: missing field mms_size",
        ),
        (["mms", "--in"], '{"nodelta": 1}\n', ":1: bad input line: missing field delta"),
        (
            ["check-sos", "--delta", "0,0;2,4;4,2", "--terms"],
            '[{"sign": "NEG"}]',
            ": entry 0: bad term: missing field beta",
        ),
        (
            # no manifest beside the store, so export derives n and 2d from it
            ["export", "--format", "csv", "--out", os.devnull, "--store"],
            json.dumps({**GOOD_RECORD, "representative": "bogus"}),
            ": key 2x2w1:2,4;0,6: bad lattice point 'bogus'",
        ),
    ],
    ids=[
        "term-list",
        "beta-int",
        "line-list",
        "delta-int",
        "record-list",
        "count-list",
        "count-float",
        "derived-mismatch",
        "count-order",
        "record-missing-field",
        "line-missing-field",
        "term-missing-field",
        "export-bad-representative",
    ],
)
def test_malformed_json_input_exits_invalid(capsys, tmp_path, argv, content, message):
    path = tmp_path / "input.json"
    path.write_text(content)
    code, out, err = run_main(capsys, *argv, str(path))
    assert code == EXIT_INVALID
    assert out == ""
    assert err.startswith(f"mms: error: {path}") and err.count("\n") == 1
    assert message in err


def run_mms_under_256_mib(monkeypatch, delta):
    """``mms mms --delta delta`` in a child whose address space alone is
    capped at 256 MiB."""
    import resource

    def cap_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (2**28, 2**28))

    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    return run_python("-m", "mms.cli", "mms", "--delta", delta, preexec_fn=cap_address_space)


def test_out_of_memory_exits_with_one_line(monkeypatch):
    # 8,006,001 candidate rows, 16,012,002 int64 entries: under the scan
    # limit, so the scan starts and runs out of memory
    assert 2 * 8_006_001 <= SCAN_ENTRIES
    proc = run_mms_under_256_mib(monkeypatch, "0,0;4000,0;0,4000")
    assert proc.returncode == EXIT_INVALID
    assert proc.stdout == ""
    assert proc.stderr.startswith("mms: error: out of memory")
    assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "delta, rows",
    [
        ("0,0;2000000,0;0,2000000", 2000003000001),  # the 1-norm ball
        ("0,0;2,0;0,2000000000000000000000", 3 * 2000000000000000000001),  # the box
    ],
)
def test_an_oversized_scan_is_refused_before_allocating(monkeypatch, delta, rows):
    proc = run_mms_under_256_mib(monkeypatch, delta)
    assert proc.returncode == EXIT_INVALID
    assert proc.stdout == ""
    assert proc.stderr == (
        f"mms: error: {rows} candidate lattice points in Z^2 need {2 * rows} int64 entries,"
        f" past the limit of {SCAN_ENTRIES}\n"
    )


def test_mms_requires_exactly_one_source(capsys, tmp_path):
    code, _, _ = run_main(capsys, "mms")
    assert code == EXIT_INVALID
    path = str(tmp_path / "in.jsonl")
    open(path, "w").close()
    code, _, _ = run_main(capsys, "mms", "--delta", "0;2", "--in", path)
    assert code == EXIT_INVALID


def test_canon_output(capsys):
    code, out, _ = run_main(capsys, "canon", "--delta", "0,0;2,4;4,2")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["key"] == "2x2w1:2,4;0,6"
    assert payload["hnf"] == [[2, 4], [0, 6]]
    assert payload["generator"] == [[2, 4], [4, 2]]
    assert payload["lattice_index"] == 12


@pytest.mark.parametrize("delta", ["0,0;2,4;4,2", "2,2;4,8;8,4", "0,0,0;2,0,4;0,6,2;4,4,0"])
def test_canon_lattice_index_is_the_generator_determinant(capsys, delta):
    code, out, _ = run_main(capsys, "canon", "--delta", delta)
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["lattice_index"] == abs(_leibniz_det(payload["generator"]))


def test_canon_requires_full_dimension(capsys):
    code, _, err = run_main(capsys, "canon", "--delta", "0,0;2,2")
    assert code == EXIT_INVALID
    assert "mms: error:" in err


@pytest.fixture(scope="module")
def cli_run_dir(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("cli-run"))
    code = main(
        ["pipeline", "--dim", "2", "--deg", "6", "--workers", "1", "--out", out]
    )
    assert code == EXIT_OK
    return out


def test_pipeline_cli_outputs(cli_run_dir, capsys):
    # rerun into a fresh dir to capture stdout for this test
    out = str(cli_run_dir) + "-again"
    code, text, _ = run_main(
        capsys, "pipeline", "--dim", "2", "--deg", "6", "--workers", "1", "--out", out
    )
    assert code == EXIT_OK
    payload = json.loads(text)
    assert payload["simplicial_sets"]["total_count"] == 30
    assert payload["lattices"]["total_count"] == 10
    assert os.path.exists(os.path.join(out, "merged.jsonl"))


def test_pipeline_requires_dimensions(capsys, tmp_path):
    code, _, err = run_main(capsys, "pipeline", "--out", str(tmp_path / "x"))
    assert code == EXIT_INVALID
    assert "requires --dim and --deg" in err


def test_pipeline_replay_flag(cli_run_dir, capsys, tmp_path):
    out = str(tmp_path / "replayed")
    code, _, _ = run_main(
        capsys,
        "pipeline",
        "--replay",
        os.path.join(cli_run_dir, "manifest.json"),
        "--workers",
        "1",
        "--out",
        out,
    )
    assert code == EXIT_OK
    with open(os.path.join(cli_run_dir, "merged.jsonl"), "rb") as a:
        with open(os.path.join(out, "merged.jsonl"), "rb") as b:
            assert a.read() == b.read()


def test_pipeline_replay_rejects_bad_manifest_fields(cli_run_dir, capsys, tmp_path):
    with open(os.path.join(cli_run_dir, "manifest.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)
    manifest["bogus"] = 1
    del manifest["seed"]
    bad = tmp_path / "manifest.json"
    bad.write_text(json.dumps(manifest), encoding="utf-8")
    code, _, err = run_main(
        capsys, "pipeline", "--replay", str(bad), "--out", str(tmp_path / "replayed")
    )
    assert code == EXIT_INVALID
    assert err.count("\n") == 1
    assert err.startswith("mms: error:")
    assert "unknown fields ['bogus']" in err
    assert "missing fields ['seed']" in err


MISSING = object()  # a manifest field left out


def bad_manifest_runs(cli_run_dir, tmp_path, field, value):
    """A copy of the run's store beside a manifest whose ``field`` (top-level
    or ``parameters.<name>``) is ``value``, or left out when ``value`` is
    MISSING; the (export, replay) command lines that read it."""
    with open(os.path.join(cli_run_dir, "manifest.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)
    section, _, name = field.rpartition(".")
    owner = manifest[section] if section else manifest
    if value is MISSING:
        del owner[name]
    else:
        owner[name] = value
    (tmp_path / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
    for name in ("merged.jsonl", "merged.jsonl.idx"):
        (tmp_path / name).write_bytes(Path(cli_run_dir, name).read_bytes())
    export = ["export", "--store", str(tmp_path / "merged.jsonl"), "--format", "csv",
              "--out", str(tmp_path / "stats.csv")]
    replay = ["pipeline", "--replay", str(tmp_path / "manifest.json"),
              "--out", str(tmp_path / "replayed")]
    return export, replay


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("parameters", [], "parameters must be an object"),
        ("parameters.n", "2", "parameters.n must be an integer"),
        ("parameters.two_d", True, "parameters.two_d must be an integer"),
        ("parameters.count", "abc", "parameters.count must be an integer or null"),
        ("seed", "abc", "seed must be an integer or null"),
        ("worker_count", 1.5, "worker_count must be an integer"),
        ("parameters.mode", 3, 'parameters.mode must be "full" or "sample"'),
        pytest.param(
            "parameters.mode", MISSING, 'parameters.mode must be "full" or "sample"',
            id="parameters.mode-missing",
        ),
    ],
)
def test_bad_manifest_field_types_exit_invalid(cli_run_dir, tmp_path, field, value, message):
    for argv in bad_manifest_runs(cli_run_dir, tmp_path, field, value):
        proc = run_python("-m", "mms.cli", *argv)
        assert proc.returncode == EXIT_INVALID
        assert "Traceback" not in proc.stderr
        assert proc.stderr.count("\n") == 1
        assert proc.stderr.startswith("mms: error: ")
        assert f"bad manifest: {message}" in proc.stderr


NOT_JSON = [b"not json\n", b"\xff\xfe[]"]  # a syntax error; bytes that are not UTF-8


@pytest.mark.parametrize("content", NOT_JSON)
def test_replay_of_a_manifest_that_is_not_json_names_it(capsys, tmp_path, content):
    bad = tmp_path / "manifest.json"
    bad.write_bytes(content)
    out = tmp_path / "replayed"
    code, _, err = run_main(capsys, "pipeline", "--replay", str(bad), "--out", str(out))
    assert code == EXIT_INVALID
    assert err.count("\n") == 1
    assert err.startswith(f"mms: error: {bad}: ")
    assert not out.exists()


@pytest.mark.parametrize("content", NOT_JSON)
def test_export_csv_beside_a_manifest_that_is_not_json_names_it(
    cli_run_dir, capsys, tmp_path, content
):
    for name in ("merged.jsonl", "merged.jsonl.idx"):
        (tmp_path / name).write_bytes(Path(cli_run_dir, name).read_bytes())
    bad = tmp_path / "manifest.json"
    bad.write_bytes(content)
    code, _, err = run_main(
        capsys, "export", "--store", str(tmp_path / "merged.jsonl"), "--format", "csv",
        "--out", str(tmp_path / "stats.csv"),
    )
    assert code == EXIT_INVALID
    assert err.count("\n") == 1
    assert err.startswith(f"mms: error: {bad}: ")


def test_pipeline_refuses_bad_mms_workers_before_writing(capsys, monkeypatch, tmp_path):
    monkeypatch.setenv("MMS_WORKERS", "abc")
    out = tmp_path / "D"
    code, text, err = run_main(capsys, "pipeline", "--dim", "2", "--deg", "4", "--out", str(out))
    assert code == EXIT_INVALID
    assert text == ""
    assert err == "mms: error: MMS_WORKERS must be an integer, got 'abc'\n"
    assert not out.exists()


def test_replay_without_workers_ignores_mms_workers(cli_run_dir, capsys, monkeypatch, tmp_path):
    # replay runs with the manifest's worker count, so MMS_WORKERS is never read
    monkeypatch.setenv("MMS_WORKERS", "abc")
    out = str(tmp_path / "replayed")
    code, _, _ = run_main(
        capsys, "pipeline", "--replay", os.path.join(cli_run_dir, "manifest.json"), "--out", out
    )
    assert code == EXIT_OK
    assert Path(out, "merged.jsonl").read_bytes() == Path(cli_run_dir, "merged.jsonl").read_bytes()


@pytest.mark.parametrize("command", ["stats", "jsonl", "csv"])
def test_store_with_a_repeated_line_is_refused(capsys, tmp_path, command):
    # a 3-class store with its second line written twice and no sidecar
    run = str(tmp_path / "run")
    assert main(["pipeline", "--dim", "2", "--deg", "4", "--workers", "1", "--out", run]) == EXIT_OK
    capsys.readouterr()
    store = os.path.join(run, "merged.jsonl")
    with open(store, encoding="utf-8") as fh:
        lines = fh.readlines()
    assert len(lines) == 3
    with open(store, "w", encoding="utf-8") as fh:
        fh.writelines(lines[:2] + lines[1:])
    os.remove(store + ".idx")
    out = str(tmp_path / "dump")
    argv = ["stats", "--store", store]
    if command != "stats":
        argv = ["export", "--store", store, "--format", command, "--out", out]
    code, text, err = run_main(capsys, *argv)
    assert code == EXIT_INVALID
    assert text == ""
    assert err == f"mms: error: {store}:3: keys out of order\n"
    assert not os.path.exists(out)


def test_stats_cli_scopes(cli_run_dir, capsys):
    store = os.path.join(cli_run_dir, "merged.jsonl")
    code, out, _ = run_main(capsys, "stats", "--store", store, "--scope", "both")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert set(payload) == {"simplicial_sets", "lattices"}
    code, out, _ = run_main(capsys, "stats", "--store", store, "--scope", "lattices")
    assert code == EXIT_OK
    assert set(json.loads(out)) == {"lattices"}


def test_stats_refuses_store_shorter_than_its_index(capsys, tmp_path):
    out = str(tmp_path / "run")
    code = main(["pipeline", "--dim", "2", "--deg", "8", "--workers", "1", "--out", out])
    assert code == EXIT_OK
    capsys.readouterr()
    store = os.path.join(out, "merged.jsonl")
    with open(store, encoding="utf-8") as fh:
        lines = fh.readlines()
    with open(store, "w", encoding="utf-8") as fh:
        fh.writelines(lines[:-1])
    code, text, err = run_main(capsys, "stats", "--store", store)
    assert code == EXIT_INVALID
    assert text == ""
    assert err.count("\n") == 1
    assert err.startswith(f"mms: error: {store}: ")


@pytest.mark.parametrize(
    "target, message",
    [
        ("input", ":2: bad input line: 'utf-8' codec can't decode byte 0xff"),
        ("store", ":1: bad record: 'utf-8' codec can't decode byte 0xff"),
        ("index", ":1: bad index line: 'utf-8' codec can't decode byte 0xff"),
    ],
    ids=["input", "store", "index"],
)
def test_file_that_is_not_utf8_is_named_with_its_line(cli_run_dir, capsys, tmp_path, target, message):
    store = tmp_path / "merged.jsonl"
    for name in ("merged.jsonl", "merged.jsonl.idx"):
        (tmp_path / name).write_bytes(Path(cli_run_dir, name).read_bytes())
    if target == "input":
        bad = tmp_path / "in.jsonl"
        bad.write_bytes(b'{"delta":"0,0;2,4;4,2"}\n\xff\n')
        argv = ["mms", "--in", str(bad)]
    else:
        # one byte overwritten, so the file keeps its length
        bad = store if target == "store" else tmp_path / "merged.jsonl.idx"
        data = bytearray(bad.read_bytes())
        data[3] = 0xFF
        bad.write_bytes(bytes(data))
        argv = ["stats", "--store", str(store)]
    code, _, err = run_main(capsys, *argv)
    assert code == EXIT_INVALID
    assert err.startswith(f"mms: error: {bad}{message}") and err.count("\n") == 1


def test_stats_missing_store_is_io_error(capsys, tmp_path):
    code, _, err = run_main(
        capsys, "stats", "--store", str(tmp_path / "absent.jsonl")
    )
    assert code == EXIT_IO
    assert "i/o error" in err


@pytest.mark.parametrize("command", ["sample", "export"])
def test_out_in_a_missing_directory_names_the_requested_path(
    cli_run_dir, capsys, tmp_path, command
):
    out = str(tmp_path / "missing" / "f")
    store = os.path.join(cli_run_dir, "merged.jsonl")
    argv = {
        "sample": ["sample", "--dim", "2", "--deg", "4", "--seed", "1", "--count", "2"],
        "export": ["export", "--store", store, "--format", "jsonl"],
    }[command]
    code, _, err = run_main(capsys, *argv, "--out", out)
    assert code == EXIT_IO
    assert err.count("\n") == 1
    assert err.startswith("mms: i/o error: ") and err.rstrip().endswith(f"'{out}'")
    assert ".tmp" not in err


def test_export_cli(cli_run_dir, capsys, tmp_path):
    store = os.path.join(cli_run_dir, "merged.jsonl")
    dump = str(tmp_path / "dump.jsonl")
    code, _, _ = run_main(
        capsys, "export", "--store", store, "--format", "jsonl", "--out", dump
    )
    assert code == EXIT_OK
    with open(store, "rb") as a, open(dump, "rb") as b:
        assert a.read() == b.read()
    table = str(tmp_path / "stats.csv")
    code, _, _ = run_main(
        capsys, "export", "--store", store, "--format", "csv", "--out", table
    )
    assert code == EXIT_OK
    with open(table) as fh:
        assert fh.read().startswith("scope,n,2d,")


def test_export_csv_equals_the_run_stats_csv(capsys, tmp_path):
    # one sample: no representative reaches degree 12, the run's 2d
    out = str(tmp_path / "run")
    code = main(
        ["pipeline", "--dim", "3", "--deg", "12", "--mode", "sample", "--seed", "1",
         "--count", "1", "--workers", "1", "--out", out]
    )
    assert code == EXIT_OK
    table = str(tmp_path / "export.csv")
    code, _, _ = run_main(
        capsys, "export", "--store", os.path.join(out, "merged.jsonl"), "--format", "csv",
        "--out", table,
    )
    assert code == EXIT_OK
    with open(os.path.join(out, "stats.csv"), "rb") as a, open(table, "rb") as b:
        assert b.read() == a.read()


@pytest.mark.parametrize(
    "argv, parameter",
    [
        (["--mode", "sample", "--seed", "1", "--count", "0"], "count"),
        (["--mode", "sample", "--seed", "1", "--count", "-3"], "count"),
        (["--mode", "sample", "--seed", "-1", "--count", "5"], "seed"),
        (["--mode", "sample", "--seed", str(2**64), "--count", "5"], "seed"),
        (["--mode", "sample", "--seed", "1", "--count", "5", "--dim", "0"], "dimension"),
        (["--mode", "sample", "--seed", "1", "--count", "5", "--deg", "5"], "maximal degree"),
        (["--dim", "0"], "dimension"),
        (["--deg", "7"], "maximal degree"),
    ],
)
def test_pipeline_refuses_bad_parameters_before_writing(capsys, tmp_path, argv, parameter):
    out = tmp_path / "run"
    code, text, err = run_main(
        capsys, "pipeline", "--dim", "2", "--deg", "6", *argv, "--workers", "1",
        "--out", str(out),
    )
    assert code == EXIT_INVALID
    assert text == ""
    assert err.count("\n") == 1
    assert err.startswith(f"mms: error: {parameter}")
    assert not out.exists()


def test_check_sos_circuit(capsys):
    code, out, _ = run_main(
        capsys, "check-sos", "--delta", "0,0;2,4;4,2", "--beta", "2,2"
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["question"] == "circuit_is_sos"
    assert payload["verdict"] is False
    assert payload["witness"][0]["in_mms"] is False


def test_check_sos_terms_file(capsys, tmp_path):
    terms = str(tmp_path / "terms.json")
    with open(terms, "w") as fh:
        json.dump([{"beta": "1,1,1", "sign": "NEG"}], fh)
    code, out, _ = run_main(
        capsys, "check-sos", "--delta", "0,0,0;0,2,2;2,0,2;2,2,0", "--terms", terms
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["question"] == "sonc_simplex_is_sos"
    assert payload["verdict"] is False


@pytest.mark.parametrize("content", [b'[{"beta": "1,1",}]\n', b"\xff\xfe[]", b"{}"])
def test_check_sos_bad_terms_file_names_it(capsys, tmp_path, content):
    # a syntax error, bytes that are not UTF-8, and JSON that is not a list
    terms = tmp_path / "terms.json"
    terms.write_bytes(content)
    code, out, err = run_main(
        capsys, "check-sos", "--delta", "0,0;2,4;4,2", "--terms", str(terms)
    )
    assert code == EXIT_INVALID
    assert out == ""
    assert err.count("\n") == 1
    assert err.startswith(f"mms: error: {terms}: ")


def test_check_sos_hypothesis_violation(capsys, tmp_path):
    terms = str(tmp_path / "terms.json")
    with open(terms, "w") as fh:
        json.dump([{"beta": "2,2", "sign": "POS"}], fh)
    code, _, err = run_main(
        capsys, "check-sos", "--delta", "0,0;2,4;4,2", "--terms", terms
    )
    assert code == EXIT_INVALID
    assert "positive coefficient" in err


def test_check_sos_beta_applies_the_hypothesis(capsys):
    # 1 + x^2y^4 + x^4y^2 + c x^2y^2 with c > 0 is a sum of monomial squares
    code, out, err = run_main(
        capsys, "check-sos", "--delta", "0,0;2,4;4,2", "--beta", "2,2", "--sign", "POS"
    )
    assert code == EXIT_INVALID
    assert out == ""
    assert err.count("\n") == 1
    assert "positive coefficient" in err
    # a positive coefficient on an odd exponent keeps its MMS verdict
    code, out, _ = run_main(
        capsys, "check-sos", "--delta", "0,0;2,4;4,2", "--beta", "1,1", "--sign", "POS"
    )
    assert code == EXIT_OK
    assert json.loads(out)["verdict"] is False


def test_check_sos_exactness(capsys):
    code, out, _ = run_main(
        capsys,
        "check-sos",
        "--delta",
        "0,0;2,4;4,2",
        "--beta",
        "2,2",
        "--sign",
        "POS",
        "--exactness",
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["question"] == "sos_bound_is_exact"
    assert payload["verdict"] is True


def test_check_sos_requires_one_term_source(capsys):
    code, _, _ = run_main(capsys, "check-sos", "--delta", "0,0;2,4;4,2")
    assert code == EXIT_INVALID


def test_check_conjecture_cli(capsys):
    code, out, _ = run_main(capsys, "check-conjecture", "--deg", "6", "--workers", "1")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["passed"] is True
    assert payload["m_lattice_classes"] == 1


def test_unknown_subcommand_exits_invalid():
    proc = run_python("-m", "mms.cli", "frobnicate")
    assert proc.returncode == EXIT_INVALID


def test_console_script_version():
    proc = run_console_script("mms", "--version")
    assert proc.returncode == EXIT_OK
    assert proc.stdout.strip().startswith("mms ")


def test_console_script_enumerate_stdout_purity():
    proc = run_console_script("mms", "enumerate", "--dim", "2", "--deg", "4")
    assert proc.returncode == EXIT_OK
    # stdout carries records only; any progress chatter belongs to stderr
    assert len(proc.stdout.strip().split("\n")) == 8
    for line in proc.stdout.strip().split("\n"):
        json.loads(line)


def test_planar_survey_script_reports_the_dichotomy_check():
    script = Path(__file__).resolve().parents[1] / "scripts" / "planar_dichotomy_survey.py"
    proc = run_python(str(script), "--deg", "12", "--workers", "1")
    assert proc.returncode == EXIT_OK, proc.stderr
    report = check_conjecture(12)
    sim = report.simplicial
    assert proc.stdout.splitlines() == [
        f"simplicial sets {sim.total_count}  "
        f"(H {sim.h_count}, M {sim.m_count}, INTERMEDIATE {sim.intermediate_count})",
        f"lattice classes {report.lattices.total_count}",
    ]
