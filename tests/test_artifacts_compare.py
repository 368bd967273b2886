"""``tools/artifacts.py --compare``: only float drift in a JSON stdout passes;
``--digest``/``--check``: the recorded sha256 of each file, checked by path.

The script is loaded from its file; the comparison and the digest read
directories and import nothing from pgdlab. Writing the real set takes about
14 s and its bits depend on the platform, so no test here writes it.
"""

import importlib.util
import json
import pathlib

import pytest

SCRIPT = pathlib.Path(__file__).resolve().parents[1] / "tools" / "artifacts.py"


@pytest.fixture(scope="module")
def artifacts():
    spec = importlib.util.spec_from_file_location("artifacts_script", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


REPORT = {"application": {"rate": 0.25, "tangent_dimension": 4, "kind": "iht"}}
TRACE = "k,error,objective\n0,1.0,2.0\n1,0.5,1.0\n"


def _write_set(root, report=REPORT, trace=TRACE):
    (root / "bundle").mkdir(parents=True)
    (root / "analyze_iht.stdout").write_text(json.dumps(report, indent=2, sort_keys=True))
    (root / "bundle" / "trace_eta_0.5.csv").write_text(trace)
    return str(root)


def _compare(artifacts, tmp_path, capsys, **changes):
    old = _write_set(tmp_path / "old")
    new = _write_set(tmp_path / "new", **changes)
    code = artifacts.main(["--compare", old, new])
    return code, capsys.readouterr().out


def test_identical_sets_pass(artifacts, tmp_path, capsys):
    code, out = _compare(artifacts, tmp_path, capsys)
    assert code == 0
    assert "2 files in both; floats moved in 0 JSON stdout files: none" in out


def test_float_drift_in_json_stdout_passes_and_is_reported(artifacts, tmp_path, capsys):
    drifted = {"application": {**REPORT["application"], "rate": 0.25 * (1 + 4e-16)}}
    code, out = _compare(artifacts, tmp_path, capsys, report=drifted)
    assert code == 0
    assert "floats moved in 1 JSON stdout files: analyze_iht.stdout" in out
    assert "largest relative change of rate: 4.44e-16" in out


@pytest.mark.parametrize(
    "application",
    [{"rate": 0.25, "tangent_dimension": 4, "kind": "iht", "extra": 1.0},
     {"rate": 0.25, "tangent_dimension": 5, "kind": "iht"},
     {"rate": 0.25, "tangent_dimension": 4, "kind": "mcp"}],
    ids=["key_added", "int_changed", "string_changed"],
)
def test_changed_key_or_non_float_value_fails(artifacts, tmp_path, capsys, application):
    code, out = _compare(artifacts, tmp_path, capsys, report={"application": application})
    assert code == 1
    assert "differs: analyze_iht.stdout: $.application" in out


def test_changed_csv_byte_fails(artifacts, tmp_path, capsys):
    code, out = _compare(artifacts, tmp_path, capsys, trace=TRACE.replace("0.5", "0.6"))
    assert code == 1
    assert "differs: bundle/trace_eta_0.5.csv" in out
    assert "+1,0.6,1.0" in out


HEADER = ["# numpy 0.0", "# blas none 0", "# threads OPENBLAS_NUM_THREADS=1"]


def test_digest_check_round_trip(artifacts, tmp_path, capsys):
    root = _write_set(tmp_path / "set")
    header = artifacts.environment()
    assert [line.split()[1] for line in header] == ["numpy", "blas", "threads"]
    recorded = artifacts.digest(root, header)
    lines = recorded.splitlines()
    assert lines[:3] == header
    assert [line.split("  ")[1] for line in lines[3:]] == [
        "analyze_iht.stdout", "bundle/trace_eta_0.5.csv"]
    assert artifacts.check(recorded, header, lambda: artifacts.digest(root, header)) == 0
    assert "0 of 2 paths changed" in capsys.readouterr().out


def test_check_lists_changed_new_and_gone_paths(artifacts, tmp_path, capsys):
    root = _write_set(tmp_path / "set")
    recorded = artifacts.digest(root, HEADER)
    (tmp_path / "set" / "bundle" / "trace_eta_0.5.csv").write_text(TRACE.replace("0.5", "0.6"))
    (tmp_path / "set" / "analyze_iht.stdout").rename(tmp_path / "set" / "analyze_iht.out")
    code = artifacts.check(recorded, HEADER, lambda: artifacts.digest(root, HEADER))
    assert code == 1
    assert capsys.readouterr().out.splitlines() == [
        "new: analyze_iht.out", "gone: analyze_iht.stdout",
        "changed: bundle/trace_eta_0.5.csv", "3 of 3 paths changed"]


def test_check_gives_no_verdict_in_another_environment(artifacts, tmp_path, capsys):
    recorded = artifacts.digest(_write_set(tmp_path / "set"), HEADER)

    def build():
        pytest.fail("the set was written although no verdict can be given")

    code = artifacts.check(recorded, ["# numpy 9.9", *HEADER[1:]], build)
    assert code == 3
    out = capsys.readouterr().out
    assert "no verdict" in out and "recorded # numpy 0.0" in out and "here     # numpy 9.9" in out


def test_recorded_digest_has_a_header_and_one_sum_per_file(artifacts):
    with open(artifacts.DIGEST, encoding="utf-8") as fh:
        header, sums = artifacts._parse(fh.read())
    assert [line.split()[1] for line in header] == ["numpy", "blas", "threads"]
    assert sums and all(len(value) == 64 for value in sums.values())
