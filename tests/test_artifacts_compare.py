"""``tools/artifacts.py --compare``: only float drift in a JSON stdout passes.

The script is loaded from its file; the comparison reads two directories and
imports nothing from pgdlab.
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
