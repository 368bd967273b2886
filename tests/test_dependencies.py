"""The runtime imports only what ``pyproject.toml`` declares.

SciPy is a test dependency (the tests' own E1 reference); ``src/pgdlab``
must run on numpy alone.
"""

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "pgdlab"


def test_verify_loads_no_scipy():
    script = (
        "import json, sys\n"
        "from pgdlab.cli import main\n"
        "code = main(['verify', '--suite', 'all', '--seed', '0'])\n"
        "print(json.dumps([code, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')]))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    code, scipy_modules = json.loads(proc.stdout.splitlines()[-1])
    assert code == 0
    assert scipy_modules == []


def test_third_party_imports_are_declared():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", dep).group(0) for dep in project["dependencies"]}
    imported = {}
    for path in sorted(PACKAGE.glob("*.py")):
        # ast.walk also reaches imports inside functions.
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                imported.setdefault(name.split(".")[0], path.name)
    undeclared = {
        top: where for top, where in imported.items()
        if top not in sys.stdlib_module_names and top != "pgdlab" and top not in declared
    }
    assert not undeclared, f"imported but not in [project] dependencies: {undeclared}"
