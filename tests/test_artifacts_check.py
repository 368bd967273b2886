"""The byte-identity gate: ``tools/artifacts.py --check`` reads the recorded
sha256 of every manifest, trace CSV and command output of the artifact set.

The script writes the whole set in a temporary directory (about 10 s) and
exits 0 when no path changed, 1 when some did (it lists them). The bits
depend on the platform: when the recorded numpy/BLAS/thread header is not
this environment's, the script gives no verdict (exit 3), and the test is
skipped with the script's reason.
"""

import pathlib
import subprocess
import sys

import pytest

SCRIPT = pathlib.Path(__file__).resolve().parents[1] / "tools" / "artifacts.py"


def test_artifact_set_keeps_its_recorded_bits():
    done = subprocess.run([sys.executable, str(SCRIPT), "--check"], capture_output=True,
                          text=True, timeout=600)
    if done.returncode == 3:
        pytest.skip(done.stdout.strip())
    assert done.returncode == 0, done.stdout + done.stderr
