"""The benchmark's tracer wraps public pgdlab names by attribute.

A renamed or moved name would otherwise fail only in a traced benchmark run.
The tracer is loaded from its file and installed on the live modules; the test
only reads ``perfbench/``.
"""

import importlib.util
import pathlib
import sys

import pytest

import pgdlab
import pgdlab.cli  # noqa: F401  (the tracer hooks cli.main)

TRACER = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _bindings():
    """Every binding the tracer may replace: module globals, class methods, suites."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if mod is not None and (name == "pgdlab" or name.startswith("pgdlab.")):
            out.update(((name, attr), value) for attr, value in vars(mod).items())
            out.update(
                ((name, cls.__name__, attr), value)
                for cls in vars(mod).values()
                if isinstance(cls, type) and cls.__module__ == name
                for attr, value in vars(cls).items()
            )
    out.update((("SUITES", key), suite) for key, suite in pgdlab.verify.SUITES.items())
    return out


@pytest.mark.skipif(not TRACER.exists(), reason="perfbench/tracer.py is absent")
def test_tracer_hooks_install_and_restore():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    functions = {(home, attr): getattr(getattr(pgdlab, home), attr)
                 for home, attr, _, _ in tracer.FUNCTIONS}
    methods = {(cls, attr): vars(cls)[attr] for cls, attr, _, _ in tracer.METHODS}
    before = _bindings()

    hooks = tracer.Tracer()
    try:
        hooks.install()
        for (home, attr), original in functions.items():
            assert getattr(getattr(pgdlab, home), attr) is not original, f"{home}.{attr}"
        for (cls, attr), original in methods.items():
            assert vars(cls)[attr] is not original, f"{cls.__name__}.{attr}"
    finally:
        hooks.uninstall()

    after = _bindings()
    assert after.keys() == before.keys()
    moved = [key for key, value in before.items() if after[key] is not value]
    assert moved == []
