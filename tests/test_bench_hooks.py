"""The benchmark's tracer wraps public pgdlab names by attribute.

A renamed or moved name would otherwise fail only in a traced benchmark run.
The tracer is loaded from its file and installed on the live modules; the test
only reads ``perfbench/``.
"""

import contextlib
import importlib.util
import io
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


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


@pytest.mark.skipif(not TRACER.exists(), reason="perfbench/tracer.py is absent")
def test_tracer_hooks_install_and_restore():
    tracer = _load_tracer()
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


@pytest.mark.skipif(not TRACER.exists(), reason="perfbench/tracer.py is absent")
def test_traced_iterations_sum_the_rows_of_a_block(tmp_path):
    """A block run notes the iterations of all its rows in one span."""
    tracer = _load_tracer()
    problem, x_star = pgdlab.make_instance("lcls", {"m": 14, "n": 10, "p": 3}, 0)
    path = tmp_path / "lcls.json"
    pgdlab.save_problem(path, problem, x_star=x_star)

    hooks = tracer.Tracer()
    hooks.command = 0
    try:
        hooks.install()
        # The default grid: eta = 0.5 and 1.0 diverge, the optimal step converges.
        bundle = pgdlab.empirics.run_experiment(
            "lcls", {"m": 14, "n": 10, "p": 3}, pgdlab.default_etas, 0,
            outdir=tmp_path / "bundle")
        with contextlib.redirect_stdout(io.StringIO()):
            code = pgdlab.cli.main(["solve", str(path), "--eta", "0.01", "--max-iters", "50",
                                    "--out", str(tmp_path / "solve.csv")])
    finally:
        hooks.uninstall()
    assert code == 0

    # A CSV holds a header and the rows k = 0, ..., n_iterations; a run that
    # diverged at iteration k writes none and made k - 1 iterations.
    csvs = sorted((tmp_path / "bundle").glob("*.csv")) + [tmp_path / "solve.csv"]
    diverged = [run["divergence_iteration"] for run in bundle["runs"] if run["diverged"]]
    assert len(diverged) == 2 and len(csvs) == 2
    iterations = sum(len(csv.read_text().splitlines()) - 2 for csv in csvs)
    iterations += sum(k - 1 for k in diverged)
    metrics = tracer.per_layer(hooks.spans, 1)
    assert metrics["engine.run_pgd.calls"][0] == 2
    assert metrics["engine.run_pgd.iterations"][0] == iterations
