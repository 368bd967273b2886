"""Spans around the public ``pgdlab`` names, recorded from outside ``src/``.

``Tracer.install()`` replaces each traced function in every ``pgdlab`` module
namespace that binds it (and in ``verify.SUITES``), and each traced method on
its class, with a wrapper that records a span: name, start, end, parent span,
command id and an optional note (iterations, bytes, error type).
``Tracer.uninstall()`` puts every original object back. Spans stay in memory
until ``write``; ``per_layer`` derives the per-layer metrics from them.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import sys
import time

import pgdlab
from pgdlab import analysis, applications, constraints, empirics, engine, problem_io, verify
from pgdlab.errors import DivergenceError

NAME, START, END, PARENT, COMMAND, NOTE = range(6)
KINDS = ("affine", "sparse", "sphere", "lowrank")


def _file_bytes(path):
    return os.path.getsize(path) if isinstance(path, (str, os.PathLike)) else None


def _failed_checks(args, kwargs, results):
    return sum(not r.ok for r in results)


# (defining module, attribute, span name, note from (args, kwargs, result))
FUNCTIONS = (
    ("cli", "main", "cli.main", None),
    ("engine", "run_pgd", "engine.run_pgd", lambda a, k, r: r.n_iterations),
    ("problem_io", "load_problem", "problem_io.load_problem",
     lambda a, k, r: _file_bytes(a[0])),
    ("problem_io", "save_problem", "problem_io.save_problem", None),
    ("analysis", "analyze_fixed_point", "analysis.analyze_fixed_point", None),
    ("analysis", "eigendecompose", "analysis.eigendecompose", None),
    ("analysis", "gradient_contraction", "analysis.gradient_contraction", None),
    ("applications", "analyze_problem", "applications.analyze_problem", None),
    ("applications", "rank_tangent_basis", "applications.rank_tangent_basis", None),
    ("empirics", "make_instance", "empirics.make_instance", None),
    ("empirics", "run_experiment", "empirics.run_experiment", None),
    ("empirics", "estimate_rate", "empirics.estimate_rate", None),
    ("verify", "projections_suite", "verify.suite.projections", _failed_checks),
    ("verify", "rates_suite", "verify.suite.rates", _failed_checks),
    ("verify", "bounds_suite", "verify.suite.bounds", _failed_checks),
)

METHODS = tuple(
    (cls, method, f"constraints.{method}.{cls.kind}", None)
    for cls in (constraints.AffineConstraint, constraints.SparsityConstraint,
                constraints.SphereConstraint, constraints.LowRankConstraint)
    for method in ("project", "linearize")
) + (
    (constraints.Linearization, "operator_norm", "constraints.operator_norm", None),
    (engine.Trace, "write_csv", "engine.write_csv", lambda a, k, r: _file_bytes(a[1])),
)


def pgdlab_modules():
    return [mod for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == "pgdlab" or name.startswith("pgdlab."))]


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.command = None
        self._undo = []

    def wrap(self, name, fn, note=None):
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.command, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                rec[END] = clock()
                rec[NOTE] = type(exc).__name__
                raise
            finally:
                stack.pop()
            rec[END] = clock()
            if note is not None:
                rec[NOTE] = note(args, kwargs, result)
            return result

        return traced

    def install(self):
        modules = pgdlab_modules()
        for home, attr, name, note in FUNCTIONS:
            original = getattr(getattr(pgdlab, home), attr)
            wrapper = self.wrap(name, original, note)
            for mod in modules:
                if vars(mod).get(attr) is original:
                    self._replace(mod, attr, original, wrapper)
            for key, suite in verify.SUITES.items():
                if suite is original:
                    self._undo.append((verify.SUITES.__setitem__, key, original))
                    verify.SUITES[key] = wrapper
        for cls, attr, name, note in METHODS:
            original = vars(cls)[attr]
            self._replace(cls, attr, original, self.wrap(name, original, note))

    def _replace(self, owner, attr, original, wrapper):
        self._undo.append((functools.partial(setattr, owner), attr, original))
        setattr(owner, attr, wrapper)

    def uninstall(self):
        while self._undo:
            put, key, original = self._undo.pop()
            put(key, original)

    def write(self, path):
        with open(path, "w", encoding="ascii") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "command", "note"],
                       "spans": self.spans}, fh)


def self_times(spans):
    """Each span's duration minus the time its direct children cover."""
    covered = [0.0] * len(spans)
    for rec in spans:
        if rec[PARENT] >= 0:
            covered[rec[PARENT]] += rec[END] - rec[START]
    return [rec[END] - rec[START] - c for rec, c in zip(spans, covered)]


def per_layer(spans, commands):
    """Per-layer metrics over the spans of the timed commands (ids 0..commands-1)
    plus set-up spans (command id "setup")."""
    selfs = self_times(spans)
    by_name = {}
    for rec, own in zip(spans, selfs):
        if rec[COMMAND] == "setup" and rec[NAME] == "problem_io.save_problem":
            by_name.setdefault("setup.save_problem", []).append((rec, own))
        elif isinstance(rec[COMMAND], int):
            by_name.setdefault(rec[NAME], []).append((rec, own))

    def entries(name):
        return by_name.get(name, [])

    def calls(name):
        return len(entries(name))

    def per_command(name, value=lambda rec, own: rec[END] - rec[START]):
        return sum(value(rec, own) for rec, own in entries(name)) / commands

    def p50_us(name):
        durs = [rec[END] - rec[START] for rec, _ in entries(name)]
        return 1e6 * statistics.median(durs) if durs else 0.0

    def noted(name):
        return sum(rec[NOTE] for rec, _ in entries(name) if isinstance(rec[NOTE], int))

    out = {}
    iters = noted("engine.run_pgd")
    pgd_self = sum(own for _, own in entries("engine.run_pgd"))
    out["engine.run_pgd.calls"] = (calls("engine.run_pgd"), "count")
    out["engine.run_pgd.iterations"] = (iters, "count")
    out["engine.run_pgd.self_us_per_iter"] = (1e6 * pgd_self / iters if iters else 0.0, "us")
    out["engine.write_csv.s"] = (per_command("engine.write_csv"), "s")
    out["engine.write_csv.bytes"] = (noted("engine.write_csv") / commands, "B")
    for kind in KINDS:
        out[f"constraints.project.{kind}.calls"] = (calls(f"constraints.project.{kind}"), "count")
        out[f"constraints.project.{kind}.us_p50"] = (p50_us(f"constraints.project.{kind}"), "us")
    for kind in KINDS:
        name = f"constraints.linearize.{kind}"
        out[f"{name}.calls"] = (calls(name), "count")
        out[f"{name}.s"] = (per_command(name), "s")
    out["constraints.operator_norm.s"] = (per_command("constraints.operator_norm"), "s")
    out["analysis.analyze_fixed_point.calls"] = (calls("analysis.analyze_fixed_point"), "count")
    out["analysis.analyze_fixed_point.s"] = (per_command("analysis.analyze_fixed_point"), "s")
    out["analysis.analyze_fixed_point.self_s"] = (
        per_command("analysis.analyze_fixed_point", lambda rec, own: own), "s")
    out["analysis.eigendecompose.s"] = (per_command("analysis.eigendecompose"), "s")
    out["analysis.gradient_contraction.s"] = (per_command("analysis.gradient_contraction"), "s")
    out["applications.analyze_problem.calls_per_command"] = (
        calls("applications.analyze_problem") / commands, "count")
    out["applications.analyze_problem.s"] = (per_command("applications.analyze_problem"), "s")
    out["applications.rank_tangent_basis.s"] = (
        per_command("applications.rank_tangent_basis"), "s")
    out["empirics.make_instance.calls_per_command"] = (
        calls("empirics.make_instance") / commands, "count")
    out["empirics.make_instance.s"] = (per_command("empirics.make_instance"), "s")
    out["empirics.estimate_rate.s"] = (per_command("empirics.estimate_rate"), "s")
    runs = [rec for rec, _ in entries("engine.run_pgd")
            if _under(spans, rec, "empirics.run_experiment")]
    estimates = sum(rec[NOTE] is None for rec, _ in entries("empirics.estimate_rate")
                    if _under(spans, rec, "empirics.run_experiment"))
    out["empirics.rate_estimate.useful_ratio"] = (estimates / len(runs) if runs else 0.0, "ratio")
    out["empirics.runs.diverged"] = (
        sum(rec[NOTE] == DivergenceError.__name__ for rec in runs), "count")
    out["problem_io.load_problem.s"] = (per_command("problem_io.load_problem"), "s")
    out["problem_io.load_problem.bytes"] = (noted("problem_io.load_problem") / commands, "B")
    saves = entries("setup.save_problem")  # every file the set-up writes
    out["problem_io.save_problem.s"] = (sum(rec[END] - rec[START] for rec, _ in saves), "s")
    for suite in ("projections", "rates", "bounds"):
        out[f"verify.suite.{suite}.s"] = (per_command(f"verify.suite.{suite}"), "s")
    out["verify.checks.failed"] = (
        sum(noted(f"verify.suite.{suite}") for suite in ("projections", "rates", "bounds")),
        "count")
    out["cli.self_s"] = (per_command("cli.main", lambda rec, own: own), "s")
    return out


def _under(spans, rec, ancestor):
    parent = rec[PARENT]
    while parent >= 0:
        if spans[parent][NAME] == ancestor:
            return True
        parent = spans[parent][PARENT]
    return False
