"""The benchmark's workloads: set-up, one command, and its correctness check.

Every workload is a closed loop with one client: the child process issues its
commands one after another, in process, through the public ``pgdlab`` names.
A command returns whatever the check needs; the check runs outside the timed
region and returns ``None`` when the output is correct, else a reason string.
``warmup`` runs one untimed command of the same kind: the workloads on a
paper-scale file warm up on a tiny file, which is enough to pay the one-off
first-call costs (imports, the first LAPACK call).

``seeds`` is None where a command may take any seed, else the seeds the
commands are drawn from: the ranges at which the program is known to pass
its checks. At other seeds ``small_bundles`` and ``verify_all`` hit two known
defects of the program (see README.md), which a benchmark of speed cannot
report as a result.

Every call into ``pgdlab`` goes through a module attribute (``empirics.make_instance``,
``cli.main``, ...) so the traced run sees it.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os

import numpy as np

from pgdlab import applications, cli, empirics, problem_io

PAPER_MCP = {"m": 50, "n": 40, "r": 3, "s": 800}
TINY_MCP = {"m": 8, "n": 6, "r": 2, "s": 30}

# (kind, params, acceptance step fractions of eta_opt, gap tolerance), as in
# the acceptance suite.
BUNDLES = (
    ("lcls", {"m": 30, "n": 20, "p": 5}, (0.5, 0.8, 1.0), 0.02),
    ("iht", {"m": 50, "n": 100, "s": 5}, (0.3, 0.5, 0.7), 0.05),
    ("sphere", {"m": 15, "n": 10, "gamma": -0.5}, (0.5, 0.8, 1.0), 0.05),
)

SOLVE_ITERS = {"paper": 300, "tiny": 20}
OBJECTIVE_RTOL = 1e-12
RATE_AGREEMENT_TOL = 1e-10


def _cli(argv):
    """Run one CLI command in process; returns (exit code, stdout text)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


class Workload:
    # True where the commands' cost is mostly interpreted Python and small
    # numpy calls, whose speed drifts with the load on a shared host.
    speed_adjusted = False
    seeds = None

    def warmup(self, seed):
        self.command(seed)


class McpFileWorkload(Workload):
    """A workload on a completion problem file written at set-up; it warms up
    on a tiny file."""

    def setup(self, workdir, seed, size):
        self.path = os.path.join(workdir, "mcp.json")
        self.warm_path = os.path.join(workdir, "warmup.json")
        for path, params in ((self.warm_path, TINY_MCP),
                             (self.path, PAPER_MCP if size == "paper" else TINY_MCP)):
            problem, x_star = empirics.make_instance("mcp", params, seed)
            problem_io.save_problem(path, problem, x_star=x_star)
        self.probe = problem, x_star

    def warmup(self, seed):
        self.command(seed, self.warm_path)


class McpSolve(McpFileWorkload):
    """``pgdlab solve`` on a completion problem file, fixed iteration count.

    Every command runs the same number of iterations from a seeded random
    start, so the work per command does not depend on the instance; a command
    that stops early fails its check.
    """

    name = "mcp_solve"

    def setup(self, workdir, seed, size):
        self.csv = os.path.join(workdir, "trace.csv")
        self.iters = SOLVE_ITERS[size]
        super().setup(workdir, seed, size)

    def command(self, seed, path=None):
        return _cli(["solve", path or self.path, "--eta", "1.0", "--max-iters",
                     str(self.iters), "--seed", str(seed), "--out", self.csv])

    def check(self, output):
        code, text = output
        if code != 0:
            return f"exit code {code}"
        with open(self.csv, encoding="ascii") as fh:
            rows = list(csv.DictReader(fh))
        reported = int(text.split("iterations:")[1].split()[0])
        if reported != self.iters or "stop reason: max_iters" not in text:
            return f"stopped after {reported} of {self.iters} iterations"
        if len(rows) != reported + 1:
            return f"trace has {len(rows)} rows for {reported} iterations"
        objectives = np.array([float(row["objective"]) for row in rows])
        if not np.all(np.isfinite(objectives)):
            return "non-finite objective"
        # eta = 1 = 1/L for a 0/1 sampling operator: every step is a descent step.
        rise = np.max(np.diff(objectives), initial=0.0)
        if rise > OBJECTIVE_RTOL * objectives[0]:
            return f"objective rose by {rise:.3e}"
        return None


class SmallBundles(Workload):
    """The lcls/iht/sphere acceptance bundles for one seed, trace CSVs on disk."""

    name = "small_bundles"
    # Its raw median moved by up to 0.25 (interquartile range over median)
    # between runs on a 2-vCPU host; rescaled to the kernel speed, by 0.03-0.06.
    speed_adjusted = True
    # About 1% of seeds outside 0-99 give an iht gap above 0.05.
    seeds = range(100)

    def setup(self, workdir, seed, size):
        self.outdir = os.path.join(workdir, "bundles")
        kind, params, _, _ = BUNDLES[1]
        self.probe = empirics.make_instance(kind, params, seed)

    def command(self, seed):
        bundles = []
        for kind, params, fractions, _ in BUNDLES:
            problem, x_star = empirics.make_instance(kind, params, seed)
            report = applications.analyze_problem(problem, x_star)
            etas = [f * report.eta_opt for f in fractions]
            bundles.append(empirics.run_experiment(
                kind, params, etas, seed, outdir=os.path.join(self.outdir, kind)
            ))
        return bundles

    def check(self, bundles):
        for (kind, _, _, tol), bundle in zip(BUNDLES, bundles):
            for run in bundle["runs"]:
                gap = run.get("relative_gap")
                # A run too short for a tail estimate has no gap; those runs
                # are counted by empirics.rate_estimate.useful_ratio instead.
                if gap is not None and gap > tol:
                    return f"{kind} eta={run['eta']:.6g}: gap {gap:.3e} > {tol}"
                reason = _bound_failure(kind, run)
                if reason:
                    return reason
        return None


class AnalyzeMcp(McpFileWorkload):
    """``pgdlab analyze`` of a paper-scale completion file at eta = 1."""

    name = "analyze_mcp"

    def command(self, seed, path=None):
        return _cli(["analyze", path or self.path, "--eta", "1.0"])

    def check(self, output):
        code, text = output
        if code != 0:
            return f"exit code {code}"
        report = json.loads(text)
        closed_form = report["application"]["rate_table"][0]["rate"]
        spectral = report["etas"][0]["convergence"]["rate"]
        if not abs(closed_form - spectral) <= RATE_AGREEMENT_TOL:
            return f"rate agreement {abs(closed_form - spectral):.3e} > {RATE_AGREEMENT_TOL}"
        return None


class VerifyAll(Workload):
    """``pgdlab verify --suite all`` for one seed."""

    name = "verify_all"
    # Mostly tiny projections in Python loops; rescaled, its spread between
    # runs fell from 0.17 to 0.06-0.09.
    speed_adjusted = True
    # About a quarter of seeds outside 0-3 fail bound_dominance.mcp (seed 4
    # does).
    seeds = range(4)

    def setup(self, workdir, seed, size):
        self.probe = empirics.make_instance("mcp", {"m": 7, "n": 6, "r": 2, "s": 30}, seed)

    def command(self, seed):
        return _cli(["verify", "--suite", "all", "--seed", str(seed)])

    def check(self, output):
        code, text = output
        failing = [line for line in text.splitlines() if line.startswith("FAIL")]
        if code != 0 or failing:
            return f"exit code {code}: " + "; ".join(failing)
        return None


def _bound_failure(kind, run):
    if not run["admissible"]:
        return f"{kind} eta={run['eta']:.6g}: not admissible"
    for chk in run.get("bound_checks") or ():
        if not chk["ok"]:
            return (f"{kind} eta={run['eta']:.6g}: accuracy {chk['accuracy']:g} "
                    f"took {chk['iterations']} iterations, bound {chk['bound']:.1f}")
    return None


WORKLOADS = {w.name: w for w in (McpSolve, SmallBundles, AnalyzeMcp, VerifyAll)}
