"""Command-line interface.

Subcommands: ``solve`` (run PGD on a problem file), ``analyze`` (convergence
certificates per step size), ``experiment`` (seeded random instance plus a
theory-versus-measurement bundle), and ``verify`` (property suites).

Exit codes: 0 success, 1 input or domain error, 2 divergence,
3 verification failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import warnings

import numpy as np

from . import analysis
from .applications import analyze_problem
from .empirics import BOUND_ACCURACIES, default_etas, run_experiment
from .engine import run_pgd
from .errors import (
    ConstraintDomainError,
    DivergenceError,
    GenerationError,
    NoCertificateError,
    ProblemFileError,
)
from .problem_io import load_problem
from .verify import SUITES, run_suites

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_DIVERGED = 2
EXIT_VERIFY = 3


def _default_seed():
    raw = os.environ.get("PGDLAB_SEED", "0")
    if not raw.strip().isdecimal():
        raise SystemExit(f"PGDLAB_SEED must be a non-negative integer, got {raw!r}")
    return int(raw)


def _require_seed(seed):
    """numpy accepts only non-negative seeds; reject a negative one as an input error."""
    if seed < 0:
        raise ProblemFileError("--seed", f"must be a non-negative integer, got {seed}")


def _require_positive(flag, *values):
    """Reject a flag value that is not finite and positive as an input error."""
    for value in values:
        if not 0 < value < np.inf:  # also false for NaN
            raise ProblemFileError(flag, f"must be finite and positive, got {value!r}")


def cmd_solve(args):
    _require_positive("--eta", args.eta)
    _require_positive("--max-iters", args.max_iters)
    if args.tol is not None:
        _require_positive("--tol", args.tol)
    _require_seed(args.seed)
    problem, x_star, x0 = load_problem(args.problem)
    if args.tol is not None and x_star is None:
        raise ProblemFileError("--tol", "the problem file has no x_star to measure the error to")
    if x0 is None:
        # Not default_rng(seed): the generators draw their x* from that stream.
        x0 = problem.constraint.random_member(np.random.default_rng([args.seed, 1]))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", UserWarning)
        trace = run_pgd(
            problem,
            args.eta,
            x0,
            max_iters=args.max_iters,
            error_floor=args.tol,
            x_ref=x_star,
        )
    for message in dict.fromkeys(str(w.message) for w in caught):
        print(f"notice: {message}")
    if args.out:
        trace.write_csv(args.out)
        print(f"trace written to {args.out}")
    print(f"iterations: {trace.n_iterations}")
    print(f"stop reason: {trace.stop_reason}")
    print(f"final objective: {trace.objectives[-1]:.6e}")
    if trace.errors is not None:
        print(f"final error: {trace.errors[-1]:.6e}")
    return EXIT_OK


def cmd_analyze(args):
    _require_positive("--eta", *(args.eta or ()))
    for eps in args.eps:
        if not 0 < eps < 1:  # also false for NaN
            raise ProblemFileError("--eps", f"must lie in (0, 1), got {eps!r}")
    problem, x_star, _ = load_problem(args.problem)
    report = analyze_problem(problem, x_star)

    etas = list(args.eta) if args.eta else []
    if report.eta_opt is not None and not etas:
        etas = [0.5 * report.eta_opt, report.eta_opt]

    out = {
        "application": report.to_json(etas),
        "etas": [],
    }
    for eta in etas:
        entry = {"eta": float(eta)}
        try:
            conv = analysis.analyze_fixed_point(report, eta)
            entry["convergence"] = conv.to_json()
            if conv.certified and args.eps:
                # Bounds need an initial error: half the certified radius. An
                # unbounded region has no quadratic term, so the start is moot.
                initial = 0.5 * conv.region_radius
                shown = {"initial_error": initial} if np.isfinite(initial) else {}
                try:
                    entry["iteration_bounds"] = [
                        {"accuracy": float(eps), "bound": conv.bound(eps, initial), **shown}
                        for eps in args.eps
                    ]
                except NoCertificateError as exc:  # the convergence report still holds
                    entry["no_bound"] = str(exc)
        except (NoCertificateError, ConstraintDomainError) as exc:
            entry["convergence"] = None
            entry["no_certificate"] = str(exc)
        out["etas"].append(entry)

    text = json.dumps(out, indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w", encoding="ascii") as fh:
            fh.write(text + "\n")
        print(f"report written to {args.out}")
    else:
        print(text)
    return EXIT_OK


def cmd_experiment(args):
    params = {}
    for key in ("m", "n", "p", "r", "s"):
        value = getattr(args, key)
        if value is not None:
            params[key] = value
    if args.gamma is not None:
        params["gamma"] = args.gamma
    if args.residual:
        params["residual"] = True
    _require_positive("--etas", *(args.etas or ()))
    _require_positive("--max-iters", args.max_iters)
    _require_seed(args.seed)

    bundle = run_experiment(
        args.kind,
        params,
        args.etas or default_etas,
        args.seed,
        outdir=args.outdir,
        max_iters=args.max_iters,
    )
    for run in bundle["runs"]:
        eta = run["eta"]
        rho = run.get("theoretical_rate")
        rho_hat = run.get("rho_hat")
        gap = run.get("relative_gap")
        flag = "" if run["admissible"] else "  [no certificate]"
        parts = [f"eta={eta:g}"]
        if rho is None:
            parts.append("rate=n/a")
        else:  # a huge rate in fixed notation would print hundreds of digits
            rate = float(rho)
            parts.append(f"rate={rate:.6f}" if rate < 1e6 else f"rate={rate:.6e}")
        parts.append(f"measured={rho_hat:.6f}" if rho_hat is not None else "measured=n/a")
        if gap is not None:
            parts.append(f"gap={100 * gap:.2f}%")
        if run.get("diverged"):
            parts.append("DIVERGED")
        print("  ".join(parts) + flag)
    if args.outdir:
        print(f"bundle written to {args.outdir}")
    return EXIT_OK


def cmd_verify(args):
    _require_seed(args.seed)
    names = list(SUITES) if args.suite == "all" else [args.suite]
    results = run_suites(names, seed=args.seed)
    failures = [r for r in results if not r.ok]
    for result in results:
        status = "PASS" if result.ok else "FAIL"
        print(f"{status} {result.name}: {result.detail}")
    print(f"{len(results) - len(failures)}/{len(results)} checks passed")
    return EXIT_OK if not failures else EXIT_VERIFY


class _Parser(argparse.ArgumentParser):
    """Exit with the input-error code on a usage error, not argparse's 2 (divergence)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


def build_parser():
    parser = _Parser(
        prog="pgdlab",
        description="Projected gradient descent for constrained least squares, "
        "with local convergence certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="run PGD on a problem file")
    p_solve.add_argument("problem", help="problem JSON file")
    p_solve.add_argument("--eta", type=float, required=True, help="step size")
    p_solve.add_argument("--max-iters", type=int, default=10_000, dest="max_iters")
    p_solve.add_argument("--tol", type=float, default=None,
                         help="stop when the error to x_star falls below this")
    p_solve.add_argument("--out", default=None, help="trace CSV path")
    p_solve.add_argument("--seed", type=int, default=_default_seed())
    p_solve.set_defaults(func=cmd_solve)

    p_an = sub.add_parser("analyze", help="convergence certificates for a problem file")
    p_an.add_argument("problem", help="problem JSON file")
    p_an.add_argument("--eta", type=float, nargs="*", default=None)
    p_an.add_argument("--eps", type=float, nargs="*", default=BOUND_ACCURACIES)
    p_an.add_argument("--out", default=None, help="report JSON path")
    p_an.set_defaults(func=cmd_analyze)

    p_ex = sub.add_parser("experiment", help="seeded random instance, theory vs measurement")
    p_ex.add_argument("kind", choices=["lcls", "iht", "sphere", "mcp"])
    p_ex.add_argument("--m", type=int)
    p_ex.add_argument("--n", type=int)
    p_ex.add_argument("--p", type=int)
    p_ex.add_argument("--r", type=int)
    p_ex.add_argument("--s", type=int)
    p_ex.add_argument("--gamma", type=float)
    p_ex.add_argument("--residual", action="store_true",
                      help="iht: keep a gradient component off the support")
    p_ex.add_argument("--etas", type=float, nargs="*", default=None)
    p_ex.add_argument("--seed", type=int, default=_default_seed())
    p_ex.add_argument("--outdir", default=None)
    p_ex.add_argument("--max-iters", type=int, default=20_000, dest="max_iters")
    p_ex.set_defaults(func=cmd_experiment)

    p_ver = sub.add_parser("verify", help="run the property suites")
    p_ver.add_argument("--suite", choices=["projections", "rates", "bounds", "all"],
                       default="all")
    p_ver.add_argument("--seed", type=int, default=_default_seed())
    p_ver.set_defaults(func=cmd_verify)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (GenerationError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except DivergenceError as exc:
        print(f"diverged: {exc}", file=sys.stderr)
        return EXIT_DIVERGED


if __name__ == "__main__":
    sys.exit(main())
