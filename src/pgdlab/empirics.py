"""Random instances, empirical rate estimation, and experiment bundles.

All randomness flows through ``numpy.random.default_rng`` (PCG64), so a given
seed reproduces an instance bit for bit. Instance generators return a problem
together with a solution that its family analysis accepts; ``run_experiment``
drives PGD across a step-size grid and compares measured contraction rates
against the closed-form predictions.
"""

from __future__ import annotations

import json
import numbers
import os
from dataclasses import dataclass

import numpy as np

from .analysis import iteration_bound
from .applications import analyze_problem, mcp_problem
from .constraints import AffineConstraint, SparsityConstraint, SphereConstraint
from .engine import ERROR_FLOOR_SCALE, Problem, run_pgd
from .errors import (
    ConstraintDomainError,
    GenerationError,
    NoCertificateError,
    RateEstimationError,
    StationarityError,
)

BOUND_ACCURACIES = (1e-2, 1e-4, 1e-6, 1e-8)
# Leading share of the iterations before the last error above the floor that
# estimate_rate skips as transient.
BURN_IN_FRACTION = 0.5
# Draws _draw_sphere tries before giving up on a multiplier.
SPHERE_MAX_TRIES = 100


@dataclass(frozen=True)
class RateEstimate:
    """Geometric-mean contraction ratio over the usable tail of a trace."""

    rho_hat: float
    window: tuple


def estimate_rate(trace):
    """Estimate the asymptotic contraction rate from recorded errors.

    Uses the geometric mean of consecutive error ratios over the tail window,
    skipping the early transient and every error at or below ``error_floor``.
    """
    if trace.errors is None:
        raise RateEstimationError("trace has no error sequence (no reference point)")
    errors = np.asarray(trace.errors, dtype=float)
    floor = trace.error_floor if trace.error_floor is not None else 0.0
    above = np.flatnonzero(errors > floor)
    if above.size == 0:
        raise RateEstimationError("no errors above the floor")
    k_end = int(above[-1])
    k_start = int(np.floor(BURN_IN_FRACTION * k_end))
    usable = k_end - k_start
    if usable < 20:
        raise RateEstimationError(
            f"only {usable} usable iterations after burn-in; need at least 20"
        )
    window = errors[k_start : k_end + 1]
    if np.any(window <= 0):
        raise RateEstimationError("window contains zero errors")
    rho_hat = float(np.exp(np.mean(np.log(window[1:] / window[:-1]))))
    return RateEstimate(rho_hat=rho_hat, window=(k_start, k_end))


def _require_sizes(kind, **sizes):
    """Reject a size below one before any draw, naming the parameter."""
    for name, value in sizes.items():
        if value < 1:
            raise ValueError(f"{kind}: need {name} >= 1 ({name}={value})")


def make_instance(kind, params, seed):
    """Draw a seeded instance of ``kind`` and return (problem, x_star).

    ``params`` holds the family's parameters that ``FAMILIES`` names (for mcp
    the matrix shape, rank and sample count). A missing or unknown key, or a
    value of the wrong type, raises ValueError naming it, before any draw.
    x_star is a vector that the family analysis accepts, column-major for mcp
    (``problem.constraint.to_matrix(x_star)`` is the matrix).
    """
    report = _instance_report(kind, params, seed)
    return report.problem, report.x_star


def _instance_report(kind, params, seed):
    """Draw an instance of ``kind`` and run its family analysis, once: the one
    stationarity test of a draw, whose refusal raises GenerationError. Returns
    the ``ApplicationReport``; its ``x_star`` is column-major for mcp."""
    if kind not in FAMILIES:
        raise ValueError(f"unknown experiment kind {kind!r}")
    draw, names = FAMILIES[kind]
    unknown = [str(key) for key in params if key not in names]
    if unknown:
        raise ValueError(f"{kind} does not take " + ", ".join(unknown))
    for key, value in params.items():
        expected = names[key][0]
        admitted, type_name = _ADMITTED[expected]
        if not isinstance(value, admitted) or isinstance(value, _BOOLS) != (expected is bool):
            raise ValueError(f"{kind}: {key} must be {type_name} ({key}={value!r})")
    missing = [key for key, (_, default) in names.items() if default is None and key not in params]
    if missing:
        raise ValueError(f"{kind} needs " + ", ".join(missing))
    defaults = {key: default for key, (_, default) in names.items()}
    return draw(seed=seed, **{**defaults, **params})


# The values that a parameter of each type in FAMILIES takes, and the type's
# name. A bool is an int to Python, so it is taken only where one is expected.
_BOOLS = (bool, np.bool_)
_ADMITTED = {int: (numbers.Integral, "an integer"), float: (numbers.Real, "a real number"),
             bool: (_BOOLS, "true or false")}


def _analyze_draw(problem, x_star=None):
    try:
        return analyze_problem(problem, x_star)
    except (StationarityError, ConstraintDomainError) as exc:
        raise GenerationError(f"generated point refused: {exc}") from exc


def _draw_lcls(seed, m, n, p):
    _require_sizes("lcls", m=m, n=n)
    if not 1 <= p < n:
        raise ValueError(f"lcls: need 1 <= p < n (p={p}, n={n})")
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((m, n))
    C = rng.standard_normal((p, n))
    d = C @ rng.standard_normal(n)
    b = rng.standard_normal(m)
    return _analyze_draw(Problem(A, b, AffineConstraint(C, d)))


def _draw_iht(seed, m, n, s, residual):
    """Random sparse recovery around a stationary s-sparse point. With
    ``residual`` the observation keeps a component in the left null space of
    the support columns, so the gradient at x* is nonzero off the support."""
    _require_sizes("iht", m=m, n=n)
    if not 1 <= s <= n:
        raise ValueError(f"iht: need 1 <= s <= n (s={s}, n={n})")
    if residual and s > m:
        raise ValueError(f"iht: residual needs s <= m (s={s}, m={m})")
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((m, n))
    support = np.sort(rng.choice(n, size=s, replace=False))
    x_star = np.zeros(n)
    x_star[support] = rng.uniform(0.5, 2.0, size=s) * rng.choice([-1.0, 1.0], size=s)
    b = A @ x_star
    if residual:
        AS = A[:, support]
        q, _ = np.linalg.qr(AS, mode="complete")
        left_null = q[:, s:]
        w = left_null @ rng.standard_normal(m - s)
        w *= 0.1 / max(np.linalg.norm(w), 1e-300)
        b = b - w
    return _analyze_draw(Problem(A, b, SparsityConstraint(s, n)), x_star)


def _draw_sphere(seed, m, n, gamma):
    """Unit-norm least squares whose x* has the multiplier ``gamma``. Retries
    until the multiplier sits below the smallest tangent eigenvalue, which
    certifies x* as a strict local minimum."""
    _require_sizes("sphere", m=m, n=n)
    if n < 2:
        raise ValueError(f"sphere: need n >= 2, the sphere in R^1 has no tangent space (n={n})")
    if not np.isfinite(gamma):
        raise ValueError(f"sphere: gamma must be finite (gamma={gamma})")
    if m < n:
        raise ValueError(f"sphere: need m >= n so that A^T A is invertible (m={m}, n={n})")
    spec = SphereConstraint(n)
    rng = np.random.default_rng(seed)
    for _ in range(SPHERE_MAX_TRIES):
        A = rng.standard_normal((m, n))
        x_star = rng.standard_normal(n)
        x_star /= np.linalg.norm(x_star)
        b = A @ x_star - gamma * (A @ np.linalg.solve(A.T @ A, x_star))
        report = _analyze_draw(Problem(A, b, spec), x_star)
        # The sphere analysis certifies exactly a multiplier below lam_min.
        if report.certified:
            return report
    raise GenerationError(
        f"could not draw a sphere instance with multiplier {gamma} below the "
        f"smallest tangent eigenvalue in {SPHERE_MAX_TRIES} tries"
    )


def _draw_mcp(seed, m, n, r, s):
    _require_sizes("mcp", m=m, n=n, r=r)
    if not 0 < s < m * n:
        raise ValueError(f"mcp: need 0 < s < m*n (s={s}, m*n={m * n})")
    if r > min(m, n):
        raise ValueError(f"mcp: need r <= min(m, n) (r={r}, min(m, n)={min(m, n)})")
    rng = np.random.default_rng(seed)
    F = rng.standard_normal((m, r))
    G = rng.standard_normal((n, r))
    X_star = F @ G.T
    # Its own cutoff, stricter than linearize's rank test (RANK_RTOL).
    sig = np.linalg.svd(X_star, compute_uv=False)
    if sig[r - 1] / sig[0] <= 1e-8:
        raise GenerationError("generated factors are numerically rank deficient")
    omega = np.sort(rng.choice(m * n, size=s, replace=False))
    x_star = X_star.reshape(-1, order="F")
    return _analyze_draw(mcp_problem(x_star[omega], omega, (m, n), r), x_star)


# Each family's draw and its parameters' (type, default): a default of None
# marks a required parameter. _instance_report refuses other keys and types.
FAMILIES = {
    "lcls": (_draw_lcls, {"m": (int, None), "n": (int, None), "p": (int, None)}),
    "iht": (_draw_iht, {"m": (int, None), "n": (int, None), "s": (int, None),
                        "residual": (bool, False)}),
    "sphere": (_draw_sphere, {"m": (int, None), "n": (int, None), "gamma": (float, -0.5)}),
    "mcp": (_draw_mcp, {"m": (int, None), "n": (int, None), "r": (int, None), "s": (int, None)}),
}


def _start_point(problem, x_star, region, rng):
    """Pick a feasible start from the rate table's ``region``: half its radius,
    1e3 where it is "inf", 1e-3 * (1 + ||x*||) where it is None (no
    certificate). Shrinks until the projected point is inside the region."""
    spec = problem.constraint
    direction = rng.standard_normal(spec.n)
    direction /= np.linalg.norm(direction)
    if region is None:
        region, target = np.inf, 1e-3 * (1.0 + np.linalg.norm(x_star))
    else:
        region = float(region)  # decodes "inf"
        target = 1e3 if np.isinf(region) else 0.5 * region
    for _ in range(80):
        x0 = spec.project(x_star + target * direction)
        dist = np.linalg.norm(x0 - x_star)
        if dist > 0:
            # Rescale along the feasible displacement to hit the target length.
            x0 = spec.project(x_star + target * (x0 - x_star) / dist)
            dist = np.linalg.norm(x0 - x_star)
        if dist < region and dist > 0:
            return x0, float(dist)
        target *= 0.5
    raise GenerationError("could not place a feasible start inside the region")


def certified_etas(report):
    """The certified step grid: [eta_opt / 2, eta_opt], or [] without eta_opt."""
    return [] if report.eta_opt is None else [0.5 * report.eta_opt, report.eta_opt]


def default_etas(report):
    """Default step grid: 0.5, 1.0, and the optimal step of the instance."""
    etas = [0.5, 1.0]
    if report.eta_opt is not None:
        etas.append(report.eta_opt)
    return etas


def run_experiment(kind, params, etas, seed, outdir=None, max_iters=20_000):
    """Run PGD over a step grid and compare measured rates with theory.

    ``etas`` is a list of step sizes, or a function of the instance's
    :class:`ApplicationReport` returning one (for example :func:`default_etas`).
    Returns the bundle dictionary; when ``outdir`` is given also writes
    ``manifest.json`` plus one ``trace_eta_<value>.csv`` per step size
    (``trace_eta_<value>_<index>.csv`` where two steps print alike). A step
    that is not finite and positive raises ValueError before anything is written.
    """
    report = _instance_report(kind, params, seed)
    problem, x_star = report.problem, report.x_star
    if callable(etas):
        etas = etas(report)
    # The rate table refuses a bad step (analysis.require_steps) before any
    # output is written.
    application = report.to_json(etas)
    samples = application["rate_table"]
    rng = np.random.default_rng(seed + 1)

    if outdir is not None:
        os.makedirs(outdir, exist_ok=True)

    # Every start is drawn first, in grid order, and the grid runs as one block.
    starts = [_start_point(problem, x_star, sample["region"], rng) for sample in samples]
    floor = ERROR_FLOOR_SCALE * (1.0 + np.linalg.norm(x_star))
    floors = [
        min(floor, initial_error * min(BOUND_ACCURACIES) / 3.0) if sample["admissible"] else floor
        for sample, (_, initial_error) in zip(samples, starts)
    ]
    traces = run_pgd(
        problem,
        [sample["eta"] for sample in samples],
        np.reshape([x0 for x0, _ in starts], (len(starts), x_star.size)),
        max_iters=max_iters,
        error_floor=floors,
        x_ref=x_star,
    )

    # A trace is named by its step, and by its grid index where steps print alike.
    labels = [f"{sample['eta']:g}" for sample in samples]
    runs = []
    for index, (sample, (_, initial_error), trace) in enumerate(zip(samples, starts, traces)):
        eta = sample["eta"]
        row = {
            "eta": eta,
            "admissible": sample["admissible"],
            "theoretical_rate": sample["rate"],
            "region_radius": sample["region"],
            "initial_error": initial_error,
            "stop_reason": trace.stop_reason,
            "diverged": trace.stop_reason == "diverged",
        }
        runs.append(row)
        if row["diverged"]:
            row["divergence_iteration"] = trace.n_iterations + 1
            continue

        try:
            estimate = estimate_rate(trace)
            row["rho_hat"] = estimate.rho_hat
            row["window"] = list(estimate.window)
        except RateEstimationError as exc:
            row["rho_hat"] = None
            row["estimate_error"] = str(exc)

        # float() decodes the "inf" rate of an overflowing step, which has no gap.
        theory = row["theoretical_rate"]
        if theory is not None and 0 < float(theory) < np.inf and row.get("rho_hat") is not None:
            row["relative_gap"] = abs(row["rho_hat"] - theory) / theory

        if row["admissible"]:
            row["bound_checks"] = _bound_checks(report, eta, trace, initial_error)

        if outdir is not None:
            label = labels[index] + ("" if labels.count(labels[index]) == 1 else f"_{index}")
            name = f"trace_eta_{label}.csv"
            trace.write_csv(os.path.join(outdir, name))
            row["csv"] = name

    bundle = {
        "kind": kind,
        "params": dict(params),
        "seed": int(seed),
        "etas": [float(e) for e in etas],
        "application": application,
        "runs": runs,
    }
    if outdir is not None:
        with open(os.path.join(outdir, "manifest.json"), "w", encoding="ascii") as fh:
            json.dump(bundle, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return bundle


def _bound_checks(report, eta, trace, initial_error):
    """Compare iterations-to-accuracy against the certified bound.

    Uses the family's closed forms (all four have a symmetric update, so the
    eigenvector condition number is one and the error fraction is the initial
    error over the quadratic-term radius).
    """
    try:
        rate = report.rate(eta)
        if not 0.0 < rate < 1.0:
            return None
        quad = report.quad_coefficient(eta)
        bounds = [iteration_bound(eps, rate, quad, initial_error) for eps in BOUND_ACCURACIES]
    except NoCertificateError:
        return None
    errors = trace.errors
    checks = []
    for accuracy, bound in zip(BOUND_ACCURACIES, bounds):
        target = accuracy * errors[0]
        hit = np.flatnonzero(errors <= target)
        iterations = int(hit[0]) if hit.size else None
        checks.append(
            {
                "accuracy": accuracy,
                "iterations": iterations,
                "bound": bound,
                "ok": iterations is not None and iterations <= bound,
            }
        )
    return checks
