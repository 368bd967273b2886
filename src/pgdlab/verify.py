"""Runtime property suites behind ``pgdlab verify``.

Three suites: ``projections`` (geometry of the four projection operators),
``rates`` (closed-form rates against the generic eigenvalue path), and
``bounds`` (special function oracle, transient offset, iteration bounds).
Each check returns a result record with a counterexample string on failure.

The rates suite checks the certificate of ``analysis``, which eigensolves
only the k x k compressed update, against the dense n x n update H built
here from its definition and eigensolved by numpy's general ``eigvals``, code
that the certificate does not share.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import analysis
from .constraints import (
    SQRT2,
    AffineConstraint,
    LowRankConstraint,
    SparsityConstraint,
    SphereConstraint,
    draw_directions,
    finite_difference_check,
    quadratic_bound_margin,
    row_norms,
    sample_blocks,
)
from .empirics import _instance_report, certified_etas, run_experiment

@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str


def _result(name, ok, detail):
    return CheckResult(name, bool(ok), detail)


def _test_constraints(rng):
    C = rng.standard_normal((4, 12))
    d = C @ rng.standard_normal(12)
    return {
        "affine": AffineConstraint(C, d),
        "sparse": SparsityConstraint(4, 20),
        "sphere": SphereConstraint(8),
        "lowrank": LowRankConstraint(2, (5, 4)),
    }


# ---------------------------------------------------------------------------
# dense references


def spectral_radius(H):
    """max |lambda| over the eigenvalues of a dense square H (``eigvals``)."""
    return float(np.max(np.abs(np.linalg.eigvals(H))))


def derivative_matrix(lin):
    """The dense derivative ``scale * B B^T`` of a ``Linearization``, n x n; one read
    of B makes the product exactly symmetric (BLAS ``syrk``)."""
    basis = lin.basis
    return lin.scale * (basis @ basis.T)


def iteration_matrix(problem, x_star, eta):
    """H = dP(z) (I - eta A^T A) dP(x*) with z = x* - eta * gradient(x*), n x n."""
    x_star = np.asarray(x_star, dtype=float).reshape(-1)
    spec = problem.constraint
    identity = np.eye(spec.n)
    with np.errstate(over="ignore", invalid="ignore"):
        dP_x = derivative_matrix(spec.linearize(x_star))
        dP_z = derivative_matrix(spec.linearize(x_star - eta * problem.gradient(x_star)))
        return dP_z @ (identity - eta * problem.apply_t(problem.apply(identity))) @ dP_x


# ---------------------------------------------------------------------------
# projections suite


def check_idempotence(seed=0):
    rng = np.random.default_rng(seed)
    results = []
    for kind, spec in _test_constraints(rng).items():
        worst = 0.0
        for rows in sample_blocks(1000):
            once = spec.project(3.0 * rng.standard_normal((rows, spec.n)))
            twice = spec.project(once)
            worst = max(worst, (row_norms(twice - once) / (1.0 + row_norms(once))).max())
        results.append(
            _result(f"idempotence.{kind}", worst <= 1e-12, f"worst relative drift {worst:.3e}")
        )
    return results


def check_minimality(seed=0):
    rng = np.random.default_rng(seed)
    results = []
    for kind, spec in _test_constraints(rng).items():
        x = 2.0 * rng.standard_normal(spec.n)
        dist = np.linalg.norm(spec.project(x) - x)
        # Filled in place: np.array of a list of the 1,000 drawn arrays raised
        # the peak RSS of a ``verify --suite all`` process by about 0.5 MB,
        # and np.fromiter by about 0.15 MB.
        members = np.empty((1000, spec.n))
        for i in range(1000):
            members[i] = spec.random_member(rng)
        members -= x
        worst = (dist - row_norms(members)).max()
        results.append(
            _result(
                f"minimality.{kind}",
                worst <= 1e-12,
                f"largest excess over a feasible point {worst:.3e}",
            )
        )
    return results


def check_affine_nonexpansive(seed=0):
    rng = np.random.default_rng(seed)
    spec = _test_constraints(rng)["affine"]
    worst = -np.inf
    for rows in sample_blocks(500):
        # Each sample draws x, then y.
        x, y = (5.0 * rng.standard_normal((rows, 2, spec.n))).transpose(1, 0, 2)
        lhs = row_norms(spec.project(x) - spec.project(y))
        worst = max(worst, (lhs - row_norms(x - y)).max())
    return [_result("nonexpansive.affine", worst <= 1e-12, f"largest expansion {worst:.3e}")]


def check_derivative_projector(seed=0):
    rng = np.random.default_rng(seed)
    results = []
    for kind, spec in _test_constraints(rng).items():
        worst = 0.0
        for _ in range(50):
            x = spec.random_member(rng)
            mat = derivative_matrix(spec.linearize(x))
            asym = np.linalg.norm(mat - mat.T)
            eigs = np.linalg.eigvalsh(0.5 * (mat + mat.T))
            drift = np.max(np.minimum(np.abs(eigs), np.abs(eigs - 1.0)))
            worst = max(worst, asym, drift)
        results.append(
            _result(
                f"derivative_projector.{kind}",
                worst <= 1e-10,
                f"worst symmetry/eigenvalue defect {worst:.3e}",
            )
        )
    return results


def check_finite_difference(seed=0):
    """Central differences against the analytic derivative.

    The curved variants are probed at h=1e-6 (quadratic remainder dominates);
    the exactly linear ones at the largest allowed step and small point scale,
    where the only residual left is division-amplified rounding noise.
    """
    rng = np.random.default_rng(seed)
    results = []
    settings = {
        "affine": (1e-4, 1e-12),
        "sparse": (1e-4, 1e-12),
        "sphere": (1e-6, 1e-5),
        "lowrank": (1e-6, 1e-5),
    }
    specs = _test_constraints(rng)
    # Difference quotients amplify rounding by 1/(2h): the exactly linear
    # variants are probed at small point and offset scales so the noise floor
    # stays below the tolerance.
    C = rng.standard_normal((4, 12))
    specs["affine"] = AffineConstraint(C, C @ (0.02 * rng.standard_normal(12)))
    for kind, spec in specs.items():
        x = spec.random_member(rng)
        step, tol = settings[kind]
        if kind == "affine":
            x *= 0.1 / np.linalg.norm(x)
        elif kind == "sparse":
            x *= 0.25 / np.max(np.abs(x))
        residual = finite_difference_check(spec, x, step=step, trials=100, seed=seed + 1)
        results.append(
            _result(f"finite_difference.{kind}", residual <= tol, f"max residual {residual:.3e}")
        )
    return results


def check_quadratic_bounds(seed=0):
    rng = np.random.default_rng(seed)
    results = []

    sphere = SphereConstraint(8)
    x = sphere.random_member(rng)
    margin = quadratic_bound_margin(sphere, x, radius=0.3, trials=10_000, seed=seed + 2)
    results.append(
        _result("quadratic_bound.sphere", margin >= 0.0, f"worst margin {margin:.3e}")
    )

    lowrank = LowRankConstraint(2, (4, 4))
    x = lowrank.random_member(rng)
    sig = np.linalg.svd(lowrank.to_matrix(x), compute_uv=False)
    margin = quadratic_bound_margin(lowrank, x, radius=0.1 * sig[1], trials=10_000, seed=seed + 3)
    results.append(
        _result("quadratic_bound.lowrank", margin >= 0.0, f"worst margin {margin:.3e}")
    )

    # The convex/locally-linear variants should be exact within their cells.
    specs = _test_constraints(rng)
    for kind in ("affine", "sparse"):
        spec = specs[kind]
        x = spec.random_member(rng)
        lin = spec.linearize(x)
        radius = 1.0 if np.isinf(lin.radius) else 0.9 * lin.radius
        worst = 0.0
        base = spec.project(x)
        for rows in sample_blocks(1000):
            delta, uniforms = draw_directions(rng, rows, spec.n)
            delta *= radius * np.array(uniforms)[:, None] / row_norms(delta)
            residual = row_norms(spec.project(x + delta) - base - lin.apply(delta))
            worst = max(worst, residual.max())
        results.append(
            _result(f"cell_linearity.{kind}", worst <= 1e-12, f"worst residual {worst:.3e}")
        )
    return results


def check_scalar_inequality():
    """Quartic scalar inequality behind the sphere curvature constant."""
    u = np.linspace(3.0 / 200, 3.0, 200)
    worst = np.inf
    arg = None
    for ui in u:
        v = np.linspace((1.0 - ui) ** 2, (1.0 + ui) ** 2, 200)
        poly = (17.0 * ui - 2.0) * v**2 - 2.0 * ui * (1.0 - ui) ** 2 * v + (1.0 - ui) ** 4 * (
            ui + 2.0
        )
        idx = int(np.argmin(poly))
        if poly[idx] < worst:
            worst = float(poly[idx])
            arg = (float(ui), float(v[idx]))
    return [
        _result(
            "scalar_inequality.grid",
            worst >= -1e-12,
            f"min value {worst:.3e} at (u, v)={arg}",
        )
    ]


def check_support_stability(seed=0):
    """Perturbations strictly inside the sparse stability radius keep the
    top-s support; the boundary construction flips it just outside."""
    rng = np.random.default_rng(seed)
    n, s = 24, 5
    spec = SparsityConstraint(s, n)
    x_star = np.zeros(n)
    support = np.sort(rng.choice(n, size=s, replace=False))
    x_star[support] = rng.uniform(0.5, 2.0, size=s) * rng.choice([-1.0, 1.0], size=s)
    radius = np.min(np.abs(x_star[support])) / SQRT2

    flips = 0
    for rows in sample_blocks(1000):
        direction = rng.standard_normal((rows, n))
        direction /= row_norms(direction)
        probe = x_star + 0.99 * radius * direction
        flips += np.count_nonzero((spec.top_support(probe) != support).any(axis=-1))
    results = [
        _result(
            "support_stability.inside",
            flips == 0,
            f"{flips}/1000 perturbations at 0.99x radius changed the support",
        )
    ]

    # Boundary sharpness: halve the weakest kept entry and promote an
    # off-support entry just past it.
    weakest = support[int(np.argmin(np.abs(x_star[support])))]
    outside = next(i for i in range(n) if i not in set(support.tolist()))
    a = x_star[weakest]
    probe = x_star.copy()
    probe[weakest] = a / 2.0
    probe[outside] = a / 2.0 + np.sign(a) * 1e-3 * abs(a)
    flipped = not np.array_equal(spec.top_support(probe), support)
    dist = np.linalg.norm(probe - x_star)
    gap = abs(dist - radius) / radius
    results.append(
        _result(
            "support_stability.sharpness",
            flipped and gap <= 1e-2,
            f"flip={flipped}, |distance-radius|/radius={gap:.3e}",
        )
    )
    return results


def projections_suite(seed=0):
    results = []
    results += check_idempotence(seed)
    results += check_minimality(seed)
    results += check_affine_nonexpansive(seed)
    results += check_derivative_projector(seed)
    results += check_finite_difference(seed)
    results += check_quadratic_bounds(seed)
    results += check_scalar_inequality()
    results += check_support_stability(seed)
    return results


# ---------------------------------------------------------------------------
# rates suite


def _rate_instances(seed):
    """Reports of small instances of all four families."""
    yield _instance_report("lcls", {"m": 12, "n": 8, "p": 3}, seed)
    yield _instance_report("iht", {"m": 16, "n": 32, "s": 4, "residual": bool(seed % 2)}, seed)
    yield _instance_report("sphere", {"m": 12, "n": 6, "gamma": -0.4 if seed % 2 else 0.3}, seed)
    yield _instance_report("mcp", {"m": 6, "n": 5, "r": 2, "s": 24}, seed)


def check_rate_agreement(seed=0):
    """Closed-form rates equal the spectral radius of the linearized update.

    The certificate reads that radius off the compressed k x k update; the
    dense n x n H, eigensolved separately, must give the same radius.
    """
    worst = {"lcls": 0.0, "iht": 0.0, "sphere": 0.0, "mcp": 0.0}
    compressed_worst = dict.fromkeys(worst, 0.0)
    region_worst = 0.0
    rng = np.random.default_rng(seed)
    for k in range(20):
        for report in _rate_instances(seed + 100 + k):
            if not report.certified:
                continue
            cap = report.eta_max if np.isfinite(report.eta_max) else 4.0
            eta = float(rng.uniform(0.15, 0.95)) * cap
            rho_recipe = report.rate(eta)
            conv = analysis.analyze_fixed_point(
                report.problem, report.x_star, report.linearization, eta)
            kind = report.kind
            worst[kind] = max(worst[kind], abs(rho_recipe - conv.rate))
            H = iteration_matrix(report.problem, report.x_star, eta)
            rho_dense = spectral_radius(H)
            compressed_worst[kind] = max(
                compressed_worst[kind], abs(conv.rate - rho_dense) / (1.0 + conv.rate)
            )
            r1, r2 = report.region(eta), conv.region_radius
            if np.isinf(r1) or np.isinf(r2):
                region_worst = max(region_worst, 0.0 if r1 == r2 else np.inf)
            else:
                region_worst = max(region_worst, abs(r1 - r2) / (1.0 + abs(r1)))
    results = [
        _result(
            f"rate_agreement.{kind}",
            gap <= 1e-10,
            f"max |closed-form - spectral| = {gap:.3e}",
        )
        for kind, gap in worst.items()
    ]
    results.append(
        _result(
            "region_agreement.all",
            region_worst <= 1e-12,
            f"max relative region mismatch {region_worst:.3e}",
        )
    )
    results += [
        _result(
            f"compressed_agreement.{kind}",
            gap <= 1e-12,
            f"max |compressed - dense| / (1 + rate) = {gap:.3e}",
        )
        for kind, gap in compressed_worst.items()
    ]
    return results


def check_interlacing(seed=0):
    """Compressed eigenvalues sit inside the full spectrum, and the constrained
    rate never exceeds the unconstrained contraction factor below 2/||A||^2."""
    rng = np.random.default_rng(seed)
    worst_eig = -np.inf
    worst_rate = -np.inf
    worst_contraction = -np.inf
    for k in range(10):
        A = rng.standard_normal((10, 7))
        full = np.linalg.eigvalsh(A.T @ A)
        q, _ = np.linalg.qr(rng.standard_normal((7, 4)))
        aq = A @ q
        lam_max, lam_min = analysis.extreme_eigenvalues(aq.T @ aq)
        worst_eig = max(worst_eig, lam_max - full[-1], full[0] - lam_min)

        for report in _rate_instances(seed + 300 + k):
            if report.gamma is not None and report.gamma > 0:
                continue
            eta = float(rng.uniform(0.1, 0.95)) * 2.0 / report.problem.ata_extremes()[0]
            contraction = report.contraction(eta)
            conv = analysis.analyze_fixed_point(
                report.problem, report.x_star, report.linearization, eta)
            worst_rate = max(worst_rate, conv.rate - contraction)
            worst_contraction = max(worst_contraction, contraction - 1.0)
    return [
        _result(
            "interlacing.eigenvalues", worst_eig <= 1e-10, f"worst excursion {worst_eig:.3e}"
        ),
        _result(
            "interlacing.rate_below_contraction",
            worst_rate <= 1e-10,
            f"worst rate excess {worst_rate:.3e}",
        ),
        _result(
            "interlacing.contraction_below_one",
            worst_contraction <= 1e-12,
            f"worst excess over one {worst_contraction:.3e}",
        ),
    ]


def check_gelfand(seed=0):
    worst = 0.0
    for report in _rate_instances(seed + 500):
        eta = 0.8 * (report.eta_max if np.isfinite(report.eta_max) else 2.0)
        H = iteration_matrix(report.problem, report.x_star, eta)
        rho = spectral_radius(H)
        if rho <= 0:
            continue
        approx = np.linalg.norm(np.linalg.matrix_power(H, 64), 2) ** (1.0 / 64)
        worst = max(worst, abs(approx - rho) / rho)
    return [_result("gelfand.power_norm", worst <= 0.1, f"worst relative gap {worst:.3e}")]


def check_eigvec_order_invariance(seed=0):
    """Region and bound are unchanged when the eigenvector basis is shuffled."""
    rng = np.random.default_rng(seed)
    report = _instance_report("lcls", {"m": 12, "n": 8, "p": 3}, seed + 700)
    eta = 0.7 * report.eta_max
    H = iteration_matrix(report.problem, report.x_star, eta)
    perm = rng.permutation(H.shape[0])
    H_shuffled = H[np.ix_(perm, perm)]
    # H is its own compression onto the identity basis, with H^j = H H^(j-1).
    eig_a = analysis.eigendecompose(H, H)
    eig_b = analysis.eigendecompose(H_shuffled, H_shuffled)
    rho_gap = abs(eig_a.spectral_radius - eig_b.spectral_radius)
    contraction = report.contraction(eta)
    vals = []
    for eig in (eig_a, eig_b):
        radius = analysis.convergence_radius(
            np.inf, np.inf, eig.eigvec_condition, contraction, eig.spectral_radius, 0.0
        )
        bound = analysis.iterations_to_accuracy(1e-6, eig.spectral_radius, eig.eigvec_condition)
        vals.append((radius, bound))
    same_radius = vals[0][0] == vals[1][0]
    bound_gap = abs(vals[0][1] - vals[1][1])
    ok = rho_gap <= 1e-12 and same_radius and bound_gap <= 1e-9
    return [
        _result(
            "eigvec_order_invariance",
            ok,
            f"rho gap {rho_gap:.3e}, bound gap {bound_gap:.3e}",
        )
    ]


def check_corollary_consistency(seed=0):
    """The tangent-compressed rate equals the spectral radius on affine problems."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for k in range(10):
        report = _instance_report("lcls", {"m": 10, "n": 7, "p": 2}, seed + 900 + k)
        eta = float(rng.uniform(0.05, 0.3))
        rho = spectral_radius(iteration_matrix(report.problem, report.x_star, eta))
        worst = max(worst, abs(report.rate(eta) - rho))
    return [_result("corollary_consistency.affine", worst <= 1e-10, f"max gap {worst:.3e}")]


def rates_suite(seed=0):
    results = []
    results += check_rate_agreement(seed)
    results += check_interlacing(seed)
    results += check_gelfand(seed)
    results += check_eigvec_order_invariance(seed)
    results += check_corollary_consistency(seed)
    return results


# ---------------------------------------------------------------------------
# bounds suite


# Built on first use, once: leggauss(20) costs about 0.5 ms a call, and at
# import numpy.polynomial would add about 4 ms to every pgdlab command.
@functools.cache
def _gauss_legendre():
    return np.polynomial.legendre.leggauss(20)


def e1_quadrature(t):
    """Quadrature oracle for the exponential integral, for t > 0.

    E1(t) = int_0^inf exp(-t e^s) ds (z = t e^s in int_t^inf e^-z / z dz),
    by composite 20-point Gauss-Legendre on panels of width 0.25 up to
    s = log(700 / t), past which the integrand is below 1e-300. It shares no
    code with ``analysis.exp_integral_e1`` (series and continued fraction).
    """
    t = float(t)
    if t <= 0:
        raise ValueError("t must be positive")
    nodes, weights = _gauss_legendre()
    panels = max(1, int(np.ceil(np.log(700.0 / t) / 0.25)))
    s = 0.25 * np.arange(panels)[:, None] + 0.125 * (nodes + 1.0)
    return float(0.125 * np.sum(weights * np.exp(-t * np.exp(s))))


def check_e1():
    ts = np.logspace(np.log10(0.01), np.log10(20.0), 50)
    worst = 0.0
    arg = None
    for t in ts:
        gap = abs(analysis.exp_integral_e1(t) - e1_quadrature(t))
        if gap > worst:
            worst, arg = gap, float(t)
    results = [
        _result("e1.quadrature_oracle", worst <= 1e-10, f"max |error| {worst:.3e} at t={arg}")
    ]
    decreasing = (
        analysis.exp_integral_e1(0.5)
        > analysis.exp_integral_e1(1.0)
        > analysis.exp_integral_e1(2.0)
    )
    results.append(_result("e1.decreasing", decreasing, "E1(0.5) > E1(1) > E1(2)"))
    t = 50.0
    asymptotic = analysis.exp_integral_e1(t) * t * np.exp(t)
    results.append(
        _result(
            "e1.asymptotic",
            abs(asymptotic - 1.0) <= 0.05,
            f"t*exp(t)*E1(t) = {asymptotic:.6f} at t=50",
        )
    )
    return results


def check_transient_offset():
    results = []
    limit = analysis.transient_offset(0.5, 1e-10)
    results.append(
        _result(
            "transient_offset.limit", abs(limit - 1.0) <= 1e-6, f"value at tau=1e-10: {limit!r}"
        )
    )

    monotone = True
    for rate in (0.3, 0.5, 0.9):
        values = [analysis.transient_offset(rate, tau) for tau in np.arange(0.1, 0.95, 0.1)]
        monotone &= bool(np.all(np.diff(values) > 0))
    results.append(
        _result("transient_offset.monotone", monotone, "increasing in the error fraction")
    )

    # Re-evaluate the formula with the quadrature oracle in place of the
    # series/continued-fraction implementation.
    rate, tau = 0.5, 0.5
    shifted = rate + tau * (1.0 - rate)
    oracle = (
        e1_quadrature(np.log(1.0 / shifted))
        - e1_quadrature(np.log(1.0 / rate))
        + 0.5 * np.log(np.log(1.0 / rate) / np.log(1.0 / shifted))
    ) / (rate * np.log(1.0 / rate)) + 1.0
    gap = abs(analysis.transient_offset(rate, tau) - oracle)
    results.append(
        _result("transient_offset.quadrature_crosscheck", gap <= 1e-9, f"gap {gap:.3e}")
    )
    return results


def check_bound_dominance(seed=0):
    """Certified runs reach every accuracy within the iteration bound."""
    configs = [
        ("lcls", {"m": 14, "n": 10, "p": 3}),
        ("iht", {"m": 20, "n": 40, "s": 4}),
        ("sphere", {"m": 12, "n": 6, "gamma": -0.5}),
        ("mcp", {"m": 7, "n": 6, "r": 2, "s": 30}),
    ]
    results = []
    for kind, params in configs:
        bundle = run_experiment(kind, params, certified_etas, seed)
        ok = True
        detail = []
        for run in bundle["runs"]:
            checks = run.get("bound_checks")
            if not run["admissible"] or checks is None:
                continue
            for chk in checks:
                if not chk["ok"]:
                    ok = False
                    detail.append(
                        f"eta={run['eta']:g} accuracy={chk['accuracy']:g} "
                        f"iters={chk['iterations']} bound={chk['bound']:.2f}"
                    )
        results.append(
            _result(
                f"bound_dominance.{kind}",
                ok,
                "; ".join(detail) if detail else "all accuracies reached within the bound",
            )
        )
    return results


def bounds_suite(seed=0):
    results = []
    results += check_e1()
    results += check_transient_offset()
    results += check_bound_dominance(seed)
    return results


SUITES = {
    "projections": projections_suite,
    "rates": rates_suite,
    "bounds": bounds_suite,
}


def run_suites(names, seed=0):
    results = []
    for name in names:
        results += SUITES[name](seed)
    return results
