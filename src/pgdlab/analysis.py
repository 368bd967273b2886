"""Local convergence theory for fixed-step projected gradient descent.

Given a fixed point x* of the iteration and its gradient step z = x* - eta*g,
the linearized update matrix is

    H = dP(z) (I - eta A^T A) dP(x*).

Its spectral radius is the asymptotic linear rate, read off the k x k
compression of H onto the tangent space of dimension k; together with the
linearization constants of the projection at x* and z it yields the radius of
the ball around x* inside which linear convergence is certified, and an
explicit bound on the number of iterations needed to reach a relative
accuracy. The recipe holds for any constraint that can linearize, wherever x*
is a fixed point: P(z) = x* to within ``FIXED_POINT_RTOL``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constraints import relative_residuals
from .errors import ConstraintDomainError, NoCertificateError

SYMMETRY_RTOL = 1e-12

# Bound on ||P(z) - x*|| / (1 + ||x*||) for x* to count as a fixed point at a
# step. Accepted fixed points of every family, exact or within a family's
# stationarity tolerance, stay below 1e-10; steps at which x* is not a fixed
# point (an iht step past its cap, a flipped sphere) give 0.1 or more.
FIXED_POINT_RTOL = 1e-8

EULER_GAMMA = float(np.euler_gamma)


def ata_extremes(A):
    """Largest and smallest eigenvalues of A^T A from the singular values of A.

    The smallest is zero when A has more columns than rows.
    """
    A = np.asarray(A, dtype=float)
    sig = np.linalg.svd(A, compute_uv=False)
    hi = float(sig[0] ** 2)
    lo = float(sig[-1] ** 2) if A.shape[0] >= A.shape[1] else 0.0
    return hi, lo


def extreme_eigenvalues(sym):
    """Largest and smallest eigenvalues of a symmetric matrix.

    A caller with a Gram M^T M forms ``M.T @ M`` from the one array M, which
    numpy computes with ``syrk``, and drops M before this call: ``eigvalsh``
    allocates its LAPACK copy and workspace outside Python, on top of whatever
    the caller still holds, and at completion scale M is the |Omega|-row block.
    """
    lams = np.linalg.eigvalsh(sym)
    return float(lams[-1]), float(lams[0])


def require_steps(eta):
    """``eta``, a step or a grid of them, as a float array; ValueError naming
    the steps that are not finite and positive, if any."""
    steps = np.asarray(eta, dtype=float)
    ok = (steps > 0) & (steps < np.inf)  # also false for NaN
    if not np.all(ok):
        bad = steps[~ok].tolist() if steps.ndim else float(steps)
        raise ValueError(f"eta must be finite and positive, got {bad}")
    return steps


def contraction_factor(lam_max, lam_min, eta):
    """max |1 - eta*lam| over a spectrum in [lam_min, lam_max].

    |1 - eta*lam| is convex in lam, so the extremes decide.
    """
    return float(max(abs(1.0 - eta * lam_max), abs(1.0 - eta * lam_min)))


def gradient_contraction(A, eta):
    """Spectral norm of I - eta A^T A, the plain gradient-descent contraction factor."""
    return contraction_factor(*ata_extremes(A), float(require_steps(eta)))


def _image_gram(problem, lin_z, lin_x):
    """(A B_z)^T (A B_x), k x k, for two different linearizations, from the
    bases' factors: for a diagonal A = diag(d) the weighted cross Gram
    B_z^T diag(d^2) B_x, with no array as tall as a basis; a matrix A is
    applied to every row of each basis, and the blocks are gone on return."""
    if problem.diagonal is not None:
        return lin_z.cross_gram(lin_x, problem.diagonal**2)
    return problem.apply(lin_z.rows()).T @ problem.apply(lin_x.rows())


def _compressed_update(problem, lin_x, lin_z, eta):
    """C = (B_x^T B_z)(sM) and sM = s_z s_x B_z^T G B_x with G = I - eta A^T A, k x k.

    H = (B_z sM)(B_x^T) and C is the same product taken in the other order,
    so C has the nonzero eigenvalues of H (Horn & Johnson, Matrix Analysis,
    Thm 1.3.22), and H^j = B_z (sM) C^(j-1) B_x^T. B_z^T G B_x is
    (B_x^T B_z)^T - eta W with W from ``_image_gram``. A step at which C
    overflows has no certificate.
    """
    scale = lin_z.scale * lin_x.scale
    with np.errstate(over="ignore", invalid="ignore"):
        M = _image_gram(problem, lin_z, lin_x)
        M *= -eta
        cross = lin_x.cross_gram(lin_z)
        M += cross.T
        C = cross @ M
        C *= scale
        M *= scale
        finite = np.isfinite(np.linalg.norm(C))
    if not finite:
        raise NoCertificateError(f"the linearized update overflows at eta={eta:g}")
    return C, M


@dataclass(frozen=True)
class EigenData:
    """The rate bound r and the constant kappa with ||H^j|| <= kappa r^j."""

    spectral_radius: float
    eigvec_condition: float
    symmetric: bool


def eigendecompose(C, sM):
    """Rate bound r and constant kappa, ||H^j|| <= kappa r^j, from H's k x k
    compression C and the factor sM of its powers, H^j = B_z (sM) C^(j-1) B_x^T.
    Neither array is modified; C and sM may be one array.

    A symmetric C gives its spectral radius and kappa = 1. Otherwise, with S
    and K the symmetric and skew parts of C, ||C|| <= rho(S) + ||K|| = r (Weyl)
    and kappa = max(1, ||sM|| / r): no eigenvector matrix, so no choice of
    basis for a repeated eigenvalue, enters.
    """
    skew = C - C.T
    symmetric = np.linalg.norm(skew) <= SYMMETRY_RTOL * (1.0 + np.linalg.norm(C))
    if not symmetric:
        skew *= 0.5
        skew_norm = float(np.linalg.norm(skew, 2))
    S = np.add(C, C.T, out=skew)  # the skew part's array, read by now
    S *= 0.5
    lam_max, lam_min = extreme_eigenvalues(S)
    rate = max(abs(lam_max), abs(lam_min))
    if symmetric:
        return EigenData(spectral_radius=rate, eigvec_condition=1.0, symmetric=True)
    rate += skew_norm
    condition = max(1.0, float(np.linalg.norm(sM, 2)) / rate)
    return EigenData(spectral_radius=rate, eigvec_condition=condition, symmetric=False)


def quadratic_coefficient(eigvec_condition, contraction, curvature_z, proj_norm_z, curvature_x):
    """Coefficient of the squared-error term in the one-step error recursion."""
    if min(contraction, curvature_z, proj_norm_z, curvature_x) < 0:
        raise ValueError("inputs must be nonnegative")
    if eigvec_condition < 1.0:
        raise ValueError("eigenvector condition number is at least one")
    return float(
        eigvec_condition**2
        * contraction
        * (curvature_z * contraction + proj_norm_z * curvature_x)
    )


def _safe_div(num, den):
    """num / den with a positive numerator over zero mapping to +inf."""
    if den == 0.0:
        return np.inf if num != 0.0 else np.nan
    return num / den


def convergence_radius(radius_x, radius_z, eigvec_condition, contraction, rate, quad_coeff):
    """Radius of the certified ball of linear convergence around the fixed point."""
    if not rate < 1.0:
        raise NoCertificateError("no linear convergence certificate (rate >= 1)")
    terms = (
        _safe_div(radius_x, eigvec_condition),
        _safe_div(radius_z, eigvec_condition * contraction),
        _safe_div(1.0 - rate, quad_coeff),
    )
    return float(min(terms))


def exp_integral_e1(t):
    """Exponential integral E1(t) for t > 0, and its limit 0 at t = inf.

    Power series about zero for t <= 1, modified Lentz continued fraction for
    t > 1; absolute error well below 1e-12 across (0, 700].
    """
    t = float(t)
    if not t > 0:  # also true for NaN
        raise ValueError(f"t must be positive, got {t!r}")
    if t == np.inf:
        return 0.0
    if t <= 1.0:
        total = -EULER_GAMMA - np.log(t)
        term = 1.0
        for k in range(1, 200):
            term *= -t / k
            contribution = -term / k
            total += contribution
            if abs(contribution) < 1e-18 * max(1.0, abs(total)):
                break
        return float(total)
    # Continued fraction E1(t) = exp(-t) / (t + 1 - 1/(t + 3 - 4/(t + 5 - ...)))
    # evaluated with the modified Lentz algorithm.
    tiny = 1e-300
    b = t + 1.0
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for k in range(1, 10_000):
        a = -float(k) ** 2
        b += 2.0
        d = a * d + b
        if d == 0.0:
            d = tiny
        d = 1.0 / d
        c = b + a / c
        if c == 0.0:
            c = tiny
        delta = c * d
        h *= delta
        if abs(delta - 1.0) < 1e-16:
            break
    return float(h * np.exp(-t))


def transient_offset(rate, error_fraction):
    """Additive iteration count covering the nonlinear early stage.

    ``error_fraction`` is the initial error divided by the certified radius of
    the quadratic term; the offset tends to one as it tends to zero.
    """
    rate = float(rate)
    tau = float(error_fraction)
    if not 0.0 < rate < 1.0:
        raise ValueError("rate must lie in (0, 1)")
    if not 0.0 < tau < 1.0:
        raise ValueError("error fraction must lie in (0, 1)")
    shifted = rate + tau * (1.0 - rate)
    log_inv_rate = np.log(1.0 / rate)
    log_inv_shifted = np.log(1.0 / shifted)
    bracket = (
        exp_integral_e1(log_inv_shifted)
        - exp_integral_e1(log_inv_rate)
        + 0.5 * np.log(log_inv_rate / log_inv_shifted)
    )
    return float(bracket / (rate * log_inv_rate) + 1.0)


def certified_offset(rate, quad, initial_error):
    """Transient offset for a run started at the given distance from the fixed point.

    Its error fraction is the initial error over the quadratic-term radius
    (1 - rate) / quad; without a quadratic term the offset is 1.
    """
    tau = 0.0 if quad == 0.0 else float(quad * initial_error / (1.0 - rate))
    if tau == 0.0:
        return 1.0
    if tau >= 1.0:
        raise NoCertificateError(
            f"initial error is outside the certified region (fraction {tau:.3e})"
        )
    if rate == 0.0:
        raise NoCertificateError(
            "no transient offset at rate 0 with a quadratic term (the error "
            "recursion is purely quadratic)"
        )
    return transient_offset(rate, tau)


def iterations_to_accuracy(accuracy, rate, eigvec_condition=1.0, offset=1.0):
    """Iterations guaranteeing the error shrank by the given relative accuracy.

    At rate 0 the linear part vanishes in one step, so only the offset is left.
    """
    accuracy = float(accuracy)
    rate = float(rate)
    if not 0.0 < accuracy < 1.0:
        raise ValueError("accuracy must lie in (0, 1)")
    if not 0.0 <= rate < 1.0:
        raise ValueError("rate must lie in [0, 1)")
    if rate == 0.0:
        return float(offset)
    return float(
        (np.log(1.0 / accuracy) + np.log(eigvec_condition)) / np.log(1.0 / rate) + offset
    )


def iteration_bound(accuracy, rate, quad, initial_error, eigvec_condition=1.0):
    """Iterations guaranteeing that a run started ``initial_error`` from the fixed
    point shrinks its error by the given relative accuracy."""
    offset = certified_offset(rate, quad, initial_error)
    return iterations_to_accuracy(accuracy, rate, eigvec_condition, offset)


def optimal_step(lam_max, lam_min):
    """Step size minimizing max(|1 - eta*lam_max|, |1 - eta*lam_min|) and its rate."""
    lam_max = float(lam_max)
    lam_min = float(lam_min)
    if not lam_max >= lam_min:
        raise ValueError("need lam_max >= lam_min")
    if lam_min <= 0:
        raise NoCertificateError("smallest eigenvalue is not positive: no finite optimal rate")
    condition = lam_max / lam_min
    return 2.0 / (lam_max + lam_min), 1.0 - 2.0 / (condition + 1.0)


@dataclass
class ConvergenceReport:
    """The certified quantities at a fixed point for one step size."""

    rate: float
    eigvec_condition: float
    contraction: float
    quad_coeff: float
    region_radius: float | None
    certified: bool
    symmetric: bool

    def bound(self, accuracy, initial_error):
        """Iteration bound for the given relative accuracy from ``initial_error``."""
        if not self.certified:
            raise NoCertificateError("no linear convergence certificate (rate >= 1)")
        return iteration_bound(
            accuracy, self.rate, self.quad_coeff, initial_error, self.eigvec_condition
        )

    def to_json(self):
        return {
            "rate": self.rate,
            "eigvec_condition": self.eigvec_condition,
            "contraction": self.contraction,
            "quad_coeff": self.quad_coeff,
            "region_radius": json_float(self.region_radius),
            "certified": self.certified,
            "symmetric": self.symmetric,
            # Every update has a bound ||H^j|| <= kappa r^j; the key stays.
            "diagonalizable": True,
        }


def json_float(v):
    """A float for JSON: None stays None and an infinity becomes the string "inf"."""
    if v is None:
        return None
    v = float(v)
    return "inf" if np.isinf(v) else v


def _require_fixed_point(problem, x_star, z, eta):
    """NoCertificateError unless ||P(z) - x*|| / (1 + ||x*||) <= FIXED_POINT_RTOL."""
    gap = float(relative_residuals(problem.constraint.project(z) - x_star, x_star))
    if not gap <= FIXED_POINT_RTOL:
        raise NoCertificateError(
            f"x* is not a fixed point at eta={eta:g}: the gap "
            f"||P(z) - x*|| / (1 + ||x*||) = {gap:.3e} exceeds {FIXED_POINT_RTOL:g}"
        )


def analyze_fixed_point(problem, x_star, linearization, eta):
    """Full convergence report for PGD with step ``eta`` at the fixed point
    ``x_star`` of ``problem``, whose projection has ``linearization`` there.

    The rate and the constant kappa come from the k x k compressed update C
    and the factor sM of H's powers (``eigendecompose``). At a fixed point
    span B_z = span B_x, so C is symmetric and its rate is H's spectral
    radius. Near one (x* within a family's stationarity tolerance) C is nearly
    symmetric, and the rate is a norm bound within ||K|| of it. A step at
    which P(z) = x* fails by more than ``FIXED_POINT_RTOL`` has no
    certificate, and says so also where P has no derivative at z; nor has
    one at which the gradient step z overflows.

    Where the gradient vanishes at x*, z is x* bit for bit and B_z = B_x, so C
    would be s^2 (I - eta W) with W = (A B)^T (A B): the rate is s^2 times the
    ``contraction_factor`` of W's extremes, kappa = 1. Those are
    ``problem.tangent_extremes(linearization)``, the family analysis's own
    eigenvalues when given its linearization: no eigensolve at any step. The
    fixed-point test still runs.
    """
    eta = float(require_steps(eta))
    contraction = contraction_factor(*problem.ata_extremes(), eta)
    if not np.isfinite(contraction):
        raise NoCertificateError(f"the contraction factor overflows at eta={eta:g}")
    with np.errstate(over="ignore", invalid="ignore"):
        z = x_star - eta * problem.gradient(x_star)
    if not np.all(np.isfinite(z)):
        raise NoCertificateError(f"the gradient step overflows at eta={eta:g}")
    if np.array_equal(z, x_star):
        lin_z = linearization
        lams = problem.tangent_extremes(lin_z)
        rate = lin_z.scale**2 * contraction_factor(*lams, eta)
        eig = EigenData(spectral_radius=rate, eigvec_condition=1.0, symmetric=True)
    else:
        try:
            lin_z = problem.constraint.linearize(z)
        except ConstraintDomainError:
            _require_fixed_point(problem, x_star, z, eta)
            raise
        eig = eigendecompose(*_compressed_update(problem, linearization, lin_z, eta))
    _require_fixed_point(problem, x_star, z, eta)
    rate, kappa = eig.spectral_radius, eig.eigvec_condition
    quad = quadratic_coefficient(
        kappa, contraction, lin_z.curvature, lin_z.operator_norm(), linearization.curvature
    )
    region = None
    if rate < 1.0:
        region = convergence_radius(
            linearization.radius, lin_z.radius, kappa, contraction, rate, quad
        )
    return ConvergenceReport(
        rate=rate, eigvec_condition=kappa, contraction=contraction, quad_coeff=quad,
        region_radius=region, certified=rate < 1.0, symmetric=eig.symmetric,
    )
