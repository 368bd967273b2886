"""Local convergence theory for fixed-step projected gradient descent.

Given a fixed point x* of the iteration and its gradient step z = x* - eta*g,
the linearized update matrix is

    H = dP(z) (I - eta A^T A) dP(x*).

Its spectral radius is the asymptotic linear rate; together with the
linearization constants of the projection at x* and z it yields the radius of
the ball around x* inside which linear convergence is certified, and an
explicit bound on the number of iterations needed to reach a relative
accuracy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConstraintDomainError, NoCertificateError

SYMMETRY_RTOL = 1e-12
EIGVEC_CONDITION_LIMIT = 1e12
IMAG_TOL = 1e-10

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


def gram_extremes(M):
    """Largest and smallest eigenvalues of M^T M."""
    lams = np.linalg.eigvalsh(M.T @ M)
    return float(lams[-1]), float(lams[0])


def contraction_factor(lam_max, lam_min, eta):
    """max |1 - eta*lam| over a spectrum in [lam_min, lam_max].

    |1 - eta*lam| is convex in lam, so the extremes decide.
    """
    return float(max(abs(1.0 - eta * lam_max), abs(1.0 - eta * lam_min)))


def gradient_contraction(A, eta):
    """Spectral norm of I - eta A^T A, the plain gradient-descent contraction factor."""
    if eta <= 0:
        raise ValueError("eta must be positive")
    return contraction_factor(*ata_extremes(A), eta)


def _linearized_update(problem, x_star, eta):
    """H together with the linearizations at the fixed point and its gradient step.

    A step at which the gradient step or the norm of H overflows has no
    certificate.
    """
    x_star = np.asarray(x_star, dtype=float).reshape(-1)
    eta = float(eta)
    grad = problem.gradient(x_star)
    with np.errstate(over="ignore", invalid="ignore"):
        z = x_star - eta * grad
    if not np.all(np.isfinite(z)):
        raise NoCertificateError(f"the gradient step overflows at eta={eta:g}")
    spec = problem.constraint
    if spec.kind == "sphere":
        multiplier = float(x_star @ grad)
        if 1.0 - eta * multiplier <= 0.0:
            raise ConstraintDomainError(
                "sphere: fixed-point condition violated "
                f"(1 - eta*gamma = {1.0 - eta * multiplier:.3e} <= 0)"
            )
    lin_x = spec.linearize(x_star)
    lin_z = spec.linearize(z)
    with np.errstate(over="ignore", invalid="ignore"):
        if problem.diagonal is None:
            middle = np.eye(spec.n) - eta * (problem.A.T @ problem.A)
            H = lin_z.matrix @ middle @ lin_x.matrix
        else:
            # Scaling the columns of dP(z) by the diagonal of I - eta A^T A gives
            # the bits of the dense product dP(z) (I - eta A^T A).
            middle = 1.0 - eta * problem.diagonal**2
            H = (lin_z.matrix * middle) @ lin_x.matrix
        finite = np.isfinite(np.linalg.norm(H))
    if not finite:
        raise NoCertificateError(f"the linearized update overflows at eta={eta:g}")
    return H, lin_x, lin_z


def iteration_matrix(problem, x_star, eta):
    """Linearized PGD update matrix at a fixed point x* with step eta."""
    H, _, _ = _linearized_update(problem, x_star, eta)
    return H


@dataclass(frozen=True)
class EigenData:
    """Eigendecomposition of the update matrix with the quantities used downstream."""

    Q: np.ndarray
    eigenvalues: np.ndarray
    spectral_radius: float
    eigvec_condition: float
    symmetric: bool
    diagonalizable: bool


def eigendecompose(H):
    """Eigendecomposition of H, preferring the symmetric solver when applicable.

    A symmetric H gets an orthogonal eigenvector basis (condition number one).
    The decomposition is flagged non-diagonalizable when the eigenvector basis
    is numerically singular or the spectrum is not real.
    """
    H = np.asarray(H, dtype=float)
    asym = np.linalg.norm(H - H.T)
    symmetric = asym <= SYMMETRY_RTOL * (1.0 + np.linalg.norm(H))
    if symmetric:
        eigenvalues, Q = np.linalg.eigh(0.5 * (H + H.T))
        return EigenData(
            Q=Q,
            eigenvalues=eigenvalues,
            spectral_radius=float(np.max(np.abs(eigenvalues))),
            eigvec_condition=1.0,
            symmetric=True,
            diagonalizable=True,
        )
    eigenvalues, Q = np.linalg.eig(H)
    scale = np.max(np.abs(eigenvalues)) if eigenvalues.size else 0.0
    real_spectrum = bool(np.max(np.abs(eigenvalues.imag)) <= IMAG_TOL * (1.0 + scale))
    sing = np.linalg.svd(Q, compute_uv=False)
    condition = float(sing[0] / sing[-1]) if sing[-1] > 0 else np.inf
    diagonalizable = real_spectrum and condition <= EIGVEC_CONDITION_LIMIT
    return EigenData(
        Q=Q.real if real_spectrum else Q,
        eigenvalues=eigenvalues.real if real_spectrum else eigenvalues,
        spectral_radius=float(np.max(np.abs(eigenvalues))),
        eigvec_condition=condition,
        symmetric=False,
        diagonalizable=diagonalizable,
    )


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
    """Exponential integral E1(t) for t > 0.

    Power series about zero for t <= 1, modified Lentz continued fraction for
    t > 1; absolute error well below 1e-12 across (0, 700].
    """
    t = float(t)
    if t <= 0:
        raise ValueError("t must be positive")
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


def compressed_rate(A, basis, eta):
    """Rate and extreme eigenvalues of the objective compressed onto a tangent basis.

    ``basis`` must have orthonormal columns; the rate is the contraction factor
    of gradient descent restricted to its span.
    """
    basis = np.asarray(basis, dtype=float)
    eta = float(eta)
    if eta <= 0:
        raise ValueError("eta must be positive")
    d = basis.shape[1]
    gram_defect = np.linalg.norm(basis.T @ basis - np.eye(d))
    if gram_defect > 1e-10:
        raise ValueError(f"basis columns are not orthonormal (defect {gram_defect:.3e})")
    lam_max, lam_min = gram_extremes(np.asarray(A, dtype=float) @ basis)
    return contraction_factor(lam_max, lam_min, eta), lam_max, lam_min


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
    diagonalizable: bool

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
            "diagonalizable": self.diagonalizable,
        }


def json_float(v):
    """A float for JSON: None stays None and an infinity becomes the string "inf"."""
    if v is None:
        return None
    v = float(v)
    return "inf" if np.isinf(v) else v


def analyze_fixed_point(problem, x_star, eta):
    """Full convergence report for PGD at a fixed point with step ``eta``."""
    if eta <= 0:
        raise ValueError("eta must be positive")
    H, lin_x, lin_z = _linearized_update(problem, x_star, eta)
    contraction = contraction_factor(*problem.ata_extremes(), eta)
    if not np.isfinite(contraction):
        raise NoCertificateError(f"the contraction factor overflows at eta={eta:g}")
    eig = eigendecompose(H)
    if eig.diagonalizable:
        quad = quadratic_coefficient(
            eig.eigvec_condition,
            contraction,
            lin_z.curvature,
            lin_z.operator_norm(),
            lin_x.curvature,
        )
    else:
        quad = np.inf

    certified = eig.diagonalizable and eig.spectral_radius < 1.0
    region = None
    if certified:
        region = convergence_radius(
            lin_x.radius,
            lin_z.radius,
            eig.eigvec_condition,
            contraction,
            eig.spectral_radius,
            quad,
        )
    return ConvergenceReport(
        rate=eig.spectral_radius,
        eigvec_condition=eig.eigvec_condition,
        contraction=contraction,
        quad_coeff=quad,
        region_radius=region,
        certified=certified,
        symmetric=eig.symmetric,
        diagonalizable=eig.diagonalizable,
    )
