"""Closed-form convergence analysis for four concrete problem families.

Every analysis follows the same outline: identify the tangent basis of the
constraint set at the solution, compress the least-squares curvature onto it,
and read the admissible step sizes, the asymptotic rate, the optimal step, and
the certified region from the extreme eigenvalues of the compressed matrix.

Families: equality-constrained least squares (affine), sparse recovery via
hard thresholding, least squares on the unit sphere, and low-rank matrix
completion.
"""

from __future__ import annotations

import numpy as np

from .analysis import ata_extremes, contraction_factor, gram_extremes, json_float, optimal_step
from .constraints import RANK_CURVATURE, RANK_RTOL, SQRT2, AffineConstraint, LowRankConstraint
from .constraints import SphereConstraint, coordinate_basis, rank_tangent_basis
from .engine import Problem
from .errors import NoCertificateError, StationarityError

FULL_RANK_RTOL = 1e-10
STATIONARITY_TOL = 1e-10


class ApplicationReport:
    """Per-family convergence summary around a certified solution.

    Every family reduces to the same numbers: the extreme eigenvalues of the
    objective compressed onto the tangent basis, the constraint multiplier
    ``gamma`` (read as 0 when ``None``), the ``curvature`` of the projection and
    the fixed-point step cap. ``rate(eta)`` and ``region(eta)`` evaluate the
    closed forms from them; ``region`` raises NoCertificateError outside the
    admissible step range.
    """

    def __init__(self, kind, tangent_basis, lam_max, lam_min, x_star, ata_extremes, *,
                 full_rank, fixed_point_ok=True, curvature=0.0, gamma=None,
                 fixed_point_eta_max=np.inf, details=None):
        self.kind = kind
        self.tangent_basis = tangent_basis
        self.lam_max = float(lam_max)
        self.lam_min = float(lam_min)
        self.gamma = None if gamma is None else float(gamma)
        self.curvature = float(curvature)
        self.fixed_point_eta_max = float(fixed_point_eta_max)
        shift = self.gamma or 0.0
        step_cap = np.inf if shift <= -self.lam_max else 2.0 / (shift + self.lam_max)
        self.eta_max = float(min(step_cap, self.fixed_point_eta_max))
        self.flags = {
            "K_full_rank": bool(full_rank),
            "stationarity_ok": True,
            "fixed_point_ok": bool(fixed_point_ok),
        }
        self.x_star = x_star
        self.ata_extremes = (float(ata_extremes[0]), float(ata_extremes[1]))
        self.details = dict(details or {})

        self.eta_opt = None
        self.rho_opt = None
        if full_rank:
            if self.gamma is None:
                self.eta_opt, self.rho_opt = optimal_step(self.lam_max, self.lam_min)
            else:
                # Same step as optimal_step; the rate keeps its own rounding.
                self.eta_opt = 2.0 / (self.lam_max + self.lam_min)
                self.rho_opt = (self.lam_max - self.lam_min) / (
                    self.lam_max + self.lam_min - 2.0 * self.gamma
                )
            self.flags["eta_opt_admissible"] = bool(self.eta_opt < self.eta_max)

    @property
    def certified(self):
        return all(self.flags[key] for key in ("K_full_rank", "stationarity_ok", "fixed_point_ok"))

    def admissible(self, eta):
        return self.certified and 0.0 < eta < self.eta_max

    def contraction(self, eta):
        """Unconstrained gradient-descent contraction factor at step ``eta``."""
        return contraction_factor(*self.ata_extremes, eta)

    def _fixed_point_scale(self, eta):
        """1 - eta*gamma: the gradient step at x* is this multiple of x* plus a
        tangent part (1 without a multiplier). No certificate where it is not
        positive, or where it overflows."""
        scale = 1.0 - eta * (self.gamma or 0.0)
        if scale <= 0:
            raise NoCertificateError(
                f"{self.kind}: not a fixed point at eta={eta:g} (1 - eta*gamma <= 0)"
            )
        if scale == np.inf:
            raise NoCertificateError(f"{self.kind}: 1 - eta*gamma overflows at eta={eta:g}")
        return scale

    def rate(self, eta):
        """Asymptotic linear rate at step ``eta``."""
        eta = float(eta)
        if eta <= 0:
            raise ValueError("eta must be positive")
        return float(contraction_factor(self.lam_max, self.lam_min, eta)
                     / self._fixed_point_scale(eta))

    def quad_coefficient(self, eta):
        """Coefficient of the squared error in the one-step error recursion."""
        eta = float(eta)
        t = self.contraction(eta) / self._fixed_point_scale(eta)
        return float(self.curvature * (t**2 + t))

    def _linearization_radius(self, eta):
        """Ball in which the projection keeps its linearization at x* and at the
        gradient step: the support's stability radius when the details carry
        one (sparse), otherwise unbounded."""
        smallest = self.details.get("smallest_magnitude")
        if smallest is None:
            return np.inf
        u = self.contraction(eta)
        if u == 0.0:
            # The gradient-step term is unbounded: an admissible step keeps its
            # numerator positive.
            return float(smallest / SQRT2)
        grad_inf = self.details["gradient_sup_norm"]
        return float(min(smallest / SQRT2, (smallest - eta * grad_inf) / (SQRT2 * u)))

    def region(self, eta):
        """Radius of the certified ball of linear convergence at step ``eta``.

        The minimum of the linearization radius and the quadratic-term radius
        (1 - rate) / quad_coefficient; without a quadratic term only the first.
        """
        eta = float(eta)
        if not self.admissible(eta):
            raise NoCertificateError(f"eta={eta:g} is outside the admissible interval")
        radius = self._linearization_radius(eta)
        quad = self.quad_coefficient(eta)
        if quad == 0.0:
            return radius
        return float(min(radius, (1.0 - self.rate(eta)) / quad))

    def sample(self, etas):
        """Evaluate rate and region on a grid, marking inadmissible steps."""
        rows = []
        for eta in etas:
            eta = float(eta)
            row = {"eta": eta, "admissible": self.admissible(eta)}
            try:
                row["rate"] = json_float(self.rate(eta))
            except (NoCertificateError, ValueError):
                row["rate"] = None
            try:
                row["region"] = json_float(self.region(eta))
            except NoCertificateError:
                row["region"] = None
            rows.append(row)
        return rows

    def to_json(self, etas=()):
        return {
            "kind": self.kind,
            "lam_max": self.lam_max,
            "lam_min": self.lam_min,
            "gamma": self.gamma,
            "eta_max": json_float(self.eta_max),
            "eta_opt": self.eta_opt,
            "rho_opt": self.rho_opt,
            "certified": self.certified,
            "flags": self.flags,
            "tangent_dimension": int(self.tangent_basis.shape[1]),
            "rate_table": self.sample(etas),
        }


def _full_rank(lam_max, lam_min):
    """Whether the compressed curvature is numerically positive definite."""
    return lam_min > FULL_RANK_RTOL * max(lam_max, 1e-300)


def analyze_lcls(A, b, C, d):
    """Equality-constrained least squares: min 0.5||Ax-b||^2 s.t. Cx = d.

    Also computes the constrained solution by solving the normal equations in
    the coordinates of the constraint's null-space basis; the certificate is
    global, so the region is unbounded.
    """
    constraint = AffineConstraint(C, d)
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float).reshape(-1)
    basis = constraint.null_basis
    AB = A @ basis
    lam_max, lam_min = gram_extremes(AB)
    full_rank = _full_rank(lam_max, lam_min)

    K = AB.T @ AB
    rhs = AB.T @ (b - A @ constraint.offset)
    if full_rank:
        y = np.linalg.solve(K, rhs)
    else:
        y = np.linalg.lstsq(K, rhs, rcond=None)[0]
    x_star = basis @ y + constraint.offset
    return ApplicationReport(
        "lcls", basis, lam_max, lam_min, x_star, ata_extremes(A),
        full_rank=full_rank, details={"constraint": constraint},
    )


def analyze_iht(A, b, x_star, tol=STATIONARITY_TOL):
    """Sparse recovery by hard thresholding around a stationary s-sparse point."""
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float).reshape(-1)
    x_star = np.asarray(x_star, dtype=float).reshape(-1)
    support = np.flatnonzero(x_star)
    s = support.size
    if s == 0:
        raise StationarityError("x_star has no nonzero entries")

    v = A.T @ (A @ x_star - b)
    residual = np.linalg.norm(v[support]) / (1.0 + np.linalg.norm(v))
    if residual > tol:
        raise StationarityError(
            f"x_star is not stationary: gradient on the support has residual {residual:.3e}"
        )

    basis = coordinate_basis(support, x_star.size)
    lam_max, lam_min = gram_extremes(A @ basis)

    smallest = float(np.min(np.abs(x_star[support])))
    off = np.ones(x_star.size, dtype=bool)
    off[support] = False
    grad_inf = float(np.max(np.abs(v[off]))) if off.any() else 0.0
    fixed_point_cap = smallest / grad_inf if grad_inf > 0 else np.inf
    return ApplicationReport(
        "iht", basis, lam_max, lam_min, x_star, ata_extremes(A),
        full_rank=_full_rank(lam_max, lam_min), fixed_point_ok=fixed_point_cap > 0,
        fixed_point_eta_max=fixed_point_cap,
        details={
            "s": s,
            "support": support,
            "smallest_magnitude": smallest,
            "gradient_sup_norm": grad_inf,
        },
    )


def analyze_sphere(A, b, x_star, tol=STATIONARITY_TOL):
    """Least squares on the unit sphere around a stationary unit vector.

    The gradient at a stationary point is collinear with the point; its signed
    length (the constraint multiplier) enters the admissible step range, the
    rate, and the region. A certificate needs the multiplier strictly below
    the smallest tangent eigenvalue.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float).reshape(-1)
    x_star = np.asarray(x_star, dtype=float).reshape(-1)
    if abs(np.linalg.norm(x_star) - 1.0) > tol:
        raise StationarityError("x_star is not on the unit sphere")

    v = A.T @ (A @ x_star - b)
    gamma = float(x_star @ v)
    residual = np.linalg.norm(v - gamma * x_star) / (1.0 + np.linalg.norm(v))
    if residual > tol:
        raise StationarityError(
            f"x_star is not a stationary point: tangential gradient residual {residual:.3e}"
        )

    basis = SphereConstraint(x_star.size).linearize(x_star).basis
    lam_max, lam_min = gram_extremes(A @ basis)

    local_min = gamma < lam_min
    # Curvature 2.0, not linearize's 2/||x*||^2, which rounds differently.
    return ApplicationReport(
        "sphere", basis, lam_max, lam_min, x_star, ata_extremes(A),
        full_rank=local_min, fixed_point_ok=local_min, curvature=2.0, gamma=gamma,
    )


def analyze_mcp(observed, omega, X_star, r=None, tol=STATIONARITY_TOL):
    """Low-rank matrix completion around an exactly consistent rank-r solution.

    ``omega`` holds column-major flat indices into the vectorized matrix and
    ``observed`` the corresponding values; X_star must have rank exactly r and
    reproduce every observation.
    """
    X_star = np.asarray(X_star, dtype=float)
    if X_star.ndim != 2:
        raise ValueError("X_star must be a matrix")
    m_mat, n_mat = X_star.shape
    omega = np.asarray(omega, dtype=int).reshape(-1)
    observed = np.asarray(observed, dtype=float).reshape(-1)
    if omega.size != observed.size:
        raise ValueError("omega and observed must have matching lengths")
    if omega.size == 0:
        raise ValueError("need at least one observation")
    if np.unique(omega).size != omega.size:
        raise ValueError("omega contains repeated indices")
    if omega.min() < 0 or omega.max() >= m_mat * n_mat:
        raise ValueError("omega index out of range")

    U, sig, Vt = np.linalg.svd(X_star, full_matrices=False)
    cutoff = RANK_RTOL * (sig[0] if sig[0] > 0 else 1.0)
    numerical_rank = int(np.count_nonzero(sig > cutoff))
    if r is None:
        r = numerical_rank
    r = int(r)
    if numerical_rank != r:
        raise StationarityError(
            f"X_star has numerical rank {numerical_rank}, expected exactly {r}"
        )

    x_star = X_star.reshape(-1, order="F")
    fit = np.linalg.norm(x_star[omega] - observed) / (1.0 + np.linalg.norm(observed))
    if fit > tol:
        raise StationarityError(
            f"X_star does not reproduce the observations (residual {fit:.3e})"
        )

    basis = rank_tangent_basis(U[:, :r], Vt[:r].T)
    lam_max, lam_min = gram_extremes(basis[omega, :])
    # The sampling operator is a 0/1 diagonal in the vectorized coordinates.
    fully_observed = omega.size == m_mat * n_mat
    extremes = (1.0, 1.0 if fully_observed else 0.0)
    return ApplicationReport(
        "mcp", basis, lam_max, lam_min, x_star, extremes,
        full_rank=_full_rank(lam_max, lam_min), curvature=RANK_CURVATURE,
        details={"shape": (m_mat, n_mat), "r": r, "omega": omega, "observed": observed},
    )


def mcp_problem(observed, omega, shape, r):
    """Vectorized completion problem: mask objective plus a rank constraint."""
    m_mat, n_mat = shape
    n = m_mat * n_mat
    omega = np.asarray(omega, dtype=int).reshape(-1)
    A = np.zeros((n, n))
    A[omega, omega] = 1.0
    b = np.zeros(n)
    b[omega] = np.asarray(observed, dtype=float).reshape(-1)
    return Problem(A, b, LowRankConstraint(r, shape))


def analyze_problem(problem, x_star=None):
    """Dispatch a problem to the matching family analysis."""
    spec = problem.constraint
    if spec.kind == "affine":
        return analyze_lcls(problem.A, problem.b, spec.C, spec.d)
    if x_star is None:
        raise ValueError(f"analysis of a {spec.kind} problem needs x_star")
    if spec.kind == "sparse":
        return analyze_iht(problem.A, problem.b, x_star)
    if spec.kind == "sphere":
        return analyze_sphere(problem.A, problem.b, x_star)
    if spec.kind == "lowrank":
        diag = problem.diagonal
        if diag is None or not np.all((np.abs(diag) < 1e-12) | (np.abs(diag - 1.0) < 1e-12)):
            raise ValueError(
                "low-rank analysis requires a completion-structured objective "
                "(0/1 diagonal sampling operator)"
            )
        omega = np.flatnonzero(diag > 0.5)
        off = np.ones(diag.size, dtype=bool)
        off[omega] = False
        if np.any(np.abs(problem.b[off]) > 1e-12):
            raise ValueError("observations must vanish outside the sampled set")
        X_star = np.asarray(x_star, dtype=float).reshape(spec.shape, order="F")
        return analyze_mcp(problem.b[omega], omega, X_star, spec.r)
    raise ValueError(f"unknown constraint kind {spec.kind!r}")
