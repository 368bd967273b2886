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

from .analysis import contraction_factor, extreme_eigenvalues, json_float, optimal_step, require_steps
from .constraints import RANK_CURVATURE, SQRT2, LowRankConstraint, relative_residuals
from .constraints import rank_tangent_basis  # noqa: F401  (perfbench traces it here)
from .engine import Problem
from .errors import NoCertificateError, StationarityError

FULL_RANK_RTOL = 1e-10
STATIONARITY_TOL = 1e-10


class ApplicationReport:
    """Per-family convergence summary around a certified solution.

    Every family reduces to the same numbers: the extreme eigenvalues of the
    objective compressed onto the tangent basis of ``linearization``, the
    projection derivative at ``x_star``, the constraint multiplier
    ``gamma`` (read as 0 when ``None``), the ``curvature`` of the projection and
    the fixed-point step cap. ``rate(eta)`` and ``region(eta)`` evaluate the
    closed forms from them; ``region`` raises NoCertificateError outside the
    admissible step range. ``problem``, ``x_star`` and ``linearization`` are
    what ``analysis.analyze_fixed_point`` takes; it certifies a step only where
    x* is a fixed point, P(z) = x* within ``analysis.FIXED_POINT_RTOL``.
    """

    def __init__(self, kind, problem, linearization, lam_max, lam_min, x_star, *,
                 full_rank, fixed_point_ok=True, curvature=0.0, gamma=None,
                 fixed_point_eta_max=np.inf, details=None):
        self.kind = kind
        self.problem = problem
        self.linearization = linearization
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
            "stationarity_ok": True,  # a stationarity failure raises before any report
            "fixed_point_ok": bool(fixed_point_ok),
        }
        self.x_star = x_star
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
        return self.flags["K_full_rank"] and self.flags["fixed_point_ok"]

    def admissible(self, eta):
        return self.certified and 0.0 < eta < self.eta_max

    def contraction(self, eta):
        """Unconstrained gradient-descent contraction factor at step ``eta``."""
        return contraction_factor(*self.problem.ata_extremes(), eta)

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
        eta = float(require_steps(eta))
        return float(contraction_factor(self.lam_max, self.lam_min, eta)
                     / self._fixed_point_scale(eta))

    def quad_coefficient(self, eta):
        """Coefficient of the squared error in the one-step error recursion."""
        eta = float(require_steps(eta))
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
        """Evaluate rate and region on a grid, marking inadmissible steps; a
        step that is not finite and positive raises ValueError before any row."""
        rows = []
        for eta in require_steps(etas).tolist():
            row = {"eta": eta, "admissible": self.admissible(eta)}
            try:
                row["rate"] = json_float(self.rate(eta))
            except NoCertificateError:
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
            "tangent_dimension": self.linearization.dimension,
            "rate_table": self.sample(etas),
        }


def _full_rank(lam_max, lam_min):
    """Whether the compressed curvature is numerically positive definite."""
    return lam_min > FULL_RANK_RTOL * max(lam_max, 1e-300)


def _analyze_lcls(problem):
    """Equality-constrained least squares: min 0.5||Ax-b||^2 s.t. Cx = d.

    Also computes the constrained solution by solving the normal equations in
    the coordinates of the constraint's null-space basis; the certificate is
    global, so the region is unbounded.
    """
    constraint = problem.constraint
    basis = constraint.null_basis
    # A diagonal A scales the rows of the transposed null basis in F order;
    # in C order AB.T @ rhs rounds as with the dense product.
    AB = np.ascontiguousarray(problem.apply(basis))
    K = AB.T @ AB
    lam_max, lam_min = extreme_eigenvalues(K)
    full_rank = _full_rank(lam_max, lam_min)

    rhs = AB.T @ (problem.b - problem.apply(constraint.offset))
    if full_rank:
        y = np.linalg.solve(K, rhs)
    else:
        y = np.linalg.lstsq(K, rhs, rcond=None)[0]
    x_star = basis @ y + constraint.offset
    return ApplicationReport(
        "lcls", problem, constraint.linearize(x_star), lam_max, lam_min, x_star,
        full_rank=full_rank,
    )


def _analyze_iht(problem, x_star):
    """Sparse recovery by hard thresholding around a stationary s-sparse point."""
    support = np.flatnonzero(x_star)
    if support.size == 0:
        raise StationarityError("x_star has no nonzero entries")
    s = problem.constraint.s
    if support.size > s:
        raise StationarityError(
            f"x_star has {support.size} nonzero entries, more than the sparsity level s={s}"
        )

    v = problem.gradient(x_star)
    residual = float(relative_residuals(v[support], v))
    if not residual <= STATIONARITY_TOL:
        raise StationarityError(
            f"x_star is not stationary: gradient on the support has residual {residual:.3e}"
        )

    # The nonzero support; linearize refuses fewer than s nonzeros.
    lin = problem.constraint.linearize(x_star)
    lam_max, lam_min = problem.tangent_extremes(lin)

    smallest = float(np.min(np.abs(x_star[support])))
    off = np.ones(x_star.size, dtype=bool)
    off[support] = False
    grad_inf = float(np.max(np.abs(v[off]))) if off.any() else 0.0
    fixed_point_cap = smallest / grad_inf if grad_inf > 0 else np.inf
    return ApplicationReport(
        "iht", problem, lin, lam_max, lam_min, x_star,
        full_rank=_full_rank(lam_max, lam_min), fixed_point_ok=fixed_point_cap > 0,
        fixed_point_eta_max=fixed_point_cap,
        details={"smallest_magnitude": smallest, "gradient_sup_norm": grad_inf},
    )


def _analyze_sphere(problem, x_star):
    """Least squares on the unit sphere around a stationary unit vector.

    The gradient at a stationary point is collinear with the point; its signed
    length (the constraint multiplier) enters the admissible step range, the
    rate, and the region. A certificate needs the multiplier strictly below
    the smallest tangent eigenvalue.
    """
    if abs(np.linalg.norm(x_star) - 1.0) > STATIONARITY_TOL:
        raise StationarityError("x_star is not on the unit sphere")

    v = problem.gradient(x_star)
    gamma = float(x_star @ v)
    residual = float(relative_residuals(v - gamma * x_star, v))
    if not residual <= STATIONARITY_TOL:
        raise StationarityError(
            f"x_star is not a stationary point: tangential gradient residual {residual:.3e}"
        )

    lin = problem.constraint.linearize(x_star)
    lam_max, lam_min = problem.tangent_extremes(lin)

    local_min = gamma < lam_min
    # Curvature 2.0, not linearize's 2/||x*||^2, which rounds differently.
    return ApplicationReport(
        "sphere", problem, lin, lam_max, lam_min, x_star,
        full_rank=local_min, fixed_point_ok=local_min, curvature=2.0, gamma=gamma,
    )


def _analyze_mcp(problem, x_star):
    """Low-rank matrix completion around an exactly consistent rank-r solution.

    A must be a 0/1 diagonal sampling mask with at least one sample and b must
    vanish off the samples; x_star, the column-major vectorized matrix, must
    have rank exactly r and reproduce every observation.
    """
    diag = problem.diagonal
    if diag is None or not np.all((np.abs(diag) < 1e-12) | (np.abs(diag - 1.0) < 1e-12)):
        raise ValueError(
            "low-rank analysis requires a completion-structured objective "
            "(0/1 diagonal sampling operator)"
        )
    sampled = diag > 0.5
    if np.any(np.abs(problem.b[~sampled]) > 1e-12):
        raise ValueError("observations must vanish outside the sampled set")
    if not sampled.any():
        raise ValueError("need at least one observation")

    lin = problem.constraint.linearize(x_star)

    omega = np.flatnonzero(sampled)
    observed = problem.b[omega]
    fit = float(relative_residuals(x_star[omega] - observed, observed))
    if fit > STATIONARITY_TOL:
        raise StationarityError(
            f"X_star does not reproduce the observations (residual {fit:.3e})"
        )

    lam_max, lam_min = problem.tangent_extremes(lin)
    return ApplicationReport(
        "mcp", problem, lin, lam_max, lam_min, x_star,
        full_rank=_full_rank(lam_max, lam_min), curvature=RANK_CURVATURE,
    )


def mcp_problem(observed, omega, shape, r):
    """Vectorized completion problem: mask objective plus a rank constraint."""
    m_mat, n_mat = shape
    n = m_mat * n_mat
    omega = np.asarray(omega, dtype=int).reshape(-1)
    sampling = np.zeros(n)
    sampling[omega] = 1.0
    b = np.zeros(n)
    b[omega] = np.asarray(observed, dtype=float).reshape(-1)
    return Problem(sampling, b, LowRankConstraint(r, shape))


# The family analysis of each constraint kind.
_ANALYSES = {"affine": lambda problem, _: _analyze_lcls(problem), "sparse": _analyze_iht,
             "sphere": _analyze_sphere, "lowrank": _analyze_mcp}


def analyze_problem(problem, x_star=None):
    """The family analysis of a problem, by its constraint's kind; every kind but
    affine (lcls solves for it) needs x_star, read as a column-major vector."""
    kind = problem.constraint.kind
    if kind not in _ANALYSES:
        raise ValueError(f"unknown constraint kind {kind!r}")
    if kind != "affine":
        if x_star is None:
            raise ValueError(f"analysis of a {kind} problem needs x_star")
        x_star = np.asarray(x_star, dtype=float).reshape(-1, order="F")
    return _ANALYSES[kind](problem, x_star)
