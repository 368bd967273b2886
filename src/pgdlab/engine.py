"""Fixed-step projected gradient descent with trace recording and certificates."""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from . import analysis
from .constraints import Constraint
from .errors import DivergenceError, InfeasibleStartWarning, ProblemFileError

MEMBERSHIP_TOL = 1e-10
ERROR_FLOOR_SCALE = 1e-12
STAGNATION_RTOL = 1e-15
STAGNATION_RUN = 10


@dataclass(frozen=True)
class Problem:
    """Least-squares objective 0.5 * ||A x - b||^2 over a constraint set.

    A square A with no nonzero entry off its diagonal (a completion sampling
    mask, for one) is applied entrywise through ``diagonal``; ``A`` itself
    stays the dense matrix.
    """

    A: np.ndarray
    b: np.ndarray
    constraint: Constraint
    diagonal: np.ndarray | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        A = np.asarray(self.A, dtype=float)
        b = np.asarray(self.b, dtype=float).reshape(-1)
        if A.ndim != 2:
            raise ValueError("A must be a matrix")
        # A ValueError naming the field, which is also its path in a problem
        # file: load_problem passes it on and does not scan A itself.
        if not np.all(np.isfinite(A)):
            raise ProblemFileError("A", "entries must be finite")
        if not np.all(np.isfinite(b)):
            raise ProblemFileError("b", "entries must be finite")
        if b.size != A.shape[0]:
            raise ValueError(f"b has length {b.size}, expected {A.shape[0]}")
        if self.constraint.n != A.shape[1]:
            raise ValueError(
                f"constraint dimension {self.constraint.n} does not match A columns {A.shape[1]}"
            )
        diagonal = None
        if A.shape[0] == A.shape[1] and np.count_nonzero(A) == np.count_nonzero(np.diagonal(A)):
            diagonal = np.diagonal(A).copy()
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "diagonal", diagonal)

    @property
    def shape(self):
        return self.A.shape

    # On a finite x the dense product with a diagonal A adds exact zeros to
    # d_i * x_i, so the entrywise product gives the same bits.
    def apply(self, x):
        """A @ x."""
        return self.A @ x if self.diagonal is None else self.diagonal * x

    def apply_t(self, r):
        """A^T @ r."""
        return self.A.T @ r if self.diagonal is None else self.diagonal * r

    def ata_extremes(self):
        """Largest and smallest eigenvalues of A^T A (see analysis.ata_extremes)."""
        if self.diagonal is None:
            return analysis.ata_extremes(self.A)
        squares = self.diagonal**2
        return float(squares.max()), float(squares.min())

    def objective(self, x):
        r = self.apply(x) - self.b
        return 0.5 * float(r @ r)

    def gradient(self, x):
        return self.apply_t(self.apply(x) - self.b)


@dataclass
class Trace:
    """Record of a PGD run: the error and objective of every iterate, and the last iterate."""

    final: np.ndarray
    objectives: np.ndarray
    errors: np.ndarray | None
    stop_reason: str
    x0_projected: bool = False
    error_floor: float | None = None

    @property
    def n_iterations(self):
        return int(self.objectives.size - 1)

    def write_csv(self, path):
        with open(path, "w", encoding="ascii") as fh:
            fh.write("k,error,objective\n")
            for k in range(self.objectives.size):
                err = "" if self.errors is None else repr(float(self.errors[k]))
                fh.write(f"{k},{err},{float(self.objectives[k])!r}\n")


@dataclass(frozen=True)
class StationaryCertificate:
    """Residuals of the stationarity and fixed-point conditions at a point.

    ``consistent`` records the runtime check that a vanishing fixed-point
    residual also forces a vanishing stationarity residual (scaled by ||A||^2).
    """

    stationarity_residual: float
    fixed_point_residual: float
    z_eta: np.ndarray
    consistent: bool


def run_pgd(problem, eta, x0, max_iters=10_000, error_floor=None, x_ref=None):
    """Iterate x <- P(x - eta * grad), recording errors and objectives.

    Stops at ``max_iters``, when the distance to ``x_ref`` falls below
    ``error_floor``, or when the iterate stagnates at machine precision.
    An infeasible x0 is projected once before iterating.
    """
    eta = float(eta)
    if eta <= 0:
        raise ValueError("eta must be positive")
    max_iters = int(max_iters)
    spec = problem.constraint
    x = np.asarray(x0, dtype=float).reshape(-1).copy()
    if x.size != spec.n:
        raise ValueError(f"x0 has length {x.size}, expected {spec.n}")

    x0_projected = False
    if not spec.contains(x, MEMBERSHIP_TOL):
        x = spec.project(x)
        x0_projected = True
        warnings.warn(
            "starting point was not feasible; projected onto the constraint set",
            InfeasibleStartWarning,
            stacklevel=2,
        )

    if x_ref is not None:
        x_ref = np.asarray(x_ref, dtype=float).reshape(-1)
        if error_floor is None:
            error_floor = ERROR_FLOOR_SCALE * (1.0 + np.linalg.norm(x_ref))

    apply, apply_t, b = problem.apply, problem.apply_t, problem.b
    residual = apply(x) - b

    objectives = [0.5 * float(residual @ residual)]
    errors = None if x_ref is None else [float(np.linalg.norm(x - x_ref))]

    stop_reason = "max_iters"
    stagnant = 0
    # Overflow on a diverging run is expected; it is caught by the finiteness
    # checks rather than surfacing as a warning.
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(max_iters):
            # Both raises report ||x_{k-1}||; hypot keeps it finite where
            # x @ x would overflow.
            descent = x - eta * apply_t(residual)
            if not np.all(np.isfinite(descent)):
                raise DivergenceError(k + 1, np.hypot.reduce(x))
            x_next = spec.project(descent)
            if not np.all(np.isfinite(x_next)):
                raise DivergenceError(k + 1, np.hypot.reduce(x))
            step = np.linalg.norm(x_next - x)
            x = x_next
            residual = apply(x) - b
            objectives.append(0.5 * float(residual @ residual))
            if errors is not None:
                errors.append(float(np.linalg.norm(x - x_ref)))

            if errors is not None and errors[-1] < error_floor:
                stop_reason = "error_floor"
                break
            stall = STAGNATION_RTOL * (1.0 + np.linalg.norm(x))
            if np.isfinite(stall) and step <= stall:
                stagnant += 1
                if stagnant >= STAGNATION_RUN:
                    stop_reason = "stagnation"
                    break
            else:
                stagnant = 0

    return Trace(
        final=x,
        objectives=np.asarray(objectives),
        errors=None if errors is None else np.asarray(errors),
        stop_reason=stop_reason,
        x0_projected=x0_projected,
        error_floor=None if error_floor is None else float(error_floor),
    )


def certify_stationary(problem, x_star, eta, tol=1e-10):
    """Stationarity and fixed-point residuals of a candidate point.

    The stationarity residual is the norm of the gradient pushed through the
    projection derivative; the fixed-point residual measures how far the point
    moves under one PGD update with step ``eta``.
    """
    x_star = np.asarray(x_star, dtype=float).reshape(-1)
    grad = problem.gradient(x_star)
    z_eta = x_star - float(eta) * grad
    lin = problem.constraint.linearize(x_star)
    stationarity = float(np.linalg.norm(lin.apply(grad)))
    fixed_point = float(np.linalg.norm(x_star - problem.constraint.project(z_eta)))
    # A fixed point must be stationary; allow the gradient-scale factor
    # (Frobenius norm: a cheap upper bound on the spectral norm).
    gain = 10.0 * tol * (1.0 + np.linalg.norm(problem.A) ** 2)
    consistent = not (fixed_point <= tol and stationarity > gain)
    return StationaryCertificate(
        stationarity_residual=stationarity,
        fixed_point_residual=fixed_point,
        z_eta=z_eta,
        consistent=consistent,
    )
