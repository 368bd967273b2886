"""A fifth family, defined here and nowhere in the package: nonnegative least
squares, min 0.5 ||Ax - b||^2 over x >= 0 (Lawson & Hanson, *Solving Least
Squares Problems*, 1974), the subproblem of nonnegative matrix factorization.

The constraint gives only what every family gives: ``_project`` and
``linearize``. With them the generic certificate
``analysis.analyze_fixed_point`` must agree with the dense update matrix and
with the closed form, runs started inside its region must converge at its
rate within its iteration bound, and ``run_pgd`` must project an infeasible
start.
"""

import numpy as np
import pytest

from pgdlab import analysis, verify
from pgdlab.constraints import Constraint, Linearization, coordinate_basis
from pgdlab.empirics import estimate_rate
from pgdlab.engine import Problem, run_pgd
from pgdlab.errors import InfeasibleStartWarning, NoCertificateError

SQRT2 = np.sqrt(2.0)
ACCURACIES = (1e-4, 1e-8)


class OrthantConstraint(Constraint):
    """The nonnegative orthant {x : x >= 0} of R^n."""

    kind = "orthant"

    def __init__(self, n):
        self.n = n

    def _project(self, x):
        return np.maximum(x, 0.0)

    def linearize(self, x):
        # The derivative keeps the positive entries; the sign pattern, and so
        # the derivative, holds within min |x_i| over the nonzero entries.
        x = np.asarray(x, dtype=float).reshape(-1)
        radius = np.abs(x[x != 0.0]).min() / SQRT2
        return Linearization(coordinate_basis(np.flatnonzero(x > 0.0), self.n), radius, 0.0)


def nnls_instance(seed):
    """(problem, x*, eta, compressed spectrum) of a 40 x 20 Gaussian instance.

    x* is the PGD limit polished on its support by ``lstsq``; eta is the
    optimal step 2 / (lam_max + lam_min) of the Gram matrix compressed onto
    that support.
    """
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((40, 20))
    b = rng.standard_normal(40)
    problem = Problem(A, b, OrthantConstraint(20))
    limit = run_pgd(problem, 1.0 / problem.ata_extremes()[0], np.zeros(20), max_iters=20_000)
    support = np.flatnonzero(limit.final > 0.0)
    x_star = np.zeros(20)
    x_star[support] = np.linalg.lstsq(A[:, support], b, rcond=None)[0]
    # Strict complementarity: positive on the support, a positive gradient off it.
    assert x_star[support].min() > 0.0
    assert np.delete(problem.gradient(x_star), support).min() > 0.0
    lams = np.linalg.eigvalsh(A[:, support].T @ A[:, support])
    return problem, x_star, 2.0 / (lams[-1] + lams[0]), lams


def certificate(problem, x_star, eta):
    linearization = problem.constraint.linearize(x_star)
    return analysis.analyze_fixed_point(problem, x_star, linearization, eta)


@pytest.mark.parametrize("seed", range(4))
def test_certificate_is_the_dense_spectral_radius_and_the_closed_form(seed):
    problem, x_star, eta, lams = nnls_instance(seed)
    conv = certificate(problem, x_star, eta)
    assert conv.certified and conv.symmetric and conv.eigvec_condition == 1.0
    dense = verify.spectral_radius(verify.iteration_matrix(problem, x_star, eta))
    closed = max(abs(1.0 - eta * lams[-1]), abs(1.0 - eta * lams[0]))
    assert abs(conv.rate - dense) <= 1e-10
    assert abs(conv.rate - closed) <= 1e-10


@pytest.mark.parametrize("seed", range(4))
def test_runs_from_half_the_region_keep_the_rate_and_the_bound(seed):
    problem, x_star, eta, _ = nnls_instance(seed)
    conv = certificate(problem, x_star, eta)
    assert 0.0 < conv.region_radius < np.inf
    rng = np.random.default_rng(100 + seed)
    directions = rng.standard_normal((8, 20))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    starts = problem.constraint.project(x_star + 0.5 * conv.region_radius * directions)
    initial = np.linalg.norm(starts - x_star, axis=1)
    floors = initial * min(ACCURACIES) / 3.0
    traces = run_pgd(problem, eta, starts, error_floor=floors, x_ref=x_star)
    for trace, initial_error in zip(traces, initial):
        assert trace.stop_reason == "error_floor"
        assert abs(estimate_rate(trace).rho_hat - conv.rate) <= 0.02 * conv.rate
        for accuracy in ACCURACIES:
            bound = analysis.iteration_bound(
                accuracy, conv.rate, conv.quad_coeff, initial_error, conv.eigvec_condition)
            reached = np.flatnonzero(trace.errors <= accuracy * trace.errors[0])
            assert reached.size and reached[0] <= bound


def test_point_off_the_fixed_point_is_refused():
    # Dropping the smallest positive entry leaves a negative gradient there:
    # the gradient step moves that entry back up, so P(z) is not the point.
    problem, x_star, eta, _ = nnls_instance(0)
    x = x_star.copy()
    x[np.argmin(np.where(x > 0.0, x, np.inf))] = 0.0
    with pytest.raises(NoCertificateError, match="not a fixed point"):
        certificate(problem, x, eta)


def test_start_with_negative_entries_is_projected_with_notice():
    problem, x_star, eta, _ = nnls_instance(0)
    x0 = x_star - 0.5
    assert x0.min() < 0.0
    with pytest.warns(InfeasibleStartWarning):
        trace = run_pgd(problem, eta, x0, max_iters=0)
    assert np.array_equal(trace.final, np.maximum(x0, 0.0))
