import dataclasses
import re
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad

from pgdlab import analysis, verify
from pgdlab.applications import analyze_problem
from pgdlab.constraints import (
    AffineConstraint,
    Linearization,
    LowRankConstraint,
    SparsityConstraint,
    SphereConstraint,
)
from pgdlab.empirics import make_instance, run_experiment
from pgdlab.engine import Problem, run_pgd
from pgdlab.errors import NoCertificateError, StationarityError

SQRT2 = np.sqrt(2.0)


def e1_oracle(t):
    return quad(lambda z: np.exp(-z) / z, t, np.inf, epsabs=1e-14, epsrel=1e-13,
                limit=400)[0]


class TestGradientContraction:
    def test_identity(self):
        assert analysis.gradient_contraction(np.eye(3), 0.5) == pytest.approx(0.5)

    def test_two_singular_values(self):
        A = np.diag([2.0, 1.0])
        assert analysis.gradient_contraction(A, 0.4) == pytest.approx(0.6)

    def test_singular_gram_pins_to_one(self):
        rng = np.random.default_rng(0)
        A = rng.standard_normal((3, 5))  # wide: A^T A singular
        eta = 1.0 / np.linalg.norm(A, 2) ** 2
        assert analysis.gradient_contraction(A, eta) == pytest.approx(1.0)


@pytest.fixture(scope="module")
def lcls_report():
    problem, _ = make_instance("lcls", {"m": 14, "n": 10, "p": 3}, 0)
    return analyze_problem(problem)


@pytest.mark.parametrize("eta", [np.nan, np.inf, -1.0, 0.0], ids=["nan", "inf", "negative", "zero"])
class TestStepRefused:
    """Every function that takes a step refuses one that is not finite and
    positive with the same ValueError, rather than diverging or returning NaN."""

    MESSAGE = "^eta must be finite and positive"

    def test_run_pgd_refuses_it_alone_and_in_a_block(self, lcls_report, eta):
        problem, x0 = lcls_report.problem, lcls_report.x_star
        with pytest.raises(ValueError, match=self.MESSAGE):
            run_pgd(problem, eta, x0)
        with pytest.raises(ValueError, match=self.MESSAGE):
            run_pgd(problem, [lcls_report.eta_opt, eta], np.array([x0, x0]))

    def test_closed_forms_refuse_it(self, lcls_report, eta):
        for method in (lcls_report.rate, lcls_report.quad_coefficient):
            with pytest.raises(ValueError, match=self.MESSAGE):
                method(eta)

    def test_rate_table_refuses_it_before_any_row(self, lcls_report, eta, monkeypatch):
        # The rate table wrote such a step into its rows, and json.dumps
        # printed "eta": NaN or Infinity, which is not JSON.
        evaluated = []
        monkeypatch.setattr(lcls_report, "admissible", evaluated.append)
        for grid in ([eta], [lcls_report.eta_opt, eta]):
            with pytest.raises(ValueError, match=self.MESSAGE):
                lcls_report.to_json(grid)
        assert evaluated == []
        monkeypatch.undo()
        assert lcls_report.to_json([])["rate_table"] == []

    def test_certificate_refuses_it(self, lcls_report, eta):
        report = lcls_report
        with pytest.raises(ValueError, match=self.MESSAGE):
            analysis.analyze_fixed_point(report.problem, report.x_star, report.linearization, eta)
        with pytest.raises(ValueError, match=self.MESSAGE):
            analysis.gradient_contraction(report.problem.A, eta)

    def test_run_experiment_refuses_it_before_writing(self, tmp_path, eta):
        # A list grid and a grid function; the message names only the bad step.
        shown = re.escape(repr(eta))
        for grid in ([0.01, eta, 0.02], lambda report: [report.eta_opt, eta]):
            outdir = tmp_path / "bundle"
            with pytest.raises(ValueError, match=rf"{self.MESSAGE}, got \[{shown}\]$"):
                run_experiment("lcls", {"m": 14, "n": 10, "p": 3}, grid, 0, outdir=str(outdir))
            assert not outdir.exists()


class TestIterationMatrix:
    def test_affine_form(self):
        rng = np.random.default_rng(1)
        C = rng.standard_normal((2, 6))
        d = C @ rng.standard_normal(6)
        A = rng.standard_normal((7, 6))
        prob = Problem(A, rng.standard_normal(7), AffineConstraint(C, d))
        x_star = analyze_problem(prob).x_star
        eta = 0.05
        H = verify.iteration_matrix(prob, x_star, eta)
        P = prob.constraint.tangent_projector
        expected = P @ (np.eye(6) - eta * A.T @ A) @ P
        np.testing.assert_allclose(H, expected, atol=1e-12)

    def test_vanishing_step_gives_tangent_projector(self):
        prob, x_star = make_instance("lcls", {"m": 8, "n": 6, "p": 2}, 2)
        H = verify.iteration_matrix(prob, x_star, 1e-15)
        assert verify.spectral_radius(H) == pytest.approx(1.0, abs=1e-12)

    def test_sphere_hand_example(self):
        prob = Problem(np.eye(2), np.array([2.0, 0.0]), SphereConstraint(2))
        H = verify.iteration_matrix(prob, [1.0, 0.0], 0.5)
        np.testing.assert_allclose(H, np.diag([0.0, 1.0 / 3.0]), atol=1e-14)

    def test_sphere_flipped_fixed_point_rejected(self):
        # gamma = 1 at this stationary point: eta = 2 flips the projection.
        prob = Problem(np.eye(2), np.zeros(2), SphereConstraint(2))
        report = analyze_problem(prob, [1.0, 0.0])
        with pytest.raises(NoCertificateError, match="not a fixed point"):
            analysis.analyze_fixed_point(report.problem, report.x_star, report.linearization, 2.0)

    @pytest.mark.parametrize("kind", ["affine", "sphere"])
    def test_diagonal_a_matches_dense_product(self, kind):
        rng = np.random.default_rng(5)
        d = rng.uniform(0.5, 2.0, 6) * rng.choice([-1.0, 1.0], 6)
        d[3] = 0.0
        A = np.diag(d)
        if kind == "affine":
            C = rng.standard_normal((2, 6))
            prob = Problem(A, rng.standard_normal(6), AffineConstraint(C, C @ rng.standard_normal(6)))
            x_star = analyze_problem(prob).x_star
        else:
            prob = Problem(A, rng.standard_normal(6), SphereConstraint(6))
            x_star = prob.constraint.random_member(rng)
        assert prob.diagonal is not None
        eta = 0.1
        lin_x = prob.constraint.linearize(x_star)
        lin_z = prob.constraint.linearize(x_star - eta * prob.gradient(x_star))
        dense_z, dense_x = verify.derivative_matrix(lin_z), verify.derivative_matrix(lin_x)
        expected = dense_z @ (np.eye(6) - eta * (A.T @ A)) @ dense_x
        assert np.array_equal(verify.iteration_matrix(prob, x_star, eta), expected)


@pytest.mark.parametrize(
    "A, diagonal",
    [(np.diag([2.0, -0.5, 0.0, 1e-3]), True), (np.diag([1.0, 0.0, 1.0]), True),
     (np.random.default_rng(6).standard_normal((5, 4)), False),
     (np.random.default_rng(7).standard_normal((3, 4)), False)],
    ids=["signed_diagonal", "mask", "dense_tall", "dense_wide"],
)
def test_problem_ata_extremes_match_svd(A, diagonal):
    prob = Problem(A, np.zeros(A.shape[0]), SphereConstraint(A.shape[1]))
    assert (prob.diagonal is not None) == diagonal
    assert prob.ata_extremes() == analysis.ata_extremes(A)


def _assert_power_bound(H, rate, condition, powers=60):
    """||H^j||_2 <= condition * rate^j for j = 0, ..., powers."""
    P = np.eye(H.shape[0])
    for j in range(powers + 1):
        assert np.linalg.norm(P, 2) <= condition * rate**j * (1 + 1e-12), j
        P = H @ P


class TestEigendecompose:
    # A square H is its own compression onto the identity basis, with factor
    # sM = H: H^j = H H^(j-1).
    def test_diagonal(self):
        D = np.diag([0.5, 0.2])
        eig = analysis.eigendecompose(D, D)
        assert eig.spectral_radius == pytest.approx(0.5)
        assert eig.eigvec_condition == 1.0
        assert eig.symmetric

    def test_application_matrix_is_symmetric_path(self):
        prob, x_star = make_instance("sphere", {"m": 9, "n": 5, "gamma": -0.5}, 3)
        H = verify.iteration_matrix(prob, x_star, 0.1)
        eig = analysis.eigendecompose(H, H)
        assert eig.symmetric
        assert eig.eigvec_condition == 1.0
        assert eig.spectral_radius == pytest.approx(verify.spectral_radius(H), rel=1e-12)

    @pytest.mark.parametrize(
        "H",
        [np.array([[0.5, 1.0], [0.0, 0.5]]),
         0.9 * np.array([[np.cos(0.5), -np.sin(0.5)], [np.sin(0.5), np.cos(0.5)]])],
        ids=["jordan_block", "rotation"],
    )
    def test_non_normal_update_bounds_its_powers_but_gets_no_certificate(self, H):
        eig = analysis.eigendecompose(H, H)
        assert not eig.symmetric
        assert eig.spectral_radius >= verify.spectral_radius(H)
        _assert_power_bound(H, eig.spectral_radius, eig.eigvec_condition)
        # rho(S) + ||K|| is 1.5 for the block and 0.9 (cos 0.5 + sin 0.5) for
        # the rotation: both past one, although rho(H) < 1.
        assert eig.spectral_radius >= 1.0
        with pytest.raises(NoCertificateError):
            analysis.convergence_radius(
                np.inf, np.inf, eig.eigvec_condition, 1.0, eig.spectral_radius, 0.0
            )


class TestQuadraticCoefficient:
    def test_zero_curvatures(self):
        assert analysis.quadratic_coefficient(1.0, 0.7, 0.0, 1.0, 0.0) == 0.0

    def test_direct_arithmetic(self):
        c = 4.0 * (1.0 + SQRT2)
        q = analysis.quadratic_coefficient(1.0, 0.5, c, 1.0, c)
        assert q == pytest.approx(3.0 * (1.0 + SQRT2))

    def test_sphere_combination(self):
        # kappa=1: u*(2u/(1-eta*g)^2 + 2/(1-eta*g)) = 2(t^2+t)
        u, scale = 0.8, 1.3
        q = analysis.quadratic_coefficient(1.0, u, 2.0 / scale**2, 1.0 / scale, 2.0)
        t = u / scale
        assert q == pytest.approx(2.0 * (t**2 + t))


class TestConvergenceRadius:
    def test_all_infinite(self):
        r = analysis.convergence_radius(np.inf, np.inf, 1.0, 0.9, 0.5, 0.0)
        assert np.isinf(r)

    def test_sparse_style_terms(self):
        smallest, grad_inf, eta, u = 1.5, 0.4, 0.8, 0.95
        r = analysis.convergence_radius(
            smallest / SQRT2, (smallest - eta * grad_inf) / SQRT2, 1.0, u, 0.7, 0.0
        )
        expected = min(smallest / SQRT2, (smallest - eta * grad_inf) / (SQRT2 * u))
        assert r == pytest.approx(expected)

    def test_rank_quadratic_term(self):
        rho = 0.6
        q = 8.0 * (1.0 + SQRT2)
        r = analysis.convergence_radius(np.inf, np.inf, 1.0, 1.0, rho, q)
        assert r == pytest.approx((1.0 - rho) / q)

    def test_rate_at_least_one_refused(self):
        with pytest.raises(NoCertificateError):
            analysis.convergence_radius(np.inf, np.inf, 1.0, 1.0, 1.0, 0.0)


class TestExpIntegral:
    def test_against_quadrature(self):
        for t in np.logspace(-2, np.log10(20.0), 50):
            assert abs(analysis.exp_integral_e1(t) - e1_oracle(t)) <= 1e-10

    def test_decreasing(self):
        vals = [analysis.exp_integral_e1(t) for t in (0.5, 1.0, 2.0)]
        assert vals[0] > vals[1] > vals[2]

    def test_asymptotic(self):
        t = 50.0
        assert analysis.exp_integral_e1(t) * t * np.exp(t) == pytest.approx(1.0, rel=0.05)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            analysis.exp_integral_e1(0.0)

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="positive"):
            analysis.exp_integral_e1(np.nan)

    def test_limit_at_infinity(self):
        assert analysis.exp_integral_e1(np.inf) == 0.0


class TestE1QuadratureOracle:
    """``verify.e1_quadrature``, the oracle of the bounds suite, against SciPy."""

    def test_matches_scipy_at_the_check_points(self):
        # check_e1's 50 points and the transient-offset crosscheck's two.
        ts = [*np.logspace(np.log10(0.01), np.log10(20.0), 50), np.log(4 / 3), np.log(2.0)]
        for t in ts:
            assert abs(verify.e1_quadrature(t) - e1_oracle(t)) <= 1e-13

    @pytest.mark.parametrize("t", [0.0, -1.0])
    def test_rejects_nonpositive(self, t):
        with pytest.raises(ValueError):
            verify.e1_quadrature(t)

    def test_check_fails_on_a_relative_error(self, monkeypatch):
        def oracle_ok():
            return {r.name: r.ok for r in verify.check_e1()}["e1.quadrature_oracle"]

        assert oracle_ok()
        exact = analysis.exp_integral_e1
        # Relative, not a constant shift: a shift cancels in the crosscheck's difference.
        monkeypatch.setattr(analysis, "exp_integral_e1", lambda t: exact(t) * (1 + 1e-8))
        assert not oracle_ok()


class TestTransientOffset:
    def test_limit_at_zero_fraction(self):
        assert analysis.transient_offset(0.5, 1e-12) == pytest.approx(1.0, abs=1e-8)

    def test_cross_check_with_quadrature(self):
        rate, tau = 0.5, 0.5
        shifted = rate + tau * (1.0 - rate)
        oracle = (
            e1_oracle(np.log(1.0 / shifted))
            - e1_oracle(np.log(1.0 / rate))
            + 0.5 * np.log(np.log(1.0 / rate) / np.log(1.0 / shifted))
        ) / (rate * np.log(1.0 / rate)) + 1.0
        value = analysis.transient_offset(rate, tau)
        assert value == pytest.approx(oracle, abs=1e-10)
        assert value > 1.0

    def test_monotone_in_fraction(self):
        for rate in (0.2, 0.5, 0.9):
            vals = [analysis.transient_offset(rate, tau)
                    for tau in np.arange(0.1, 0.95, 0.1)]
            assert np.all(np.diff(vals) > 0)

    def test_domain(self):
        with pytest.raises(ValueError):
            analysis.transient_offset(1.0, 0.5)
        with pytest.raises(ValueError):
            analysis.transient_offset(0.5, 1.0)


class TestIterationBound:
    def test_exact_arithmetic_example(self):
        assert analysis.iterations_to_accuracy(1e-3, 0.1, 1.0, 1.0) == pytest.approx(4.0)

    def test_monotonicity(self):
        base = analysis.iterations_to_accuracy(1e-4, 0.5, 1.0, 1.0)
        assert analysis.iterations_to_accuracy(1e-4, 0.3, 1.0, 1.0) < base
        assert analysis.iterations_to_accuracy(1e-4, 0.5, 10.0, 1.0) > base

    def test_domain(self):
        with pytest.raises(ValueError):
            analysis.iterations_to_accuracy(1e-3, 1.2)
        with pytest.raises(ValueError):
            analysis.iterations_to_accuracy(2.0, 0.5)


class TestCompressedRateAndOptimalStep:
    def test_single_direction(self):
        M = np.eye(2) @ np.array([[1.0], [0.0]])
        lam_max, lam_min = analysis.extreme_eigenvalues(M.T @ M)
        assert analysis.contraction_factor(lam_max, lam_min, 0.5) == pytest.approx(0.5)
        assert lam_max == lam_min == pytest.approx(1.0)

    def test_interlacing_random(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            A = rng.standard_normal((9, 6))
            full = np.linalg.eigvalsh(A.T @ A)
            q, _ = np.linalg.qr(rng.standard_normal((6, 3)))
            M = A @ q
            lam_max, lam_min = analysis.extreme_eigenvalues(M.T @ M)
            assert lam_max <= full[-1] + 1e-10
            assert lam_min >= full[0] - 1e-10

    def test_optimal_step_examples(self):
        assert analysis.optimal_step(1.0, 1.0) == (pytest.approx(1.0), pytest.approx(0.0))
        eta, rho = analysis.optimal_step(3.0, 1.0)
        assert eta == pytest.approx(0.5)
        assert rho == pytest.approx(0.5)

    def test_optimal_step_is_minimax(self):
        lam_max, lam_min = 4.0, 0.5
        eta_opt, rho_opt = analysis.optimal_step(lam_max, lam_min)
        for eta in np.linspace(0.01, 2.0 / lam_max - 1e-9, 100):
            rho = max(abs(1 - eta * lam_max), abs(1 - eta * lam_min))
            assert rho_opt <= rho + 1e-12

    def test_degenerate_spectrum_refused(self):
        with pytest.raises(NoCertificateError):
            analysis.optimal_step(2.0, 0.0)


class TestFixedPointReport:
    def test_lcls_global_region(self):
        prob, _ = make_instance("lcls", {"m": 10, "n": 7, "p": 2}, 5)
        report = analyze_problem(prob)
        conv = analysis.analyze_fixed_point(
            report.problem, report.x_star, report.linearization, 0.8 * report.eta_opt)
        assert conv.certified
        assert np.isinf(conv.region_radius)
        assert conv.quad_coeff == 0.0
        assert conv.eigvec_condition == 1.0

    def test_uncertified_above_threshold(self):
        prob, _ = make_instance("lcls", {"m": 10, "n": 7, "p": 2}, 5)
        report = analyze_problem(prob)
        conv = analysis.analyze_fixed_point(
            report.problem, report.x_star, report.linearization, 1.05 * report.eta_max)
        assert not conv.certified
        assert conv.region_radius is None
        with pytest.raises(NoCertificateError):
            conv.bound(1e-4, initial_error=1.0)

    def test_bound_with_initial_error(self):
        prob, x_star = make_instance("sphere", {"m": 9, "n": 5, "gamma": -0.5}, 6)
        report = analyze_problem(prob, x_star)
        eta = 0.9 * report.eta_opt
        conv = analysis.analyze_fixed_point(
            report.problem, report.x_star, report.linearization, eta)
        initial = 0.5 * report.region(eta)
        assert conv.certified
        assert 0 < conv.quad_coeff * initial / (1.0 - conv.rate) < 1  # the error fraction
        offset = analysis.certified_offset(conv.rate, conv.quad_coeff, initial)
        assert offset > 1.0
        assert conv.bound(1e-4, initial) > conv.bound(1e-2, initial)
        assert conv.bound(1e-4, initial) == analysis.iterations_to_accuracy(
            1e-4, conv.rate, conv.eigvec_condition, offset
        )

    def test_report_rate_is_the_dense_spectral_radius(self):
        prob, x_star = make_instance("sphere", {"m": 9, "n": 5, "gamma": -0.5}, 6)
        report = analyze_problem(prob, x_star)
        eta = 0.8 * report.eta_opt
        conv = analysis.analyze_fixed_point(
            report.problem, report.x_star, report.linearization, eta)
        H = verify.iteration_matrix(prob, x_star, eta)
        # The report's rate comes from the compressed k x k update: the same
        # spectrum as H, computed in another order.
        rho = verify.spectral_radius(H)
        assert abs(conv.rate - rho) <= 1e-12 * rho
        assert conv.symmetric and conv.eigvec_condition == 1.0
        assert conv.to_json()["diagonalizable"] is True
        _assert_power_bound(H, conv.rate, conv.eigvec_condition)

    def test_overflowing_contraction_refused(self):
        # A^T A near rank one: eta * lam_max overflows while every entry of
        # eta * A^T A, and so H, stays finite.
        rng = np.random.default_rng(0)
        A = 0.2 * np.ones((12, 10)) + 0.01 * rng.standard_normal((12, 10))
        x_star = rng.standard_normal(10)
        x_star /= np.linalg.norm(x_star)
        b = A @ x_star + 0.5 * (A @ np.linalg.solve(A.T @ A, x_star))
        prob = Problem(A, b, SphereConstraint(10))
        assert np.isfinite(np.linalg.norm(verify.iteration_matrix(prob, x_star, 1e308)))
        report = analyze_problem(prob, x_star)
        with pytest.raises(NoCertificateError, match="contraction factor overflows"):
            analysis.analyze_fixed_point(
                report.problem, report.x_star, report.linearization, 1e308)

    @staticmethod
    def _iht_e1_report():
        # A = I, b = (1, 0.9, 0), s = 1: x* = e1, and the gradient step
        # (1, 0.9 eta, 0) keeps e1's support only below eta = 1/0.9.
        prob = Problem(np.eye(3), np.array([1.0, 0.9, 0.0]), SparsityConstraint(1, 3))
        return analyze_problem(prob, [1.0, 0.0, 0.0])

    def test_step_past_the_fixed_point_cap_is_refused(self):
        report = self._iht_e1_report()
        assert report.fixed_point_eta_max == pytest.approx(1.0 / 0.9)
        with pytest.raises(NoCertificateError, match=r"not a fixed point at eta=1\.5: the gap .* = "
                                                     r"8\.400e-01 exceeds 1e-08"):
            analysis.analyze_fixed_point(report.problem, report.x_star, report.linearization, 1.5)
        # A run started at x* itself leaves it: x* is no fixed point of this step.
        trace = run_pgd(report.problem, 1.5, report.x_star, max_iters=50, x_ref=report.x_star)
        assert trace.errors[-1] == pytest.approx(0.5)

    def test_step_below_the_fixed_point_cap_is_certified(self):
        report = self._iht_e1_report()
        conv = analysis.analyze_fixed_point(
            report.problem, report.x_star, report.linearization, 0.5)
        assert conv.certified
        assert conv.rate == pytest.approx(0.5)
        assert conv.region_radius == pytest.approx(1.0 / SQRT2)

    def test_json_encodes_infinity(self):
        prob, _ = make_instance("lcls", {"m": 10, "n": 7, "p": 2}, 5)
        report = analyze_problem(prob)
        conv = analysis.analyze_fixed_point(
            report.problem, report.x_star, report.linearization, 0.5 * report.eta_opt)
        doc = conv.to_json()
        assert doc["region_radius"] == "inf"
        assert None not in doc.values()
        # A global certificate has no quadratic term: any start gets the offset 1.
        assert [conv.bound(eps, initial_error=1.0) for eps in (1e-2, 1e-4)] == [
            analysis.iterations_to_accuracy(eps, conv.rate) for eps in (1e-2, 1e-4)
        ]


def moved_observations(prob, delta=1e-11):
    """The completion problem with every observation moved by ``delta``: its
    x* still fits them within the stationarity tolerance of the completion
    analysis."""
    b = prob.b + delta * prob.diagonal
    return Problem(prob.diagonal, b, prob.constraint)


@pytest.fixture
def eigensolves(monkeypatch):
    """Call with a width limit: wrap ``np.linalg.eig``, ``eigh`` and ``eigvalsh``
    to record the (width, result) of every eigensolve and to fail on a wider
    matrix."""

    def limit(widest):
        calls = []
        for name in ("eig", "eigh", "eigvalsh"):
            solve = getattr(np.linalg, name)

            def recording(M, *args, _solve=solve, _name=name, **kwargs):
                width = np.shape(M)[-1]
                assert width <= widest, f"np.linalg.{_name} of width {width}"
                calls.append((width, _solve(M, *args, **kwargs)))
                return calls[-1][1]

            monkeypatch.setattr(np.linalg, name, recording)
        return calls

    return limit


class TestCompressedCertificate:
    @pytest.mark.parametrize(
        "kind, params",
        [("lcls", {"m": 12, "n": 8, "p": 3}), ("iht", {"m": 16, "n": 32, "s": 4}),
         ("sphere", {"m": 12, "n": 6, "gamma": 0.3}),
         ("sphere", {"m": 12, "n": 6, "gamma": -0.4}),
         ("mcp", {"m": 6, "n": 5, "r": 2, "s": 24})],
        ids=["lcls", "iht", "sphere_pos", "sphere_neg", "mcp"],
    )
    def test_fixed_point_never_forms_a_dense_projector(self, eigensolves, kind, params):
        prob, x_star = make_instance(kind, params, 3)
        x_star = x_star.reshape(-1, order="F")
        report = analyze_problem(prob, x_star)
        etas = [f * report.eta_opt for f in (0.5, 1.0)]
        dense = [verify.spectral_radius(verify.iteration_matrix(prob, x_star, eta))
                 for eta in etas]

        calls = eigensolves(report.linearization.basis.shape[1])
        for eta, rho in zip(etas, dense):
            conv = analysis.analyze_fixed_point(
                report.problem, report.x_star, report.linearization, eta)
            assert conv.symmetric and conv.eigvec_condition == 1.0
            assert abs(conv.rate - rho) <= 1e-12 * (1.0 + rho)
        # At an exact fixed point (iht without residual, noiseless completion)
        # the certificate reads the spectrum the family analysis computed.
        exact = kind in ("iht", "mcp")
        widths = [] if exact else [report.linearization.basis.shape[1]] * 2
        assert [width for width, _ in calls] == widths

    def test_dense_reference_shares_no_code_with_the_certificate(self, monkeypatch):
        def compressed_ok():
            return {r.name: r.ok for r in verify.check_rate_agreement(0)
                    if r.name.startswith("compressed_agreement.")}

        assert list(compressed_ok().values()) == [True] * 4
        exact = analysis.extreme_eigenvalues

        # The one eigenvalue helper of the certificate, on both of its paths.
        def shifted(sym):
            lam_max, lam_min = exact(sym)
            return lam_max + 1e-9, lam_min + 1e-9

        monkeypatch.setattr(analysis, "extreme_eigenvalues", shifted)
        assert list(compressed_ok().values()) == [False] * 4

    def test_dense_reference_guards_the_shared_tangent_spectrum(self, monkeypatch):
        # The exact-fixed-point certificates of iht and completion read the
        # family analysis's spectrum: shifting it must show against the dense H,
        # while lcls and the sphere (general path) stay as they were.
        exact = Problem.tangent_extremes

        def shifted(problem, linearization):
            lam_max, lam_min = exact(problem, linearization)
            return lam_max + 1e-9, lam_min + 1e-9

        monkeypatch.setattr(Problem, "tangent_extremes", shifted)
        compressed_ok = {r.name: r.ok for r in verify.check_rate_agreement(0)
                         if r.name.startswith("compressed_agreement.")}
        assert compressed_ok == {"compressed_agreement.lcls": True,
                                 "compressed_agreement.iht": False,
                                 "compressed_agreement.sphere": True,
                                 "compressed_agreement.mcp": False}

    def test_non_stationary_sphere_point_is_refused(self):
        # Off a fixed point span B_z != span B_x, and H's eigenbasis is not
        # given by C's: the certificate starts from a point the sphere
        # analysis accepted, and that analysis refuses this one.
        prob, _ = make_instance("sphere", {"m": 9, "n": 5, "gamma": -0.5}, 6)
        x = prob.constraint.random_member(np.random.default_rng(0))
        with pytest.raises(StationarityError, match="not a stationary point"):
            analyze_problem(prob, x)

    @pytest.mark.parametrize("fraction", [1.0, 0.5], ids=["eta_opt", "half_eta_opt"])
    @pytest.mark.parametrize("seed", range(4))
    def test_near_fixed_completion_point_gets_the_exact_region(self, seed, fraction):
        # C is symmetric here only to the stationarity tolerance, and its
        # eigenvalue 1 - eta repeats: an eigenbasis of C read kappa 1.00 to
        # 2.66 and regions up to 7.1 times smaller than the exact file's.
        exact, x_star = make_instance("mcp", {"m": 12, "n": 10, "r": 2, "s": 80}, seed)
        exact_report = analyze_problem(exact, x_star)
        eta = fraction * exact_report.eta_opt
        prob = moved_observations(exact)
        report = analyze_problem(prob, x_star)
        conv = analysis.analyze_fixed_point(
            report.problem, report.x_star, report.linearization, eta)
        assert conv.certified and conv.eigvec_condition == 1.0
        exact_region = analysis.analyze_fixed_point(
            exact_report.problem, exact_report.x_star, exact_report.linearization, eta
        ).region_radius
        assert conv.region_radius == pytest.approx(exact_region, rel=1e-6)
        H = verify.iteration_matrix(prob, x_star, eta)
        assert abs(conv.rate - verify.spectral_radius(H)) <= 1e-10
        _assert_power_bound(H, conv.rate, conv.eigvec_condition)

    def test_near_fixed_paper_scale_completion_solves_only_k_by_k(self, eigensolves):
        prob, x_star = make_instance("mcp", {"m": 50, "n": 40, "r": 3, "s": 800}, 7)
        prob = moved_observations(prob)
        report = analyze_problem(prob, x_star)
        assert report.linearization.basis.shape[1] == 261
        calls = eigensolves(261)
        conv = analysis.analyze_fixed_point(
            report.problem, report.x_star, report.linearization, report.eta_opt)
        assert [width for width, _ in calls] == [261]
        assert conv.certified and conv.eigvec_condition < 1.01

    def test_block_apply_scales_rows_of_a_diagonal_a(self):
        rng = np.random.default_rng(8)
        d = rng.uniform(0.5, 2.0, 5) * rng.choice([-1.0, 1.0], 5)
        prob = Problem(np.diag(d), np.zeros(5), SphereConstraint(5))
        block = rng.standard_normal((5, 3))
        for apply in (prob.apply, prob.apply_t):
            assert np.array_equal(apply(block), np.diag(d) @ block)
            for j in range(3):
                assert np.array_equal(apply(block)[:, j], apply(block[:, j]))

    def test_product_reads_rows_only_for_a_dense_a(self, monkeypatch):
        # (A B_z)^T (A B_x) for a diagonal A is B_z^T diag(d^2) B_x from the
        # factors, with no row of either basis; a dense A is applied to every
        # row of each basis, once, and keeps the bits of that row product.
        rng = np.random.default_rng(9)
        spec = LowRankConstraint(2, (6, 5))
        x, z = spec.random_member(rng), spec.random_member(rng)
        lin_x, lin_z = spec.linearize(x), spec.linearize(z)
        B_x, B_z = lin_x.basis, lin_z.basis
        d = rng.uniform(0.5, 2.0, spec.n) * rng.choice([-1.0, 1.0], spec.n)
        d[[1, 4, 17]] = 0.0
        A = rng.standard_normal((8, spec.n))
        cross, eta = B_x.T @ B_z, 0.3
        asked = []
        rows = Linearization.rows
        monkeypatch.setattr(Linearization, "rows",
                            lambda lin, index=None: asked.append(index) or rows(lin, index))

        _, sM = analysis._compressed_update(Problem(d, np.zeros(spec.n), spec), lin_x, lin_z, eta)
        assert asked == []
        expected = cross.T - eta * (B_z.T @ ((d**2)[:, None] * B_x))
        assert np.max(np.abs(sM - expected)) <= 1e-14 * np.max(np.abs(expected))
        _, sM = analysis._compressed_update(Problem(A, np.zeros(8), spec), lin_x, lin_z, eta)
        assert asked == [None, None]
        assert np.array_equal(sM, lin_x.cross_gram(lin_z).T - eta * ((A @ B_z).T @ (A @ B_x)))

    @pytest.mark.parametrize("fraction", [0.5, 1.0, 4.0])
    def test_diagonal_a_gives_the_certificate_of_its_dense_copy(self, fraction):
        # Weights other than 0 and 1, some zero and some negative. The dense
        # copy permutes the rows of A and b: A stays a matrix and reads every
        # row of a basis, while A^T A, the gradient and x* keep their bits.
        rng = np.random.default_rng(10)
        spec = LowRankConstraint(2, (8, 6))
        x_star = spec.random_member(rng)
        d = rng.uniform(0.5, 1.5, spec.n) * rng.choice([-1.0, 1.0], spec.n)
        d[rng.choice(spec.n, size=spec.n // 4, replace=False)] = 0.0
        diagonal = Problem(d, d * x_star, spec)
        perm = np.roll(np.eye(spec.n), 1, axis=0)
        dense = Problem(perm @ np.diag(d), perm @ (d * x_star), spec)
        assert diagonal.diagonal is not None and dense.diagonal is None
        lin = spec.linearize(x_star)
        eta = fraction / float(np.max(d**2))
        conv = analysis.analyze_fixed_point(diagonal, x_star, lin, eta)
        reference = analysis.analyze_fixed_point(dense, x_star, lin, eta)
        assert conv.certified == reference.certified
        assert conv.rate == pytest.approx(reference.rate, rel=1e-12, abs=1e-15)
        assert conv.eigvec_condition == reference.eigvec_condition == 1.0
        if conv.certified:
            assert conv.region_radius == pytest.approx(reference.region_radius, rel=1e-12)
        rho = verify.spectral_radius(verify.iteration_matrix(diagonal, x_star, eta))
        assert abs(conv.rate - rho) <= 1e-12 * (1.0 + rho)


def _snapshot(*arrays):
    return [np.array(a, copy=True) for a in arrays]


def _linearization_arrays(lin):
    return [lin.right, lin.left, lin.ia, lin.ib]


class TestExactFixedPoint:
    """Where the gradient vanishes at x*, z = x* bit for bit: the certificate
    takes the linearization at x* as the one at z, and its rate is
    s^2 max |1 - eta lambda| over the extremes of W = (A B)^T (A B), with no
    compressed update and no ``eigendecompose``."""

    @pytest.mark.parametrize(
        "kind, params, seed, fractions, scale",
        [("mcp", {"m": 12, "n": 10, "r": 2, "s": 80}, 0, (0.5, 1.0), None),
         ("mcp", {"m": 50, "n": 40, "r": 3, "s": 800}, 7, (1.0,), None),
         ("iht", {"m": 50, "n": 100, "s": 5}, 0, (0.5, 1.0), None),
         ("iht", {"m": 50, "n": 100, "s": 5}, 0, (0.5, 1.0), 0.5)]
        + [("sphere", {"m": 12, "n": 6, "gamma": 0.0}, seed, (0.5, 1.0), None)
           for seed in range(3)],
        ids=["mcp_12x10", "mcp_paper", "iht", "iht_scaled", "sphere_0", "sphere_1",
             "sphere_2"],
    )
    def test_agrees_with_the_general_path_and_the_dense_radius(
            self, monkeypatch, kind, params, seed, fractions, scale):
        prob, x_star = make_instance(kind, params, seed)
        report = analyze_problem(prob, x_star)
        problem, x_star, lin_x = report.problem, report.x_star, report.linearization
        s2 = 1.0
        if scale is not None:
            # A derivative s B B^T with s != 1: H and its rate scale by s^2.
            lin_x = Linearization(lin_x.basis, lin_x.radius, lin_x.curvature, scale=scale)
            s2 = scale**2
        compressed, decompose = analysis._compressed_update, analysis.eigendecompose

        def refused(*args):
            raise AssertionError("the exact fixed point took the general path")

        for eta in (f * report.eta_opt for f in fractions):
            z = x_star - eta * problem.gradient(x_star)
            assert np.array_equal(z, x_star)
            monkeypatch.setattr(analysis, "_compressed_update", refused)
            monkeypatch.setattr(analysis, "eigendecompose", refused)
            exact = analysis.analyze_fixed_point(problem, x_star, lin_x, eta)
            # The general path: the compressed update with a separately built
            # linearization at z, whose cross Gram with B_x is I to rounding.
            lin_z = problem.constraint.linearize(z)
            if scale is not None:
                lin_z = Linearization(lin_z.basis, lin_z.radius, lin_z.curvature, scale=scale)
            general = decompose(*compressed(problem, lin_x, lin_z, eta))
            assert exact.certified and exact.symmetric and exact.eigvec_condition == 1.0
            assert abs(exact.rate - general.spectral_radius) <= 1e-14 * general.spectral_radius
            # The region is (1 - rate) / quad here or does not depend on the
            # rate: a rate within 1e-14 moves it by 1e-14 relative in 1 - rate.
            quad = analysis.quadratic_coefficient(
                general.eigvec_condition, exact.contraction, lin_z.curvature,
                lin_z.operator_norm(), lin_x.curvature)
            region = analysis.convergence_radius(
                lin_x.radius, lin_z.radius, general.eigvec_condition, exact.contraction,
                general.spectral_radius, quad)
            if np.isinf(region):
                assert exact.region_radius == region
            else:
                assert abs(exact.region_radius - region) <= (
                    1e-14 * region / (1.0 - general.spectral_radius))
            rho = s2 * verify.spectral_radius(verify.iteration_matrix(problem, x_star, eta))
            for rate in (exact.rate, general.spectral_radius):
                assert abs(rate - rho) <= 1e-12

    @pytest.mark.parametrize("kind, params", [("mcp", {"m": 6, "n": 5, "r": 2, "s": 24}),
                                              ("iht", {"m": 16, "n": 32, "s": 4})],
                             ids=["diagonal_a", "matrix_a"])
    def test_arguments_are_left_unchanged(self, kind, params):
        prob, x_star = make_instance(kind, params, 3)
        report = analyze_problem(prob, x_star)
        problem, lin_x = report.problem, report.linearization
        moved = report.x_star + 1e-3 * np.random.default_rng(0).standard_normal(problem.shape[1])
        for lin_z in (lin_x, problem.constraint.linearize(problem.constraint.project(moved))):
            before = _snapshot(*_linearization_arrays(lin_x), *_linearization_arrays(lin_z),
                               problem.b)
            C, sM = analysis._compressed_update(problem, lin_x, lin_z, 0.5 * report.eta_opt)
            after = _snapshot(*_linearization_arrays(lin_x), *_linearization_arrays(lin_z),
                              problem.b)
            assert all(np.array_equal(a, b) for a, b in zip(before, after))
            # The rotated C is not symmetric: the skew branch runs too.
            for C, sM in ((C, sM), (C @ np.roll(np.eye(len(C)), 1, axis=0), sM)):
                before = _snapshot(C, sM)
                analysis.eigendecompose(C, sM)
                analysis.eigendecompose(C, C)
                assert all(np.array_equal(a, b) for a, b in zip(before, _snapshot(C, sM)))

    # (moved, limit): the exact fixed point holds at most 2.5 k x k arrays at
    # once; off it (observations moved by 1e-11) the cross Gram, M and C are
    # three, and the certificate held four and more before its in-place forms.
    @pytest.mark.parametrize("moved, limit", [(False, 2.5), (True, 3.5)],
                             ids=["exact", "moved"])
    def test_certificate_peak_in_kxk_arrays(self, moved, limit):
        # 100 x 80, r = 4, s = 2000: k = 704 and one k x k array is 3.78 MiB.
        prob, x_star = make_instance("mcp", {"m": 100, "n": 80, "r": 4, "s": 2000}, 0)
        if moved:
            prob = moved_observations(prob)
        report = analyze_problem(prob, x_star)
        k = report.linearization.dimension
        tracemalloc.start()
        try:
            conv = analysis.analyze_fixed_point(
                report.problem, report.x_star, report.linearization, report.eta_opt)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert k == 704 and conv.certified and conv.symmetric != moved
        assert peak < limit * 8 * k * k
