import numpy as np
import pytest
from scipy.integrate import quad

from pgdlab import analysis
from pgdlab.applications import analyze_problem
from pgdlab.constraints import AffineConstraint, SphereConstraint
from pgdlab.empirics import make_lcls_instance, make_sphere_instance
from pgdlab.engine import Problem
from pgdlab.errors import ConstraintDomainError, NoCertificateError

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


class TestIterationMatrix:
    def test_affine_form(self):
        rng = np.random.default_rng(1)
        C = rng.standard_normal((2, 6))
        d = C @ rng.standard_normal(6)
        A = rng.standard_normal((7, 6))
        prob = Problem(A, rng.standard_normal(7), AffineConstraint(C, d))
        x_star = analyze_problem(prob).x_star
        eta = 0.05
        H = analysis.iteration_matrix(prob, x_star, eta)
        P = prob.constraint.tangent_projector
        expected = P @ (np.eye(6) - eta * A.T @ A) @ P
        np.testing.assert_allclose(H, expected, atol=1e-12)

    def test_vanishing_step_gives_tangent_projector(self):
        prob, x_star = make_lcls_instance(8, 6, 2, 2)
        H = analysis.iteration_matrix(prob, x_star, 1e-15)
        rho = analysis.eigendecompose(H).spectral_radius
        assert rho == pytest.approx(1.0, abs=1e-12)

    def test_sphere_hand_example(self):
        prob = Problem(np.eye(2), np.array([2.0, 0.0]), SphereConstraint(2))
        H = analysis.iteration_matrix(prob, [1.0, 0.0], 0.5)
        np.testing.assert_allclose(H, np.diag([0.0, 1.0 / 3.0]), atol=1e-14)

    def test_sphere_flipped_fixed_point_rejected(self):
        # gamma = 1 at this stationary point: eta = 2 flips the projection.
        prob = Problem(np.eye(2), np.zeros(2), SphereConstraint(2))
        with pytest.raises(ConstraintDomainError, match="fixed-point"):
            analysis.iteration_matrix(prob, [1.0, 0.0], 2.0)

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
        expected = lin_z.matrix @ (np.eye(6) - eta * (A.T @ A)) @ lin_x.matrix
        assert np.array_equal(analysis.iteration_matrix(prob, x_star, eta), expected)


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


class TestEigendecompose:
    def test_diagonal(self):
        eig = analysis.eigendecompose(np.diag([0.5, 0.2]))
        assert eig.spectral_radius == pytest.approx(0.5)
        assert eig.eigvec_condition == 1.0
        assert eig.symmetric and eig.diagonalizable

    def test_application_matrix_is_symmetric_path(self):
        prob, x_star = make_sphere_instance(9, 5, -0.5, 3)
        H = analysis.iteration_matrix(prob, x_star, 0.1)
        eig = analysis.eigendecompose(H)
        assert eig.symmetric
        assert eig.eigvec_condition == 1.0

    def test_jordan_block_flagged(self):
        eig = analysis.eigendecompose(np.array([[0.5, 1.0], [0.0, 0.5]]))
        assert not eig.diagonalizable

    def test_rotation_flagged_complex(self):
        c, s = np.cos(0.5), np.sin(0.5)
        eig = analysis.eigendecompose(0.9 * np.array([[c, -s], [s, c]]))
        assert not eig.diagonalizable
        assert eig.spectral_radius == pytest.approx(0.9)


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
        rate, lam_max, lam_min = analysis.compressed_rate(
            np.eye(2), np.array([[1.0], [0.0]]), 0.5
        )
        assert rate == pytest.approx(0.5)
        assert lam_max == lam_min == pytest.approx(1.0)

    def test_interlacing_random(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            A = rng.standard_normal((9, 6))
            full = np.linalg.eigvalsh(A.T @ A)
            q, _ = np.linalg.qr(rng.standard_normal((6, 3)))
            _, lam_max, lam_min = analysis.compressed_rate(A, q, 1.0)
            assert lam_max <= full[-1] + 1e-10
            assert lam_min >= full[0] - 1e-10

    def test_rejects_skew_basis(self):
        with pytest.raises(ValueError):
            analysis.compressed_rate(np.eye(3), np.ones((3, 2)), 0.5)

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
        prob, x_star = make_lcls_instance(10, 7, 2, 5)
        report = analyze_problem(prob)
        conv = analysis.analyze_fixed_point(prob, x_star, 0.8 * report.eta_opt)
        assert conv.certified
        assert np.isinf(conv.region_radius)
        assert conv.quad_coeff == 0.0
        assert conv.eigvec_condition == 1.0

    def test_uncertified_above_threshold(self):
        prob, x_star = make_lcls_instance(10, 7, 2, 5)
        report = analyze_problem(prob)
        conv = analysis.analyze_fixed_point(prob, x_star, 1.05 * report.eta_max)
        assert not conv.certified
        assert conv.region_radius is None
        with pytest.raises(NoCertificateError):
            conv.bound(1e-4, initial_error=1.0)

    def test_bound_with_initial_error(self):
        prob, x_star = make_sphere_instance(9, 5, -0.5, 6)
        report = analyze_problem(prob, x_star)
        eta = 0.9 * report.eta_opt
        conv = analysis.analyze_fixed_point(prob, x_star, eta)
        initial = 0.5 * report.region(eta)
        assert conv.certified
        assert 0 < conv.quad_coeff * initial / (1.0 - conv.rate) < 1  # the error fraction
        offset = analysis.certified_offset(conv.rate, conv.quad_coeff, initial)
        assert offset > 1.0
        assert conv.bound(1e-4, initial) > conv.bound(1e-2, initial)
        assert conv.bound(1e-4, initial) == analysis.iterations_to_accuracy(
            1e-4, conv.rate, conv.eigvec_condition, offset
        )

    def test_report_carries_eigendata(self):
        prob, x_star = make_sphere_instance(9, 5, -0.5, 6)
        report = analyze_problem(prob, x_star)
        eta = 0.8 * report.eta_opt
        conv = analysis.analyze_fixed_point(prob, x_star, eta)
        H = analysis.iteration_matrix(prob, x_star, eta)
        eig = analysis.eigendecompose(H)
        n = prob.constraint.n
        np.testing.assert_allclose(eig.Q.T @ eig.Q, np.eye(n), atol=1e-10)
        assert (conv.rate, conv.eigvec_condition, conv.symmetric, conv.diagonalizable) == (
            eig.spectral_radius, eig.eigvec_condition, eig.symmetric, eig.diagonalizable
        )
        assert np.max(np.abs(eig.eigenvalues)) == pytest.approx(conv.rate)
        recon = eig.Q @ np.diag(eig.eigenvalues) @ eig.Q.T
        np.testing.assert_allclose(recon, H, atol=1e-10)

    def test_overflowing_contraction_refused(self):
        # A^T A near rank one: eta * lam_max overflows while every entry of
        # eta * A^T A, and so H, stays finite.
        rng = np.random.default_rng(0)
        A = 0.2 * np.ones((12, 10)) + 0.01 * rng.standard_normal((12, 10))
        x_star = rng.standard_normal(10)
        x_star /= np.linalg.norm(x_star)
        b = A @ x_star + 0.5 * (A @ np.linalg.solve(A.T @ A, x_star))
        prob = Problem(A, b, SphereConstraint(10))
        assert np.isfinite(np.linalg.norm(analysis.iteration_matrix(prob, x_star, 1e308)))
        with pytest.raises(NoCertificateError, match="contraction factor overflows"):
            analysis.analyze_fixed_point(prob, x_star, 1e308)

    def test_json_encodes_infinity(self):
        prob, x_star = make_lcls_instance(10, 7, 2, 5)
        report = analyze_problem(prob)
        conv = analysis.analyze_fixed_point(prob, x_star, 0.5 * report.eta_opt)
        doc = conv.to_json()
        assert doc["region_radius"] == "inf"
        assert None not in doc.values()
        # A global certificate has no quadratic term: any start gets the offset 1.
        assert [conv.bound(eps, initial_error=1.0) for eps in (1e-2, 1e-4)] == [
            analysis.iterations_to_accuracy(eps, conv.rate) for eps in (1e-2, 1e-4)
        ]
