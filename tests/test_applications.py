import numpy as np
import pytest

from pgdlab import analysis
from pgdlab.applications import (
    analyze_iht,
    analyze_lcls,
    analyze_mcp,
    analyze_problem,
    analyze_sphere,
    mcp_problem,
    rank_tangent_basis,
)
from pgdlab.constraints import (
    RANK_CURVATURE,
    AffineConstraint,
    SparsityConstraint,
    SphereConstraint,
)
from pgdlab.cli import main
from pgdlab.empirics import (
    default_etas,
    make_instance,
    run_experiment,
)
from pgdlab.engine import Problem
from pgdlab.errors import ConstraintDomainError, NoCertificateError, StationarityError
from pgdlab.problem_io import load_problem, save_problem
from pgdlab.verify import run_suites

SQRT2 = np.sqrt(2.0)


class TestLcls:
    def test_one_dimensional_reduction(self):
        prob = Problem(np.eye(2), np.zeros(2), AffineConstraint([[1.0, 1.0]], [np.sqrt(2.0)]))
        report = analyze_lcls(prob)
        basis = report.linearization.basis.ravel()
        np.testing.assert_allclose(np.abs(basis), np.ones(2) / SQRT2, atol=1e-12)
        assert report.lam_max == pytest.approx(1.0)
        assert report.rate(0.3) == pytest.approx(0.7)
        assert report.eta_opt == pytest.approx(1.0)
        assert report.rho_opt == pytest.approx(0.0, abs=1e-15)
        assert np.isinf(report.region(0.5))

    def test_rho_opt_from_condition_number(self):
        prob, _ = make_instance("lcls", {"m": 14, "n": 9, "p": 3}, 0)
        report = analyze_problem(prob)
        kappa = report.lam_max / report.lam_min
        assert report.rho_opt == pytest.approx(1.0 - 2.0 / (kappa + 1.0))

    def test_solution_satisfies_reduced_normal_equations(self):
        prob, x_star = make_instance("lcls", {"m": 14, "n": 9, "p": 3}, 1)
        basis = prob.constraint.null_basis
        grad = prob.gradient(x_star)
        assert np.linalg.norm(basis.T @ grad) <= 1e-10
        assert prob.constraint.membership_residual(x_star) <= 1e-12


class TestIht:
    def test_exact_recovery_interval(self):
        prob, x_star = make_instance("iht", {"m": 20, "n": 40, "s": 4}, 2)
        report = analyze_problem(prob, x_star)
        assert np.isinf(report.fixed_point_eta_max)
        assert report.eta_max == pytest.approx(2.0 / report.lam_max)
        smallest = np.min(np.abs(x_star[np.flatnonzero(x_star)]))
        eta = 0.5 * report.eta_max
        assert report.region(eta) == pytest.approx(
            min(smallest / SQRT2, smallest / (SQRT2 * report.contraction(eta)))
        )

    def test_residual_instance_has_finite_cap(self):
        prob, x_star = make_instance("iht", {"m": 20, "n": 40, "s": 4, "residual": True}, 2)
        report = analyze_problem(prob, x_star)
        assert np.isfinite(report.fixed_point_eta_max)
        v = prob.gradient(x_star)
        support = np.flatnonzero(x_star)
        assert np.linalg.norm(v[support]) <= 1e-10 * (1 + np.linalg.norm(v))
        assert np.max(np.abs(v)) > 1e-8

    def test_rejects_non_stationary(self):
        rng = np.random.default_rng(3)
        A = rng.standard_normal((10, 20))
        x = np.zeros(20)
        x[:3] = 1.0
        with pytest.raises(StationarityError):
            analyze_iht(Problem(A, rng.standard_normal(10), SparsityConstraint(3, 20)), x)

    def test_rejects_more_nonzeros_than_s(self):
        # A fixed point of hard thresholding is s-sparse: a stationary point
        # with four nonzeros is no certificate for s = 3.
        prob, x_star = make_instance("iht", {"m": 20, "n": 40, "s": 4}, 0)
        analyze_problem(prob, x_star)
        with pytest.raises(StationarityError, match="s=3"):
            analyze_problem(Problem(prob.A, prob.b, SparsityConstraint(3, 40)), x_star)

    @pytest.mark.parametrize("residual", [True, False])
    def test_rejects_fewer_nonzeros_than_s(self, residual):
        # Four nonzeros under s = 6: the top-6 support ties at zero, so hard
        # thresholding has no derivative at x_star; with a residual, x_star is
        # not even a fixed point (P(x* - eta grad) != x*).
        prob, x_star = make_instance("iht", {"m": 20, "n": 40, "s": 4, "residual": residual}, 0)
        with pytest.raises(ConstraintDomainError, match="rank s"):
            analyze_problem(Problem(prob.A, prob.b, SparsityConstraint(6, 40)), x_star)

    @pytest.mark.parametrize("etas", [[], ["--eta", "0.02"]])
    def test_analyze_of_an_under_sparse_file_exits_1(self, etas, tmp_path, capsys):
        prob, x_star = make_instance("iht", {"m": 20, "n": 40, "s": 4, "residual": True}, 0)
        path = tmp_path / "problem.json"
        save_problem(path, Problem(prob.A, prob.b, SparsityConstraint(6, 40)), x_star=x_star)
        assert main(["analyze", str(path), *etas]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "rank s" in captured.err

    def test_local_minimum_on_support(self):
        prob, x_star = make_instance("iht", {"m": 20, "n": 40, "s": 4}, 5)
        report = analyze_problem(prob, x_star)
        rng = np.random.default_rng(6)
        eta = 0.5 * report.eta_max
        radius = report.region(eta)
        support = np.flatnonzero(x_star)
        base = prob.objective(x_star)
        for _ in range(1000):
            y = rng.standard_normal(support.size)
            y *= rng.random() * radius / np.linalg.norm(y)
            probe = x_star.copy()
            probe[support] += y
            assert prob.objective(probe) >= base - 1e-12 * (1.0 + abs(base))


class TestSphere:
    def test_hand_example(self):
        n = 4
        b = np.zeros(n)
        b[0] = 2.0
        report = analyze_sphere(Problem(np.eye(n), b, SphereConstraint(n)), np.eye(n)[0])
        assert report.gamma == pytest.approx(-1.0)
        assert report.lam_max == report.lam_min == pytest.approx(1.0)
        assert report.rate(1.0) == pytest.approx(0.0)
        assert report.rate(0.5) == pytest.approx(1.0 / 3.0)
        assert np.isinf(report.eta_max)  # gamma <= -lam_max

    def test_optimal_step_matches_grid_minimum(self):
        prob, x_star = make_instance("sphere", {"m": 12, "n": 7, "gamma": -0.5}, 7)
        report = analyze_problem(prob, x_star)
        lo, hi = 1e-9, min(report.eta_max * (1 - 1e-12), 50.0)
        for _ in range(200):  # ternary search on the unimodal rate
            m1 = lo + (hi - lo) / 3.0
            m2 = hi - (hi - lo) / 3.0
            if report.rate(m1) <= report.rate(m2):
                hi = m2
            else:
                lo = m1
        eta_grid = 0.5 * (lo + hi)
        assert abs(report.rate(eta_grid) - report.rho_opt) <= 1e-6
        assert abs(eta_grid - report.eta_opt) <= 1e-6 * (1.0 + report.eta_opt)

    def test_zero_multiplier_reduces_to_tangent_compression(self):
        prob, x_star = make_instance("sphere", {"m": 12, "n": 7, "gamma": 0.0}, 8)
        report = analyze_problem(prob, x_star)
        assert report.gamma == pytest.approx(0.0, abs=1e-12)
        eta = 0.8 * report.eta_opt
        lam_max, lam_min = analysis.gram_extremes(prob.apply(report.linearization.basis))
        rate = analysis.contraction_factor(lam_max, lam_min, eta)
        assert report.rate(eta) == pytest.approx(rate, abs=1e-12)
        assert np.linalg.norm(prob.gradient(x_star)) <= 1e-10

    def test_rejects_off_sphere_and_non_collinear(self):
        rng = np.random.default_rng(9)
        A = rng.standard_normal((8, 5))
        with pytest.raises(StationarityError, match="unit sphere"):
            analyze_sphere(Problem(A, rng.standard_normal(8), SphereConstraint(5)), np.ones(5))
        x = rng.standard_normal(5)
        x /= np.linalg.norm(x)
        with pytest.raises(StationarityError, match="stationary"):
            analyze_sphere(Problem(A, rng.standard_normal(8), SphereConstraint(5)), x)

    def test_supercritical_multiplier_not_certified(self):
        # gamma above the smallest tangent eigenvalue: saddle, no certificate.
        rng = np.random.default_rng(10)
        A = rng.standard_normal((9, 5))
        x_star = rng.standard_normal(5)
        x_star /= np.linalg.norm(x_star)
        q, _ = np.linalg.qr(x_star.reshape(-1, 1), mode="complete")
        lam = np.linalg.eigvalsh((A @ q[:, 1:]).T @ (A @ q[:, 1:]))
        gamma = lam[-1] + 1.0
        b = A @ x_star - gamma * (A @ np.linalg.solve(A.T @ A, x_star))
        report = analyze_sphere(Problem(A, b, SphereConstraint(5)), x_star)
        assert not report.certified
        assert report.eta_opt is None
        with pytest.raises(NoCertificateError):
            report.region(0.1)

    def test_quad_coefficient_refused_past_the_fixed_point_step(self):
        prob, x_star = make_instance("sphere", {"m": 12, "n": 6, "gamma": 0.3}, 0)
        report = analyze_problem(prob, x_star)
        for factor in (1.0, 3.0):  # 1 - eta*gamma is zero, then negative
            with pytest.raises(NoCertificateError, match="not a fixed point"):
                report.quad_coefficient(factor / report.gamma)
        assert report.quad_coefficient(0.5 / report.gamma) > 0.0

    def test_conditions_imply_fixed_point_scaling(self):
        # Sampled check: certificate conditions force 1 - eta*gamma > 0.
        rng = np.random.default_rng(11)
        for _ in range(2000):
            lam_min = rng.uniform(0.1, 3.0)
            lam_max = lam_min + rng.uniform(0.0, 3.0)
            gamma = lam_min - rng.uniform(0.01, 4.0)  # gamma < lam_min
            hi = 2.0 / (gamma + lam_max) if gamma > -lam_max else 10.0
            eta = rng.uniform(0.0, hi) if hi > 0 else rng.uniform(0, 10.0)
            if eta <= 0:
                continue
            if gamma > -lam_max and eta * (gamma + lam_max) >= 2.0:
                continue
            assert 1.0 - eta * gamma > 0.0


class TestRankTangentBasis:
    def test_rank_one_two_by_two(self):
        U = np.array([[1.0], [0.0]])
        V = np.array([[1.0], [0.0]])
        basis = rank_tangent_basis(U, V)
        projector = basis @ basis.T
        np.testing.assert_allclose(projector, np.diag([1.0, 1.0, 1.0, 0.0]), atol=1e-12)

    def test_column_count(self):
        rng = np.random.default_rng(12)
        qu, _ = np.linalg.qr(rng.standard_normal((5, 2)))
        qv, _ = np.linalg.qr(rng.standard_normal((4, 2)))
        basis = rank_tangent_basis(qu, qv)
        assert basis.shape == (20, 2 * (5 + 4 - 2))

    def test_orthonormal_and_matches_projector(self):
        rng = np.random.default_rng(13)
        qu, _ = np.linalg.qr(rng.standard_normal((6, 2)))
        qv, _ = np.linalg.qr(rng.standard_normal((5, 2)))
        basis = rank_tangent_basis(qu, qv)
        np.testing.assert_allclose(basis.T @ basis, np.eye(basis.shape[1]), atol=1e-10)
        left = np.eye(6) - qu @ qu.T
        right = np.eye(5) - qv @ qv.T
        expected = np.eye(30) - np.kron(right, left)
        np.testing.assert_allclose(basis @ basis.T, expected, atol=1e-10)

    def test_rejects_non_orthonormal(self):
        with pytest.raises(ValueError):
            rank_tangent_basis(np.ones((4, 2)), np.ones((3, 2)))

    @pytest.mark.parametrize("m, n, r", [(6, 5, 2), (4, 4, 1), (3, 5, 3), (5, 2, 2)])
    def test_bit_equal_to_kron_construction(self, m, n, r):
        rng = np.random.default_rng(m * 100 + n * 10 + r)
        U, _ = np.linalg.qr(rng.standard_normal((m, r)))
        V, _ = np.linalg.qr(rng.standard_normal((n, r)))
        qu, _ = np.linalg.qr(U, mode="complete")
        qv, _ = np.linalg.qr(V, mode="complete")
        blocks = [np.kron(V, U), np.kron(V, qu[:, r:]), np.kron(qv[:, r:], U)]
        expected = np.hstack([blk for blk in blocks if blk.shape[1] > 0])
        assert np.array_equal(rank_tangent_basis(U, V), expected)


class TestMcp:
    def test_fully_observed_identity(self):
        rng = np.random.default_rng(14)
        X = rng.standard_normal((4, 2)) @ rng.standard_normal((2, 3))
        x = X.reshape(-1, order="F")
        omega = np.arange(12)
        report = analyze_mcp(mcp_problem(x[omega], omega, X.shape, 2), x)
        assert report.lam_max == pytest.approx(1.0)
        assert report.lam_min == pytest.approx(1.0)
        assert report.rate(1.0) == pytest.approx(0.0, abs=1e-12)

    def test_eigenvalues_within_unit_interval(self):
        for seed in range(5):
            prob, x_star = make_instance("mcp", {"m": 6, "n": 5, "r": 2, "s": 22}, seed)
            report = analyze_problem(prob, x_star)
            assert report.lam_max <= 1.0 + 1e-10
            assert report.lam_min >= -1e-12

    def test_rejects_rank_mismatch_and_inconsistency(self):
        rng = np.random.default_rng(15)
        X = rng.standard_normal((5, 4))  # full rank 4
        omega = np.arange(10)
        x = X.reshape(-1, order="F")
        with pytest.raises(ConstraintDomainError, match="rank"):
            analyze_mcp(mcp_problem(x[omega], omega, X.shape, 2), x)
        low = rng.standard_normal((5, 2)) @ rng.standard_normal((2, 4))
        xl = low.reshape(-1, order="F")
        with pytest.raises(StationarityError, match="observations"):
            analyze_mcp(mcp_problem(xl[omega] + 1.0, omega, low.shape, 2), xl)

    def test_tiny_off_diagonal_entry_refused(self):
        prob, x_star = make_instance("mcp", {"m": 6, "n": 5, "r": 2, "s": 24}, 16)
        A = prob.A.copy()
        A[0, 1] = 1e-13
        with pytest.raises(ValueError, match="completion-structured"):
            analyze_problem(Problem(A, prob.b, prob.constraint), x_star)

    def test_region_matches_generic_constant_below_two(self):
        prob, x_star = make_instance("mcp", {"m": 6, "n": 5, "r": 2, "s": 24}, 16)
        report = analyze_problem(prob, x_star)
        eta = min(1.5, 0.9 * report.eta_max)
        rho = report.rate(eta)
        assert report.region(eta) == pytest.approx(
            (1.0 - rho) / (8.0 * (1.0 + SQRT2))
        )


class TestDualPath:
    @pytest.mark.parametrize("seed", range(5))
    def test_rate_and_region_agree(self, seed):
        rng = np.random.default_rng(200 + seed)
        cases = [
            make_instance("lcls", {"m": 12, "n": 8, "p": 3}, seed),
            make_instance("iht", {"m": 16, "n": 32, "s": 4, "residual": bool(seed % 2)}, seed),
            make_instance("sphere", {"m": 12, "n": 6, "gamma": -0.4}, seed),
            make_instance("mcp", {"m": 6, "n": 5, "r": 2, "s": 24}, seed),
        ]
        for prob, x_star in cases:
            x_star = np.asarray(x_star, dtype=float).reshape(-1)
            report = analyze_problem(prob, x_star)
            cap = report.eta_max if np.isfinite(report.eta_max) else 4.0
            eta = float(rng.uniform(0.2, 0.95)) * cap
            conv = analysis.analyze_fixed_point(report, eta)
            assert abs(report.rate(eta) - conv.rate) <= 1e-10
            r1, r2 = report.region(eta), conv.region_radius
            if np.isinf(r1):
                assert np.isinf(r2)
            else:
                assert abs(r1 - r2) <= 1e-12 * (1.0 + r1)

    def test_mcp_problem_round_trip(self):
        prob, x_star = make_instance("mcp", {"m": 5, "n": 4, "r": 2, "s": 16}, 17)
        assert prob.constraint.kind == "lowrank"
        assert prob.objective(x_star) <= 1e-20
        report = analyze_problem(prob, x_star)
        assert report.kind == "mcp"
        assert report.linearization.basis.shape[1] == 2 * (5 + 4 - 2)


# The per-family closed forms as they were written before ApplicationReport
# evaluated one recipe; the recipe must reproduce them bit for bit.
def _old_eta_max(report):
    lam_max, gamma = report.lam_max, report.gamma
    if report.kind == "sphere":
        return np.inf if gamma <= -lam_max else 2.0 / (gamma + lam_max)
    cap = 2.0 / lam_max if lam_max > 0 else np.inf
    if report.kind == "iht":
        return min(cap, report.fixed_point_eta_max)
    return cap


def _old_flags_and_optimum(report):
    lam_max, lam_min, gamma = report.lam_max, report.lam_min, report.gamma
    eta_max = _old_eta_max(report)
    if report.kind == "sphere":
        full_rank = fixed_point_ok = gamma < lam_min
    else:
        full_rank = lam_min > 1e-10 * max(lam_max, 1e-300)
        fixed_point_ok = eta_max > 0 if report.kind == "iht" else True
    flags = {"K_full_rank": bool(full_rank), "stationarity_ok": True,
             "fixed_point_ok": bool(fixed_point_ok)}
    eta_opt = rho_opt = None
    if full_rank:
        if report.kind == "sphere":
            eta_opt = 2.0 / (lam_max + lam_min)
            rho_opt = (lam_max - lam_min) / (lam_max + lam_min - 2.0 * gamma)
        else:
            eta_opt, rho_opt = analysis.optimal_step(lam_max, lam_min)
        flags["eta_opt_admissible"] = bool(eta_opt < eta_max)
    return flags, eta_opt, rho_opt


def _old_rate(report, eta):
    base = analysis.contraction_factor(report.lam_max, report.lam_min, eta)
    if report.kind != "sphere":
        return float(base)
    scale = 1.0 - eta * report.gamma
    if scale <= 0:
        raise NoCertificateError("sphere: not a fixed point")
    return float(base / scale)


def _old_quad(report, eta):
    if report.kind in ("lcls", "iht"):
        return 0.0
    u = report.contraction(eta)
    if report.kind == "sphere":
        scale = 1.0 - eta * report.gamma
        if scale <= 0:
            raise NoCertificateError("sphere: not a fixed point")
        t = u / scale
        return float(2.0 * (t**2 + t))
    return float(RANK_CURVATURE * (u**2 + u))


def _old_region(report, eta):
    if not report.admissible(eta):
        raise NoCertificateError("outside the admissible interval")
    if report.kind == "lcls":
        return np.inf
    if report.kind == "iht":
        smallest = report.details["smallest_magnitude"]
        grad_inf = report.details["gradient_sup_norm"]
        u = report.contraction(eta)
        return float(min(smallest / SQRT2, (smallest - eta * grad_inf) / (SQRT2 * u)))
    return float((1.0 - _old_rate(report, eta)) / _old_quad(report, eta))


def _outcome(fn, eta):
    """The value, or the exception type, so that raising cases compare too."""
    try:
        return fn(eta)
    except NoCertificateError as exc:
        return type(exc)


def _instance(kind, **params):
    """A seed -> (problem, x_star) drawer of one family and size."""
    return lambda seed: make_instance(kind, params, seed)


RECIPE_INSTANCES = {
    "lcls": _instance("lcls", m=12, n=8, p=3),
    "iht": _instance("iht", m=16, n=32, s=4),
    "iht_residual": _instance("iht", m=16, n=32, s=4, residual=True),
    "sphere": _instance("sphere", m=12, n=6, gamma=-0.4),
    "sphere_positive_gamma": _instance("sphere", m=12, n=6, gamma=0.3),
    "mcp": _instance("mcp", m=6, n=5, r=2, s=24),
}


class TestRecipe:
    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("family", sorted(RECIPE_INSTANCES))
    def test_matches_per_family_formulas(self, family, seed):
        prob, x_star = RECIPE_INSTANCES[family](seed)
        report = analyze_problem(prob, x_star)
        assert report.eta_max == _old_eta_max(report)
        flags, eta_opt, rho_opt = _old_flags_and_optimum(report)
        assert report.flags == flags
        assert (report.eta_opt, report.rho_opt) == (eta_opt, rho_opt)

        cap = report.eta_max if np.isfinite(report.eta_max) else 4.0
        etas = [f * cap for f in (0.01, 0.3, 0.7, 0.99, 1.0, 1.2, 2.5)]
        if report.gamma is not None and report.gamma > 0:
            etas += [f / report.gamma for f in (0.9, 1.0, 1.1, 3.0)]  # 1 - eta*gamma <= 0
        for eta in etas:
            assert _outcome(report.rate, eta) == _outcome(lambda e: _old_rate(report, e), eta)
            assert (_outcome(report.quad_coefficient, eta)
                    == _outcome(lambda e: _old_quad(report, e), eta))
            assert _outcome(report.region, eta) == _outcome(lambda e: _old_region(report, e), eta)


@pytest.mark.parametrize("family", ["lcls", "iht", "sphere", "mcp"])
def test_tangent_basis_is_the_linearization_basis(family):
    prob, x_star = RECIPE_INSTANCES[family](5)
    report = analyze_problem(prob, x_star)
    basis = prob.constraint.linearize(report.x_star).basis
    assert np.array_equal(report.linearization.basis, basis)


def _signed_diagonal_lcls(seed):
    """An lcls problem whose A is square, diagonal and of both signs."""
    rng = np.random.default_rng(seed)
    n = 12
    d = rng.uniform(0.5, 2.0, n) * rng.choice([-1.0, 1.0], n)
    C = rng.standard_normal((4, n))
    spec = AffineConstraint(C, C @ rng.standard_normal(n))
    return Problem(np.diag(d), rng.standard_normal(n), spec), None


READS_A_INSTANCES = {
    **{key: RECIPE_INSTANCES[key] for key in ("lcls", "iht", "sphere", "mcp")},
    "lcls_signed_diagonal": _signed_diagonal_lcls,
}


class TestReadsAThroughProblem:
    """The closed forms read A only through ``Problem``, with the bits of the
    raw-array formulas they replaced."""

    @pytest.mark.parametrize(
        "family, seed", [("mcp", seed) for seed in range(5)] + [("lcls_signed_diagonal", 0)]
    )
    def test_diagonal_problem_never_reads_dense_a(self, family, seed, refuse_dense_a):
        prob, x_star = READS_A_INSTANCES[family](seed)
        assert prob.diagonal is not None
        expected = analyze_problem(prob, x_star)
        refuse_dense_a()
        report = analyze_problem(prob, x_star)
        for key in ("lam_max", "lam_min", "eta_max", "eta_opt", "rho_opt", "flags"):
            assert getattr(report, key) == getattr(expected, key), key
        assert np.array_equal(report.x_star, expected.x_star)

    @pytest.mark.parametrize("family", ["mcp", "lcls_signed_diagonal"])
    def test_file_solve_and_analyze_never_read_dense_a(
        self, family, tmp_path, capsys, refuse_dense_a
    ):
        prob, x_star = READS_A_INSTANCES[family](0)
        report = analyze_problem(prob, x_star)
        path = tmp_path / "problem.json"
        refuse_dense_a()
        save_problem(path, prob, x_star=report.x_star)
        loaded, x_loaded, _ = load_problem(path)
        assert loaded.diagonal is not None and np.array_equal(x_loaded, report.x_star)
        out = str(tmp_path / "trace.csv")
        assert main(["solve", str(path), "--eta", repr(report.eta_opt), "--max-iters", "50",
                     "--out", out]) == 0
        assert main(["analyze", str(path)]) == 0

    def test_experiment_and_verify_never_read_dense_a(self, tmp_path, refuse_dense_a):
        refuse_dense_a()
        bundle = run_experiment("mcp", {"m": 12, "n": 10, "r": 2, "s": 80}, default_etas, 0,
                                outdir=tmp_path)
        assert bundle["runs"]
        failed = [r.name for r in run_suites(["rates", "bounds"], seed=0) if not r.ok]
        assert failed == []

    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("family", sorted(READS_A_INSTANCES))
    def test_bits_of_the_raw_array_formulas(self, family, seed):
        prob, x_star = READS_A_INSTANCES[family](seed)
        report = analyze_problem(prob, x_star)
        A, basis = prob.A, report.linearization.basis
        if report.kind == "mcp":
            # The Gram of the sampled rows only: with the zero rows its sums round differently.
            expected = analysis.gram_extremes(basis[np.flatnonzero(np.diagonal(A))])
        else:
            expected = analysis.gram_extremes(A @ basis)
        assert (report.lam_max, report.lam_min) == expected
        if report.kind == "lcls":
            spec = prob.constraint
            AB = A @ basis
            y = np.linalg.solve(AB.T @ AB, AB.T @ (prob.b - A @ spec.offset))
            assert np.array_equal(report.x_star, basis @ y + spec.offset)
