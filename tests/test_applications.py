import tracemalloc
import weakref

import numpy as np
import pytest

from pgdlab import analysis, constraints
from pgdlab.applications import (
    analyze_problem,
    mcp_problem,
    rank_tangent_basis,
)
from pgdlab.constraints import (
    RANK_CURVATURE,
    AffineConstraint,
    LowRankConstraint,
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
        report = analyze_problem(prob)
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

    def test_solution_satisfies_reduced_normal_equations(self, membership_gap):
        prob, x_star = make_instance("lcls", {"m": 14, "n": 9, "p": 3}, 1)
        basis = prob.constraint.null_basis
        grad = prob.gradient(x_star)
        assert np.linalg.norm(basis.T @ grad) <= 1e-10
        assert membership_gap(prob.constraint, x_star) <= 1e-12


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
            analyze_problem(Problem(A, rng.standard_normal(10), SparsityConstraint(3, 20)), x)

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
        report = analyze_problem(Problem(np.eye(n), b, SphereConstraint(n)), np.eye(n)[0])
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
        M = prob.apply(report.linearization.basis)
        lam_max, lam_min = analysis.extreme_eigenvalues(M.T @ M)
        rate = analysis.contraction_factor(lam_max, lam_min, eta)
        assert report.rate(eta) == pytest.approx(rate, abs=1e-12)
        assert np.linalg.norm(prob.gradient(x_star)) <= 1e-10

    def test_rejects_off_sphere_and_non_collinear(self):
        rng = np.random.default_rng(9)
        A = rng.standard_normal((8, 5))
        with pytest.raises(StationarityError, match="unit sphere"):
            analyze_problem(Problem(A, rng.standard_normal(8), SphereConstraint(5)), np.ones(5))
        x = rng.standard_normal(5)
        x /= np.linalg.norm(x)
        with pytest.raises(StationarityError, match="stationary"):
            analyze_problem(Problem(A, rng.standard_normal(8), SphereConstraint(5)), x)

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
        report = analyze_problem(Problem(A, b, SphereConstraint(5)), x_star)
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


@pytest.fixture
def full_builds(monkeypatch):
    """The (m, n) of each ``Linearization.rows`` call that forms all m*n rows
    of a basis with factors R (n rows) and L (m rows): ``basis`` of a low-rank
    linearization, or ``rank_tangent_basis``."""
    calls = []
    rows = constraints.Linearization.rows

    def counting(lin, index=None):
        size = len(lin.left) * len(lin.right)
        if index is None or np.size(index) == size:
            calls.append((len(lin.left), len(lin.right)))
        return rows(lin, index)

    monkeypatch.setattr(constraints.Linearization, "rows", counting)
    return calls


def _traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestBlockReleasedBeforeEigensolve:
    """A family analysis drops its basis block before the Gram is eigensolved.

    ``eigvalsh`` allocates its LAPACK copy and workspace outside ``tracemalloc``,
    so this reads liveness through weak references instead: each 2-D block that
    ``Linearization.rows`` or ``Problem.apply`` returns must be freed by the
    time ``np.linalg.eigvalsh`` is called.
    """

    @pytest.fixture
    def eigensolves(self, monkeypatch):
        blocks, shapes = [], []
        eigvalsh = np.linalg.eigvalsh

        def recording(fn):
            def wrapper(*args, **kwargs):
                out = fn(*args, **kwargs)
                if np.ndim(out) == 2:
                    blocks.append(weakref.ref(out))
                return out
            return wrapper

        def checking(a, *args, **kwargs):
            live = [ref().shape for ref in blocks if ref() is not None]
            assert live == [], f"blocks {live} alive while a {a.shape} Gram is eigensolved"
            shapes.append(a.shape)
            return eigvalsh(a, *args, **kwargs)

        def install():
            monkeypatch.setattr(constraints.Linearization, "rows",
                                recording(constraints.Linearization.rows))
            monkeypatch.setattr(Problem, "apply", recording(Problem.apply))
            monkeypatch.setattr(np.linalg, "eigvalsh", checking)
            return blocks, shapes

        return install

    @pytest.mark.parametrize("kind, params, seed", [
        ("mcp", {"m": 50, "n": 40, "r": 3, "s": 800}, 7),
        ("iht", {"m": 30, "n": 60, "s": 4}, 0),
        ("sphere", {"m": 12, "n": 7, "gamma": -0.5}, 8),
    ], ids=["mcp_paper_scale", "iht", "sphere"])
    def test_block_is_dead_at_the_eigensolve(self, eigensolves, kind, params, seed):
        prob, x_star = make_instance(kind, params, seed)
        blocks, shapes = eigensolves()
        k = analyze_problem(prob, x_star).linearization.dimension
        assert len(blocks) == 1 and shapes == [(k, k)]


@pytest.fixture
def eigvalsh_widths(monkeypatch):
    """The width of every ``np.linalg.eigvalsh`` call from now on."""
    widths = []
    eigvalsh = np.linalg.eigvalsh

    def recording(a, *args, **kwargs):
        widths.append(np.shape(a)[-1])
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", recording)
    return widths


def _assert_extremes_close(got, expected, rtol=1e-14):
    """Both eigenvalues within ``rtol`` of the larger magnitude (W's scale)."""
    scale = max(abs(v) for v in expected)
    assert max(abs(g - e) for g, e in zip(got, expected)) <= rtol * scale


SHARED_SPECTRUM_INSTANCES = [
    ("iht", {"m": 16, "n": 32, "s": 4}),
    ("sphere", {"m": 12, "n": 6, "gamma": -0.5}),
    ("sphere", {"m": 12, "n": 6, "gamma": 0.3}),
    ("sphere", {"m": 12, "n": 6, "gamma": 0.0}),
    ("mcp", {"m": 6, "n": 5, "r": 2, "s": 24}),
    ("mcp", {"m": 50, "n": 40, "r": 3, "s": 800}),
]


class TestSharedTangentSpectrum:
    """``Problem.tangent_extremes`` is the one spectrum of W = (A B)^T (A B):
    the family analyses of iht, sphere and completion read their eigenvalues
    from it, and the certificate at an exact fixed point reads the same pair."""

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize(
        "kind, params", SHARED_SPECTRUM_INSTANCES,
        ids=["iht", "sphere_neg", "sphere_pos", "sphere_zero", "mcp_6x5", "mcp_50x40"],
    )
    def test_family_eigenvalues_are_the_tangent_extremes(self, kind, params, seed):
        prob, x_star = make_instance(kind, params, seed)
        report = analyze_problem(prob, x_star)
        assert prob.tangent_extremes(report.linearization) == (report.lam_max, report.lam_min)

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("params", [{"m": 6, "n": 5, "r": 2, "s": 24},
                                        {"m": 50, "n": 40, "r": 3, "s": 800}],
                             ids=["6x5", "50x40"])
    def test_completion_agrees_with_the_weighted_cross_gram(self, params, seed):
        prob, x_star = make_instance("mcp", params, seed)
        lin = analyze_problem(prob, x_star).linearization
        expected = analysis.extreme_eigenvalues(lin.cross_gram(lin, prob.diagonal**2))
        _assert_extremes_close(prob.tangent_extremes(lin), expected)

    @pytest.mark.parametrize("seed", range(5))
    def test_signed_diagonal_sphere_agrees_with_the_weighted_cross_gram(self, seed):
        # Entries of both signs, off 0 and 1, and one zero: the rows kept are
        # scaled by d, and the zero row is not built.
        rng = np.random.default_rng(seed)
        n = 9
        d = rng.uniform(0.5, 2.0, n) * rng.choice([-1.0, 1.0], n)
        d[4] = 0.0
        prob = Problem(d, np.zeros(n), SphereConstraint(n))
        lin = prob.constraint.linearize(prob.constraint.random_member(rng))
        expected = analysis.extreme_eigenvalues(lin.cross_gram(lin, d**2))
        _assert_extremes_close(prob.tangent_extremes(lin), expected)

    @pytest.mark.parametrize("kind, params", [("iht", {"m": 16, "n": 32, "s": 4}),
                                              ("mcp", {"m": 50, "n": 40, "r": 3, "s": 800})],
                             ids=["iht", "mcp_50x40"])
    def test_computed_once_per_linearization(self, eigvalsh_widths, kind, params):
        prob, x_star = make_instance(kind, params, 7)
        eigvalsh_widths.clear()
        report = analyze_problem(prob, x_star)
        k = report.linearization.dimension
        assert eigvalsh_widths == [k]
        assert prob.tangent_extremes(report.linearization) == (report.lam_max, report.lam_min)
        assert eigvalsh_widths == [k]

        # A fresh linearization of x* is another object: it recomputes.
        fresh = prob.constraint.linearize(report.x_star)
        prob.tangent_extremes(fresh)
        assert eigvalsh_widths == [k, k]
        for eta in (0.5 * report.eta_opt, report.eta_opt):
            shared, own = (analysis.analyze_fixed_point(prob, report.x_star, lin, eta).rate
                           for lin in (report.linearization, fresh))
            assert abs(shared - own) <= 1e-14 * (1.0 + shared)

    def test_memo_keeps_no_linearization_alive(self):
        prob, x_star = make_instance("iht", {"m": 16, "n": 32, "s": 4}, 7)
        lin = prob.constraint.linearize(x_star)
        prob.tangent_extremes(lin)
        ref = weakref.ref(lin)
        del lin
        assert ref() is None

    @pytest.mark.parametrize("etas", [[], ["--eta", "0.5", "1.0", "1.5"]],
                             ids=["default_grid", "three_steps"])
    def test_analyze_command_eigensolves_once(self, tmp_path, capsys, eigvalsh_widths, etas):
        prob, x_star = make_instance("mcp", {"m": 12, "n": 10, "r": 2, "s": 80}, 0)
        path = tmp_path / "problem.json"
        save_problem(path, prob, x_star=x_star)
        eigvalsh_widths.clear()
        assert main(["analyze", str(path), *etas]) == 0
        capsys.readouterr()
        assert eigvalsh_widths == [2 * (12 + 10 - 2)]


def _weights(kind, rng, n):
    """Row weights: a 0/1 mask, or values in +-[0.5, 1.5] with a quarter zero."""
    if kind == "mask":
        return (rng.random(n) < 0.4).astype(float)
    w = rng.uniform(0.5, 1.5, n) * rng.choice([-1.0, 1.0], n)
    w[rng.choice(n, size=n // 4, replace=False)] = 0.0
    return w


def _assert_weighted_cross_gram(lin_z, lin_x, w):
    """Both orders of the weighted cross Gram within 1e-14, relative to its
    largest entry, of B_z^T diag(w) B_x formed from the built bases."""
    B_z, B_x = lin_z.basis, lin_x.basis
    expected = B_z.T @ (w[:, None] * B_x)
    tol = 1e-14 * np.max(np.abs(expected))
    assert np.max(np.abs(lin_z.cross_gram(lin_x, w) - expected)) <= tol
    assert np.max(np.abs(lin_x.cross_gram(lin_z, w) - expected.T)) <= tol


class TestObservedRowsOnly:
    """A completion analysis builds the rows of its tangent basis that it
    reads; the full basis only where the certificate reads it."""

    # (m, n, r): r = min(m, n) leaves a complement block with no columns.
    @pytest.mark.parametrize("m, n, r", [(50, 40, 3), (12, 10, 2), (5, 4, 4), (4, 6, 4),
                                         (1, 7, 1)])
    def test_rows_are_the_basis_rows_bit_for_bit(self, full_builds, m, n, r):
        rng = np.random.default_rng(m * 100 + n * 10 + r)
        spec = LowRankConstraint(r, (m, n))
        lin = spec.linearize(spec.random_member(rng))
        omega = np.sort(rng.choice(m * n, size=max(1, m * n // 3), replace=False))
        rows = lin.rows(omega)
        assert lin.dimension == r * (m + n - r)
        assert full_builds == []
        basis = lin.basis
        assert full_builds == [(m, n)]
        assert np.array_equal(rows, basis[omega, :])
        assert np.array_equal(lin.rows(omega), rows)
        # Each read of ``basis`` forms B again, with the same bits.
        assert np.array_equal(lin.basis, basis) and lin.dimension == basis.shape[1]
        assert full_builds == [(m, n)] * 2

    @pytest.mark.parametrize("m, n, r", [(50, 40, 3), (12, 10, 2), (5, 4, 4), (4, 6, 4),
                                         (1, 7, 1)])
    def test_cross_gram_is_the_gram_of_the_built_bases(self, full_builds, m, n, r):
        rng = np.random.default_rng(m * 100 + n * 10 + r)
        spec = LowRankConstraint(r, (m, n))
        lin_x = spec.linearize(spec.random_member(rng))
        lin_z = spec.linearize(spec.random_member(rng))
        cross = lin_x.cross_gram(lin_z)
        assert full_builds == []
        expected = lin_x.basis.T @ lin_z.basis
        assert np.max(np.abs(cross - expected)) <= 1e-14
        self_gram = lin_x.cross_gram(lin_x)
        assert np.max(np.abs(self_gram - np.eye(lin_x.dimension))) <= 1e-14

    def test_cross_gram_at_a_gradient_step_off_x_star(self):
        # The moved-observations file: x* fits b only within the stationarity
        # tolerance, so the gradient step z is not x*, and neither are its factors.
        prob, x_star = make_instance("mcp", {"m": 12, "n": 10, "r": 2, "s": 80}, 0)
        prob = Problem(prob.diagonal, prob.b + 1e-11 * prob.diagonal, prob.constraint)
        report = analyze_problem(prob, x_star)
        z = report.x_star - report.eta_opt * prob.gradient(report.x_star)
        assert not np.array_equal(z, report.x_star)
        lin_x, lin_z = report.linearization, prob.constraint.linearize(z)
        expected = lin_x.basis.T @ lin_z.basis
        assert np.max(np.abs(lin_x.cross_gram(lin_z) - expected)) <= 1e-14
        assert np.max(np.abs(lin_z.cross_gram(lin_x) - expected.T)) <= 1e-14
        # (A B_z)^T (A B_x) for the completion mask A = diag(d): B_z^T diag(d^2) B_x.
        _assert_weighted_cross_gram(lin_z, lin_x, prob.diagonal**2)

    @pytest.mark.parametrize("weights", ["mask", "signed"])
    @pytest.mark.parametrize("m, n, r", [(50, 40, 3), (12, 10, 2), (5, 4, 4), (4, 6, 4),
                                         (1, 7, 1)])
    def test_weighted_cross_gram_is_the_weighted_gram_of_the_built_bases(
            self, full_builds, m, n, r, weights):
        rng = np.random.default_rng(m * 100 + n * 10 + r)
        spec = LowRankConstraint(r, (m, n))
        lin_x = spec.linearize(spec.random_member(rng))
        lin_z = spec.linearize(spec.random_member(rng))
        w = _weights(weights, rng, spec.n)
        lin_z.cross_gram(lin_x, w)
        assert full_builds == []
        _assert_weighted_cross_gram(lin_z, lin_x, w)

    def test_weighted_cross_gram_peak_is_below_one_observed_row_block(self, full_builds):
        # 100 x 80, r = 4, s = 2000: the observed rows of one basis are an
        # 11.3 MB block, and the product formed from them held two (26.5 MB).
        prob, x_star = make_instance("mcp", {"m": 100, "n": 80, "r": 4, "s": 2000}, 0)
        report = analyze_problem(prob, x_star)
        z = report.x_star - report.eta_opt * prob.gradient(report.x_star)
        lin_x, lin_z = report.linearization, prob.constraint.linearize(z)
        weights = prob.diagonal**2
        peak = _traced_peak(lambda: lin_z.cross_gram(lin_x, weights))
        assert full_builds == []
        assert peak < 8 * 2000 * lin_x.dimension

    def test_diagonal_certificate_reads_no_rows(self, monkeypatch):
        # The family analysis reads the observed rows for its Gram; the
        # certificate reads the bases only through their factors.
        prob, x_star = make_instance("mcp", {"m": 50, "n": 40, "r": 3, "s": 800}, 7)
        report = analyze_problem(prob, x_star)
        asked = []
        rows = constraints.Linearization.rows
        monkeypatch.setattr(constraints.Linearization, "rows",
                            lambda lin, index=None: asked.append(index) or rows(lin, index))
        for eta in (0.5 * report.eta_opt, report.eta_opt):
            conv = analysis.analyze_fixed_point(
                report.problem, report.x_star, report.linearization, eta)
            assert abs(conv.rate - report.rate(eta)) <= 1e-10
        assert asked == []

    def test_instance_draw_forms_no_full_basis(self, full_builds):
        params = {"m": 100, "n": 80, "r": 4, "s": 2000}
        basis_bytes = 8 * 100 * 80 * 4 * (100 + 80 - 4)
        peak = _traced_peak(lambda: make_instance("mcp", params, 0))
        assert full_builds == []
        assert peak < basis_bytes  # 87 MiB when the draw built the full basis

    def test_experiment_forms_no_full_basis(self, full_builds):
        bundle = run_experiment("mcp", {"m": 12, "n": 10, "r": 2, "s": 80},
                                lambda report: [report.eta_opt], 0, max_iters=200)
        assert bundle["application"]["tangent_dimension"] == 2 * (12 + 10 - 2)
        assert full_builds == []

    def test_certificate_peak_at_paper_scale(self, full_builds, tmp_path):
        # The family analysis and the certificate of the paper-scale file, as
        # `pgdlab analyze` runs them: the certificate reads the bases only
        # through their factors and the observed rows.
        prob, x_star = make_instance("mcp", {"m": 50, "n": 40, "r": 3, "s": 800}, 7)
        save_problem(tmp_path / "mcp.json", prob, x_star=x_star)
        prob, x_star, _ = load_problem(tmp_path / "mcp.json")
        basis_bytes = 8 * 2000 * 3 * (50 + 40 - 3)

        def analyze():
            report = analyze_problem(prob, x_star)
            analysis.analyze_fixed_point(
                report.problem, report.x_star, report.linearization, report.eta_opt)

        peak = _traced_peak(analyze)
        assert full_builds == []
        assert peak < basis_bytes  # 3.28 bases when the certificate built B_x and B_z

    def test_certificate_forms_no_full_basis(self, full_builds):
        # 100 x 80, r = 4: each full basis is 45 MB, and the certificate built two.
        prob, x_star = make_instance("mcp", {"m": 100, "n": 80, "r": 4, "s": 2000}, 0)
        basis_bytes = 8 * 100 * 80 * 4 * (100 + 80 - 4)

        def analyze():
            report = analyze_problem(prob, x_star)
            conv = analysis.analyze_fixed_point(
                report.problem, report.x_star, report.linearization, report.eta_opt)
            assert abs(conv.rate - report.rate(report.eta_opt)) <= 1e-10

        peak = _traced_peak(analyze)
        assert full_builds == []
        assert peak < basis_bytes


class TestMcp:
    def test_fully_observed_identity(self):
        rng = np.random.default_rng(14)
        X = rng.standard_normal((4, 2)) @ rng.standard_normal((2, 3))
        x = X.reshape(-1, order="F")
        omega = np.arange(12)
        report = analyze_problem(mcp_problem(x[omega], omega, X.shape, 2), x)
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
            analyze_problem(mcp_problem(x[omega], omega, X.shape, 2), x)
        low = rng.standard_normal((5, 2)) @ rng.standard_normal((2, 4))
        xl = low.reshape(-1, order="F")
        with pytest.raises(StationarityError, match="observations"):
            analyze_problem(mcp_problem(xl[omega] + 1.0, omega, low.shape, 2), xl)

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
            conv = analysis.analyze_fixed_point(
                report.problem, report.x_star, report.linearization, eta)
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
            M = basis[np.flatnonzero(np.diagonal(A))]
        else:
            M = A @ basis
        expected = analysis.extreme_eigenvalues(M.T @ M)
        assert (report.lam_max, report.lam_min) == expected
        if report.kind == "lcls":
            spec = prob.constraint
            AB = A @ basis
            y = np.linalg.solve(AB.T @ AB, AB.T @ (prob.b - A @ spec.offset))
            assert np.array_equal(report.x_star, basis @ y + spec.offset)
