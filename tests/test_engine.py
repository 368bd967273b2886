import numpy as np
import pytest

from pgdlab.applications import analyze_problem
from pgdlab.constraints import AffineConstraint, SphereConstraint
from pgdlab.empirics import (
    make_iht_instance,
    make_lcls_instance,
    make_mcp_instance,
    make_sphere_instance,
)
from pgdlab.engine import Problem, certify_stationary, run_pgd
from pgdlab.errors import DivergenceError, InfeasibleStartWarning


def test_gradient_identity():
    prob = Problem(np.eye(2), np.zeros(2), SphereConstraint(2))
    np.testing.assert_allclose(prob.gradient([1.0, 2.0]), [1.0, 2.0])


def test_gradient_vanishes_at_least_squares_solution():
    rng = np.random.default_rng(0)
    A = rng.standard_normal((6, 4))
    b = rng.standard_normal(6)
    x_ls = np.linalg.lstsq(A, b, rcond=None)[0]
    prob = Problem(A, b, SphereConstraint(4))
    assert np.linalg.norm(prob.gradient(x_ls)) <= 1e-12


def test_gradient_hand_expansion():
    prob = Problem(np.array([[1.0, 0.0], [1.0, 0.0]]), np.array([1.0, 1.0]),
                   SphereConstraint(2))
    np.testing.assert_allclose(prob.gradient([0.0, 0.0]), [-2.0, 0.0])


def test_package_exports_every_error_type():
    import pgdlab
    from pgdlab import errors

    public = [name for name, obj in vars(errors).items()
              if isinstance(obj, type) and not name.startswith("_")]
    assert "InfeasibleStartWarning" in public
    for name in public:
        assert getattr(pgdlab, name, None) is getattr(errors, name), name


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        Problem(np.eye(3), np.zeros(3), SphereConstraint(2))
    with pytest.raises(ValueError):
        Problem(np.eye(3), np.zeros(2), SphereConstraint(3))


@pytest.mark.parametrize("field", ["A", "b"])
def test_non_finite_data_rejected_naming_field(field):
    data = {"A": np.eye(2), "b": np.zeros(2)}
    data[field].flat[0] = np.nan
    with pytest.raises(ValueError, match=rf"^{field}: .*finite"):
        Problem(data["A"], data["b"], SphereConstraint(2))


class TestDiagonal:
    @pytest.mark.parametrize(
        "d", [[1.0, 0.0, 1.0], [0.0, 0.0, 0.0], [2.5, -0.3, 0.0]],
        ids=["mask", "all_zero", "signed"],
    )
    def test_square_diagonal_detected(self, d):
        prob = Problem(np.diag(d), np.zeros(3), SphereConstraint(3))
        np.testing.assert_array_equal(prob.diagonal, d)

    def test_off_diagonal_entry_or_rectangle_is_dense(self):
        A = np.diag([1.0, 2.0, 3.0])
        A[0, 2] = 1e-300
        assert Problem(A, np.zeros(3), SphereConstraint(3)).diagonal is None
        assert Problem(np.eye(4, 3), np.zeros(4), SphereConstraint(3)).diagonal is None

    def test_run_pgd_matches_dense_reference_loop(self, record_projections):
        rng = np.random.default_rng(3)
        d = rng.uniform(0.5, 2.0, 6) * rng.choice([-1.0, 1.0], 6)
        d[3] = 0.0
        A, b = np.diag(d), rng.standard_normal(6)
        prob = Problem(A, b, SphereConstraint(6))
        assert prob.diagonal is not None
        x = prob.constraint.random_member(rng)
        eta, iters = 0.2, 50
        project = prob.constraint.project
        recorded = record_projections(prob.constraint)
        trace = run_pgd(prob, eta, x, max_iters=iters)
        iterates, objectives = [], [0.5 * float((A @ x - b) @ (A @ x - b))]
        for _ in range(iters):
            x = project(x - eta * (A.T @ (A @ x - b)))
            iterates.append(x)
            objectives.append(0.5 * float((A @ x - b) @ (A @ x - b)))
        assert trace.n_iterations == iters
        assert np.array_equal(trace.objectives, objectives)
        assert np.array_equal(recorded, iterates)
        assert np.array_equal(trace.final, x)


class TestRunPgd:
    def test_sphere_converges_to_normalized_target(self):
        prob = Problem(np.eye(2), np.array([2.0, 0.0]), SphereConstraint(2))
        trace = run_pgd(prob, 0.5, [0.0, 1.0], max_iters=500, x_ref=[1.0, 0.0])
        np.testing.assert_allclose(trace.final, [1.0, 0.0], atol=1e-10)
        assert trace.stop_reason == "error_floor"

    def test_affine_fixed_point_is_constant(self):
        rng = np.random.default_rng(1)
        C = rng.standard_normal((2, 6))
        d = C @ rng.standard_normal(6)
        A = rng.standard_normal((8, 6))
        prob = Problem(A, rng.standard_normal(8), AffineConstraint(C, d))
        x_star = analyze_problem(prob).x_star
        # A zero floor keeps the run going; the errors are the drift of every iterate.
        trace = run_pgd(prob, 0.01, x_star, max_iters=100, error_floor=0.0, x_ref=x_star)
        assert trace.errors.max() <= 1e-10

    def test_infeasible_start_projected_with_notice(self):
        prob = Problem(np.eye(2), np.zeros(2), SphereConstraint(2))
        with pytest.warns(InfeasibleStartWarning):
            trace = run_pgd(prob, 0.1, [3.0, 4.0], max_iters=5, x_ref=[0.6, 0.8])
        assert trace.x0_projected
        assert trace.errors[0] <= 1e-15

    def test_divergence_raises_with_diagnostics(self):
        rng = np.random.default_rng(2)
        C = rng.standard_normal((2, 6))
        prob = Problem(np.eye(6) * 2.0, rng.standard_normal(6),
                       AffineConstraint(C, C @ rng.standard_normal(6)))
        x0 = prob.constraint.random_member(rng)
        with pytest.raises(DivergenceError) as info:
            run_pgd(prob, 1e12, x0, max_iters=5000)
        assert info.value.iteration >= 1
        # The reported norm is ||x_{k-1}||, finite even where x @ x overflows.
        previous = run_pgd(prob, 1e12, x0, max_iters=info.value.iteration - 1).final
        scale = np.max(np.abs(previous))
        assert info.value.norm == pytest.approx(scale * np.linalg.norm(previous / scale))
        assert np.isfinite(info.value.norm) and info.value.norm > scale

    def test_every_iterate_feasible(self, record_projections):
        for maker, args in [
            (make_lcls_instance, (10, 7, 2, 3)),
            (make_iht_instance, (12, 24, 3, 3)),
            (make_sphere_instance, (9, 5, -0.5, 3)),
        ]:
            prob, x_star = maker(*args)
            report = analyze_problem(prob, x_star)
            eta = 0.8 * report.eta_opt
            x0 = prob.constraint.project(
                x_star + 1e-3 * np.random.default_rng(4).standard_normal(prob.constraint.n)
            )
            iterates = record_projections(prob.constraint)
            trace = run_pgd(prob, eta, x0, max_iters=300, x_ref=x_star)
            assert len(iterates) == trace.n_iterations
            for it in [x0, *iterates]:
                assert prob.constraint.membership_residual(it) <= 1e-10

    def test_stagnation_stop(self):
        # Exact fixed point with no reference: stops on stagnation.
        prob = Problem(np.eye(2), np.array([2.0, 0.0]), SphereConstraint(2))
        trace = run_pgd(prob, 0.5, [1.0, 0.0], max_iters=10_000)
        assert trace.stop_reason == "stagnation"
        assert trace.n_iterations < 100

    def test_long_run_stores_no_iterates(self):
        # Rate about 0.9998: the run neither stagnates nor reaches the floor.
        prob = Problem(np.eye(2) * 0.01, np.array([0.02, 0.0]), SphereConstraint(2))
        trace = run_pgd(prob, 1.0, [0.0, 1.0], max_iters=25_000, x_ref=[1.0, 0.0])
        assert trace.stop_reason == "max_iters"
        assert trace.objectives.size == trace.errors.size == trace.n_iterations + 1
        arrays = [v for v in vars(trace).values() if isinstance(v, np.ndarray)]
        assert max(v.size for v in arrays) <= max(prob.constraint.n, trace.n_iterations + 1)
        assert trace.final.shape == (prob.constraint.n,)

    def test_csv_round_trip(self, tmp_path):
        prob = Problem(np.eye(2), np.array([2.0, 0.0]), SphereConstraint(2))
        trace = run_pgd(prob, 0.5, [0.0, 1.0], max_iters=40, x_ref=[1.0, 0.0])
        path = tmp_path / "trace.csv"
        trace.write_csv(path)
        rows = path.read_text().strip().splitlines()
        assert rows[0] == "k,error,objective"
        k, err, obj = rows[1].split(",")
        assert int(k) == 0
        assert float(err) == pytest.approx(trace.errors[0])
        assert float(obj) == pytest.approx(trace.objectives[0])
        assert len(rows) == trace.errors.size + 1


class TestCertify:
    def test_lcls_solution_certifies(self):
        prob, x_star = make_lcls_instance(12, 8, 3, 5)
        cert = certify_stationary(prob, x_star, eta=0.05)
        assert cert.stationarity_residual <= 1e-10
        assert cert.fixed_point_residual <= 1e-10
        assert cert.consistent

    def test_sphere_analytic_point(self):
        b = np.array([0.4, 0.3, 0.0])
        prob = Problem(np.eye(3), b, SphereConstraint(3))
        x_star = b / np.linalg.norm(b)
        cert = certify_stationary(prob, x_star, eta=0.5)
        assert cert.stationarity_residual <= 1e-14
        assert cert.fixed_point_residual <= 1e-14
        np.testing.assert_allclose(cert.z_eta, x_star - 0.5 * (x_star - b))

    def test_non_stationary_point_has_positive_residual(self):
        rng = np.random.default_rng(6)
        prob = Problem(rng.standard_normal((6, 4)), rng.standard_normal(6),
                       SphereConstraint(4))
        x = prob.constraint.random_member(rng)
        cert = certify_stationary(prob, x, eta=0.1)
        assert cert.stationarity_residual > 1e-3

    def test_fixed_point_persistence(self):
        for maker, args in [
            (make_lcls_instance, (10, 7, 2, 8)),
            (make_iht_instance, (12, 24, 3, 8)),
            (make_sphere_instance, (9, 5, -0.5, 8)),
        ]:
            prob, x_star = maker(*args)
            report = analyze_problem(prob, x_star)
            trace = run_pgd(prob, 0.9 * report.eta_opt, x_star, max_iters=100,
                            error_floor=0.0, x_ref=x_star)
            assert trace.errors.max() <= 1e-10

    def test_mcp_fixed_point_persistence(self):
        prob, X_star = make_mcp_instance(6, 5, 2, 24, 8)
        x_star = X_star.reshape(-1, order="F")
        report = analyze_problem(prob, x_star)
        trace = run_pgd(prob, 0.9 * report.eta_opt, x_star, max_iters=100,
                        error_floor=0.0, x_ref=x_star)
        assert trace.errors.max() <= 1e-10


def test_error_monotone_inside_region():
    """Symmetric update: the error never increases inside the certified ball."""
    rng = np.random.default_rng(9)
    cases = [
        make_lcls_instance(10, 7, 2, 9),
        make_iht_instance(12, 24, 3, 9),
        make_sphere_instance(9, 5, -0.5, 9),
    ]
    prob, X_star = make_mcp_instance(6, 5, 2, 24, 9)
    cases.append((prob, X_star.reshape(-1, order="F")))
    for prob, x_star in cases:
        x_star = np.asarray(x_star, dtype=float).reshape(-1)
        report = analyze_problem(prob, x_star)
        eta = 0.8 * report.eta_opt
        if not report.admissible(eta):
            continue
        region = report.region(eta)
        offset = 0.4 * min(region, 1e6)
        direction = rng.standard_normal(prob.constraint.n)
        x0 = prob.constraint.project(x_star + offset * direction / np.linalg.norm(direction))
        assert np.linalg.norm(x0 - x_star) < region
        trace = run_pgd(prob, eta, x0, max_iters=400, x_ref=x_star)
        errors = trace.errors
        active = errors > trace.error_floor
        for k in range(errors.size - 1):
            if active[k] and active[k + 1]:
                assert errors[k + 1] <= errors[k] * (1.0 + 1e-10)
