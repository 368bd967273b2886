import dataclasses

import numpy as np
import pytest

from pgdlab.applications import analyze_problem
from pgdlab.constraints import (
    AffineConstraint,
    LowRankConstraint,
    SparsityConstraint,
    SphereConstraint,
)
from pgdlab.empirics import make_instance
from pgdlab.engine import Problem, TraceBlock, run_pgd
from pgdlab.errors import DivergenceError, InfeasibleStartWarning, StationarityError


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

    def test_from_diagonal_is_the_dense_constructor_without_a(self):
        d = np.array([2.5, -0.3, 0.0])
        b = np.array([1.0, 2.0, 3.0])
        dense = Problem(np.diag(d), b, SphereConstraint(3))
        compact = Problem.from_diagonal(d, b, SphereConstraint(3))
        for prob in (dense, compact):
            assert np.array_equal(prob.diagonal, d) and np.array_equal(prob.b, b)
            assert prob.shape == (3, 3)
            assert np.array_equal(prob.A, np.diag(d))
        d[0] = 7.0  # the problem keeps its own copy
        assert compact.diagonal[0] == 2.5

    @pytest.mark.parametrize(
        "d, b, n, error",
        [
            ([np.inf, 1.0], [0.0, 0.0], 2, r"^A: .*finite"),
            ([1.0, 1.0], [np.nan, 0.0], 2, r"^b: .*finite"),
            ([1.0, 1.0], [0.0, 0.0, 0.0], 2, r"b has length 3, expected 2"),
            ([1.0, 1.0], [0.0, 0.0], 3, r"constraint dimension 3 does not match A columns 2"),
            ([[1.0, 1.0]], [0.0], 2, r"diagonal of A must be a vector"),
        ],
        ids=["non_finite_a", "non_finite_b", "b_length", "constraint_dimension", "matrix"],
    )
    def test_from_diagonal_runs_the_same_checks(self, d, b, n, error):
        with pytest.raises(ValueError, match=error):
            Problem.from_diagonal(d, b, SphereConstraint(n))
        if np.ndim(d) == 1:  # the dense constructor gives the same error
            with pytest.raises(ValueError, match=error):
                Problem(np.diag(d), b, SphereConstraint(n))

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
        for kind, params in [
            ("lcls", {"m": 10, "n": 7, "p": 2}),
            ("iht", {"m": 12, "n": 24, "s": 3}),
            ("sphere", {"m": 9, "n": 5, "gamma": -0.5}),
        ]:
            prob, x_star = make_instance(kind, params, 3)
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


def fixed_point_residual(prob, x, eta):
    """||x - P(x - eta * gradient(x))||, the move of one PGD step from x."""
    return float(np.linalg.norm(x - prob.constraint.project(x - eta * prob.gradient(x))))


class TestCertify:
    def test_lcls_solution_certifies(self):
        prob, x_star = make_instance("lcls", {"m": 12, "n": 8, "p": 3}, 5)
        assert analyze_problem(prob).certified
        assert fixed_point_residual(prob, x_star, 0.05) <= 1e-10

    def test_sphere_analytic_point(self):
        b = np.array([0.4, 0.3, 0.0])
        prob = Problem(np.eye(3), b, SphereConstraint(3))
        x_star = b / np.linalg.norm(b)
        report = analyze_problem(prob, x_star)
        assert report.certified and report.gamma == pytest.approx(0.5, abs=1e-14)
        assert fixed_point_residual(prob, x_star, 0.5) <= 1e-14

    def test_non_stationary_point_has_positive_residual(self):
        rng = np.random.default_rng(6)
        prob = Problem(rng.standard_normal((6, 4)), rng.standard_normal(6),
                       SphereConstraint(4))
        x = prob.constraint.random_member(rng)
        with pytest.raises(StationarityError, match="not a stationary point"):
            analyze_problem(prob, x)

    def test_fixed_point_persistence(self):
        for kind, params in [
            ("lcls", {"m": 10, "n": 7, "p": 2}),
            ("iht", {"m": 12, "n": 24, "s": 3}),
            ("sphere", {"m": 9, "n": 5, "gamma": -0.5}),
        ]:
            prob, x_star = make_instance(kind, params, 8)
            report = analyze_problem(prob, x_star)
            trace = run_pgd(prob, 0.9 * report.eta_opt, x_star, max_iters=100,
                            error_floor=0.0, x_ref=x_star)
            assert trace.errors.max() <= 1e-10

    def test_mcp_fixed_point_persistence(self):
        prob, x_star = make_instance("mcp", {"m": 6, "n": 5, "r": 2, "s": 24}, 8)
        report = analyze_problem(prob, x_star)
        trace = run_pgd(prob, 0.9 * report.eta_opt, x_star, max_iters=100,
                        error_floor=0.0, x_ref=x_star)
        assert trace.errors.max() <= 1e-10


def test_error_monotone_inside_region():
    """Symmetric update: the error never increases inside the certified ball."""
    rng = np.random.default_rng(9)
    cases = [
        make_instance("lcls", {"m": 10, "n": 7, "p": 2}, 9),
        make_instance("iht", {"m": 12, "n": 24, "s": 3}, 9),
        make_instance("sphere", {"m": 9, "n": 5, "gamma": -0.5}, 9),
        make_instance("mcp", {"m": 6, "n": 5, "r": 2, "s": 24}, 9),
    ]
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


def _block_problems():
    """One problem per family, with a dense and with a diagonal A, plus a
    block of starts on the set and a reference point: the limit of a long run
    from the first start."""
    rng = np.random.default_rng(11)
    C = rng.standard_normal((2, 8))
    constraints = {
        "affine": AffineConstraint(C, C @ rng.standard_normal(8)),
        "sparse": SparsityConstraint(3, 8),
        "sphere": SphereConstraint(8),
        "lowrank": LowRankConstraint(2, (4, 3)),
    }
    for kind, spec in constraints.items():
        n = spec.n
        for layout in ("dense", "diagonal"):
            if layout == "dense":
                prob = Problem(rng.standard_normal((n + 4, n)), rng.standard_normal(n + 4), spec)
            else:
                diagonal = rng.uniform(0.5, 1.5, n)
                prob = Problem.from_diagonal(diagonal, rng.standard_normal(n), spec)
            starts = np.array([spec.random_member(rng) for _ in range(4)])
            x_ref = run_pgd(prob, 0.5 / prob.ata_extremes()[0], starts[0], max_iters=2000).final
            yield f"{kind}-{layout}", prob, x_ref, starts


def _assert_same_run(row, alone):
    assert row.stop_reason == alone.stop_reason
    assert row.error_floor == alone.error_floor
    assert row.x0_projected == alone.x0_projected
    for field in ("errors", "objectives", "final"):
        assert np.array_equal(getattr(row, field), getattr(alone, field)), field


class TestBlock:
    @pytest.mark.parametrize("case", list(_block_problems()), ids=lambda case: case[0])
    def test_each_row_is_its_run_alone(self, case):
        _, prob, x_ref, starts = case
        lipschitz = prob.ata_extremes()[0]
        etas = np.array([0.2, 0.5, 0.9, 1.2]) / lipschitz
        floors = [1e-12, 1e-6, 1e-9, 1e-3]
        block = run_pgd(prob, etas, starts, max_iters=150, error_floor=floors, x_ref=x_ref)
        assert isinstance(block, TraceBlock) and len(block) == len(starts)
        assert block.n_iterations == sum(trace.n_iterations for trace in block)
        alone = [
            run_pgd(prob, eta, x0, max_iters=150, error_floor=floor, x_ref=x_ref)
            for eta, x0, floor in zip(etas, starts, floors)
        ]
        for row, run in zip(block, alone):
            _assert_same_run(row, run)
        order = [2, 0, 3, 1]
        permuted = run_pgd(prob, etas[order], starts[order], max_iters=150,
                           error_floor=[floors[i] for i in order], x_ref=x_ref)
        for row, i in zip(permuted, order):
            _assert_same_run(row, alone[i])

    def test_every_stop_reason_in_one_block(self):
        rng = np.random.default_rng(2)
        C = rng.standard_normal((2, 6))
        prob = Problem(rng.standard_normal((8, 6)), rng.standard_normal(8),
                       AffineConstraint(C, C @ rng.standard_normal(6)))
        report = analyze_problem(prob)
        x_star, x0 = report.x_star, prob.constraint.random_member(rng)
        # Diverging, converging, starting at the solution with a zero floor,
        # and too slow for the iteration budget.
        etas = [1e12, report.eta_opt, report.eta_opt, 1e-6]
        floors = [1e-12, 1e-12, 0.0, 1e-12]
        starts = np.array([x0, x0, x_star, x0])
        block = run_pgd(prob, etas, starts, max_iters=300, error_floor=floors, x_ref=x_star)
        reasons = [trace.stop_reason for trace in block]
        assert reasons == ["diverged", "error_floor", "stagnation", "max_iters"]
        with pytest.raises(DivergenceError) as info:
            run_pgd(prob, etas[0], x0, max_iters=300, error_floor=floors[0], x_ref=x_star)
        divergence = block[0].divergence
        assert (divergence.iteration, divergence.norm) == (info.value.iteration, info.value.norm)
        assert block[0].n_iterations == divergence.iteration - 1
        last = run_pgd(prob, etas[0], x0, max_iters=divergence.iteration - 1,
                       error_floor=floors[0], x_ref=x_star)
        _assert_same_run(dataclasses.replace(block[0], stop_reason="max_iters"), last)
        for row, eta, x, floor in list(zip(block, etas, starts, floors))[1:]:
            assert row.divergence is None
            _assert_same_run(row, run_pgd(prob, eta, x, max_iters=300, error_floor=floor,
                                          x_ref=x_star))

    def test_infeasible_row_is_projected_alone(self):
        prob = Problem(np.eye(3), np.array([2.0, 0.0, 0.0]), SphereConstraint(3))
        starts = np.array([[0.0, 1.0, 0.0], [3.0, 4.0, 0.0], [0.0, 0.0, 1.0]])
        with pytest.warns(InfeasibleStartWarning):
            block = run_pgd(prob, 0.5, starts, max_iters=50, x_ref=[1.0, 0.0, 0.0])
        assert [trace.x0_projected for trace in block] == [False, True, False]
        with pytest.warns(InfeasibleStartWarning):
            alone = run_pgd(prob, 0.5, starts[1], max_iters=50, x_ref=[1.0, 0.0, 0.0])
        _assert_same_run(block[1], alone)
        assert block[1].errors[0] == pytest.approx(np.linalg.norm([0.6, 0.8, 0.0] - np.eye(3)[0]))

    def test_rejects_rows_of_the_wrong_width(self):
        prob = Problem(np.eye(3), np.zeros(3), SphereConstraint(3))
        with pytest.raises(ValueError, match="x0 has rows of length 2, expected 3"):
            run_pgd(prob, 0.5, np.ones((2, 2)))
