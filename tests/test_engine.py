import dataclasses
import warnings

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
from pgdlab.engine import (
    ERROR_FLOOR_SCALE,
    STAGNATION_RTOL,
    STAGNATION_RUN,
    Problem,
    Trace,
    TraceBlock,
    run_pgd,
)
from pgdlab.errors import (
    DivergenceError,
    InfeasibleStartWarning,
    NonUniqueProjectionWarning,
    StationarityError,
)


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


def test_problems_and_traces_compare_by_identity():
    # Equal-valued instances: a field-wise __eq__ would ask numpy for the
    # truth value of an array comparison and raise.
    problems = [Problem(np.eye(2), np.ones(2), SphereConstraint(2)) for _ in range(2)]
    traces = [Trace(np.ones(2), np.zeros(3), np.zeros(3), "max_iters") for _ in range(2)]
    for a, b in (problems, traces):
        assert a == a and a != b and [a] != [b]
    assert len({*problems}) == 2 and hash(problems[0]) == hash(problems[0])


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

    def test_a_vector_is_the_diagonal_of_a_square_a(self):
        d = np.array([2.5, -0.3, 0.0])
        b, spec = np.array([1.0, 2.0, 3.0]), SphereConstraint(3)
        dense, compact = Problem(np.diag(d), b, spec), Problem(d, b, spec)
        for prob in (dense, compact):
            assert np.array_equal(prob.diagonal, d) and np.array_equal(prob.b, b)
            assert prob.shape == (3, 3)
            assert np.array_equal(prob.A, np.diag(d))
        for field in dataclasses.fields(Problem):
            got, expected = getattr(compact, field.name), getattr(dense, field.name)
            assert type(got) is type(expected), field.name
            if isinstance(got, np.ndarray):
                assert np.array_equal(got, expected) and got.dtype == expected.dtype, field.name
            else:
                assert got == expected, field.name
        assert compact.ata_extremes() == dense.ata_extremes()
        d[0] = 7.0  # the problem keeps its own copy
        assert compact.diagonal[0] == 2.5

    @pytest.mark.parametrize("A", [5.0, np.ones((2, 2, 2))], ids=["scalar", "three_dims"])
    def test_a_neither_vector_nor_matrix_refused(self, A):
        with pytest.raises(ValueError, match="^A must be a matrix or the diagonal of a square one$"):
            Problem(A, np.zeros(2), SphereConstraint(2))

    @pytest.mark.parametrize(
        "d, b, n, error",
        [
            ([np.inf, 1.0], [0.0, 0.0], 2, r"^A: .*finite"),
            ([1.0, 1.0], [np.nan, 0.0], 2, r"^b: .*finite"),
            ([1.0, 1.0], [0.0, 0.0, 0.0], 2, r"b has length 3, expected 2"),
            ([1.0, 1.0], [0.0, 0.0], 3, r"constraint dimension 3 does not match A columns 2"),
        ],
        ids=["non_finite_a", "non_finite_b", "b_length", "constraint_dimension"],
    )
    def test_a_diagonal_runs_the_checks_of_its_matrix(self, d, b, n, error):
        with pytest.raises(ValueError, match=error):
            Problem(d, b, SphereConstraint(n))
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
        assert np.array_equal(recorded[1:], iterates)
        assert np.array_equal(trace.final, x)


def _stack_problems():
    """A rectangular dense A, a 0/1 diagonal and a signed diagonal with
    entries off 0 and 1 and one zero."""
    rng = np.random.default_rng(5)
    signed = rng.uniform(0.5, 2.0, 6) * rng.choice([-1.0, 1.0], 6)
    signed[2] = 0.0
    yield "dense", Problem(rng.standard_normal((9, 6)), rng.standard_normal(9), SphereConstraint(6))
    yield "mask", Problem(rng.choice([0.0, 1.0], 6), rng.standard_normal(6), SphereConstraint(6))
    yield "signed", Problem(signed, rng.standard_normal(6), SphereConstraint(6))


class TestStack:
    """``apply`` and ``apply_t`` on a stack of column blocks, the layout of
    ``run_pgd``'s rows and residuals."""

    @pytest.mark.parametrize("case", list(_stack_problems()), ids=lambda case: case[0])
    @pytest.mark.parametrize("columns", [1, 2])
    def test_each_column_has_the_bits_of_its_product_alone(self, case, columns):
        _, prob = case
        m, n = prob.shape
        rng = np.random.default_rng(columns)
        for product, width, height in ((prob.apply, n, m), (prob.apply_t, m, n)):
            X = rng.standard_normal((3, width, columns))
            Y = product(X)
            assert Y.shape == (3, height, columns)
            for i in range(3):
                # A dense A multiplies a block of several columns as one
                # matrix product, whose sums BLAS may round otherwise than
                # those of each column.
                assert np.array_equal(Y[i], product(X[i]))
                if columns == 1 or prob.diagonal is not None:
                    for j in range(columns):
                        assert np.array_equal(Y[i, :, j], product(X[i, :, j]))

    @pytest.mark.parametrize("case", list(_stack_problems()), ids=lambda case: case[0])
    def test_a_vector_as_a_stack_of_one_column(self, case):
        _, prob = case
        m, n = prob.shape
        rng = np.random.default_rng(0)
        x, r = rng.standard_normal(n), rng.standard_normal(m)
        assert np.array_equal(prob.apply(x)[None, :, None], prob.apply(x[None, :, None]))
        assert np.array_equal(prob.apply_t(r)[None, :, None], prob.apply_t(r[None, :, None]))


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

    # At 1e200 both ||x0||^2 and ||P(x0) - x0||^2 overflow; their ratio must not.
    @pytest.mark.parametrize("scale", [1.0, 1e200], ids=["ordinary", "huge"])
    def test_infeasible_start_projected_with_notice(self, scale):
        prob = Problem(np.eye(2), np.zeros(2), SphereConstraint(2))
        with pytest.warns(InfeasibleStartWarning):
            trace = run_pgd(prob, 0.1, [3.0 * scale, 4.0 * scale], max_iters=5, x_ref=[0.6, 0.8])
        # The run starts from the projection [0.6, 0.8], not from x0.
        assert trace.errors[0] <= 1e-15

    def test_start_warnings_name_the_caller(self):
        # Tied singular values: the rank-1 truncation of the start is not unique.
        prob = Problem(np.eye(16), np.zeros(16), LowRankConstraint(1, (4, 4)))
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("always")
            run_pgd(prob, 1.0, np.eye(4).reshape(-1), max_iters=2)
        assert {w.category for w in record} == {NonUniqueProjectionWarning, InfeasibleStartWarning}
        assert {w.filename for w in record} == {__file__}

    def test_non_finite_start_refused_before_any_iteration(self, record_projections):
        prob = Problem(np.eye(2), np.zeros(2), SphereConstraint(2))
        points = record_projections(prob.constraint)
        with pytest.raises(ValueError, match="x contains non-finite entries"):
            run_pgd(prob, 0.1, [np.nan, 1.0], max_iters=5)
        assert points == []

    @pytest.mark.parametrize(
        "spec, x0",
        [(SparsityConstraint(1, 3), [1e300, 0.0, 0.0]),
         (LowRankConstraint(1, (2, 2)), np.outer([1e200, 2e200], [1.0, 3.0]).reshape(-1, order="F")),
         (LowRankConstraint(2, (5, 4)),
          LowRankConstraint(2, (5, 4)).random_member(np.random.default_rng(6)))],
        ids=["sparse_huge", "rank_one_huge", "rank_two"],
    )
    def test_feasible_start_keeps_its_bits_without_notice(self, spec, x0):
        x0 = np.array(x0)
        prob = Problem(np.eye(spec.n), np.zeros(spec.n), spec)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            trace = run_pgd(prob, 0.1, x0, max_iters=0)
        assert np.array_equal(trace.final, x0)

    @pytest.mark.parametrize("max_iters", [-5, 2.9, np.inf, np.nan])
    def test_iteration_budget_must_be_a_whole_count(self, max_iters):
        # Refused, not truncated or clamped to another count.
        prob = Problem(np.eye(3), np.zeros(3), SphereConstraint(3))
        with pytest.raises(ValueError, match="^max_iters must be a whole number >= 0"):
            run_pgd(prob, 0.5, [1.0, 0.0, 0.0], max_iters=max_iters)

    def test_floor_without_reference_refused(self):
        # Without x_ref there is no error for the floor to stop on.
        prob = Problem(np.eye(3), np.zeros(3), SphereConstraint(3))
        with pytest.raises(ValueError, match="^error_floor needs x_ref"):
            run_pgd(prob, 0.5, [1.0, 0.0, 0.0], max_iters=50, error_floor=1e-3)

    def test_matrix_reference_is_read_column_major(self):
        # As analyze_problem reads x*: a completion x* given as its matrix
        # measures the errors of the vector, not those of a transposed read.
        prob, x_star = make_instance("mcp", {"m": 6, "n": 5, "r": 2, "s": 24}, 0)
        eta = 0.5 * analyze_problem(prob, x_star).eta_opt
        rng = np.random.default_rng(0)
        x0 = prob.constraint.project(x_star + 1e-3 * rng.standard_normal(x_star.size))
        vector = run_pgd(prob, eta, x0, max_iters=50, x_ref=x_star)
        matrix = run_pgd(prob, eta, x0, max_iters=50, x_ref=prob.constraint.to_matrix(x_star))
        _assert_same_run(matrix, vector)
        assert vector.errors[-1] < 1e-2 * vector.errors[0]

    def test_reference_of_the_wrong_length_refused(self):
        prob = Problem(np.eye(3), np.zeros(3), SphereConstraint(3))
        with pytest.raises(ValueError, match="^x_ref has length 4, expected 3$"):
            run_pgd(prob, 0.5, [1.0, 0.0, 0.0], max_iters=5, x_ref=np.zeros(4))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_reference_refused(self, bad, record_projections):
        prob = Problem(np.eye(3), np.zeros(3), SphereConstraint(3))
        recorded = record_projections(prob.constraint)
        with pytest.raises(ValueError, match="^x_ref entries must be finite$"):
            run_pgd(prob, 0.5, [1.0, 0.0, 0.0], max_iters=5, x_ref=[1.0, bad, 0.0])
        assert not recorded

    @pytest.mark.parametrize("name", ["eta", "error_floor"])
    @pytest.mark.parametrize("starts", [1, 3])
    def test_one_value_or_one_per_start(self, name, starts):
        prob = Problem(np.eye(3), np.zeros(3), SphereConstraint(3))
        x0 = np.eye(3)[:starts] if starts > 1 else np.eye(3)[0]
        settings = {"eta": 0.5, "error_floor": 1e-6, name: [0.5, 1e-6]}
        with pytest.raises(ValueError, match=rf"^{name} needs 1 value or 1 per start, {starts}; got 2$"):
            run_pgd(prob, settings["eta"], x0, max_iters=5, error_floor=settings["error_floor"],
                    x_ref=np.eye(3)[0])

    @pytest.mark.parametrize("floor", [np.nan, -1e-3, [1e-6, np.nan]], ids=["nan", "negative", "row"])
    def test_floor_nan_or_negative_refused(self, floor):
        prob = Problem(np.eye(3), np.zeros(3), SphereConstraint(3))
        with pytest.raises(ValueError, match=r"^error_floor must be >= 0, got \[(nan|-0\.001)\]$"):
            run_pgd(prob, 0.5, np.eye(3)[:2], max_iters=5, error_floor=floor, x_ref=np.eye(3)[0])
        # A zero floor stops only on an exact hit.
        trace = run_pgd(prob, 0.5, np.eye(3)[0], max_iters=5, error_floor=0.0, x_ref=np.eye(3)[0])
        assert trace.error_floor == 0.0

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

    def test_every_iterate_feasible(self, record_projections, membership_gap):
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
            assert len(iterates) == trace.n_iterations + 1
            for it in [x0, *iterates]:
                assert membership_gap(prob.constraint, it) <= 1e-10

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

    @pytest.mark.parametrize("with_errors", [True, False], ids=["errors", "no_errors"])
    def test_csv_bytes_are_those_of_one_line_per_entry(self, tmp_path, with_errors):
        rng = np.random.default_rng(5)
        # Longer than two of the blocks that write_csv formats at a time.
        values = np.concatenate((rng.standard_normal(600) * 10.0 ** rng.integers(-300, 300, 600),
                                 [0.0, -0.0, 1e-320, np.inf, np.nan]))
        trace = Trace(final=np.zeros(2), objectives=values,
                      errors=np.abs(values[::-1]) if with_errors else None, stop_reason="max_iters")
        path = tmp_path / "trace.csv"
        trace.write_csv(path)
        # Each entry formatted on its own, as repr of a Python float.
        expected = "k,error,objective\n"
        for k in range(values.size):
            err = "" if trace.errors is None else repr(float(trace.errors[k]))
            expected += f"{k},{err},{float(trace.objectives[k])!r}\n"
        assert path.read_bytes() == expected.encode("ascii")


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
                prob = Problem(diagonal, rng.standard_normal(n), spec)
            starts = np.array([spec.random_member(rng) for _ in range(4)])
            x_ref = run_pgd(prob, 0.5 / prob.ata_extremes()[0], starts[0], max_iters=2000).final
            yield f"{kind}-{layout}", prob, x_ref, starts


def _assert_same_run(row, alone):
    assert row.stop_reason == alone.stop_reason
    assert row.error_floor == alone.error_floor
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
        diverged = block[0]
        assert (diverged.n_iterations + 1, np.hypot.reduce(diverged.final)) == (
            info.value.iteration, info.value.norm)
        last = run_pgd(prob, etas[0], x0, max_iters=diverged.n_iterations,
                       error_floor=floors[0], x_ref=x_star)
        _assert_same_run(dataclasses.replace(diverged, stop_reason="max_iters"), last)
        for row, eta, x, floor in list(zip(block, etas, starts, floors))[1:]:
            _assert_same_run(row, run_pgd(prob, eta, x, max_iters=300, error_floor=floor,
                                          x_ref=x_star))

    def test_infeasible_row_is_projected_alone(self):
        prob = Problem(np.eye(3), np.array([2.0, 0.0, 0.0]), SphereConstraint(3))
        starts = np.array([[0.0, 1.0, 0.0], [3.0, 4.0, 0.0], [0.0, 0.0, 1.0]])
        with pytest.warns(InfeasibleStartWarning):
            block = run_pgd(prob, 0.5, starts, max_iters=50, x_ref=[1.0, 0.0, 0.0])
        # The feasible rows keep their start, at distance sqrt(2) from x_ref;
        # the infeasible row starts from its projection (checked below).
        assert block[0].errors[0] == block[2].errors[0] == np.sqrt(2.0)
        with pytest.warns(InfeasibleStartWarning):
            alone = run_pgd(prob, 0.5, starts[1], max_iters=50, x_ref=[1.0, 0.0, 0.0])
        _assert_same_run(block[1], alone)
        assert block[1].errors[0] == pytest.approx(np.linalg.norm([0.6, 0.8, 0.0] - np.eye(3)[0]))

    def test_rejects_rows_of_the_wrong_width(self):
        prob = Problem(np.eye(3), np.zeros(3), SphereConstraint(3))
        with pytest.raises(ValueError, match="x0 has rows of length 2, expected 3"):
            run_pgd(prob, 0.5, np.ones((2, 2)))


def _reference_run(prob, eta, x, max_iters, error_floor=None, x_ref=None):
    """``run_pgd`` of one start as a plain loop that decides every stop and
    records every entry of the trace at each iteration. Returns the trace's
    fields, with ``divergence`` the iteration of a divergence or None, and
    the stall flag of each iteration (a step within the stagnation tolerance)."""
    x, b = np.array(x, dtype=float), prob.b
    if x_ref is not None and error_floor is None:
        error_floor = ERROR_FLOOR_SCALE * (1.0 + np.linalg.norm(x_ref))
    r = prob.apply(x) - b
    objectives = [0.5 * float(r @ r)]
    errors = None if x_ref is None else [np.linalg.norm(x - x_ref)]
    stalls, stagnant, divergence, stop_reason = [], 0, None, "max_iters"
    with np.errstate(over="ignore", invalid="ignore"):
        for it in range(1, max_iters + 1):
            descent = x - eta * prob.apply_t(prob.apply(x) - b)
            x_next = prob.constraint.project(descent) if np.all(np.isfinite(descent)) else None
            if x_next is None or not np.all(np.isfinite(x_next)):
                stop_reason, divergence = "diverged", it
                break
            step, norm = np.linalg.norm(x_next - x), np.linalg.norm(x_next)
            x = x_next
            r = prob.apply(x) - b
            objectives.append(0.5 * float(r @ r))
            stall = STAGNATION_RTOL * (1.0 + norm)
            stalls.append(bool(step <= stall and np.isfinite(stall)))
            stagnant = stagnant + 1 if stalls[-1] else 0
            if errors is not None:
                errors.append(np.linalg.norm(x - x_ref))
                if errors[-1] < error_floor:
                    stop_reason = "error_floor"
                    break
            if stagnant >= STAGNATION_RUN:
                stop_reason = "stagnation"
                break
    return {
        "objectives": np.array(objectives),
        "errors": None if errors is None else np.array(errors),
        "final": x,
        "stop_reason": stop_reason,
        "error_floor": error_floor,
        "divergence": divergence,
        "stalls": stalls,
    }


def _assert_matches_reference(trace, ref):
    assert trace.stop_reason == ref["stop_reason"]
    assert trace.error_floor == ref["error_floor"]
    divergence = trace.n_iterations + 1 if trace.stop_reason == "diverged" else None
    assert divergence == ref["divergence"]
    for field in ("objectives", "errors", "final"):
        got, expected = getattr(trace, field), ref[field]
        assert (got is None) == (expected is None), field
        assert expected is None or np.array_equal(got, expected), field


def _affine_problem(seed):
    rng = np.random.default_rng(seed)
    C = rng.standard_normal((2, 6))
    prob = Problem(rng.standard_normal((8, 6)), rng.standard_normal(8),
                   AffineConstraint(C, C @ rng.standard_normal(6)))
    report = analyze_problem(prob)
    return prob, report.eta_opt, report.x_star, prob.constraint.random_member(rng)


class TestWindows:
    """``run_pgd`` decides its stops at every iteration but computes the
    objectives and stall counts once per window of iterations; every field
    of each trace equals that of the per-iteration loop ``_reference_run``."""

    def test_stall_run_across_two_windows_without_x_ref(self):
        prob, eta_opt, _, x0 = _affine_problem(1)
        etas = [0.6 * eta_opt, eta_opt, 0.3 * eta_opt]
        refs = [_reference_run(prob, eta, x0, 2000) for eta in etas]
        # The first run stalls, moves once and then stalls ten times in a row,
        # ending at an iteration that no window of ten would end at.
        stalls = refs[0]["stalls"]
        assert refs[0]["stop_reason"] == "stagnation"
        assert stalls[-12:] == [True, False] + [True] * STAGNATION_RUN
        assert len(stalls) % STAGNATION_RUN != 0
        _assert_matches_reference(run_pgd(prob, etas[0], x0, max_iters=2000), refs[0])
        block = run_pgd(prob, etas, np.array([x0] * 3), max_iters=2000)
        for trace, ref in zip(block, refs):
            _assert_matches_reference(trace, ref)

    def test_floor_reached_mid_window(self):
        prob, eta_opt, x_star, x0 = _affine_problem(1)
        etas, floors = [eta_opt, eta_opt, 0.3 * eta_opt], [1e-6, 1e-9, 1e-12]
        block = run_pgd(prob, etas, np.array([x0] * 3), max_iters=2000, error_floor=floors,
                        x_ref=x_star)
        refs = [_reference_run(prob, eta, x0, 2000, floor, x_star)
                for eta, floor in zip(etas, floors)]
        # Each row reaches its floor at its own iteration (254, 381 and 1,703
        # here), none a multiple of the window, while the later rows go on.
        assert [ref["stop_reason"] for ref in refs] == ["error_floor"] * 3
        stops = [trace.n_iterations for trace in block]
        assert stops == sorted(set(stops)) and all(n % STAGNATION_RUN for n in stops)
        for trace, ref in zip(block, refs):
            _assert_matches_reference(trace, ref)

    def test_divergence_mid_window(self):
        prob, eta_opt, x_star, x0 = _affine_problem(1)
        etas = [1e12, 1e6, eta_opt]
        block = run_pgd(prob, etas, np.array([x0] * 3), max_iters=100, x_ref=x_star)
        assert [trace.stop_reason for trace in block] == ["diverged", "diverged", "max_iters"]
        # Iterations 24 and 43 here: mid-window, and apart.
        stops = [trace.n_iterations + 1 for trace in block[:2]]
        assert stops[0] < stops[1] and all(n % STAGNATION_RUN for n in stops)
        for trace, eta in zip(block, etas):
            _assert_matches_reference(trace, _reference_run(prob, eta, x0, 100, x_ref=x_star))

    @pytest.mark.parametrize("max_iters", [0, 1, 23])
    @pytest.mark.parametrize("with_x_ref", [True, False], ids=["x_ref", "no_x_ref"])
    def test_iteration_budget(self, max_iters, with_x_ref):
        prob, eta_opt, x_star, x0 = _affine_problem(1)
        x_ref = x_star if with_x_ref else None
        etas = [0.5 * eta_opt, eta_opt]
        block = run_pgd(prob, etas, np.array([x0] * 2), max_iters=max_iters, x_ref=x_ref)
        for trace, eta in zip(block, etas):
            assert trace.n_iterations == max_iters
            _assert_matches_reference(trace, _reference_run(prob, eta, x0, max_iters, x_ref=x_ref))
        alone = run_pgd(prob, etas[1], x0, max_iters=max_iters, x_ref=x_ref)
        _assert_matches_reference(alone, _reference_run(prob, etas[1], x0, max_iters, x_ref=x_ref))
