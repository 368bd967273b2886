import json
import warnings

import numpy as np
import pytest

from pgdlab import verify
from pgdlab.constraints import (
    AffineConstraint,
    Linearization,
    LowRankConstraint,
    SparsityConstraint,
    SphereConstraint,
    coordinate_basis,
    finite_difference_check,
    quadratic_bound_margin,
    relative_residuals,
)
from pgdlab.engine import Problem, run_pgd
from pgdlab.errors import ConstraintDomainError, NonUniqueProjectionWarning, ProblemFileError
from pgdlab.problem_io import load_problem, save_problem
from pgdlab.verify import derivative_matrix

SQRT2 = np.sqrt(2.0)


class TestProject:
    def test_sphere_normalizes(self):
        spec = SphereConstraint(2)
        np.testing.assert_allclose(spec.project([3.0, 4.0]), [0.6, 0.8])

    def test_sphere_huge_point_stays_on_the_sphere(self):
        # ||x||^2 overflows to inf here; x / inf would be the origin.
        spec = SphereConstraint(2)
        x = np.array([1e200, -1e200])
        with np.errstate(over="ignore"):
            projected = spec.project(x)
            lin = spec.linearize(x)
            residual = relative_residuals(projected - x, x)
        np.testing.assert_allclose(projected, [SQRT2 / 2, -SQRT2 / 2], rtol=1e-15)
        # ||P(x) - x|| / (1 + ||x||), both norms near the overflow
        assert residual == pytest.approx(1.0, rel=1e-15)
        assert lin.scale == pytest.approx(1.0 / (SQRT2 * 1e200), rel=1e-15)
        np.testing.assert_allclose(np.abs(lin.basis.ravel()), [SQRT2 / 2, SQRT2 / 2], rtol=1e-15)

    def test_sphere_point_near_the_float_maximum_stays_on_the_sphere(self, membership_gap):
        # max|x| * ||x / max|x||| = 1e308 * sqrt(8) overflows; x / inf was the origin.
        spec = SphereConstraint(8)
        huge = np.full(8, 1e308)
        ordinary = np.random.default_rng(0).standard_normal((3, 8))
        block = np.vstack([ordinary[:1], huge, ordinary[1:], [1e200, -1e200] + [0.0] * 6])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            projected = spec.project(huge)
            assert membership_gap(spec, projected) <= 1e-12
            rows = spec.project(block)
        assert np.array_equal(rows, np.array([spec.project(x) for x in block]))
        assert np.array_equal(rows[1], projected)

    def test_sphere_huge_point_curvature_is_zero_without_warning(self):
        # 2 / ||x||^2 rounds to 0.0 once ||x||^2 overflows; numpy must not warn.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            lin = SphereConstraint(2).linearize(np.array([1e200, -1e200]))
        assert lin.curvature == 0.0

    def test_sphere_huge_step_solve_stays_on_the_sphere(self):
        problem = Problem(np.diag([1.0, 2.0, 0.0]), np.array([1.0, 0.5, 0.0]), SphereConstraint(3))
        # With the origin as reference the errors are the norms of the iterates.
        trace = run_pgd(problem, 1e300, np.array([0.0, 1.0, 0.0]), max_iters=5, x_ref=np.zeros(3))
        assert trace.n_iterations == 5
        assert np.abs(trace.errors - 1.0).max() <= 1e-15

    def test_sphere_origin_maps_to_first_axis(self):
        spec = SphereConstraint(3)
        np.testing.assert_array_equal(spec.project([0.0, 0.0, 0.0]), [1.0, 0.0, 0.0])

    def test_sparse_keeps_two_largest(self):
        spec = SparsityConstraint(2, 3)
        np.testing.assert_array_equal(spec.project([3.0, -1.0, 2.0]), [3.0, 0.0, 2.0])

    def test_sparse_tie_keeps_smaller_index(self):
        spec = SparsityConstraint(1, 2)
        np.testing.assert_array_equal(spec.project([2.0, -2.0]), [2.0, 0.0])

    def test_affine_symmetric_line(self):
        spec = AffineConstraint([[1.0, 1.0]], [1.0])
        np.testing.assert_allclose(spec.project([0.0, 0.0]), [0.5, 0.5])

    def test_lowrank_truncates_diagonal(self):
        spec = LowRankConstraint(1, (2, 2))
        x = spec.to_vector(np.diag([3.0, 1.0]))
        np.testing.assert_allclose(
            spec.to_matrix(spec.project(x)), np.diag([3.0, 0.0]), atol=1e-12
        )

    def test_lowrank_tie_warns(self):
        spec = LowRankConstraint(1, (2, 2))
        x = spec.to_vector(np.diag([2.0, 2.0]))
        with pytest.warns(NonUniqueProjectionWarning):
            spec.project(x)

    def test_rejects_nonfinite(self):
        spec = SphereConstraint(2)
        with pytest.raises(ValueError):
            spec.project([np.nan, 1.0])

    def test_sphere_needs_two_dimensions(self):
        # The sphere in R^1 is two points: it has no tangent space.
        with pytest.raises(ValueError, match="n >= 2"):
            SphereConstraint(1)

    def test_affine_rejects_rank_deficient(self):
        with pytest.raises(ValueError):
            AffineConstraint([[1.0, 1.0, 0.0], [2.0, 2.0, 0.0]], [1.0, 2.0])


class TestLinearize:
    def test_sphere_example(self):
        spec = SphereConstraint(2)
        lin = spec.linearize([1.0, 0.0])
        np.testing.assert_allclose(derivative_matrix(lin), [[0.0, 0.0], [0.0, 1.0]], atol=1e-15)
        assert np.isinf(lin.radius)
        assert lin.curvature == pytest.approx(2.0)

    def test_sphere_scales_inversely(self):
        spec = SphereConstraint(3)
        lin = spec.linearize([0.0, 2.0, 0.0])
        assert lin.curvature == pytest.approx(0.5)
        assert lin.operator_norm() == pytest.approx(0.5)

    def test_sparse_example(self):
        spec = SparsityConstraint(1, 2)
        lin = spec.linearize([5.0, 0.0])
        np.testing.assert_array_equal(derivative_matrix(lin), np.diag([1.0, 0.0]))
        assert lin.radius == pytest.approx(5.0 / np.sqrt(2.0))
        assert lin.curvature == 0.0

    def test_sparse_gap_radius_off_the_variety(self):
        # More than s nonzeros: the radius shrinks to the magnitude gap.
        spec = SparsityConstraint(2, 4)
        lin = spec.linearize([3.0, -1.0, 0.0, 2.0])
        np.testing.assert_array_equal(np.diag(derivative_matrix(lin)), [1.0, 0.0, 0.0, 1.0])
        assert lin.radius == pytest.approx((2.0 - 1.0) / np.sqrt(2.0))

    def test_sparse_rejects_tied_boundary(self):
        spec = SparsityConstraint(1, 2)
        with pytest.raises(ConstraintDomainError, match="sparse"):
            spec.linearize([2.0, -2.0])

    @pytest.mark.parametrize("case", ["random", "tied", "s_equals_n"])
    def test_sparse_basis_and_radius_from_one_sort(self, case):
        rng = np.random.default_rng(3)
        if case == "random":
            spec, x = SparsityConstraint(4, 12), rng.standard_normal(12)
        elif case == "tied":  # ties among the kept and among the dropped entries
            spec = SparsityConstraint(3, 8)
            x = np.array([2.0, -1.0, 3.0, 1.0, -3.0, 0.0, 3.0, -1.0])
        else:
            spec, x = SparsityConstraint(5, 5), rng.standard_normal(5)
        lin = spec.linearize(x)
        assert np.array_equal(lin.basis, coordinate_basis(spec.top_support(x), spec.n))
        mags = np.sort(np.abs(x))[::-1]
        dropped = mags[spec.s] if spec.s < spec.n else 0.0
        assert lin.radius == (mags[spec.s - 1] - dropped) / SQRT2

    def test_sparse_tie_refusal_text(self):
        with pytest.raises(ConstraintDomainError) as info:
            SparsityConstraint(2, 4).linearize([1.0, -3.0, 1.0, 0.5])
        assert str(info.value) == ("sparse: derivative needs a strict magnitude gap at rank s "
                                   "(|x|_[s]=1.000e+00, |x|_[s+1]=1.000e+00)")

    def test_affine_example(self):
        v = np.array([1.0, 1.0]) / np.sqrt(2.0)
        spec = AffineConstraint(v.reshape(1, -1), [0.3])
        lin = spec.linearize([4.0, -1.0])
        np.testing.assert_allclose(derivative_matrix(lin), np.eye(2) - np.outer(v, v), atol=1e-14)
        assert np.isinf(lin.radius) and lin.curvature == 0.0

    def test_sphere_rejects_origin(self):
        with pytest.raises(ConstraintDomainError, match="sphere"):
            SphereConstraint(2).linearize([0.0, 0.0])

    def test_lowrank_constants(self):
        spec = LowRankConstraint(2, (4, 3))
        x = spec.random_member(np.random.default_rng(0))
        lin = spec.linearize(x)
        assert np.isinf(lin.radius)
        assert lin.curvature == pytest.approx(4.0 * (1.0 + np.sqrt(2.0)))

    def test_lowrank_rejects_wrong_rank(self):
        spec = LowRankConstraint(2, (3, 3))
        with pytest.raises(ConstraintDomainError, match="rank"):
            spec.linearize(spec.to_vector(np.diag([1.0, 0.0, 0.0])))
        with pytest.raises(ConstraintDomainError, match="rank"):
            spec.linearize(spec.to_vector(np.diag([3.0, 2.0, 1.0])))

    def test_lowrank_matrix_free_above_dense_limit(self):
        spec = LowRankConstraint(1, (70, 70))
        rng = np.random.default_rng(1)
        x = spec.random_member(rng)
        lin = spec.linearize(x)
        assert lin.basis.shape == (4900, 139)  # r (m + n - r) tangent directions
        X = spec.to_matrix(x)
        U, _, Vt = np.linalg.svd(X, full_matrices=False)
        delta = rng.standard_normal(spec.n)
        D = spec.to_matrix(delta)
        left = np.eye(70) - np.outer(U[:, 0], U[:, 0])
        right = np.eye(70) - np.outer(Vt[0], Vt[0])
        expected = spec.to_vector(D - left @ D @ right)
        np.testing.assert_allclose(lin.apply(delta), expected, atol=1e-12)


def _tangent_case(kind, rng):
    """A constraint, a point off its singular set, and the tangent dimension there."""
    if kind == "affine":
        C = rng.standard_normal((3, 9))
        spec = AffineConstraint(C, C @ rng.standard_normal(9))
        return spec, spec.random_member(rng), 9 - 3
    if kind == "sparse":
        spec = SparsityConstraint(3, 10)
        return spec, spec.random_member(rng), 3
    if kind == "sphere":
        spec = SphereConstraint(7)
        return spec, 2.5 * spec.random_member(rng), 7 - 1  # off the sphere: scale 1/2.5
    spec = LowRankConstraint(2, (5, 4))
    return spec, spec.random_member(rng), 2 * (5 + 4 - 2)


class TestTangentBasisContract:
    @pytest.mark.parametrize("kind", ["affine", "sparse", "sphere", "lowrank"])
    def test_derivative_is_scaled_projector_onto_basis(self, kind):
        rng = np.random.default_rng(21)
        spec, x, dim = _tangent_case(kind, rng)
        lin = spec.linearize(x)
        assert lin.basis.shape == (spec.n, dim)
        np.testing.assert_allclose(lin.basis.T @ lin.basis, np.eye(dim), rtol=0, atol=1e-12)
        expected_scale = 1.0 / np.linalg.norm(x) if kind == "sphere" else 1.0
        assert lin.scale == pytest.approx(expected_scale, rel=1e-15)
        assert lin.operator_norm() == lin.scale
        dense = derivative_matrix(lin)
        assert lin.operator_norm() == pytest.approx(np.linalg.norm(dense, 2), rel=1e-12)
        for _ in range(5):
            v = rng.standard_normal(spec.n)
            np.testing.assert_allclose(lin.apply(v), dense @ v, rtol=0, atol=1e-12)

    def test_empty_basis_has_zero_norm(self):
        # No family has an empty tangent space (the sphere needs n >= 2), so
        # the empty derivative is built directly.
        lin = Linearization(np.zeros((1, 0)), np.inf, 0.0)
        assert lin.operator_norm() == 0.0
        np.testing.assert_array_equal(lin.apply([2.0]), [0.0])

    @pytest.mark.parametrize("kind", ["affine", "sparse", "sphere"])
    def test_cross_gram_of_array_bases_is_their_product_bit_for_bit(self, kind):
        # An array basis is the factor pair R = [[1.0]], L = B: the [[1.0]]
        # factor must multiply exactly, whatever B's layout.
        rng = np.random.default_rng(22)
        spec, x, _ = _tangent_case(kind, rng)
        B_x = spec.linearize(x).basis
        B_z = spec.linearize(x + 1e-3 * rng.standard_normal(spec.n)).basis.copy()
        lin_x, lin_z = Linearization(B_x, np.inf, 0.0), Linearization(B_z, np.inf, 0.0, 2.0)
        assert np.array_equal(lin_x.cross_gram(lin_z), B_x.T @ B_z)
        assert np.array_equal(lin_z.cross_gram(lin_x), B_z.T @ B_x)
        wide = rng.standard_normal((spec.n, 3))
        assert np.array_equal(lin_x.cross_gram(Linearization(wide, np.inf, 0.0)), B_x.T @ wide)
        assert np.array_equal(lin_x.rows(), B_x) and lin_x.basis is B_x

    @pytest.mark.parametrize("kind", ["affine", "sparse", "sphere"])
    def test_weighted_cross_gram_of_array_bases(self, kind):
        # The weights of a diagonal A = diag(d), d^2 with d in +-[0.5, 1.5]
        # and some zero: B_z^T diag(d^2) B_x within 1e-14 relative, both orders.
        rng = np.random.default_rng(23)
        spec, x, _ = _tangent_case(kind, rng)
        B_x = spec.linearize(x).basis
        B_z = spec.linearize(x + 1e-3 * rng.standard_normal(spec.n)).basis
        lin_x, lin_z = Linearization(B_x, np.inf, 0.0), Linearization(B_z, np.inf, 0.0, 2.0)
        d = rng.uniform(0.5, 1.5, spec.n) * rng.choice([-1.0, 1.0], spec.n)
        d[rng.choice(spec.n, size=spec.n // 4, replace=False)] = 0.0
        expected = B_z.T @ ((d**2)[:, None] * B_x)
        tol = 1e-14 * np.max(np.abs(expected))
        assert np.max(np.abs(lin_z.cross_gram(lin_x, d**2) - expected)) <= tol
        assert np.max(np.abs(lin_x.cross_gram(lin_z, d**2) - expected.T)) <= tol


class TestFiniteDifference:
    def test_sphere(self):
        residual = finite_difference_check(
            SphereConstraint(2), [1.0, 0.0], step=1e-6, trials=100, seed=0
        )
        assert residual <= 1e-5

    def test_affine_is_linear(self):
        # Exactly linear: at the largest allowed step and small point/offset
        # scales the residual is pure rounding noise, below 1e-12.
        rng = np.random.default_rng(2)
        C = rng.standard_normal((2, 6))
        spec = AffineConstraint(C, C @ (0.02 * rng.standard_normal(6)))
        x = rng.standard_normal(6)
        x *= 0.1 / np.linalg.norm(x)
        assert finite_difference_check(spec, x, step=1e-4, trials=50, seed=1) <= 1e-12

    def test_sparse_cell_is_linear(self):
        spec = SparsityConstraint(2, 4)
        x = 0.2 * np.array([3.0, -1.0, 0.0, 2.0])
        assert finite_difference_check(spec, x, step=1e-4, trials=50, seed=1) <= 1e-12

    def test_step_bounds_enforced(self):
        with pytest.raises(ValueError):
            finite_difference_check(SphereConstraint(2), [1.0, 0.0], step=1e-3)


class TestQuadraticBound:
    def test_sphere_margin_nonnegative(self):
        margin = quadratic_bound_margin(
            SphereConstraint(2), [1.0, 0.0], radius=0.3, trials=10_000, seed=0
        )
        assert margin >= 0.0

    def test_affine_margin_vanishes(self):
        rng = np.random.default_rng(3)
        C = rng.standard_normal((2, 5))
        spec = AffineConstraint(C, C @ rng.standard_normal(5))
        margin = quadratic_bound_margin(spec, rng.standard_normal(5), radius=1.0,
                                        trials=500, seed=4)
        assert abs(margin) <= 1e-12

    def test_lowrank_margin_nonnegative(self):
        spec = LowRankConstraint(2, (4, 4))
        rng = np.random.default_rng(5)
        x = spec.random_member(rng)
        sig = np.linalg.svd(spec.to_matrix(x), compute_uv=False)
        margin = quadratic_bound_margin(spec, x, radius=0.1 * sig[1], trials=10_000, seed=6)
        assert margin >= 0.0


class TestProbesRefuseEmptySampling:
    """A probe that samples nothing must not report that its bound held."""

    X = [1.0, 0.0, 0.0]

    @pytest.mark.parametrize("trials", [0, -3, 2.5, float("nan"), float("inf"), True, "5"])
    def test_trials_not_a_whole_number_from_one(self, trials):
        spec = SphereConstraint(3)
        with pytest.raises(ValueError, match="trials must be a whole number >= 1"):
            quadratic_bound_margin(spec, self.X, radius=0.3, trials=trials)
        with pytest.raises(ValueError, match="trials must be a whole number >= 1"):
            finite_difference_check(spec, self.X, step=1e-6, trials=trials)

    @pytest.mark.parametrize("radius", [0.0, -0.3, float("inf"), float("nan")])
    def test_radius_not_finite_and_positive(self, radius):
        with pytest.raises(ValueError, match="radius must be finite and positive"):
            quadratic_bound_margin(SphereConstraint(3), self.X, radius=radius, trials=10)

    @pytest.mark.parametrize("trials", [7.0, np.int64(7)])
    def test_whole_trials_of_any_number_type(self, trials):
        spec = SphereConstraint(3)
        assert quadratic_bound_margin(spec, self.X, 0.3, trials, seed=1) == (
            quadratic_bound_margin(spec, self.X, 0.3, 7, seed=1)
        )
        assert finite_difference_check(spec, self.X, 1e-6, trials, seed=1) == (
            finite_difference_check(spec, self.X, 1e-6, 7, seed=1)
        )


class TestCellLinearityCheck:
    """``cell_linearity.{affine,sparse}`` read minus ``quadratic_bound_margin``
    at curvature 0: a small nonlinear term in the projection must fail them."""

    @pytest.mark.parametrize("seed", range(4))
    def test_exact_projections_pass(self, seed):
        results = {r.name: r.ok for r in verify.check_quadratic_bounds(seed)}
        assert results["cell_linearity.affine"] and results["cell_linearity.sparse"]

    @pytest.mark.parametrize(
        "cls, kind, other",
        [(AffineConstraint, "affine", "sparse"), (SparsityConstraint, "sparse", "affine")],
    )
    def test_nonlinear_projection_fails(self, monkeypatch, cls, kind, other):
        project = cls._project

        def bent(self, x):
            out = project(self, x)
            out[..., 0] += 1e-9 * np.sum(x * x, axis=-1)
            return out

        monkeypatch.setattr(cls, "_project", bent)
        results = {r.name: r.ok for r in verify.check_quadratic_bounds(0)}
        assert not results[f"cell_linearity.{kind}"]
        assert results[f"cell_linearity.{other}"]


class TestInvariantsAndJson:
    @pytest.mark.parametrize("kind", ["affine", "sparse", "sphere", "lowrank"])
    def test_idempotent_and_minimal(self, kind, membership_gap):
        rng = np.random.default_rng(7)
        spec = {
            "affine": AffineConstraint(rng.standard_normal((3, 9)),
                                       rng.standard_normal(3)),
            "sparse": SparsityConstraint(3, 9),
            "sphere": SphereConstraint(9),
            "lowrank": LowRankConstraint(2, (3, 3)),
        }[kind]
        for _ in range(50):
            x = 2.0 * rng.standard_normal(spec.n)
            once = spec.project(x)
            assert membership_gap(spec, once) <= 1e-10
            twice = spec.project(once)
            assert np.linalg.norm(twice - once) <= 1e-12 * (1.0 + np.linalg.norm(once))
            dist = np.linalg.norm(once - x)
            for _ in range(20):
                y = spec.random_member(rng)
                assert dist <= np.linalg.norm(y - x) + 1e-12

    @pytest.mark.parametrize(
        "kind, fields",
        [("affine", ["C", "d"]), ("sparse", ["s"]), ("sphere", []), ("lowrank", ["r", "shape"])],
    )
    def test_problem_file_round_trip(self, tmp_path, kind, fields):
        rng = np.random.default_rng(8)
        C = rng.standard_normal((2, 5))
        spec = {
            "affine": AffineConstraint(C, C @ rng.standard_normal(5)),
            "sparse": SparsityConstraint(2, 5),
            "sphere": SphereConstraint(5),
            "lowrank": LowRankConstraint(1, (5, 1)),
        }[kind]
        path = tmp_path / "problem.json"
        save_problem(path, Problem(rng.standard_normal((4, 5)), rng.standard_normal(4), spec))
        assert sorted(json.loads(path.read_text())["constraint"]) == sorted(["type", *fields])
        clone = load_problem(path)[0].constraint
        assert type(clone) is type(spec) and clone.n == spec.n
        for key in fields:
            assert np.array_equal(getattr(clone, key), getattr(spec, key))
        x = rng.standard_normal(spec.n)
        assert np.array_equal(clone.project(x), spec.project(x))

    def test_problem_file_refuses_unknown_type(self, tmp_path):
        path = tmp_path / "problem.json"
        doc = {"A": [[1.0, 0.0, 0.0]], "b": [1.0], "constraint": {"type": "simplex"}}
        path.write_text(json.dumps(doc))
        with pytest.raises(ProblemFileError, match="unknown constraint type 'simplex'") as info:
            load_problem(path)
        assert info.value.path == "constraint"
