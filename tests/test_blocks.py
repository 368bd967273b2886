"""A (k, n) block of points through ``project`` and ``Linearization.apply``.

Each row of a block result must equal the one-point result bit for bit, and
the blockwise Monte-Carlo probes must return exactly what the per-sample
loops below (the probes as first written, one point at a time) return.
"""

import warnings

import numpy as np
import pytest

from pgdlab.constraints import (
    SAMPLE_BLOCK,
    AffineConstraint,
    LowRankConstraint,
    SparsityConstraint,
    SphereConstraint,
    finite_difference_check,
    quadratic_bound_margin,
)
from pgdlab.errors import NonUniqueProjectionWarning

KINDS = ["affine", "sparse", "sphere", "lowrank"]


def _spec(kind, rng):
    if kind == "affine":
        C = rng.standard_normal((4, 12))
        return AffineConstraint(C, C @ rng.standard_normal(12))
    return {
        "sparse": SparsityConstraint(4, 20),
        "sphere": SphereConstraint(8),
        "lowrank": LowRankConstraint(2, (5, 4)),
    }[kind]


def _block(kind, spec, rng):
    """Random rows, plus the edge rows of the family."""
    block = 3.0 * rng.standard_normal((40, spec.n))
    if kind == "sparse":
        block[0] = 0.0
        block[1, :6] = [1.0, -1.0, 1.0, -1.0, 1.0, -1.0]  # tied magnitudes
    elif kind == "sphere":
        block[0] = 0.0  # projects to e_1
        block[1] *= 1e200  # its sum of squares overflows
    elif kind == "lowrank":
        block[0] = 0.0
        block[1] = spec.random_member(rng)
    return block


def _rows(fn, block):
    return np.array([fn(row) for row in block])


class TestBlockEqualsRows:
    @pytest.mark.parametrize("kind", KINDS)
    def test_project(self, kind):
        rng = np.random.default_rng(11)
        spec = _spec(kind, rng)
        block = _block(kind, spec, rng)
        projected = spec.project(block)
        assert projected.shape == block.shape
        assert np.array_equal(projected, _rows(spec.project, block))

    @pytest.mark.parametrize("kind", KINDS)
    def test_linearization_apply(self, kind):
        rng = np.random.default_rng(12)
        spec = _spec(kind, rng)
        lin = spec.linearize(spec.random_member(rng))
        block = _block(kind, spec, rng)
        applied = lin.apply(block)
        assert applied.shape == block.shape
        assert np.array_equal(applied, _rows(lin.apply, block))

    def test_sphere_edge_rows(self):
        spec = SphereConstraint(8)
        block = np.zeros((3, 8))
        block[1] = 1e200  # 8e400 overflows: the norm is rescaled by 1e200
        block[2, 3] = -2.0
        projected = spec.project(block)
        expected = np.zeros((3, 8))
        expected[0, 0] = 1.0
        expected[1] = 1.0 / np.sqrt(8.0)
        expected[2, 3] = -1.0
        np.testing.assert_allclose(projected, expected, rtol=1e-15)
        assert np.array_equal(projected, _rows(spec.project, block))

    def test_lowrank_tied_row_warns(self):
        spec = LowRankConstraint(1, (2, 2))
        block = np.array([[3.0, 0.0, 0.0, 1.0], spec.to_vector(np.diag([2.0, 2.0]))])
        with pytest.warns(NonUniqueProjectionWarning):
            projected = spec.project(block)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", NonUniqueProjectionWarning)
            assert np.array_equal(projected, _rows(spec.project, block))

    def test_untied_block_does_not_warn(self):
        spec = LowRankConstraint(1, (2, 2))
        with warnings.catch_warnings():
            warnings.simplefilter("error", NonUniqueProjectionWarning)
            spec.project(np.array([[3.0, 0.0, 0.0, 1.0], [1.0, 2.0, 3.0, 4.0]]))

    @pytest.mark.parametrize("kind", KINDS)
    def test_rejects_nonfinite_row(self, kind):
        rng = np.random.default_rng(13)
        spec = _spec(kind, rng)
        block = rng.standard_normal((5, spec.n))
        block[3, 1] = np.inf
        with pytest.raises(ValueError, match="non-finite"):
            spec.project(block)

    @pytest.mark.parametrize("kind", KINDS)
    def test_rejects_wrong_width(self, kind):
        rng = np.random.default_rng(14)
        spec = _spec(kind, rng)
        with pytest.raises(ValueError, match=f"rows of length {spec.n + 1}, expected {spec.n}"):
            spec.project(rng.standard_normal((5, spec.n + 1)))

    def test_sparse_top_support_of_a_block(self):
        spec = SparsityConstraint(2, 4)
        block = np.array([[0.0, 3.0, -1.0, 2.0], [1.0, 1.0, 1.0, 1.0]])
        np.testing.assert_array_equal(spec.top_support(block), [[1, 3], [0, 1]])


def reference_finite_difference_check(constraint, x, step=1e-6, trials=100, seed=0):
    """``finite_difference_check`` one sample at a time."""
    x = np.asarray(x, dtype=float)
    lin = constraint.linearize(x)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(int(trials)):
        u = rng.standard_normal(constraint.n)
        u /= np.linalg.norm(u)
        forward = constraint.project(x + step * u)
        backward = constraint.project(x - step * u)
        probe = (forward - backward) / (2.0 * step)
        reference = lin.apply(u)
        residual = np.linalg.norm(probe - reference) / (1.0 + np.linalg.norm(reference))
        worst = max(worst, float(residual))
    return worst


def reference_quadratic_bound_margin(constraint, x, radius, trials=1000, seed=0):
    """``quadratic_bound_margin`` one sample at a time."""
    x = np.asarray(x, dtype=float)
    lin = constraint.linearize(x)
    rng = np.random.default_rng(seed)
    base = constraint.project(x)
    worst = np.inf
    for _ in range(int(trials)):
        direction = rng.standard_normal(constraint.n)
        direction /= np.linalg.norm(direction)
        length = radius * rng.random() ** (1.0 / constraint.n)
        delta = length * direction
        actual = constraint.project(x + delta)
        residual = np.linalg.norm(actual - base - lin.apply(delta))
        margin = lin.curvature * float(length) ** 2 - float(residual)
        worst = min(worst, margin)
    return worst


class TestProbesMatchTheLoops:
    # More samples than one block, so the draws cross block boundaries.
    TRIALS = 2 * SAMPLE_BLOCK + 500

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("kind", ["sphere", "lowrank"])
    def test_quadratic_bound_margin(self, kind, seed):
        rng = np.random.default_rng(seed)
        if kind == "sphere":
            spec = SphereConstraint(8)
            x = spec.random_member(rng)
            radius = 0.3
        else:
            spec = LowRankConstraint(2, (4, 4))
            x = spec.random_member(rng)
            radius = 0.1 * np.linalg.svd(spec.to_matrix(x), compute_uv=False)[1]
        args = (spec, x, radius, self.TRIALS, seed + 2)
        assert quadratic_bound_margin(*args) == reference_quadratic_bound_margin(*args)

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("kind", KINDS)
    def test_finite_difference_check(self, kind, seed):
        rng = np.random.default_rng(seed)
        spec = _spec(kind, rng)
        x = spec.random_member(rng)
        step = 1e-6 if kind in ("sphere", "lowrank") else 1e-4
        trials = SAMPLE_BLOCK + 100 if seed == 0 else 100
        args = (spec, x, step, trials, seed + 1)
        assert finite_difference_check(*args) == reference_finite_difference_check(*args)
