import numpy as np
import pytest

from pgdlab.engine import Problem


@pytest.fixture
def record_projections(monkeypatch):
    """Wrap a constraint's unchecked ``_project``, which ``run_pgd`` calls, so
    that every point it returns is kept.

    ``run_pgd`` stores no iterates; a test that checks each one records them
    here instead: the projection of the start, which ``run_pgd`` tests the
    start against, then one point per iteration. ``run_pgd`` projects a block
    of rows, one start as a one-row block; each row is kept as a point.
    """

    def record(spec):
        points = []
        project = spec._project

        def recording(x):
            out = project(x)
            if out.ndim == 2:  # not a one-point call of the public project
                points.extend(out)
            return out

        monkeypatch.setattr(spec, "_project", recording)
        return points

    return record


@pytest.fixture
def membership_gap():
    """How far a point is from a constraint set, computed without the
    projection: ||Cx - d|| / (1 + ||d||) for an affine set, the (s+1)-th
    largest magnitude for the s-sparse vectors, | ||x|| - 1 | for the sphere
    (a norm that does not overflow) and sigma_{r+1} / sigma_1 for rank r."""

    def gap(spec, x):
        x = np.asarray(x, dtype=float).reshape(-1)
        if spec.kind == "affine":
            return np.linalg.norm(spec.C @ x - spec.d) / (1.0 + np.linalg.norm(spec.d))
        if spec.kind == "sparse":
            return np.sort(np.abs(x))[::-1][spec.s] if spec.s < spec.n else 0.0
        if spec.kind == "sphere":
            return abs(np.hypot.reduce(x) - 1.0)
        sig = np.linalg.svd(x.reshape(spec.shape, order="F"), compute_uv=False)
        return sig[spec.r] / sig[0] if spec.r < sig.size and sig[0] > 0 else 0.0

    return gap


@pytest.fixture
def refuse_dense_a(monkeypatch):
    """Call to make every later read of ``Problem.A`` on a diagonal problem fail.

    A diagonal problem builds its n x n A on each read; the paths that solve,
    analyze and save it must apply A through the diagonal instead.
    """

    def refuse():
        dense = Problem.A

        def read(problem):
            if problem.diagonal is not None:
                raise AssertionError("read the dense A of a diagonal problem")
            return dense.fget(problem)

        monkeypatch.setattr(Problem, "A", property(read))

    return refuse
