import pytest

from pgdlab.engine import Problem


@pytest.fixture
def record_projections(monkeypatch):
    """Wrap a constraint's unchecked ``_project``, which ``run_pgd`` calls, so
    that every point it returns is kept.

    ``run_pgd`` stores no iterates; a test that checks each one records them
    here instead: the projected start (if any), then one point per iteration.
    ``run_pgd`` projects a block of rows, one start as a one-row block; each
    row is kept as a point.
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
