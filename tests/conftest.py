import pytest


@pytest.fixture
def record_projections(monkeypatch):
    """Wrap a constraint's ``project`` so that every point it returns is kept.

    ``run_pgd`` stores no iterates; a test that checks each one records them
    here instead: the projected start (if any), then one point per iteration.
    """

    def record(spec):
        points = []
        project = spec.project

        def recording(x):
            points.append(project(x))
            return points[-1]

        monkeypatch.setattr(spec, "project", recording)
        return points

    return record
