"""Exception and warning types shared across the package."""


class ConstraintDomainError(ValueError):
    """Point lies outside the domain where the requested operation is defined."""


class DivergenceError(RuntimeError):
    """Iteration produced a non-finite iterate."""

    def __init__(self, iteration, norm):
        self.iteration = int(iteration)
        self.norm = float(norm)
        super().__init__(
            f"iterate became non-finite at k={self.iteration} (previous norm {self.norm:.3e})"
        )


class NoCertificateError(RuntimeError):
    """No linear convergence certificate exists for the requested configuration."""


class GenerationError(RuntimeError):
    """Random instance generation failed to satisfy its postconditions."""


class RateEstimationError(ValueError):
    """Not enough usable iterations to estimate an asymptotic rate."""


class StationarityError(ValueError):
    """Candidate point fails the stationarity conditions of its problem family."""


class ProblemFileError(ValueError):
    """Problem file failed to parse or validate.

    ``path`` is the JSON path of the offending element, e.g. ``constraint.s``.
    ``Problem`` raises it for a non-finite ``A`` or ``b``, fields that are
    also the paths of a problem file.
    """

    def __init__(self, path, message):
        self.path = path
        super().__init__(f"{path}: {message}")


class NonUniqueProjectionWarning(UserWarning):
    """The projection had to pick among several equally close candidates."""


class InfeasibleStartWarning(UserWarning):
    """The supplied starting point was projected onto the constraint set."""
