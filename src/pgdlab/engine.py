"""Fixed-step projected gradient descent with trace recording."""

from __future__ import annotations

import warnings
import weakref
from dataclasses import dataclass, field

import numpy as np

from . import analysis
from .constraints import Constraint, _as_points, relative_residuals, row_dots
from .errors import DivergenceError, InfeasibleStartWarning, ProblemFileError

MEMBERSHIP_TOL = 1e-10
ERROR_FLOOR_SCALE = 1e-12
STAGNATION_RTOL = 1e-15
STAGNATION_RUN = 10


@dataclass(frozen=True, init=False, eq=False)
class Problem:
    """Least-squares objective 0.5 * ||A x - b||^2 over a constraint set.

    A is a matrix, or a vector: the diagonal of a square A, which the problem
    copies. A square matrix with no nonzero entry off its diagonal (a
    completion sampling mask, for one) is kept as its diagonal only and
    applied entrywise; ``A`` then builds the dense matrix on each read. Any
    other matrix is kept as given, not copied. Problems compare and hash by
    identity: their fields are arrays.
    """

    b: np.ndarray
    constraint: Constraint
    diagonal: np.ndarray | None = field(repr=False)
    _matrix: np.ndarray | None = field(repr=False)
    _ata_extremes: tuple | None = field(default=None, repr=False)
    _tangent_extremes: tuple | None = field(default=None, repr=False)

    def __init__(self, A, b, constraint):
        A = np.asarray(A, dtype=float)
        if A.ndim not in (1, 2):
            raise ValueError("A must be a matrix or the diagonal of a square one")
        # A ValueError naming the field, which is also its path in a problem
        # file; load_problem checks A and b before it builds a problem, so
        # only a library caller meets these two.
        if not np.all(np.isfinite(A)):
            raise ProblemFileError("A", "entries must be finite")
        if A.ndim == 2 and A.shape[0] == A.shape[1] and (
                np.count_nonzero(A) == np.count_nonzero(np.diagonal(A))):
            A = np.diagonal(A)
        diagonal = A.copy() if A.ndim == 1 else None
        object.__setattr__(self, "_matrix", A if diagonal is None else None)
        object.__setattr__(self, "diagonal", diagonal)
        m, n = self.shape
        b = np.asarray(b, dtype=float).reshape(-1)
        if not np.all(np.isfinite(b)):
            raise ProblemFileError("b", "entries must be finite")
        if b.size != m:
            raise ValueError(f"b has length {b.size}, expected {m}")
        if constraint.n != n:
            raise ValueError(f"constraint dimension {constraint.n} does not match A columns {n}")
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "constraint", constraint)

    @property
    def A(self):
        """The dense matrix; for a diagonal A, built anew on each read."""
        return self._matrix if self.diagonal is None else np.diag(self.diagonal)

    @property
    def shape(self):
        return self._matrix.shape if self.diagonal is None else (self.diagonal.size,) * 2

    # On a finite x the dense product with a diagonal A adds exact zeros to
    # d_i * x_i, so the entrywise product gives the same bits, column by column.
    def apply(self, x):
        """A @ x for a vector, a block of columns or a stack of such blocks.
        Each block has the bits of its product alone; a one-column block, or
        any column for a diagonal A, those of the vector product."""
        if self.diagonal is None:
            return self._matrix @ x
        return self.diagonal * x if np.ndim(x) < 2 else self.diagonal[:, None] * x

    def apply_t(self, r):
        """A^T @ r for the shapes of ``apply``, with its bits per block and column."""
        if self.diagonal is None:
            return self._matrix.T @ r
        return self.diagonal * r if np.ndim(r) < 2 else self.diagonal[:, None] * r

    def ata_extremes(self):
        """Largest and smallest eigenvalues of A^T A (see analysis.ata_extremes),
        computed on the first call: a problem does not change."""
        if self._ata_extremes is None:
            if self.diagonal is None:
                pair = analysis.ata_extremes(self._matrix)
            else:
                squares = self.diagonal**2
                pair = float(squares.max()), float(squares.min())
            object.__setattr__(self, "_ata_extremes", pair)
        return self._ata_extremes

    def tangent_extremes(self, linearization):
        """Largest and smallest eigenvalues of W = (A B)^T (A B) for the basis B
        of ``linearization``, computed on the first call for that object: the
        last pair is kept with a weak reference to it, so the memo keeps no
        linearization alive, and any other linearization recomputes.

        For a diagonal A = diag(d) only the rows with d != 0 are built, since
        zero rows change how the sums round, and scaled by d (an exact x 1.0
        for a 0/1 mask). The block is dropped before the eigensolve (see
        analysis.extreme_eigenvalues): at completion scale it is the largest
        array of ``analyze`` (83 MB at 200 x 150, r = 5, s = 6000).
        """
        memo = self._tangent_extremes
        if memo is None or memo[0]() is not linearization:
            if self.diagonal is None:
                AB = self.apply(linearization.basis)
            else:
                kept = np.flatnonzero(self.diagonal)
                AB = linearization.rows(kept)
                AB *= self.diagonal[kept, None]
            gram = AB.T @ AB
            del AB
            memo = weakref.ref(linearization), analysis.extreme_eigenvalues(gram)
            object.__setattr__(self, "_tangent_extremes", memo)
        return memo[1]

    def objective(self, x):
        r = self.apply(x) - self.b
        return 0.5 * float(r @ r)

    def gradient(self, x):
        return self.apply_t(self.apply(x) - self.b)


@dataclass(eq=False)
class Trace:
    """Record of a PGD run: the error and objective of every iterate, the last
    iterate and the stop. A run that diverged at iteration k stops at x_{k-1}.
    Traces compare by identity: their fields are arrays."""

    final: np.ndarray
    objectives: np.ndarray
    errors: np.ndarray | None
    stop_reason: str
    error_floor: float | None = None

    @property
    def n_iterations(self):
        return int(self.objectives.size - 1)

    def write_csv(self, path):
        # Formatted from Python floats and written 256 rows at a time: the
        # whole file as one string raised the peak RSS of a process running
        # the acceptance bundles by about 0.2 MB.
        with open(path, "w", encoding="ascii") as fh:
            fh.write("k,error,objective\n")
            for start in range(0, self.objectives.size, 256):
                stop = start + 256
                objectives = self.objectives[start:stop].tolist()
                errors = ([""] * len(objectives) if self.errors is None
                          else map(repr, self.errors[start:stop].tolist()))
                fh.write("".join([f"{k},{err},{obj!r}\n"
                                  for k, err, obj in zip(range(start, stop), errors, objectives)]))


class TraceBlock(tuple):
    """The ``Trace`` of each row of a block run by ``run_pgd``."""

    @property
    def n_iterations(self):
        """Iterations summed over the rows."""
        return sum(trace.n_iterations for trace in self)


def run_pgd(problem, eta, x0, max_iters=10_000, error_floor=None, x_ref=None):
    """Iterate x <- P(x - eta * grad), recording errors and objectives.

    Stops at ``max_iters``, when the distance to ``x_ref`` falls below
    ``error_floor``, or when the iterate stagnates at machine precision
    (``STAGNATION_RUN`` steps in a row within ``STAGNATION_RTOL`` of its
    norm). x0 is feasible when ||P(x0) - x0|| / (1 + ||x0||) <= ``MEMBERSHIP_TOL``;
    a row that is not starts from P(x0), with an ``InfeasibleStartWarning``.

    x0 is one start, or a (k, n) block of starts run side by side, with
    ``eta`` and ``error_floor`` a scalar or one value per row; a block gives
    a ``TraceBlock`` of one ``Trace`` per row. Each row has the bits of its
    run alone. A row that diverges at iteration k stops as "diverged" at
    x_{k-1}; the run of one start raises DivergenceError(k, ||x_{k-1}||).
    ``x_ref`` is read as a column-major vector, as ``analyze_problem`` reads
    x*, so ``constraint.to_matrix(x*)`` measures the errors of x*.

    ValueError, before any iteration, for: a step not finite and positive;
    an ``eta`` or ``error_floor`` with neither 1 value nor k; an
    ``error_floor`` that is NaN or negative, or given without ``x_ref``; an
    ``x_ref`` not of length n or not finite; a ``max_iters`` not a whole
    number >= 0.

    Stops are decided at every iteration, the bookkeeping once per window.
    An iteration computes only what can stop a row there: the step, its
    finiteness, the projection, the residual and, with ``x_ref``, the error.
    A and A^T are applied by ``Problem.apply`` and ``apply_t`` to the rows
    held as a stack of (n, 1) columns, and the residual is kept as one.
    The objectives and the step and iterate norms of the stall test are
    computed once per window of at most ``STAGNATION_RUN`` iterations. A
    window is no longer than the fewest iterations a row needs to stagnate,
    and ends early when a row reaches its floor or diverges. So every stop
    falls on the last iteration of a window, and no row is projected past it.
    """
    spec = problem.constraint
    x0 = np.asarray(x0, dtype=float)
    block = x0.ndim == 2
    x = (x0 if block else x0.reshape(1, -1)).copy()
    if x.shape[1] != spec.n:
        rows = "rows of " if block else ""
        raise ValueError(f"x0 has {rows}length {x.shape[1]}, expected {spec.n}")
    k = len(x)
    steps = analysis.require_steps(eta)
    if not (max_iters >= 0 and float(max_iters).is_integer()):  # also refuses NaN
        raise ValueError(f"max_iters must be a whole number >= 0, got {max_iters!r}")
    max_iters = int(max_iters)
    if error_floor is not None and x_ref is None:
        raise ValueError("error_floor needs x_ref, the point the error is measured to")
    for name, value in (("eta", steps), ("error_floor", error_floor)):
        if np.ndim(value) > 1 or np.size(value) not in (1, k):
            raise ValueError(f"{name} needs 1 value or 1 per start, {k}; got {np.size(value)}")
    rates = np.broadcast_to(steps, (k,))[:, None]
    if x_ref is not None:
        x_ref = np.asarray(x_ref, dtype=float).reshape(-1, order="F")
        if x_ref.size != spec.n:
            raise ValueError(f"x_ref has length {x_ref.size}, expected {spec.n}")
        if not _finite(x_ref):
            raise ValueError("x_ref entries must be finite")
        if error_floor is None:
            error_floor = ERROR_FLOOR_SCALE * (1.0 + np.linalg.norm(x_ref))
    floors = None
    if error_floor is not None:
        floors = np.asarray(error_floor, dtype=float)
        if not np.all(floors >= 0):  # also refuses NaN
            raise ValueError(f"error_floor must be >= 0, got {floors[~(floors >= 0)].tolist()}")
        floors = np.broadcast_to(floors, (k,))

    # The checks of project, but the frames of the loop's _project calls, so
    # that a warning names the caller; not <=, so a NaN residual is projected.
    start = spec._project(_as_points(x, spec.n))
    projected = ~(relative_residuals(start - x, x) <= MEMBERSHIP_TOL)
    if np.count_nonzero(projected):
        x[projected] = start[projected]
        warnings.warn(
            "starting point was not feasible; projected onto the constraint set",
            InfeasibleStartWarning,
            stacklevel=2,
        )

    # The rows of x are the runs still going, ``runs`` their indices, and each
    # has a column in the buffers of objectives and errors. A run that stops
    # leaves the block, so its iterations never depend on the other rows.
    objectives = np.empty((min(max_iters, 1023) + 1, k))
    errors = None if x_ref is None else np.empty_like(objectives)
    traces = [None] * k
    runs = np.arange(k)
    floor = floors
    stagnant = np.zeros(k, dtype=int)
    b = problem.b[:, None]

    def finish(row, stop_reason, iterations):
        run = runs[row]
        traces[run] = Trace(
            final=x[row].copy(),
            objectives=objectives[: iterations + 1, row].copy(),
            errors=None if errors is None else errors[: iterations + 1, row].copy(),
            stop_reason=stop_reason,
            error_floor=None if floors is None else float(floors[run]),
        )

    # Overflow on a diverging run is expected; it is caught by the finiteness
    # checks rather than surfacing as a warning.
    with np.errstate(over="ignore", invalid="ignore"):
        residual = problem.apply(x[:, :, None]) - b
        objectives[0] = 0.5 * row_dots(residual[:, :, 0])
        if errors is not None:
            errors[0] = np.sqrt(row_dots(x - x_ref))
        it = 0
        while runs.size and it < max_iters:
            # No row can stall STAGNATION_RUN times in a row before the last
            # iteration of the window.
            window = min(STAGNATION_RUN - int(stagnant.max()), max_iters - it)
            while it + window >= len(objectives):  # double the buffers
                objectives = np.concatenate((objectives, np.empty_like(objectives)))
                if errors is not None:
                    errors = np.concatenate((errors, np.empty_like(errors)))
            iterates = np.empty((window + 1, *x.shape))
            iterates[0] = x
            residuals = np.empty((window, *residual.shape))
            diverged = reached = None
            for j in range(1, window + 1):
                descent = x - rates * problem.apply_t(residual)[:, :, 0]
                x_next = spec._project(descent) if _finite(descent) else None
                if x_next is None or not _finite(x_next):
                    x_next, diverged = _diverging(spec, x, descent)
                x = iterates[j] = x_next
                residual = residuals[j - 1] = problem.apply(x[:, :, None]) - b
                if errors is not None:
                    error = errors[it + j] = np.sqrt(row_dots(x - x_ref))
                    reached = error < floor
                    if np.count_nonzero(reached):
                        break
                if diverged is not None:
                    break
            it += j
            # The window's objectives, and the norms of its steps and iterates
            # as one stacked dot.
            objectives[it - j + 1 : it + 1] = 0.5 * row_dots(
                residuals[:j].reshape(-1, residual.shape[1])).reshape(j, -1)
            steps = np.concatenate((iterates[1 : j + 1] - iterates[:j], iterates[1 : j + 1]))
            norms = np.sqrt(row_dots(steps.reshape(-1, x.shape[1]))).reshape(2, j, -1)
            stall = STAGNATION_RTOL * (1.0 + norms[1])
            stalled = (norms[0] <= stall) & np.isfinite(stall)
            # Stalls in a row at the window's end: all j added to the count,
            # or those after the window's last step that was not a stall.
            stagnant = np.where(stalled.all(axis=0), stagnant + j, np.argmax(~stalled[::-1], axis=0))
            done = stagnant >= STAGNATION_RUN
            if reached is not None:
                done |= reached
            if diverged is not None:
                done |= diverged
            if not np.count_nonzero(done):
                continue
            for row in np.flatnonzero(done):
                if diverged is not None and diverged[row]:
                    finish(row, "diverged", it - 1)  # the row kept x_{k-1}
                else:
                    hit = reached is not None and reached[row]
                    finish(row, "error_floor" if hit else "stagnation", it)
            keep = ~done
            x, residual, runs, rates, stagnant = (
                x[keep], residual[keep], runs[keep], rates[keep], stagnant[keep])
            objectives = objectives[:, keep]
            errors = None if errors is None else errors[:, keep]
            floor = None if floor is None else floor[keep]
        for row in range(len(x)):
            finish(row, "max_iters", max_iters)

    if block:
        return TraceBlock(traces)
    trace = traces[0]
    if trace.stop_reason == "diverged":
        # hypot keeps the norm finite where x @ x would overflow.
        raise DivergenceError(trace.n_iterations + 1, np.hypot.reduce(trace.final))
    return trace


def _finite(a):
    # count_nonzero: a fraction of the cost of np.all on a small array
    return np.count_nonzero(np.isfinite(a)) == a.size


def _diverging(spec, x, descent):
    """The projected block when some row diverged, and the mask of the rows
    that did: a row whose descent or projection is not finite keeps x."""
    diverged = ~np.all(np.isfinite(descent), axis=1)
    x_next = spec._project(np.where(diverged[:, None], 0.0, descent))
    diverged |= ~np.all(np.isfinite(x_next), axis=1)
    x_next[diverged] = x[diverged]
    return x_next, diverged
