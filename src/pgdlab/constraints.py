"""Projection operators for the four supported constraint families.

Each constraint set C comes with two pieces of local geometry:

* ``project(x)``        -- a closest point to x in C (deterministic tie-break),
* ``linearize(x)``      -- the derivative of the projection at x (a scaled
  orthogonal projector onto a tangent basis, kept as the Kronecker factors
  of its columns) together with the pair (radius, curvature): inside a ball
  of ``radius`` around x the projection deviates from its linearization by
  at most ``curvature * ||step||^2``.

A point is in C when it is its own projection (``relative_residuals``). The
four families are an affine subspace {Cx = d}, the s-sparse vectors, the unit
sphere, and the matrices of rank at most r (flattened column-major).
"""

from __future__ import annotations

import warnings

import numpy as np

from .errors import ConstraintDomainError, NonUniqueProjectionWarning

# Singular values below RANK_RTOL * sigma_1 count as zero.
RANK_RTOL = 1e-10

SQRT2 = float(np.sqrt(2.0))
# Quadratic remainder coefficient of rank-r truncation at a rank-r point.
RANK_CURVATURE = 4.0 * (1.0 + SQRT2)


# The Monte-Carlo probes project their samples at most this many rows at a
# time. Against one point at a time, the peak RSS of four ``pgdlab verify
# --suite all`` commands (83.2 MB) grew by 10.9 MB with all 10,000 samples of
# a quadratic bound check in one block, 1.2 MB with blocks of 1,000 and
# 0.2 MB with blocks of 250; the speed was the same from 100 to 1,000 rows.
SAMPLE_BLOCK = 250


def row_dots(x):
    """x_i @ x_i for each row x_i of a block (a scalar for a vector), with the
    bits of the 1-D dot."""
    return (x[..., None, :] @ x[..., :, None])[..., 0, 0]


@np.errstate(over="ignore")  # cheaper per call than a with-block
def row_norms(x):
    """The 2-norm of each row of x, shape (..., 1). Each gives the bits of
    ``np.linalg.norm`` of that row, and like it no overflow warning (both are
    one BLAS dot); ``norm(x, axis=1)`` does not give the same bits."""
    return np.sqrt(row_dots(x))[..., None]


def relative_residuals(part, v):
    """||part|| / (1 + ||v||) for each row of a block (a scalar for vectors),
    with both divided by max(1, max|v|) first so that neither sum of squares
    overflows; NaN where v is not finite."""
    top = np.maximum(np.max(np.abs(v), axis=-1, keepdims=True), 1.0)
    with np.errstate(over="ignore", invalid="ignore"):
        return (row_norms(part / top) / (1.0 / top + row_norms(v / top)))[..., 0]


def _sphere_norm(x):
    """(y, top, norm) for finite points: each row is x = top * y with
    ||x|| = top * norm and norm = ||y|| (top and norm of shape (..., 1)).
    top is 1 and y is x, except on a row whose sum of squares overflows:
    that row is divided by its max |x_i|."""
    norm = row_norms(x)
    big = np.isinf(norm)
    if not np.count_nonzero(big):
        return x, 1.0, norm
    top = np.where(big, np.max(np.abs(x), axis=-1, keepdims=True), 1.0)
    y = np.where(big, x / top, x)
    return y, top, np.where(big, row_norms(y), norm)


def _as_points(x, n):
    """x as one point (flattened to length n) or a (k, n) block of points, one
    per row; checked once for its width and finite entries."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 2:
        x = x.reshape(-1)
    if x.shape[-1] != n:
        rows = "rows of " if x.ndim == 2 else ""
        raise ValueError(f"x has {rows}length {x.shape[-1]}, expected {n}")
    # count_nonzero: a fraction of the cost of .all() on a short vector
    if np.count_nonzero(np.isfinite(x)) != x.size:
        raise ValueError("x contains non-finite entries")
    return x


def _as_vector(x, n):
    return _as_points(np.asarray(x, dtype=float).reshape(-1), n)


class Linearization:
    """Derivative of a projection at a point, with its quadratic error bound.

    The derivative is ``scale * B B^T``, a scaled orthogonal projector onto the
    span of the basis B (ambient x tangent dimension, orthonormal columns).
    ``radius`` may be ``inf``; ``curvature`` is finite and nonnegative.
    ``basis`` is the array B, or the factors (R, L, ia, ib) of its columns:
    column c is kron(R[:, ia[c]], L[:, ib[c]]), and an array B is the pair
    R = [[1.0]], L = B. Each entry of B is the one product ``R[j, a] * L[i, b]``.
    """

    def __init__(self, basis, radius, curvature, scale=1.0):
        # An array B is read as given: how a product with it rounds depends on its layout.
        self._array = None if isinstance(basis, tuple) else np.asarray(basis, dtype=float)
        if self._array is not None:
            k = self._array.shape[1]
            basis = (np.ones((1, 1)), self._array, np.zeros(k, dtype=int), np.arange(k))
        self.right, self.left, self.ia, self.ib = basis
        self.radius = float(radius)
        self.curvature = float(curvature)
        self.scale = float(scale)
        if not self.radius > 0:
            raise ValueError("radius must be positive")
        if self.curvature < 0:
            raise ValueError("curvature must be nonnegative")
        if not 0 < self.scale < np.inf:
            raise ValueError("scale must be finite and positive")

    def rows(self, index=None):
        """B[index] for an array of row indices (all rows for ``None``): row p
        pairs row j of R with row i of L, j, i = divmod(p, len(L))."""
        m = len(self.left)
        index = np.arange(m * len(self.right)) if index is None else np.asarray(index, dtype=int)
        out = np.empty((index.size, self.dimension))
        step = max(1, 2**14 // max(self.dimension, 1))  # 128 KiB per factor gathered
        for start in range(0, index.size, step):
            j, i = np.divmod(index[start:start + step], m)
            np.multiply(self.right[j].take(self.ia, axis=1), self.left[i].take(self.ib, axis=1),
                        out=out[start:start + step])
        return out

    @property
    def basis(self):
        """The array B: the one given, or formed from the factors on each read."""
        return self.rows() if self._array is None else self._array

    @property
    def dimension(self):
        """The tangent dimension, B's number of columns."""
        return self.ia.size

    def _blocks(self):
        """B's columns as Kronecker blocks (a, b, pos), a a slice of R's columns
        and b an array of L's: column pos[s, t] is kron(R[:, a][:, s], L[:, b[t]]).
        A block is a run of columns of R that pair with the same columns of L;
        a rank-r tangent basis has two, (a < r, every b) and (a >= r, b < r),
        and an array basis one, a = [0]."""
        pos = np.full((self.right.shape[1], self.left.shape[1]), -1)
        pos[self.ia, self.ib] = np.arange(self.dimension)
        paired = pos >= 0
        ends = [*((paired[1:] != paired[:-1]).any(1).nonzero()[0] + 1).tolist(), len(pos)]
        blocks = []
        for start, stop in zip([0, *ends], ends):
            b = paired[start].nonzero()[0]
            if b.size:
                blocks.append((slice(start, stop), b, pos[start:stop].take(b, 1)))
        return blocks

    def cross_gram(self, other, weights=None):
        """B^T B' for the basis B' of ``other``: entry (c, c') is (R^T R')[ia[c],
        ia'[c']] * (L^T L')[ib[c], ib'[c']] (Van Loan, "The ubiquitous Kronecker
        product", J. Comput. Appl. Math. 2000); for array bases ``B.T @ B'`` bit for bit.

        With ``weights`` w, one per row, it is B^T diag(w) B'. Writing W[j, i]
        for w at row j * len(L) + i, entry (c, c') is sum_j R[j, a] R'[j, a']
        (L^T diag(W[j]) L')[b, b'], formed for one of B's ``_blocks`` at a time
        with two matmuls, contracting over j or over i first, whichever leaves
        the smaller intermediate, and written into place: no array has as many
        rows as B."""
        if weights is None:
            gram = (self.right.T @ other.right).take(self.ia, 0).take(other.ia, 1)
            gram *= (self.left.T @ other.left).take(self.ib, 0).take(other.ib, 1)
            return gram
        W = np.asarray(weights, dtype=float).reshape(len(self.right), len(self.left))
        gram = np.empty((self.dimension, other.dimension))
        for a, b, pos in self._blocks():
            R, L = self.right[:, a], self.left.take(b, 1)
            if len(L) * R.shape[1] <= len(R) * b.size:
                _weighted_rows(R, L, W, other.right, other.left, other.ia, other.ib, pos, gram)
            else:
                _weighted_rows(L, R, W.T, other.left, other.right, other.ib, other.ia, pos.T,
                               gram)
        return gram

    def apply(self, vec):
        """Apply the derivative to a vector or to each row of a (k, n) block."""
        vec = np.asarray(vec, dtype=float)
        if vec.ndim != 2:
            vec = vec.reshape(-1)
        basis = self.basis
        return self.scale * (basis @ (basis.T @ vec[..., :, None]))[..., 0]

    def operator_norm(self):
        """Spectral norm of the derivative."""
        return self.scale if self.dimension else 0.0


def _weighted_rows(R, L, W, R2, L2, ia2, ib2, pos, out):
    """out[pos[s, t]] = sum_j sum_i R[j, s] L[i, t] W[j, i] R2[j, ia2] * L2[i, ib2],
    contracted over j first: rows of B^T diag(w) B' for one block of B."""
    Y = (W[:, :, None] * R[:, None, :]).reshape(len(R), -1).T @ R2  # (i, s) x a2
    Z = Y.reshape(len(L), R.shape[1], -1).take(ia2, axis=2)
    Z *= L2.take(ib2, axis=1)[:, None, :]  # i x s x c'
    out[pos.T] = (L.T @ Z.reshape(len(L), -1)).reshape(L.shape[1], R.shape[1], -1)


def coordinate_basis(support, n):
    """The unit vectors e_i, i in ``support``, as the columns of an n x |support| matrix."""
    basis = np.zeros((n, len(support)))
    basis[support, np.arange(len(support))] = 1.0
    return basis


def rank_tangent_factors(U, V):
    """The factors (R, L, ia, ib) (see ``Linearization``), R = [V | V_perp] and
    L = [U | U_perp], of an orthonormal basis of the tangent space to the rank-r
    matrices at U S V^T, flattened column-major. Its columns pair the row-space
    directions with all column directions and the row-space complement with
    the column-space directions; stacking them reproduces the tangent projector.
    """
    U = np.asarray(U, dtype=float)
    V = np.asarray(V, dtype=float)
    if U.ndim != 2 or V.ndim != 2 or U.shape[1] != V.shape[1]:
        raise ValueError("U and V must be matrices with the same number of columns")
    r = U.shape[1]
    for name, M in (("U", U), ("V", V)):
        defect = np.linalg.norm(M.T @ M - np.eye(r))
        if defect > 1e-10:
            raise ValueError(f"{name} columns are not orthonormal (defect {defect:.3e})")
    qu, _ = np.linalg.qr(U, mode="complete")
    qv, _ = np.linalg.qr(V, mode="complete")
    m, n = len(U), len(V)
    own, rest_m, rest_n = np.arange(r), np.arange(r, m), np.arange(r, n)
    ia = np.concatenate([np.repeat(own, r), np.repeat(own, m - r), np.repeat(rest_n, r)])
    ib = np.concatenate([np.tile(own, r), np.tile(rest_m, r), np.tile(own, n - r)])
    return np.hstack([V, qv[:, r:]]), np.hstack([U, qu[:, r:]]), ia, ib


def rank_tangent_basis(U, V):
    """The tangent basis of ``rank_tangent_factors`` as an array, with the bits of ``np.kron``."""
    return Linearization(rank_tangent_factors(U, V), np.inf, 0.0).basis


class Constraint:
    """Common interface of all constraint families."""

    kind = "abstract"
    n = 0

    def project(self, x):
        """A closest point to x, or to each row of a (k, n) block of points."""
        return self._project(_as_points(x, self.n))

    def _project(self, x):
        """``project`` without its checks, for x already a finite point or
        block of width n (the PGD loop checks its iterates itself)."""
        raise NotImplementedError

    def linearize(self, x):
        raise NotImplementedError

    def random_member(self, rng):
        """Sample some point of the constraint set (used by the check suites)."""
        raise NotImplementedError

    def __repr__(self):
        return f"{type(self).__name__}(n={self.n})"


class AffineConstraint(Constraint):
    """Affine subspace {x : Cx = d} with C full row rank, p < n.

    The projection is computed from a compact SVD of C; the orthonormal basis
    of the null space of C is cached because the derivative and the reduced
    least-squares solve both reuse it.
    """

    kind = "affine"

    def __init__(self, C, d):
        C = np.asarray(C, dtype=float)
        d = np.asarray(d, dtype=float).reshape(-1)
        if C.ndim != 2:
            raise ValueError("C must be a matrix")
        p, n = C.shape
        if not (0 < p < n):
            raise ValueError(f"need 0 < p < n, got shape {C.shape}")
        if d.size != p:
            raise ValueError(f"d has length {d.size}, expected {p}")
        if not (np.all(np.isfinite(C)) and np.all(np.isfinite(d))):
            raise ValueError("C and d must be finite")
        U, sig, Vt = np.linalg.svd(C, full_matrices=True)
        if sig[-1] <= RANK_RTOL * sig[0]:
            raise ValueError("C is rank deficient (smallest singular value below tolerance)")
        self.C = C
        self.d = d
        self.n = n
        self.p = p
        self.null_basis = Vt[p:].T  # n x (n-p), orthonormal columns
        self.tangent_projector = self.null_basis @ self.null_basis.T
        # Minimum-norm solution of Cx = d.
        self.offset = Vt[:p].T @ (U.T @ d / sig)

    # Each family binds project in its own namespace, so that a tracer can
    # wrap the projections of each family apart.
    project = Constraint.project

    def _project(self, x):
        return (self.tangent_projector @ x[..., :, None])[..., 0] + self.offset

    def linearize(self, x):
        _as_vector(x, self.n)
        return Linearization(self.null_basis, np.inf, 0.0)

    def random_member(self, rng):
        return self.null_basis @ rng.standard_normal(self.n - self.p) + self.offset


class SparsityConstraint(Constraint):
    """Vectors with at most s nonzero entries."""

    kind = "sparse"

    def __init__(self, s, n):
        s = int(s)
        n = int(n)
        if not (1 <= s <= n):
            raise ValueError(f"need 1 <= s <= n, got s={s}, n={n}")
        self.s = s
        self.n = n

    def top_support(self, x):
        """Indices of the s largest-magnitude entries (of each row of a block),
        ascending; ties keep the smaller index."""
        x = _as_points(x, self.n)
        return np.sort(self._top(x), axis=-1)

    def _top(self, x):
        return np.argsort(-np.abs(x), axis=-1, kind="stable")[..., : self.s]

    project = Constraint.project

    def _project(self, x):
        keep = self._top(x)
        if x.ndim == 2:
            keep = (np.arange(len(x))[:, None], keep)
        out = np.zeros_like(x)
        out[keep] = x[keep]
        return out

    def linearize(self, x):
        x = _as_vector(x, self.n)
        mags = np.abs(x)
        order = np.argsort(-mags, kind="stable")  # the order that _top cuts at s
        smallest_kept = mags[order[self.s - 1]]
        largest_dropped = mags[order[self.s]] if self.s < self.n else 0.0
        if smallest_kept <= largest_dropped or smallest_kept == 0.0:
            raise ConstraintDomainError(
                "sparse: derivative needs a strict magnitude gap at rank s "
                f"(|x|_[s]={smallest_kept:.3e}, |x|_[s+1]={largest_dropped:.3e})"
            )
        # Support is stable within (gap)/sqrt(2); at an exactly s-sparse point
        # the dropped boundary is zero and the radius reduces to |x_[s]|/sqrt(2).
        radius = (smallest_kept - largest_dropped) / SQRT2
        return Linearization(coordinate_basis(np.sort(order[: self.s]), self.n), radius, 0.0)

    def random_member(self, rng):
        out = np.zeros(self.n)
        support = rng.choice(self.n, size=self.s, replace=False)
        out[support] = rng.standard_normal(self.s)
        return out


class SphereConstraint(Constraint):
    """Unit sphere {x : ||x|| = 1} in R^n, n >= 2.

    The origin projects to the first basis vector.
    """

    kind = "sphere"

    def __init__(self, n):
        n = int(n)
        if n < 2:
            raise ValueError(
                f"need n >= 2, got n={n}: the sphere in R^1 is two points with no tangent space"
            )
        self.n = n

    project = Constraint.project

    def _project(self, x):
        x, _, norm = _sphere_norm(x)
        if np.count_nonzero(norm) == norm.size:
            return x / norm
        zero = norm == 0.0
        out = x / np.where(zero, 1.0, norm)
        out[..., :1] = np.where(zero, 1.0, out[..., :1])
        return out

    def linearize(self, x):
        x = _as_vector(x, self.n)
        # ||x||^2 overflows past ~1e154: _sphere_norm then rescales, and
        # 2 / inf = 0.0 is the correctly rounded curvature.
        with np.errstate(over="ignore"):
            _, top, norm = _sphere_norm(x)
            norm = (top * norm)[0]
            if norm == 0.0:
                raise ConstraintDomainError("sphere: derivative undefined at the origin")
            curvature = 2.0 / norm**2
        # A complete QR of x: the columns after the first span the tangent space x^perp.
        q, _ = np.linalg.qr(x.reshape(-1, 1), mode="complete")
        return Linearization(q[:, 1:], np.inf, curvature, scale=1.0 / norm)

    def random_member(self, rng):
        v = rng.standard_normal(self.n)
        return v / np.linalg.norm(v)


class LowRankConstraint(Constraint):
    """Matrices of rank at most r, flattened column-major to length m*n.

    The derivative at a rank-r point is the projector onto the tangent space
    of the fixed-rank manifold; its quadratic remainder constant is the
    universal 4(1+sqrt(2)).
    """

    kind = "lowrank"

    def __init__(self, r, shape):
        m_mat, n_mat = (int(v) for v in shape)
        r = int(r)
        if m_mat < 1 or n_mat < 1:
            raise ValueError("matrix shape must be positive")
        if not (1 <= r <= min(m_mat, n_mat)):
            raise ValueError(f"need 1 <= r <= min{m_mat, n_mat}, got r={r}")
        self.r = r
        self.shape = (m_mat, n_mat)
        self.n = m_mat * n_mat

    def to_matrix(self, x):
        x = _as_vector(x, self.n)
        return x.reshape(self.shape, order="F")

    def to_vector(self, X):
        return np.asarray(X, dtype=float).reshape(-1, order="F")

    project = Constraint.project

    def _project(self, x):
        # Each row read column-major as an m x n matrix: a view, as in to_matrix.
        X = x.reshape(x.shape[:-1] + self.shape[::-1]).swapaxes(-1, -2)
        U, sig, Vt = np.linalg.svd(X, full_matrices=False)
        r = self.r
        if r < sig.shape[-1]:
            tol = RANK_RTOL * sig[..., 0]
            kept = sig[..., r - 1]
            if np.count_nonzero((kept > tol) & (kept - sig[..., r] <= tol)):
                warnings.warn(
                    "rank-r truncation is not unique (tied singular values); "
                    "returning the SVD routine's selection",
                    NonUniqueProjectionWarning,
                    stacklevel=3,
                )
        Y = (U[..., :r] * sig[..., None, :r]) @ Vt[..., :r, :]
        return Y.swapaxes(-1, -2).reshape(x.shape)

    def linearize(self, x):
        U, sig, Vt = np.linalg.svd(self.to_matrix(x), full_matrices=False)
        tol = RANK_RTOL * (sig[0] if sig[0] > 0 else 1.0)
        if sig[self.r - 1] <= tol:
            raise ConstraintDomainError(
                f"lowrank: derivative needs rank exactly {self.r}, "
                f"but sigma_{self.r}={sig[self.r - 1]:.3e} is below tolerance"
            )
        if self.r < sig.size and sig[self.r] > tol:
            raise ConstraintDomainError(
                f"lowrank: derivative needs rank exactly {self.r}, "
                f"but sigma_{self.r + 1}={sig[self.r]:.3e} is above tolerance"
            )
        factors = rank_tangent_factors(U[:, : self.r], Vt[: self.r].T)
        return Linearization(factors, np.inf, RANK_CURVATURE)

    def random_member(self, rng):
        m_mat, n_mat = self.shape
        F = rng.standard_normal((m_mat, self.r))
        G = rng.standard_normal((n_mat, self.r))
        return self.to_vector(F @ G.T)


def sample_blocks(count):
    """Sizes of the successive blocks of at most SAMPLE_BLOCK rows that cover ``count`` samples."""
    count = int(count)
    return [min(SAMPLE_BLOCK, count - start) for start in range(0, count, SAMPLE_BLOCK)]


def draw_directions(rng, rows, n):
    """``rows`` samples of n standard normals and then one uniform each, drawn
    in the order that a loop drawing one sample at a time would draw them."""
    normals = np.empty((rows, n))
    uniforms = []
    for row in normals:
        rng.standard_normal(out=row)
        uniforms.append(rng.random())
    return normals, uniforms


def finite_difference_check(constraint, x, step=1e-6, trials=100, seed=0):
    """Max relative residual of a central-difference probe of the derivative.

    For each random unit direction u the probe compares
    (P(x + h u) - P(x - h u)) / (2 h) against the linearization applied to u.
    """
    if not 1e-8 <= step <= 1e-4:
        raise ValueError("step must lie in [1e-8, 1e-4]")
    x = _as_vector(x, constraint.n)
    lin = constraint.linearize(x)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for rows in sample_blocks(trials):
        u = rng.standard_normal((rows, constraint.n))
        u /= row_norms(u)
        forward = constraint.project(x + step * u)
        backward = constraint.project(x - step * u)
        probe = (forward - backward) / (2.0 * step)
        reference = lin.apply(u)
        residual = row_norms(probe - reference) / (1.0 + row_norms(reference))
        worst = max(worst, float(residual.max()))
    return worst


def quadratic_bound_margin(constraint, x, radius, trials=1000, seed=0):
    """Worst-case slack of the quadratic remainder bound over random steps.

    Samples steps uniformly in the ball of the given radius and returns the
    minimum of ``curvature * ||step||^2 - ||P(x+step) - P(x) - dP(x) step||``;
    a nonnegative value means the bound held on every sample.
    """
    x = _as_vector(x, constraint.n)
    lin = constraint.linearize(x)
    if not radius < lin.radius:
        raise ValueError("sampling radius must be smaller than the linearization radius")
    rng = np.random.default_rng(seed)
    base = constraint.project(x)
    worst = np.inf
    for rows in sample_blocks(trials):
        direction, uniforms = draw_directions(rng, rows, constraint.n)
        direction /= row_norms(direction)
        # Python's float power (libm pow), not numpy's, whose vector loops may
        # round differently: the lengths one sample at a time gave, bit for bit.
        lengths = [radius * u ** (1.0 / constraint.n) for u in uniforms]
        delta = np.array(lengths)[:, None] * direction
        actual = constraint.project(x + delta)
        residual = row_norms(actual - base - lin.apply(delta))[:, 0]
        margin = lin.curvature * np.array([float(v) ** 2 for v in lengths]) - residual
        worst = min(worst, float(margin.min()))
    return worst
