"""JSON problem files.

A problem file is a JSON object with fields

* ``A``: matrix, in one of three forms: nested lists (rows);
  ``{"shape": [m, n], "data": [...]}`` with the data flattened row-major and
  m, n positive whole numbers; or ``{"diagonal": [d_1, ..., d_n]}`` for the
  square matrix diag(d), a flat non-empty array (a completion sampling mask,
  for one, has d_i = 1 on the observed entries and 0 elsewhere),
* ``b``: array,
* ``constraint``: ``{"type": "affine"|"sparse"|"sphere"|"lowrank", ...}`` with
  the variant fields ``C``/``d``, ``s``, ``r``/``shape`` (``s``, ``r`` and
  ``shape`` whole numbers),
* optional ``x_star`` and ``x0``: flat arrays or, for a ``lowrank``
  constraint, also the m x n matrix as nested rows, which is read
  column-major as the constraint vectorizes it.

A whole number is a JSON integer or a number with no fractional part;
``true`` and ``false`` are not numbers. The entries of every array must be
finite and so must its 2-norm. Validation errors carry the JSON path of the
offending field.

:func:`save_problem` writes the diagonal form whenever A is diagonal
(``Problem.diagonal`` is set) and the ``shape``/``data`` form otherwise; it
writes ``x_star`` and ``x0`` flat, a matrix vectorized column-major.
"""

from __future__ import annotations

import json

import numpy as np

from .constraints import AffineConstraint, LowRankConstraint, SparsityConstraint, SphereConstraint
from .engine import Problem
from .errors import ProblemFileError


def _whole(value):
    """``value`` as an int if it is a whole number, else None."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    if isinstance(value, float) and not value.is_integer():  # also refuses nan, inf
        return None
    return int(value)


def _shape_from_json(obj, path):
    dims = [_whole(v) for v in obj] if isinstance(obj, list) else []
    if len(dims) != 2 or None in dims or min(dims) < 1:
        raise ProblemFileError(
            path, f"shape must be two positive whole numbers, got {json.dumps(obj)}"
        )
    return tuple(dims)


def _matrix_from_json(obj, path):
    if isinstance(obj, dict):
        shape = _shape_from_json(obj.get("shape"), path)
        try:
            data = np.asarray(obj["data"], dtype=float)
        except (KeyError, TypeError, ValueError) as exc:
            raise ProblemFileError(path, f"bad matrix object: {exc}") from exc
        if data.size != shape[0] * shape[1]:
            raise ProblemFileError(
                path, f"data length {data.size} does not match shape {shape}"
            )
        mat = data.reshape(shape)  # row-major
    else:
        try:
            mat = np.asarray(obj, dtype=float)
        except (TypeError, ValueError) as exc:
            raise ProblemFileError(path, f"not a numeric matrix: {exc}") from exc
        if mat.ndim != 2:
            raise ProblemFileError(path, f"expected a matrix, got {mat.ndim} dimensions")
    return mat


def _vector_from_json(obj, path):
    try:
        vec = np.asarray(obj, dtype=float).reshape(-1)
    except (TypeError, ValueError) as exc:
        raise ProblemFileError(path, f"not a numeric array: {exc}") from exc
    if not np.all(np.isfinite(vec)):
        raise ProblemFileError(path, "entries must be finite")
    with np.errstate(over="ignore"):
        norm = np.linalg.norm(vec)
    if not np.isfinite(norm):
        raise ProblemFileError(path, "the 2-norm overflows")
    return vec


def _point_from_json(obj, path, constraint):
    """``x_star`` or ``x0`` as a vector of the constraint's dimension."""
    if isinstance(obj, list) and any(isinstance(v, list) for v in obj):
        try:
            mat = np.asarray(obj, dtype=float)
        except (TypeError, ValueError) as exc:
            raise ProblemFileError(path, f"not a numeric array: {exc}") from exc
        if constraint.kind != "lowrank":
            raise ProblemFileError(path, "expected a flat array, got a nested one")
        if mat.shape != constraint.shape:
            raise ProblemFileError(
                path,
                f"a nested array must be the {constraint.shape} matrix, got shape {mat.shape}",
            )
        obj = mat.reshape(-1, order="F")
    vec = _vector_from_json(obj, path)
    if vec.size != constraint.n:
        raise ProblemFileError(path, f"length {vec.size} does not match dimension {constraint.n}")
    return vec


def _diagonal_from_json(obj, path):
    """The diagonal of a ``{"diagonal": [...]}`` matrix object."""
    if set(obj) != {"diagonal"}:
        raise ProblemFileError(
            path, f"a diagonal matrix has only the field 'diagonal', got {sorted(obj)}"
        )
    path = f"{path}.diagonal"
    entries = obj["diagonal"]
    if not isinstance(entries, list) or any(isinstance(v, list) for v in entries):
        raise ProblemFileError(path, "expected a flat array of numbers")
    if not entries:
        raise ProblemFileError(path, "must not be empty")
    return _vector_from_json(entries, path)


# Each constraint type's fields besides "type", which save_problem writes from
# the constraint's attributes of the same names, and its constructor, which
# takes the fields and then n, the number of columns of A.
_CONSTRAINTS = {
    "affine": (("C", "d"), lambda C, d, n: AffineConstraint(C, d)),
    "sparse": (("s",), SparsityConstraint),
    "sphere": ((), SphereConstraint),
    "lowrank": (("r", "shape"), lambda r, shape, n: LowRankConstraint(r, shape)),
}


def _constraint_from_json(doc, n):
    """The ``constraint`` object as a constraint on R^n. Its ``s``, ``r`` and
    ``shape``, which a constructor would truncate, must be whole numbers
    whatever the type; an object-form ``C`` is read as a matrix."""
    if isinstance(doc, dict):
        for key in ("s", "r"):
            if key in doc and _whole(doc[key]) is None:
                raise ProblemFileError(
                    "constraint", f"{key} must be a whole number, got {json.dumps(doc[key])}"
                )
        if "shape" in doc:
            _shape_from_json(doc["shape"], "constraint")
        if isinstance(doc.get("C"), dict):
            C = _matrix_from_json(doc["C"], "constraint.C")
            if not np.all(np.isfinite(C)):
                raise ProblemFileError("constraint.C", "entries must be finite")
            doc = {**doc, "C": C}
    if not isinstance(doc, dict) or "type" not in doc:
        raise ProblemFileError("constraint", "constraint JSON must be an object with a 'type' field")
    kind = doc["type"]
    if not isinstance(kind, str) or kind not in _CONSTRAINTS:
        raise ProblemFileError("constraint", f"unknown constraint type {kind!r}")
    fields, build = _CONSTRAINTS[kind]
    try:
        spec = build(*(doc[key] for key in fields), n)
    except (KeyError, TypeError, ValueError) as exc:
        raise ProblemFileError("constraint", str(exc)) from exc
    if spec.n != n:
        raise ProblemFileError(
            "constraint", f"constraint dimension {spec.n} does not match ambient {n}"
        )
    return spec


def _constraint_to_json(spec):
    """The ``constraint`` object of a problem file, as lists and numbers."""
    fields, _ = _CONSTRAINTS[spec.kind]
    return {"type": spec.kind, **{key: np.asarray(getattr(spec, key)).tolist() for key in fields}}


def load_problem(path):
    """Read a problem file; returns (Problem, x_star or None, x0 or None)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ProblemFileError("$", f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ProblemFileError("$", f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ProblemFileError("$", "top-level JSON value must be an object")
    for key in ("A", "b", "constraint"):
        if key not in doc:
            raise ProblemFileError(key, "missing required field")

    # A is the matrix or, for the diagonal form, its diagonal.
    if isinstance(doc["A"], dict) and "diagonal" in doc["A"]:
        A = _diagonal_from_json(doc["A"], "A")
    else:
        A = _matrix_from_json(doc["A"], "A")
    b = _vector_from_json(doc["b"], "b")
    constraint = _constraint_from_json(doc["constraint"], A.shape[-1])
    try:
        problem = Problem(A, b, constraint)  # checks that a dense A is finite, naming path A
    except ProblemFileError:
        raise
    except ValueError as exc:
        raise ProblemFileError("$", str(exc)) from exc

    x_star, x0 = (
        _point_from_json(doc[key], key, constraint) if key in doc else None
        for key in ("x_star", "x0")
    )
    return problem, x_star, x0


def save_problem(path, problem, x_star=None, x0=None):
    """Write a problem file in the format accepted by :func:`load_problem`."""
    if problem.diagonal is None:
        A = {"shape": list(problem.shape), "data": problem.A.reshape(-1).tolist()}
    else:
        A = {"diagonal": problem.diagonal.tolist()}
    doc = {
        "A": A,
        "b": problem.b.tolist(),
        "constraint": _constraint_to_json(problem.constraint),
    }
    for key, point in (("x_star", x_star), ("x0", x0)):
        if point is not None:
            doc[key] = np.asarray(point, dtype=float).reshape(-1, order="F").tolist()
    with open(path, "w", encoding="ascii") as fh:
        # dumps runs the C encoder; dump ran the pure-Python one, to the same bytes.
        fh.write(json.dumps(doc) + "\n")
