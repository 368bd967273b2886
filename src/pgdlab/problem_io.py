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

from .constraints import constraint_from_json
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


def _check_constraint_sizes(doc):
    """Check the whole-number fields of a constraint object, which its
    constructors would otherwise truncate."""
    if not isinstance(doc, dict):
        return
    for key in ("s", "r"):
        if key in doc and _whole(doc[key]) is None:
            raise ProblemFileError(
                "constraint", f"{key} must be a whole number, got {json.dumps(doc[key])}"
            )
    if "shape" in doc:
        _shape_from_json(doc["shape"], "constraint")


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
        A, build = _diagonal_from_json(doc["A"], "A"), Problem.from_diagonal
    else:
        A, build = _matrix_from_json(doc["A"], "A"), Problem
    b = _vector_from_json(doc["b"], "b")
    constraint_doc = doc["constraint"]
    _check_constraint_sizes(constraint_doc)
    if isinstance(constraint_doc, dict) and isinstance(constraint_doc.get("C"), dict):
        constraint_doc = dict(constraint_doc)
        C = _matrix_from_json(constraint_doc["C"], "constraint.C")
        if not np.all(np.isfinite(C)):
            raise ProblemFileError("constraint.C", "entries must be finite")
        constraint_doc["C"] = C.tolist()
    try:
        constraint = constraint_from_json(constraint_doc, ambient_dim=A.shape[-1])
    except (KeyError, TypeError, ValueError) as exc:
        raise ProblemFileError("constraint", str(exc)) from exc
    try:
        problem = build(A, b, constraint)  # checks that a dense A is finite, naming path A
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
        "constraint": problem.constraint.to_json(),
    }
    for key, point in (("x_star", x_star), ("x0", x0)):
        if point is not None:
            doc[key] = np.asarray(point, dtype=float).reshape(-1, order="F").tolist()
    with open(path, "w", encoding="ascii") as fh:
        json.dump(doc, fh)
        fh.write("\n")
