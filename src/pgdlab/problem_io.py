"""JSON problem files.

A problem file is a JSON object with fields

* ``A``: matrix, in one of three forms: nested lists (rows);
  ``{"shape": [m, n], "data": [...]}`` with the data flattened row-major and
  m, n positive whole numbers; or ``{"diagonal": [d_1, ..., d_n]}`` for the
  square matrix diag(d), a non-empty array (a completion sampling mask,
  for one, has d_i = 1 on the observed entries and 0 elsewhere),
* ``b``: array,
* ``constraint``: ``{"type": "affine"|"sparse"|"sphere"|"lowrank", ...}`` with
  the variant fields ``C`` (a matrix in either dense form), ``d`` (an array),
  ``s``, ``r`` (whole numbers) and ``shape`` (two positive whole numbers),
* optional ``x_star`` and ``x0``: arrays or, for a ``lowrank``
  constraint, also the m x n matrix as nested rows, which is read
  column-major as the constraint vectorizes it.

Every array field is read by one rule: its entries are JSON numbers, never
a string, ``true`` or ``false``, its entries and its 2-norm are finite,
and it is flat; only the rows of a dense matrix and the matrix form of a
``lowrank`` point are nested. A whole number is a JSON integer or a number
with no fractional part; ``true`` and ``false`` are not numbers. Each
constraint field is read whatever the type, and validation errors carry the
JSON path of the offending field.

:func:`save_problem` writes the diagonal form whenever A is diagonal
(``Problem.diagonal`` is set) and the ``shape``/``data`` form otherwise; it
writes ``x_star`` and ``x0`` flat, a matrix vectorized column-major.
"""

from __future__ import annotations

import json
import struct

import numpy as np

from .constraints import AffineConstraint, LowRankConstraint, SparsityConstraint, SphereConstraint
from .engine import Problem
from .errors import ProblemFileError


class _Literals(list):
    """An array of the file that holds ``true`` or ``false`` at some depth."""


def _mark_literals(obj):
    """``obj`` with each array that holds ``true`` or ``false`` made a
    :class:`_Literals`, which :func:`_array` refuses: json reads the literal
    as a bool, which a float conversion takes as 1 or 0."""
    if isinstance(obj, dict):
        return {key: _mark_literals(value) for key, value in obj.items()}
    if not isinstance(obj, list):
        return obj
    items = [_mark_literals(value) for value in obj]
    return _Literals(items) if any(isinstance(v, (bool, _Literals)) for v in items) else items


def _spells_literal(text):
    """Whether ``text`` holds ``true`` or ``false``, sought from each first
    letter, which memchr finds and a file of numbers holds only in a few
    keys: ``"true" in text`` compares at most digits, about 120 us on the
    74 kB paper-scale completion file, 7% of its load."""
    for word in ("true", "false"):
        at = text.find(word[0])
        while at >= 0:
            if text.startswith(word, at):
                return True
            at = text.find(word[0], at + 1)
    return False


def _floats(values):
    """A flat list of numbers as a float array. struct's "d" takes only a real
    number (a bool too): a string, a null, an array or an object raises
    struct.error where numpy would read it, and it packs in a third of the time."""
    arr = np.empty(len(values))
    struct.pack_into(f"{len(values)}d", arr, 0, *values)
    return arr


def _array(obj, path, nested=False):
    """``obj``, a JSON array of numbers (where ``nested``, also of rows of
    numbers), as a float array with finite entries and a finite 2-norm."""
    if isinstance(obj, _Literals):
        raise ProblemFileError(path, "entries must be numbers, not true or false")
    if not isinstance(obj, list):
        raise ProblemFileError(path, f"expected an array, got {json.dumps(obj)}")
    rows = bool(obj) and isinstance(obj[0], list)
    if rows and not nested:
        raise ProblemFileError(path, "expected a flat array, got a nested one")
    try:  # ragged rows raise ValueError
        arr = np.array([_floats(row) for row in obj]) if rows else _floats(obj)
    except (struct.error, TypeError, ValueError) as exc:
        raise ProblemFileError(path, f"not a numeric array: {exc}") from exc
    if not np.all(np.isfinite(arr)):
        raise ProblemFileError(path, "entries must be finite")
    with np.errstate(over="ignore"):
        norm = np.linalg.norm(arr)
    if not np.isfinite(norm):
        raise ProblemFileError(path, "the 2-norm overflows")
    return arr


def _whole(value):
    """``value`` as an int if it is a whole number (not nan or inf), else None."""
    if isinstance(value, float) and value.is_integer() or (
            isinstance(value, int) and not isinstance(value, bool)):
        return int(value)
    return None


def _count(obj, path):
    value = _whole(obj)
    if value is None:
        raise ProblemFileError(path, f"must be a whole number, got {json.dumps(obj)}")
    return value


def _shape(obj, path):
    dims = [_whole(v) for v in obj] if isinstance(obj, list) and len(obj) == 2 else [None]
    if None in dims or min(dims) < 1:
        raise ProblemFileError(
            path, f"shape must be two positive whole numbers, got {json.dumps(obj)}"
        )
    return tuple(dims)


def _matrix(obj, path):
    """A dense matrix, given as its rows or as a shape and row-major data."""
    if not isinstance(obj, dict):
        mat = _array(obj, path, nested=True)
        if mat.ndim != 2:
            raise ProblemFileError(path, f"expected a matrix, got {mat.ndim} dimensions")
        return mat
    shape = _shape(obj.get("shape"), path)
    data = _array(obj.get("data"), path)
    if data.size != shape[0] * shape[1]:
        raise ProblemFileError(path, f"data length {data.size} does not match shape {shape}")
    return data.reshape(shape)


def _A(obj):
    """The matrix A or, for the diagonal form, its diagonal."""
    if not (isinstance(obj, dict) and "diagonal" in obj):
        return _matrix(obj, "A")
    if set(obj) != {"diagonal"}:
        raise ProblemFileError(
            "A", f"a diagonal matrix has only the field 'diagonal', got {sorted(obj)}"
        )
    diagonal = _array(obj["diagonal"], "A.diagonal")
    if not diagonal.size:
        raise ProblemFileError("A.diagonal", "must not be empty")
    return diagonal


def _point(obj, path, constraint):
    """``x_star`` or ``x0`` as a vector of the constraint's dimension."""
    vec = _array(obj, path, nested=constraint.kind == "lowrank")
    if vec.ndim > 1:
        if vec.shape != constraint.shape:
            raise ProblemFileError(
                path,
                f"a nested array must be the {constraint.shape} matrix, got shape {vec.shape}",
            )
        vec = vec.reshape(-1, order="F")
    if vec.size != constraint.n:
        raise ProblemFileError(path, f"length {vec.size} does not match dimension {constraint.n}")
    return vec


# The reader of each constraint field, which reads it wherever it is present.
_FIELDS = {"C": _matrix, "d": _array, "s": _count, "r": _count, "shape": _shape}

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
    """The ``constraint`` object as a constraint on R^n. The constructor's
    refusals are of conditions between fields, and name ``constraint``."""
    if not isinstance(doc, dict) or "type" not in doc:
        raise ProblemFileError("constraint", "constraint JSON must be an object with a 'type' field")
    values = {key: read(doc[key], f"constraint.{key}") for key, read in _FIELDS.items()
              if key in doc}
    kind = doc["type"]
    if not isinstance(kind, str) or kind not in _CONSTRAINTS:
        raise ProblemFileError("constraint", f"unknown constraint type {kind!r}")
    fields, build = _CONSTRAINTS[kind]
    try:
        spec = build(*(values[key] for key in fields), n)
    except KeyError as exc:
        raise ProblemFileError(f"constraint.{exc.args[0]}", "missing required field") from None
    except ValueError as exc:
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
            text = fh.read()
        doc = json.loads(text)
    except OSError as exc:
        raise ProblemFileError("$", f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ProblemFileError("$", f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ProblemFileError("$", "top-level JSON value must be an object")
    if _spells_literal(text):
        doc = _mark_literals(doc)
    for key in ("A", "b", "constraint"):
        if key not in doc:
            raise ProblemFileError(key, "missing required field")

    A = _A(doc["A"])
    b = _array(doc["b"], "b")
    constraint = _constraint_from_json(doc["constraint"], A.shape[-1])
    try:
        problem = Problem(A, b, constraint)
    except ValueError as exc:
        raise ProblemFileError("$", str(exc)) from exc

    x_star, x0 = (
        _point(doc[key], key, constraint) if key in doc else None
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
