import json
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from pgdlab.analysis import iterations_to_accuracy
from pgdlab.applications import analyze_problem
from pgdlab.cli import main
from pgdlab.empirics import make_instance
from pgdlab.constraints import (
    AffineConstraint,
    LowRankConstraint,
    SparsityConstraint,
    SphereConstraint,
)
from pgdlab.engine import Problem
from pgdlab.errors import ProblemFileError
from pgdlab.problem_io import load_problem, save_problem


@pytest.fixture
def lcls_file(tmp_path):
    prob, x_star = make_instance("lcls", {"m": 10, "n": 7, "p": 2}, 1)
    path = tmp_path / "lcls.json"
    save_problem(path, prob, x_star=x_star)
    return path, prob, x_star


@pytest.fixture
def nan_x_star_file(tmp_path):
    prob, x_star = make_instance("sphere", {"m": 10, "n": 6, "gamma": -0.5}, 4)
    x_star[0] = np.nan
    path = tmp_path / "nan.json"
    save_problem(path, prob, x_star=x_star)
    return path


class TestProblemIo:
    def test_round_trip(self, lcls_file):
        path, prob, x_star = lcls_file
        loaded, x_loaded, x0 = load_problem(path)
        np.testing.assert_allclose(loaded.A, prob.A)
        np.testing.assert_allclose(loaded.b, prob.b)
        np.testing.assert_allclose(x_loaded, x_star)
        assert x0 is None
        assert loaded.constraint.kind == "affine"

    def test_nested_list_matrix_accepted(self, tmp_path):
        doc = {
            "A": [[1.0, 0.0], [0.0, 1.0]],
            "b": [2.0, 0.0],
            "constraint": {"type": "sphere"},
            "x_star": [1.0, 0.0],
        }
        path = tmp_path / "sphere.json"
        path.write_text(json.dumps(doc))
        prob, x_star, _ = load_problem(path)
        assert prob.constraint.kind == "sphere"
        np.testing.assert_allclose(x_star, [1.0, 0.0])

    def test_parse_error_names_json_path(self, tmp_path):
        doc = {"A": [[1.0, 0.0]], "b": [1.0], "constraint": {"type": "sparse"}}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ProblemFileError) as info:
            load_problem(path)
        assert "constraint" in str(info.value)

    def test_unreadable_and_invalid_files_refused_at_the_root(self, tmp_path):
        with pytest.raises(ProblemFileError, match=r"^\$: cannot read"):
            load_problem(tmp_path / "absent.json")
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ProblemFileError, match=r"^\$: invalid JSON"):
            load_problem(path)

    @pytest.mark.parametrize("field", ["b", "x_star", "x0"])
    def test_non_finite_vector_names_json_path(self, tmp_path, field):
        doc = {
            "A": [[1.0, 0.0], [0.0, 1.0]],
            "b": [2.0, 0.0],
            "constraint": {"type": "sphere"},
            "x_star": [1.0, 0.0],
            "x0": [0.0, 1.0],
        }
        doc[field] = [float("nan"), 0.0]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ProblemFileError, match=rf"^{field}: .*finite"):
            load_problem(path)

    def test_nested_lowrank_x_star_is_read_column_major(self, tmp_path, capsys):
        # Written as X.tolist(), the rows of X: it was read transposed, and
        # analyze refused the file as "numerical rank 5".
        prob, x_star = make_instance("mcp", {"m": 6, "n": 5, "r": 2, "s": 24}, 0)
        flat, nested = tmp_path / "flat.json", tmp_path / "nested.json"
        save_problem(flat, prob, x_star=x_star)
        doc = json.loads(flat.read_text())
        doc["x_star"] = prob.constraint.to_matrix(x_star).tolist()
        nested.write_text(json.dumps(doc))
        outputs = []
        for path in (flat, nested):
            assert main(["analyze", str(path)]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        assert main(["solve", str(nested), "--eta", "1", "--seed", "3"]) == 0
        error = re.search(r"final error: (\S+)", capsys.readouterr().out).group(1)
        assert float(error) <= 1e-10

    def test_save_writes_a_matrix_x_star_column_major(self, tmp_path):
        prob, x_vec = make_instance("mcp", {"m": 6, "n": 5, "r": 2, "s": 24}, 0)
        X_star = prob.constraint.to_matrix(x_vec)
        save_problem(tmp_path / "p.json", prob, x_star=X_star, x0=X_star)
        _, x_star, x0 = load_problem(tmp_path / "p.json")
        assert np.array_equal(x_star, X_star.reshape(-1, order="F"))
        assert np.array_equal(x0, x_star)

    @pytest.mark.parametrize("field", ["x_star", "x0"])
    def test_nested_point_of_the_wrong_shape_exit_one(self, tmp_path, capsys, field):
        prob, x_star = make_instance("mcp", {"m": 6, "n": 5, "r": 2, "s": 24}, 0)
        path = tmp_path / "bad.json"
        save_problem(path, prob)
        doc = json.loads(path.read_text())
        doc[field] = prob.constraint.to_matrix(x_star).T.tolist()  # 5 x 6
        path.write_text(json.dumps(doc))
        assert main(["solve", str(path), "--eta", "1"]) == 1
        assert re.search(rf"^error: {field}: .*\(6, 5\) matrix, got shape \(5, 6\)",
                         capsys.readouterr().err, re.M)

    @pytest.mark.parametrize("field", ["x_star", "x0"])
    def test_nested_point_of_a_vector_family_exit_one(self, tmp_path, capsys, field):
        doc = {"A": [[1.0, 0.0], [0.0, 1.0]], "b": [2.0, 0.0], "constraint": {"type": "sphere"},
               field: [[1.0], [0.0]]}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert main(["solve", str(path), "--eta", "0.5"]) == 1
        assert re.search(rf"^error: {field}: expected a flat array", capsys.readouterr().err,
                         re.M)

    @pytest.mark.parametrize("field", ["A", "constraint.C"])
    def test_non_finite_matrix_names_json_path(self, tmp_path, field):
        doc = {
            "A": {"shape": [2, 3], "data": [1.0, 0.0, 0.0, 0.0, 1.0, 0.0]},
            "b": [2.0, 0.0],
            "constraint": {"type": "affine", "C": {"shape": [1, 3], "data": [1.0, 1.0, 1.0]},
                           "d": [1.0]},
        }
        matrix = doc["A"] if field == "A" else doc["constraint"]["C"]
        matrix["data"][0] = float("nan")
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ProblemFileError, match=rf"^{field}: .*finite"):
            load_problem(path)

    @pytest.mark.parametrize("field", ["A", "constraint.C"])
    @pytest.mark.parametrize(
        "shape",
        [[6], [-2, -3], [2, 3, 1], [2.5, 3], [True, 3], "2x3", [2.0, 3.5]],
        ids=["one_dim", "negative", "three_dim", "fractional", "bool", "string",
             "fractional_float"],
    )
    def test_bad_matrix_shape_exit_one(self, tmp_path, capsys, field, shape):
        doc = {
            "A": {"shape": [2, 3], "data": [1.0, 0.0, 0.0, 0.0, 1.0, 0.0]},
            "b": [2.0, 0.0],
            "constraint": {"type": "affine", "d": [1.0],
                           "C": {"shape": [1, 3], "data": [1.0, 1.0, 1.0]}},
        }
        matrix = doc["A"] if field == "A" else doc["constraint"]["C"]
        matrix["shape"] = shape
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code = main(["solve", str(path), "--eta", "0.1", "--max-iters", "3"])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(f"error: {field}: shape must be two positive whole numbers")
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "constraint",
        [
            {"type": "sparse", "s": 1.7},
            {"type": "sparse", "s": True},
            {"type": "sparse", "s": "1"},
            {"type": "lowrank", "r": 1.5, "shape": [2, 1]},
            {"type": "lowrank", "r": 1, "shape": [2.5, 1]},
            {"type": "lowrank", "r": 1, "shape": [2, True]},
            {"type": "lowrank", "r": 1, "shape": [2]},
        ],
        ids=["s_fractional", "s_bool", "s_string", "r_fractional", "shape_fractional",
             "shape_bool", "shape_one_dim"],
    )
    def test_bad_constraint_size_exit_one(self, tmp_path, capsys, constraint):
        doc = {"A": [[1.0, 0.0], [0.0, 1.0]], "b": [1.0, 0.0], "constraint": constraint}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code = main(["solve", str(path), "--eta", "0.1", "--max-iters", "3"])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: constraint: ")
        assert "whole number" in err
        assert "Traceback" not in err

    def test_whole_number_floats_accepted(self, tmp_path):
        doc = {
            "A": {"shape": [2.0, 2], "data": [1.0, 0.0, 0.0, 1.0]},
            "b": [1.0, 0.0],
            "constraint": {"type": "lowrank", "r": 1.0, "shape": [2, 1.0]},
        }
        path = tmp_path / "ok.json"
        path.write_text(json.dumps(doc))
        problem, _, _ = load_problem(path)
        assert problem.A.shape == (2, 2)
        assert (problem.constraint.r, problem.constraint.shape) == (1, (2, 1))

    def test_shape_mismatch_reported(self, tmp_path):
        doc = {
            "A": {"shape": [2, 2], "data": [1.0, 0.0, 0.0]},
            "b": [0.0, 0.0],
            "constraint": {"type": "sphere"},
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ProblemFileError, match="A"):
            load_problem(path)

    @pytest.mark.parametrize("command", ["solve", "analyze"])
    @pytest.mark.parametrize(
        "field, value",
        [("b", [1e200, 0.0]), ("x_star", [1e155, 1e155]), ("x0", [1e200, 0.0]),
         ("A.diagonal", [1e200, 1e200])],
    )
    def test_overflowing_norm_exit_one(self, tmp_path, capsys, command, field, value):
        doc = {"A": [[1.0, 0.0], [0.0, 1.0]], "b": [1.0, 0.0], "constraint": {"type": "sphere"},
               "x_star": [1.0, 0.0], "x0": [0.0, 1.0]}
        if field == "A.diagonal":
            doc["A"] = {"diagonal": value}
        else:
            doc[field] = value
        path = tmp_path / "big.json"
        path.write_text(json.dumps(doc))
        flags = ["--eta", "0.5", "--max-iters", "3"] if command == "solve" else []
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a leaked numpy warning fails the test
            code = main([command, str(path), *flags])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(f"error: {field}: the 2-norm overflows")
        assert "Traceback" not in err and "Warning" not in err


def _signed_diagonal(kind, seed=0):
    """An lcls or sphere problem whose A is square, diagonal and of both signs,
    with a point to store as x_star."""
    rng = np.random.default_rng(seed)
    n = 12
    d = rng.uniform(0.5, 2.0, n) * rng.choice([-1.0, 1.0], n)
    if kind == "lcls":
        C = rng.standard_normal((4, n))
        problem = Problem.from_diagonal(d, rng.standard_normal(n),
                                        AffineConstraint(C, C @ rng.standard_normal(n)))
        return problem, analyze_problem(problem).x_star
    problem = Problem.from_diagonal(d, rng.standard_normal(n), SphereConstraint(n))
    return problem, problem.constraint.random_member(rng)


DIAGONAL_FILES = {
    "mcp": lambda: make_instance("mcp", {"m": 12, "n": 10, "r": 2, "s": 80}, 0),
    "lcls": lambda: _signed_diagonal("lcls"),
    "sphere": lambda: _signed_diagonal("sphere"),
}


def _write_dense_layout(path, dense_path, layout):
    """Rewrite a diagonal-form problem file with A in a dense layout."""
    doc = json.loads(path.read_text())
    A = np.diag(doc["A"]["diagonal"])
    if layout == "rows":
        doc["A"] = A.tolist()
    else:
        doc["A"] = {"shape": list(A.shape), "data": A.reshape(-1).tolist()}
    dense_path.write_text(json.dumps(doc))


class TestDiagonalForm:
    @pytest.mark.parametrize("family", sorted(DIAGONAL_FILES))
    def test_round_trip(self, tmp_path, family):
        prob, x_star = DIAGONAL_FILES[family]()
        path = tmp_path / "problem.json"
        save_problem(path, prob, x_star=x_star)
        assert list(json.loads(path.read_text())["A"]) == ["diagonal"]
        loaded, x_loaded, _ = load_problem(path)
        assert np.array_equal(loaded.diagonal, prob.diagonal)
        assert np.array_equal(loaded.b, prob.b)
        assert np.array_equal(x_loaded, x_star)
        assert loaded.shape == prob.shape == (x_star.size, x_star.size)

    @pytest.mark.parametrize("layout", ["rows", "shape_data"])
    @pytest.mark.parametrize("family", sorted(DIAGONAL_FILES))
    def test_dense_layout_gives_the_same_output(self, tmp_path, capsys, family, layout):
        prob, x_star = DIAGONAL_FILES[family]()
        compact, dense = tmp_path / "compact.json", tmp_path / "dense.json"
        save_problem(compact, prob, x_star=x_star)
        _write_dense_layout(compact, dense, layout)
        outputs = []
        for path in (compact, dense):
            csv = tmp_path / f"{path.stem}.csv"
            commands = [["solve", str(path), "--eta", "0.1", "--max-iters", "200",
                         "--out", str(csv)]]
            if family != "sphere":  # the stored sphere point is not a fixed point
                commands.append(["analyze", str(path)])
            runs = []
            for argv in commands:
                code = main(argv)
                runs.append((code, capsys.readouterr().out.replace(str(csv), "CSV")))
            outputs.append((runs, csv.read_bytes()))
        assert outputs[0] == outputs[1]
        assert all(code == 0 for code, _ in outputs[0][0])

    @pytest.mark.parametrize(
        "A, path",
        [
            ({"diagonal": ["a", 1.0]}, "A.diagonal"),
            ({"diagonal": [[1.0, 0.0], [0.0, 1.0]]}, "A.diagonal"),
            ({"diagonal": []}, "A.diagonal"),
            ({"diagonal": [float("nan"), 1.0]}, "A.diagonal"),
            ({"diagonal": [1.0, float("inf")]}, "A.diagonal"),
            ({"diagonal": 1.0}, "A.diagonal"),
            ({"diagonal": [1.0, 1.0], "shape": [2, 2]}, "A"),
            ({"diagonal": [1.0, 1.0], "data": [1.0, 0.0, 0.0, 1.0]}, "A"),
        ],
        ids=["non_numeric", "nested", "empty", "nan", "inf", "scalar", "with_shape",
             "with_data"],
    )
    def test_malformed_diagonal_exit_one(self, tmp_path, capsys, A, path):
        doc = {"A": A, "b": [1.0, 0.0], "constraint": {"type": "sphere"}}
        problem_path = tmp_path / "bad.json"
        problem_path.write_text(json.dumps(doc))
        code = main(["solve", str(problem_path), "--eta", "0.1", "--max-iters", "3"])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(f"error: {path}: ")
        assert "Traceback" not in err

    def test_diagonal_length_must_match_b(self, tmp_path):
        doc = {"A": {"diagonal": [1.0, 1.0, 1.0]}, "b": [1.0, 0.0],
               "constraint": {"type": "sphere"}}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ProblemFileError, match=r"^\$: b has length 2, expected 3"):
            load_problem(path)

    def test_large_completion_stays_far_below_one_dense_a(self, tmp_path, capsys):
        # n = 8000: one n x n array of float64 is 512 MB.
        path = tmp_path / "mcp.json"
        tracemalloc.start()
        try:
            prob, x_star = make_instance("mcp", {"m": 100, "n": 80, "r": 2, "s": 1600}, 0)
            save_problem(path, prob, x_star=x_star)
            loaded, _, _ = load_problem(path)
            # --seed 1: the start drawn at the instance seed would be x_star itself.
            code = main(["solve", str(path), "--eta", "1.0", "--max-iters", "50", "--seed", "1",
                         "--tol", "1e-300"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert loaded.diagonal is not None and code == 0
        assert "iterations: 50" in capsys.readouterr().out
        assert peak < 128 * 2**20


class TestSolveCommand:
    def test_solve_affine_exit_zero(self, lcls_file, tmp_path, capsys):
        path, _, _ = lcls_file
        out = tmp_path / "trace.csv"
        code = main(["solve", str(path), "--eta", "0.02", "--out", str(out)])
        captured = capsys.readouterr().out
        assert code == 0
        assert out.exists()
        assert "final objective" in captured

    def test_nonpositive_eta_exit_one(self, lcls_file, capsys):
        path, _, _ = lcls_file
        code = main(["solve", str(path), "--eta", "-0.5"])
        assert code == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags, name",
        [(["--eta", "nan"], "--eta"), (["--eta", "inf"], "--eta"),
         (["--eta", "0.02", "--max-iters", "-5"], "--max-iters"),
         *((["--eta", "0.02", "--tol", tol], "--tol") for tol in ("nan", "-1", "0", "inf"))],
        ids=["eta_nan", "eta_inf", "max_iters_negative",
             "tol_nan", "tol_negative", "tol_zero", "tol_inf"],
    )
    def test_bad_flag_exit_one(self, lcls_file, capsys, flags, name):
        path, _, _ = lcls_file
        code = main(["solve", str(path), *flags])
        assert code == 1
        assert f"error: {name}:" in capsys.readouterr().err

    def test_tol_without_x_star_exit_one(self, tmp_path, capsys):
        prob, _ = make_instance("lcls", {"m": 10, "n": 7, "p": 2}, 1)
        path = tmp_path / "no_x_star.json"
        save_problem(path, prob)
        code = main(["solve", str(path), "--eta", "0.02", "--tol", "1e-8"])
        assert code == 1
        assert "error: --tol:" in capsys.readouterr().err

    def test_non_finite_x_star_exit_one(self, nan_x_star_file, capsys):
        code = main(["solve", str(nan_x_star_file), "--eta", "0.01"])
        assert code == 1
        assert "error: x_star:" in capsys.readouterr().err

    def test_infeasible_start_notice(self, tmp_path, capsys):
        prob, x_star = make_instance("iht", {"m": 12, "n": 24, "s": 3}, 2)
        path = tmp_path / "iht.json"
        save_problem(path, prob, x_star=x_star, x0=np.ones(24))
        # Globally safe step: the unconstrained map is then non-expansive.
        eta = 0.9 / np.linalg.norm(prob.A, 2) ** 2
        code = main(["solve", str(path), "--eta", f"{eta}", "--max-iters", "2000"])
        assert code == 0
        assert "notice" in capsys.readouterr().out

    def test_run_warning_printed_once_as_notice(self, tmp_path, capsys):
        # Tied singular values of the start: every rank-1 truncation of the
        # run warns. The warning leaked to stderr quoting this package's source.
        prob, x_star = make_instance("mcp", {"m": 4, "n": 4, "r": 1, "s": 10}, 0)
        path = tmp_path / "mcp.json"
        save_problem(path, prob, x_star=x_star, x0=np.eye(4).reshape(-1))
        code = main(["solve", str(path), "--eta", "1", "--max-iters", "20"])
        assert code == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out.count("notice: rank-r truncation is not unique") == 1

    def test_divergence_exit_two(self, lcls_file, capsys):
        path, _, _ = lcls_file
        code = main(["solve", str(path), "--eta", "1e9", "--max-iters", "3000"])
        assert code == 2
        assert "diverged" in capsys.readouterr().err

    def test_missing_file_exit_one(self, capsys):
        code = main(["solve", "/nonexistent/prob.json", "--eta", "0.1"])
        assert code == 1

    def test_default_start_is_not_the_generated_solution(self, tmp_path, capsys, monkeypatch):
        # make_instance draws its x* from default_rng(seed), and so did the
        # default start: solve stopped after one step at error 4.6e-15.
        monkeypatch.delenv("PGDLAB_SEED", raising=False)
        prob, x_star = make_instance("mcp", {"m": 12, "n": 10, "r": 2, "s": 80}, 0)
        path, out = tmp_path / "mcp.json", tmp_path / "trace.csv"
        save_problem(path, prob, x_star=x_star)
        assert main(["solve", str(path), "--eta", "1.0", "--out", str(out)]) == 0
        assert "iterations: 1\n" not in capsys.readouterr().out
        first_error = float(out.read_text().splitlines()[1].split(",")[1])
        assert first_error > 1.0


class TestAnalyzeCommand:
    def test_lcls_reports_global_region(self, lcls_file, tmp_path, capsys):
        path, prob, _ = lcls_file
        out = tmp_path / "report.json"
        code = main(["analyze", str(path), "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["application"]["kind"] == "lcls"
        entry = doc["etas"][0]
        assert entry["convergence"]["region_radius"] == "inf"
        assert entry["convergence"]["certified"]

    def test_sphere_saddle_gets_no_certificate_flag(self, tmp_path, capsys):
        rng = np.random.default_rng(3)
        A = rng.standard_normal((9, 5))
        x_star = rng.standard_normal(5)
        x_star /= np.linalg.norm(x_star)
        q, _ = np.linalg.qr(x_star.reshape(-1, 1), mode="complete")
        lam = np.linalg.eigvalsh((A @ q[:, 1:]).T @ (A @ q[:, 1:]))
        gamma = lam[-1] + 0.5
        b = A @ x_star - gamma * (A @ np.linalg.solve(A.T @ A, x_star))
        from pgdlab.constraints import SphereConstraint
        from pgdlab.engine import Problem

        path = tmp_path / "saddle.json"
        save_problem(path, Problem(A, b, SphereConstraint(5)), x_star=x_star)
        code = main(["analyze", str(path), "--eta", "0.01"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert not doc["application"]["certified"]
        entry = doc["etas"][0]
        assert entry["convergence"] is None or not entry["convergence"]["certified"]

    def test_optimal_rate_formula(self, tmp_path, capsys):
        prob, x_star = make_instance("sphere", {"m": 10, "n": 6, "gamma": -0.5}, 4)
        path = tmp_path / "sphere.json"
        save_problem(path, prob, x_star=x_star)
        code = main(["analyze", str(path)])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        app = doc["application"]
        lam_max, lam_min, gamma = app["lam_max"], app["lam_min"], app["gamma"]
        assert app["rho_opt"] == pytest.approx(
            (lam_max - lam_min) / (lam_max + lam_min - 2 * gamma)
        )

    def test_completion_file_reports_optimal_rate(self, tmp_path, capsys):
        prob, x_star = make_instance("mcp", {"m": 6, "n": 5, "r": 2, "s": 24}, 5)
        path = tmp_path / "mcp.json"
        save_problem(path, prob, x_star=x_star)
        code = main(["analyze", str(path)])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        app = doc["application"]
        assert app["kind"] == "mcp"
        kappa = app["lam_max"] / app["lam_min"]
        assert app["rho_opt"] == pytest.approx(1.0 - 2.0 / (kappa + 1.0))
        at_opt = next(r for r in app["rate_table"]
                      if r["eta"] == pytest.approx(app["eta_opt"]))
        assert at_opt["rate"] == pytest.approx(app["rho_opt"])

    def test_completion_file_linearizes_x_star_once(self, tmp_path, capsys, monkeypatch):
        # One linearization at x* for the whole command, then one at the
        # gradient step of each eta.
        prob, x_star = make_instance("mcp", {"m": 12, "n": 10, "r": 2, "s": 80}, 0)
        path = tmp_path / "mcp.json"
        save_problem(path, prob, x_star=x_star)
        calls = []
        linearize = LowRankConstraint.linearize

        def counting(self, x):
            calls.append(x)
            return linearize(self, x)

        monkeypatch.setattr(LowRankConstraint, "linearize", counting)
        etas = ["0.5", "1.0", "1.5"]
        assert main(["analyze", str(path), "--eta", *etas]) == 0
        assert len(json.loads(capsys.readouterr().out)["etas"]) == len(etas)
        assert len(calls) == 1 + len(etas)

    def test_lcls_bounds_have_no_initial_error(self, lcls_file, capsys):
        path, _, _ = lcls_file
        code = main(["analyze", str(path), "--eps", "1e-2", "1e-6"])
        assert code == 0
        for entry in json.loads(capsys.readouterr().out)["etas"]:
            rate = entry["convergence"]["rate"]
            assert entry["iteration_bounds"] == [
                {"accuracy": eps, "bound": iterations_to_accuracy(eps, rate, 1.0, 1.0)}
                for eps in (1e-2, 1e-6)
            ]

    def test_sphere_bounds_start_at_half_the_region(self, tmp_path, capsys):
        prob, x_star = make_instance("sphere", {"m": 10, "n": 6, "gamma": -0.5}, 4)
        path = tmp_path / "sphere.json"
        save_problem(path, prob, x_star=x_star)
        code = main(["analyze", str(path), "--eps", "1e-4"])
        assert code == 0
        for entry in json.loads(capsys.readouterr().out)["etas"]:
            [bound] = entry["iteration_bounds"]
            assert bound["initial_error"] == 0.5 * entry["convergence"]["region_radius"]

    @pytest.mark.parametrize(
        "doc, flags",
        [
            ({"A": np.eye(3).tolist(), "b": [0.5, 0.0, 0.0], "constraint": {"type": "sphere"},
              "x_star": [1.0, 0.0, 0.0]}, []),
            ({"A": np.eye(4).tolist(), "b": [1.0, 0.0, 0.0, 0.0],
              "constraint": {"type": "lowrank", "r": 1, "shape": [2, 2]},
              "x_star": [1.0, 0.0, 0.0, 0.0]}, []),
            ({"A": np.diag([1.0, 1.0, 1.0, 0.0]).tolist(), "b": [1.0, 0.0, 0.0, 0.0],
              "constraint": {"type": "lowrank", "r": 1, "shape": [2, 2]},
              "x_star": [1.0, 0.0, 0.0, 0.0]}, ["--eta", "1.0"]),
            ({"A": np.eye(3).tolist(), "b": [1.0, 0.0, 0.0],
              "constraint": {"type": "sparse", "s": 1}, "x_star": [1.0, 0.0, 0.0]}, []),
            ({"A": np.eye(3).tolist(), "b": [1.0, 2.0, 3.0],
              "constraint": {"type": "affine", "C": [[0.0, 0.0, 1.0]], "d": [0.0]}}, []),
        ],
        ids=["sphere_identity", "mcp_fully_observed", "mcp_three_of_four", "iht_identity",
             "lcls_identity"],
    )
    def test_zero_rate_exit_zero(self, tmp_path, capsys, doc, flags):
        path = tmp_path / "zero_rate.json"
        path.write_text(json.dumps(doc))
        code = main(["analyze", str(path), *flags])
        out, err = capsys.readouterr()
        assert code == 0, err
        report = json.loads(out)
        rows = report["application"]["rate_table"]
        assert any(row["rate"] == 0.0 for row in rows)
        for row, entry in zip(rows, report["etas"]):
            conv = entry["convergence"]
            assert row["rate"] == pytest.approx(conv["rate"], abs=1e-12)
            if row["region"] == "inf" or conv["region_radius"] == "inf":
                assert row["region"] == conv["region_radius"] == "inf"
            else:
                assert row["region"] == pytest.approx(conv["region_radius"], rel=1e-10)
            if conv["rate"] != 0.0:
                assert "iteration_bounds" in entry
            elif conv["quad_coeff"] == 0.0:
                # No quadratic term and no linear tail: the bound is the offset alone.
                assert [b["bound"] for b in entry["iteration_bounds"]] == [1.0] * 4
            else:
                assert "iteration_bounds" not in entry
                assert "rate 0" in entry["no_bound"]

    @pytest.mark.parametrize(
        "kind, params, eta",
        [("lcls", {"m": 30, "n": 20, "p": 5}, "1e308"),
         ("lcls", {"m": 30, "n": 20, "p": 5}, "1e305"),
         ("iht", {"m": 50, "n": 100, "s": 5}, "1e308"),
         ("sphere", {"m": 15, "n": 10, "gamma": -0.5}, "1e308"),
         ("sphere", {"m": 15, "n": 10, "gamma": -3.0}, "1e308")],
        ids=["lcls_1e308", "lcls_1e305", "iht_1e308", "sphere_1e308", "sphere_gamma_-3_1e308"],
    )
    def test_overflowing_step_gets_no_certificate(self, tmp_path, capsys, kind, params, eta):
        prob, x_star = make_instance(kind, params, 0)
        path = tmp_path / f"{kind}.json"
        save_problem(path, prob, x_star=x_star)
        assert main(["analyze", str(path), "--eta", "0.01"]) == 0
        alone = json.loads(capsys.readouterr().out)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a leaked numpy warning fails the test
            code = main(["analyze", str(path), "--eta", "0.01", eta])
        out, err = capsys.readouterr()
        assert code == 0 and err == ""
        doc = json.loads(out, parse_constant=pytest.fail)  # no NaN or Infinity
        kept, overflowing = doc["etas"]
        assert kept == alone["etas"][0]
        assert overflowing["convergence"] is None and "overflows" in overflowing["no_certificate"]
        assert doc["application"]["rate_table"][0] == alone["application"]["rate_table"][0]

    def test_non_finite_x_star_exit_one(self, nan_x_star_file, capsys):
        code = main(["analyze", str(nan_x_star_file)])
        assert code == 1
        err = capsys.readouterr().err
        assert "error: x_star:" in err and "did not converge" not in err

    def test_non_finite_eta_exit_one(self, lcls_file, capsys):
        path, _, _ = lcls_file
        code = main(["analyze", str(path), "--eta", "0.01", "nan"])
        assert code == 1
        assert "error: --eta:" in capsys.readouterr().err

    @pytest.mark.parametrize("eps", ["2", "0", "nan"])
    def test_bad_eps_exit_one(self, lcls_file, capsys, eps):
        path, _, _ = lcls_file
        code = main(["analyze", str(path), "--eps", "1e-4", eps])
        assert code == 1
        assert "error: --eps:" in capsys.readouterr().err

    def test_one_dimensional_sphere_exit_one(self, tmp_path, capsys):
        # The sphere in R^1 has no tangent space: refused at the file, not
        # left to crash the closed-form analysis.
        path = tmp_path / "sphere1.json"
        path.write_text(json.dumps({"A": [[2.0]], "b": [1.0], "constraint": {"type": "sphere"},
                                    "x_star": [1.0]}))
        code = main(["analyze", str(path)])
        assert code == 1
        err = capsys.readouterr().err
        assert "error: constraint:" in err and "Traceback" not in err

    def test_x_star_denser_than_s_exit_one(self, tmp_path, capsys):
        # Four nonzeros under s = 3: not a fixed point of hard thresholding.
        prob, x_star = make_instance("iht", {"m": 20, "n": 40, "s": 4}, 0)
        path = tmp_path / "iht.json"
        save_problem(path, Problem(prob.A, prob.b, SparsityConstraint(3, 40)), x_star=x_star)
        code = main(["analyze", str(path), "--eta", "0.01"])
        assert code == 1
        captured = capsys.readouterr()
        assert "s=3" in captured.err and "Traceback" not in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize(
        "constraint, message",
        [({"type": "sparse", "s": 1}, "gradient on the support"),
         ({"type": "sphere"}, "tangential gradient residual")],
        ids=["iht", "sphere"],
    )
    def test_overflowing_gradient_norm_is_not_stationary(self, tmp_path, capsys, constraint,
                                                         message):
        # The support gradient is 1e200: its sum of squares overflows, which
        # once made the stationarity residual NaN and let the point through.
        path = tmp_path / "big_gradient.json"
        path.write_text(json.dumps({"A": {"diagonal": [1e100, 1e100, 1e100]},
                                    "b": [0, 1e100, 0], "constraint": constraint,
                                    "x_star": [1, 0, 0]}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a leaked numpy warning fails the test
            code = main(["analyze", str(path)])
        assert code == 1
        captured = capsys.readouterr()
        assert message in captured.err and "not" in captured.err
        assert "Traceback" not in captured.err and "Warning" not in captured.err
        assert captured.out == ""

    def test_missing_x_star_exit_one(self, tmp_path, capsys):
        prob, x_star = make_instance("sphere", {"m": 10, "n": 6, "gamma": -0.5}, 4)
        path = tmp_path / "sphere.json"
        save_problem(path, prob)
        code = main(["analyze", str(path)])
        assert code == 1
        assert "x_star" in capsys.readouterr().err


class TestExperimentCommand:
    def test_deterministic_bundles(self, tmp_path, capsys):
        args = ["experiment", "iht", "--m", "20", "--n", "40", "--s", "4",
                "--etas", "0.02", "--seed", "9"]
        code = main(args + ["--outdir", str(tmp_path / "r1")])
        assert code == 0
        code = main(args + ["--outdir", str(tmp_path / "r2")])
        assert code == 0
        m1 = (tmp_path / "r1" / "manifest.json").read_bytes()
        m2 = (tmp_path / "r2" / "manifest.json").read_bytes()
        assert m1 == m2

    def test_inadmissible_eta_flagged_exit_zero(self, tmp_path, capsys):
        prob, _ = make_instance("lcls", {"m": 12, "n": 8, "p": 3}, 10)
        report = analyze_problem(prob)
        code = main([
            "experiment", "lcls", "--m", "12", "--n", "8", "--p", "3",
            "--etas", f"{1.05 * report.eta_max}", "--seed", "10",
            "--outdir", str(tmp_path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "no certificate" in out
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert not manifest["runs"][0]["admissible"]

    @pytest.mark.parametrize(
        "flags, name",
        [(["--etas", "0.01", "nan"], "--etas"), (["--max-iters", "-5"], "--max-iters")],
        ids=["etas_nan", "max_iters_negative"],
    )
    def test_bad_flag_exit_one(self, capsys, flags, name):
        code = main(["experiment", "lcls", "--m", "12", "--n", "8", "--p", "3", *flags])
        assert code == 1
        assert f"error: {name}:" in capsys.readouterr().err

    def test_overflowing_rate_written_as_inf(self, tmp_path, capsys):
        code = main(["experiment", "lcls", "--m", "30", "--n", "20", "--p", "5",
                     "--etas", "1e308", "--outdir", str(tmp_path)])
        assert code == 0
        assert "rate=inf" in capsys.readouterr().out
        manifest = json.loads((tmp_path / "manifest.json").read_text(), parse_constant=pytest.fail)
        assert manifest["runs"][0]["theoretical_rate"] == "inf"
        assert manifest["application"]["rate_table"][0]["rate"] == "inf"

    def test_huge_rate_printed_in_exponent_form(self, capsys):
        code = main(["experiment", "lcls", "--m", "30", "--n", "20", "--p", "5",
                     "--etas", "1e305"])
        assert code == 0
        line = capsys.readouterr().out.splitlines()[0]
        assert re.match(r"eta=1e\+305  rate=\d\.\d{6}e\+306  ", line), line

    def test_bad_generator_size_exit_one(self, capsys):
        code = main(["experiment", "iht", "--m", "10", "--n", "20", "--s", "25"])
        assert code == 1
        assert "s=25" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, name",
        [(["lcls", "--m", "0", "--n", "5", "--p", "2"], "m=0"),
         (["iht", "--m", "0", "--n", "5", "--s", "2"], "m=0"),
         (["mcp", "--m", "5", "--n", "4", "--r", "0", "--s", "10"], "r=0"),
         (["sphere", "--m", "5", "--n", "4", "--gamma", "nan"], "gamma=nan"),
         (["sphere", "--m", "3", "--n", "1"], "n=1"),
         (["sphere", "--m", "15", "--n", "10", "--gamma", "1e200"], "multiplier 1e+200")],
        ids=["lcls_m_zero", "iht_m_zero", "mcp_r_zero", "sphere_gamma_nan", "sphere_n_one",
             "sphere_gamma_1e200"],
    )
    def test_bad_generator_input_exit_one_quietly(self, capsys, argv, name):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a leaked numpy warning fails the test
            code = main(["experiment", *argv])
        assert code == 1
        captured = capsys.readouterr()
        assert name in captured.err and "Traceback" not in captured.err
        assert captured.out == ""

    def test_missing_size_flags_exit_one(self, capsys):
        code = main(["experiment", "mcp", "--m", "10", "--n", "8"])
        assert code == 1
        assert "needs" in capsys.readouterr().err

    def test_missing_sparsity_named(self, tmp_path, capsys):
        outdir = tmp_path / "bundle"
        code = main(["experiment", "iht", "--m", "50", "--n", "100", "--outdir", str(outdir)])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err == "error: iht needs s\n" and captured.out == ""
        assert not outdir.exists()


class TestVerifyCommand:
    def test_projections_suite_passes(self, capsys):
        code = main(["verify", "--suite", "projections", "--seed", "0"])
        out = capsys.readouterr().out
        assert code == 0
        assert "PASS idempotence.sphere" in out
        assert "FAIL" not in out

    def test_all_suites_pass_under_other_seed(self, capsys):
        code = main(["verify", "--suite", "all", "--seed", "1"])
        assert code == 0

    def test_failure_exits_three_with_counterexample(self, capsys, monkeypatch):
        import pgdlab.verify as verify_mod
        from pgdlab.verify import CheckResult

        monkeypatch.setitem(
            verify_mod.SUITES,
            "projections",
            lambda seed=0: [CheckResult("synthetic.fail", False, "counterexample x=[1, 2]")],
        )
        code = main(["verify", "--suite", "projections"])
        assert code == 3
        out = capsys.readouterr().out
        assert "FAIL synthetic.fail: counterexample x=[1, 2]" in out

    def test_env_seed_is_default(self, monkeypatch):
        monkeypatch.setenv("PGDLAB_SEED", "123")
        from pgdlab.cli import build_parser

        args = build_parser().parse_args(["verify", "--suite", "projections"])
        assert args.seed == 123

    @pytest.mark.parametrize("raw", ["-1", "seven"])
    def test_bad_env_seed_exit_one(self, monkeypatch, raw):
        monkeypatch.setenv("PGDLAB_SEED", raw)
        with pytest.raises(SystemExit) as info:
            main(["verify", "--suite", "projections"])
        assert "PGDLAB_SEED" in str(info.value.code) and "non-negative" in str(info.value.code)

    def test_outputs_are_machine_readable(self, tmp_path):
        # Round-trip: analyze JSON and solve CSV parse back cleanly.
        prob, x_star = make_instance("lcls", {"m": 10, "n": 7, "p": 2}, 11)
        path = tmp_path / "p.json"
        save_problem(path, prob, x_star=x_star)
        report_path = tmp_path / "report.json"
        trace_path = tmp_path / "trace.csv"
        assert main(["analyze", str(path), "--out", str(report_path)]) == 0
        assert main(["solve", str(path), "--eta", "0.02", "--out", str(trace_path)]) == 0
        doc = json.loads(report_path.read_text())
        assert "application" in doc
        rows = trace_path.read_text().strip().splitlines()
        header = rows[0].split(",")
        assert header == ["k", "error", "objective"]
        for row in rows[1:]:
            k, err, obj = row.split(",")
            int(k), float(err), float(obj)


@pytest.mark.parametrize(
    "argv",
    [["solve", "{path}", "--eta", "0.02", "--seed", "-3"],
     ["experiment", "lcls", "--m", "12", "--n", "8", "--p", "3", "--seed", "-1"],
     ["verify", "--suite", "projections", "--seed", "-1"]],
    ids=["solve", "experiment", "verify"],
)
def test_negative_seed_exit_one(lcls_file, capsys, argv):
    path, _, _ = lcls_file
    code = main([arg.format(path=path) for arg in argv])
    assert code == 1
    err = capsys.readouterr().err
    assert "error: --seed:" in err and "non-negative" in err


@pytest.mark.parametrize(
    "argv, code",
    [(["verify", "--seed", "abc"], 1), (["verify", "--suite", "bogus"], 1),
     (["verify", "--bogus"], 1), (["analyze"], 1), (["verify", "--help"], 0)],
    ids=["seed_not_int", "unknown_suite", "unknown_flag", "analyze_without_file", "help"],
)
def test_usage_error_exit_one(capsys, argv, code):
    # argparse's own exit code for a usage error is 2, the divergence code.
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == code
    if code:
        err = capsys.readouterr().err
        assert err.startswith("usage: pgdlab") and "error:" in err
