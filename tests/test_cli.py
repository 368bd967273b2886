import json
import warnings

import numpy as np
import pytest

from pgdlab.analysis import iterations_to_accuracy
from pgdlab.applications import analyze_problem
from pgdlab.cli import main
from pgdlab.empirics import (
    make_iht_instance,
    make_instance,
    make_lcls_instance,
    make_sphere_instance,
)
from pgdlab.errors import ProblemFileError
from pgdlab.problem_io import load_problem, save_problem


@pytest.fixture
def lcls_file(tmp_path):
    prob, x_star = make_lcls_instance(10, 7, 2, 1)
    path = tmp_path / "lcls.json"
    save_problem(path, prob, x_star=x_star)
    return path, prob, x_star


@pytest.fixture
def nan_x_star_file(tmp_path):
    prob, x_star = make_sphere_instance(10, 6, -0.5, 4)
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
        prob, _ = make_lcls_instance(10, 7, 2, 1)
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
        prob, x_star = make_iht_instance(12, 24, 3, 2)
        path = tmp_path / "iht.json"
        save_problem(path, prob, x_star=x_star, x0=np.ones(24))
        # Globally safe step: the unconstrained map is then non-expansive.
        eta = 0.9 / np.linalg.norm(prob.A, 2) ** 2
        code = main(["solve", str(path), "--eta", f"{eta}", "--max-iters", "2000"])
        assert code == 0
        assert "notice" in capsys.readouterr().out

    def test_divergence_exit_two(self, lcls_file, capsys):
        path, _, _ = lcls_file
        code = main(["solve", str(path), "--eta", "1e9", "--max-iters", "3000"])
        assert code == 2
        assert "diverged" in capsys.readouterr().err

    def test_missing_file_exit_one(self, capsys):
        code = main(["solve", "/nonexistent/prob.json", "--eta", "0.1"])
        assert code == 1


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
        prob, x_star = make_sphere_instance(10, 6, -0.5, 4)
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
        from pgdlab.empirics import make_mcp_instance

        prob, X_star = make_mcp_instance(6, 5, 2, 24, 5)
        path = tmp_path / "mcp.json"
        save_problem(path, prob, x_star=X_star.reshape(-1, order="F"))
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
        prob, x_star = make_sphere_instance(10, 6, -0.5, 4)
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

    def test_missing_x_star_exit_one(self, tmp_path, capsys):
        prob, x_star = make_sphere_instance(10, 6, -0.5, 4)
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
        prob, _ = make_lcls_instance(12, 8, 3, 10)
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

    def test_bad_generator_size_exit_one(self, capsys):
        code = main(["experiment", "iht", "--m", "10", "--n", "20", "--s", "25"])
        assert code == 1
        assert "s=25" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, name",
        [(["lcls", "--m", "0", "--n", "5", "--p", "2"], "m=0"),
         (["iht", "--m", "0", "--n", "5", "--s", "2"], "m=0"),
         (["mcp", "--m", "5", "--n", "4", "--r", "0", "--s", "10"], "r=0"),
         (["sphere", "--m", "5", "--n", "4", "--gamma", "nan"], "gamma=nan")],
        ids=["lcls_m_zero", "iht_m_zero", "mcp_r_zero", "sphere_gamma_nan"],
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
        prob, x_star = make_lcls_instance(10, 7, 2, 11)
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
