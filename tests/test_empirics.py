import filecmp
import json

import numpy as np
import pytest

from pgdlab import applications, cli, empirics, verify
from pgdlab.applications import analyze_problem, mcp_problem
from pgdlab.constraints import (
    AffineConstraint,
    LowRankConstraint,
    SparsityConstraint,
    SphereConstraint,
)
from pgdlab.empirics import (
    certified_etas,
    default_etas,
    estimate_rate,
    make_instance,
    run_experiment,
)
from pgdlab.engine import Problem, Trace, run_pgd
from pgdlab.errors import GenerationError, RateEstimationError
from pgdlab.problem_io import save_problem
from pgdlab.verify import derivative_matrix


def dense_stationarity_residual(prob, x):
    """||dP(x) gradient(x)|| with the n x n derivative of ``verify``."""
    dense = derivative_matrix(prob.constraint.linearize(x))
    return float(np.linalg.norm(dense @ prob.gradient(x)))


def synthetic_trace(errors, floor=0.0):
    errors = np.asarray(errors, dtype=float)
    return Trace(
        final=np.zeros(1),
        objectives=np.zeros(errors.size),
        errors=errors,
        stop_reason="max_iters",
        error_floor=floor,
    )


class TestEstimateRate:
    def test_pure_geometric(self):
        trace = synthetic_trace(0.5 ** np.arange(60), floor=1e-30)
        est = estimate_rate(trace)
        assert est.rho_hat == pytest.approx(0.5, abs=1e-12)

    def test_two_mode_tail(self):
        k = np.arange(400)
        trace = synthetic_trace(0.9**k + 0.1**k, floor=1e-30)
        est = estimate_rate(trace)
        assert est.rho_hat == pytest.approx(0.9, rel=1e-6)

    def test_floor_excludes_noise(self):
        k = np.arange(100)
        errors = np.maximum(0.5**k, 1e-13)
        trace = synthetic_trace(errors, floor=1e-12)
        est = estimate_rate(trace)
        assert est.rho_hat == pytest.approx(0.5, abs=1e-9)
        assert errors[est.window[1]] > 1e-12

    def test_too_short_rejected(self):
        trace = synthetic_trace(0.5 ** np.arange(10), floor=1e-30)
        with pytest.raises(RateEstimationError, match="usable"):
            estimate_rate(trace)

    def test_no_reference_rejected(self):
        trace = synthetic_trace(0.5 ** np.arange(60))
        trace.errors = None
        with pytest.raises(RateEstimationError):
            estimate_rate(trace)


class TestCertifiedEtas:
    """``analyze`` without ``--eta`` and verify's bound check take one grid."""

    # Seed 61 of the bound check's completion config has no eta_opt.
    MCP = ("mcp", {"m": 7, "n": 6, "r": 2, "s": 30}, 61)

    def test_half_and_all_of_eta_opt(self):
        report = empirics._instance_report("sphere", {"m": 10, "n": 6}, 4)
        assert certified_etas(report) == [0.5 * report.eta_opt, report.eta_opt]
        assert certified_etas(empirics._instance_report(*self.MCP)) == []

    def test_analyze_and_the_bound_check_take_it(self, tmp_path, capsys, monkeypatch):
        grids = []

        def recorded(report):
            grids.append(certified_etas(report))
            return grids[-1]

        monkeypatch.setattr(cli, "certified_etas", recorded)
        monkeypatch.setattr(verify, "certified_etas", recorded)
        problem, x_star = make_instance(*self.MCP)
        path = tmp_path / "mcp.json"
        save_problem(path, problem, x_star=x_star)
        assert cli.main(["analyze", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["etas"] == [] and grids == [[]]
        # Without eta_opt the mcp instance gets no run, and the check still passes.
        results = verify.check_bound_dominance(self.MCP[2])
        assert len(grids) == 5 and grids[-1] == [] and all(len(grid) == 2 for grid in grids[1:4])
        assert all(result.ok for result in results)


class TestGenerators:
    def test_same_seed_same_instance(self):
        a1, x1 = make_instance("mcp", {"m": 8, "n": 6, "r": 2, "s": 30}, 42)
        a2, x2 = make_instance("mcp", {"m": 8, "n": 6, "r": 2, "s": 30}, 42)
        np.testing.assert_array_equal(a1.A, a2.A)
        np.testing.assert_array_equal(a1.b, a2.b)
        np.testing.assert_array_equal(x1, x2)

    def test_mcp_rank_exact(self):
        prob, x_star = make_instance("mcp", {"m": 10, "n": 8, "r": 3, "s": 40}, 1)
        sig = np.linalg.svd(prob.constraint.to_matrix(x_star), compute_uv=False)
        assert sig[2] / sig[0] > 1e-8
        assert sig[3] / sig[0] < 1e-12

    def test_paper_scale_instance(self):
        prob, x_star = make_instance("mcp", {"m": 50, "n": 40, "r": 3, "s": 800}, 7)
        assert prob.A.shape == (2000, 2000)
        assert prob.constraint.to_matrix(x_star).shape == (50, 40)
        report = analyze_problem(prob, x_star)
        assert report.linearization.basis.shape == (2000, 3 * (50 + 40 - 3))

    def test_iht_exact_and_residual(self):
        prob, x_star = make_instance("iht", {"m": 18, "n": 36, "s": 4}, 2)
        assert np.linalg.norm(prob.gradient(x_star)) <= 1e-10
        prob, x_star = make_instance("iht", {"m": 18, "n": 36, "s": 4, "residual": True}, 2)
        v = prob.gradient(x_star)
        support = np.flatnonzero(x_star)
        assert np.linalg.norm(v[support]) <= 1e-10
        assert np.max(np.abs(v)) > 1e-6

    @pytest.mark.parametrize(
        "kind, params, name",
        [
            ("iht", {"m": 10, "n": 20, "s": 25}, "s"),
            ("iht", {"m": 10, "n": 20, "s": 0}, "s"),
            ("iht", {"m": 10, "n": 20, "s": 12, "residual": True}, "m"),
            ("sphere", {"m": 3, "n": 6, "gamma": -0.5}, "m"),
            ("lcls", {"m": 0, "n": 5, "p": 2}, "m"),
            ("lcls", {"m": 5, "n": 0, "p": 2}, "n"),
            ("iht", {"m": 0, "n": 20, "s": 2}, "m"),
            ("sphere", {"m": 5, "n": 0, "gamma": -0.5}, "n"),
            ("sphere", {"m": 5, "n": 1, "gamma": -0.5}, "n"),
            ("sphere", {"m": 5, "n": 4, "gamma": np.nan}, "gamma"),
            ("mcp", {"m": 0, "n": 4, "r": 1, "s": 2}, "m"),
            ("mcp", {"m": 5, "n": 4, "r": 0, "s": 10}, "r"),
            ("lcls", {"m": 5, "n": 3, "p": -1}, "p"),
            ("lcls", {"m": 5, "n": 3, "p": 4}, "p"),
            ("mcp", {"m": 5, "n": 4, "r": 2, "s": 20}, "s"),
            ("mcp", {"m": 5, "n": 4, "r": 5, "s": 10}, "r"),
        ],
        ids=["iht_s_above_n", "iht_s_zero", "iht_residual_s_above_m", "sphere_m_below_n",
             "lcls_m_zero", "lcls_n_zero", "iht_m_zero", "sphere_n_zero", "sphere_n_one",
             "sphere_gamma_nan", "mcp_m_zero", "mcp_r_zero", "lcls_p_negative",
             "lcls_p_not_below_n", "mcp_s_not_below_mn", "mcp_r_above_min_mn"],
    )
    def test_bad_sizes_rejected_before_drawing(self, kind, params, name):
        with pytest.raises(ValueError, match=rf"\b{name}="):
            make_instance(kind, params, 0)

    def test_missing_parameter_rejected_by_name(self, tmp_path):
        with pytest.raises(ValueError, match=r"^iht needs s$"):
            make_instance("iht", {"m": 50, "n": 100}, 0)
        with pytest.raises(ValueError, match=r"^lcls needs n, p$"):
            make_instance("lcls", {"m": 5}, 0)
        outdir = tmp_path / "bundle"
        with pytest.raises(ValueError, match=r"^mcp needs r$"):
            run_experiment("mcp", {"m": 8, "n": 6, "s": 30}, [1.0], 0, outdir=str(outdir))
        assert not outdir.exists()

    def test_unknown_parameter_rejected_before_drawing(self, tmp_path, monkeypatch):
        def no_draw(*args, **kwargs):
            raise AssertionError("an instance was drawn")

        monkeypatch.setattr(np.random, "default_rng", no_draw)
        with pytest.raises(ValueError, match=r"^sphere does not take gama$"):
            make_instance("sphere", {"m": 12, "n": 6, "gama": 0.3}, 0)
        outdir = tmp_path / "bundle"
        params = {"m": 12, "n": 8, "p": 3, "gamma": 0.3, "residual": True}
        with pytest.raises(ValueError, match=r"^lcls does not take gamma, residual$"):
            run_experiment("lcls", params, [1.0], 0, outdir=str(outdir))
        assert not outdir.exists()

    @pytest.mark.parametrize(
        "kind, params, message",
        [
            # A truthy string used to draw the residual instance.
            ("iht", {"m": 16, "n": 32, "s": 4, "residual": "no"},
             "iht: residual must be true or false (residual='no')"),
            # These two used to fail inside numpy with a TypeError.
            ("sphere", {"m": 12, "n": 6, "gamma": "0.3"},
             "sphere: gamma must be a real number (gamma='0.3')"),
            ("lcls", {"m": 12.5, "n": 8, "p": 3}, "lcls: m must be an integer (m=12.5)"),
        ],
        ids=["iht_residual_string", "sphere_gamma_string", "lcls_m_float"],
    )
    def test_wrong_type_rejected_before_drawing(self, kind, params, message, monkeypatch):
        def no_draw(*args, **kwargs):
            raise AssertionError("an instance was drawn")

        monkeypatch.setattr(np.random, "default_rng", no_draw)
        with pytest.raises(ValueError) as info:
            make_instance(kind, params, 0)
        assert str(info.value) == message

    def test_sphere_zero_multiplier(self):
        prob, x_star = make_instance("sphere", {"m": 10, "n": 6, "gamma": 0.0}, 3)
        assert np.linalg.norm(prob.gradient(x_star)) <= 1e-10

    def test_all_generators_certify(self):
        cases = [
            make_instance("lcls", {"m": 12, "n": 8, "p": 3}, 4),
            make_instance("iht", {"m": 16, "n": 32, "s": 4}, 4),
            make_instance("sphere", {"m": 10, "n": 6, "gamma": -0.5}, 4),
        ]
        cases.append(make_instance("mcp", {"m": 6, "n": 5, "r": 2, "s": 22}, 4))
        for prob, x_star in cases:
            x_ref = np.asarray(x_star, dtype=float).reshape(-1)
            assert dense_stationarity_residual(prob, x_ref) <= 1e-10 * (1 + np.linalg.norm(x_ref))

    @pytest.mark.parametrize("kind, params, refusal", [
        ("lcls", {"m": 12, "n": 8, "p": 3}, None),
        ("iht", {"m": 16, "n": 32, "s": 4}, "not stationary"),
        ("sphere", {"m": 10, "n": 6, "gamma": -0.5}, "not a stationary point"),
        ("mcp", {"m": 6, "n": 5, "r": 2, "s": 22}, "does not reproduce the observations"),
    ])
    def test_non_stationary_draw_is_refused_by_the_family_analysis(
            self, kind, params, refusal, monkeypatch):
        # Every drawn observation moves by 1e-3, so the drawn point is no longer
        # stationary; the family analysis refuses it with its own message. The
        # lcls analysis solves for its point, which stays stationary.
        monkeypatch.setattr(empirics, "Problem", lambda A, b, c: Problem(A, b + 1e-3, c))
        monkeypatch.setattr(empirics, "mcp_problem",
                            lambda obs, omega, shape, r: mcp_problem(obs + 1e-3, omega, shape, r))
        if refusal is None:
            prob, x_star = make_instance(kind, params, 5)
            assert dense_stationarity_residual(prob, x_star) <= 1e-10 * (1 + np.linalg.norm(x_star))
            return
        with pytest.raises(GenerationError, match=refusal):
            make_instance(kind, params, 5)


class TestRunExperiment:
    def test_bundle_structure_and_gaps(self, tmp_path):
        bundle = run_experiment(
            "iht", {"m": 24, "n": 48, "s": 4}, [0.01], 3, outdir=tmp_path
        )
        assert (tmp_path / "manifest.json").exists()
        run = bundle["runs"][0]
        assert run["admissible"]
        assert (tmp_path / run["csv"]).exists()
        assert run["relative_gap"] <= 0.05
        assert all(chk["ok"] for chk in run["bound_checks"])

    def test_steps_that_print_alike_get_a_trace_each(self, tmp_path, monkeypatch):
        # 0.01 and 0.0100000001 both print as 0.01: the second trace overwrote
        # the first, and the manifest named one file for both runs.
        traces = []

        def recording(*args, **kwargs):
            block = run_pgd(*args, **kwargs)
            traces.extend(block)
            return block

        monkeypatch.setattr(empirics, "run_pgd", recording)
        etas = [0.01, 0.0100000001, 0.02, 0.01]
        bundle = run_experiment("lcls", {"m": 12, "n": 8, "p": 3}, etas, 0, outdir=tmp_path)
        names = [run["csv"] for run in bundle["runs"]]
        assert names == ["trace_eta_0.01_0.csv", "trace_eta_0.01_1.csv",
                         "trace_eta_0.02.csv", "trace_eta_0.01_3.csv"]
        for name, trace in zip(names, traces):
            lines = (tmp_path / name).read_text().splitlines()
            assert len(lines) == trace.n_iterations + 2

    def test_deterministic_outputs(self, tmp_path):
        prob, x_star = make_instance("sphere", {"m": 10, "n": 6, "gamma": -0.5}, 5)
        eta = round(0.8 * analyze_problem(prob, x_star).eta_opt, 6)
        d1, d2 = tmp_path / "a", tmp_path / "b"
        for d in (d1, d2):
            run_experiment("sphere", {"m": 10, "n": 6, "gamma": -0.5}, [eta], 5, outdir=d)
        for name in ("manifest.json", f"trace_eta_{eta:g}.csv"):
            assert filecmp.cmp(d1 / name, d2 / name, shallow=False), name

    def test_grid_function_matches_precomputed_grid(self, tmp_path):
        params = {"m": 12, "n": 8, "p": 3}
        prob, x_star = make_instance("lcls", {"m": 12, "n": 8, "p": 3}, 4)
        etas = [0.5, 1.0, analyze_problem(prob, x_star).eta_opt]
        run_experiment("lcls", params, default_etas, 4, outdir=tmp_path / "fn")
        run_experiment("lcls", params, etas, 4, outdir=tmp_path / "list")
        manifest = (tmp_path / "fn" / "manifest.json").read_bytes()
        assert manifest == (tmp_path / "list" / "manifest.json").read_bytes()

    @pytest.mark.parametrize("kind, params, constraint", [
        ("lcls", {"m": 12, "n": 8, "p": 3}, AffineConstraint),
        ("iht", {"m": 16, "n": 32, "s": 4}, SparsityConstraint),
        ("sphere", {"m": 10, "n": 6, "gamma": -0.5}, SphereConstraint),
        ("mcp", {"m": 6, "n": 5, "r": 2, "s": 22}, LowRankConstraint),
    ])
    def test_instance_is_linearized_and_analyzed_once(self, kind, params, constraint,
                                                      monkeypatch):
        _, x_star = make_instance(kind, params, 5)
        points, analyses = [], []
        linearize, analyze = constraint.linearize, applications.analyze_problem

        def counting_linearize(self, x):
            points.append(np.array(x, dtype=float).reshape(-1))
            return linearize(self, x)

        def counting_analyze(*args):
            analyses.append(args)
            return analyze(*args)

        monkeypatch.setattr(constraint, "linearize", counting_linearize)
        for module in (applications, empirics):
            monkeypatch.setattr(module, "analyze_problem", counting_analyze)
        run_experiment(kind, params, default_etas, 5)
        assert sum(np.array_equal(x, x_star) for x in points) == 1
        assert len(analyses) == 1

    @pytest.mark.parametrize("etas, shown", [([0.01, np.nan], "nan"), ([np.inf], "inf"),
                                              ([0.01, -1.0], "-1.0")],
                             ids=["nan", "inf", "negative"])
    def test_bad_step_rejected_before_writing(self, tmp_path, etas, shown):
        outdir = tmp_path / "bundle"
        with pytest.raises(ValueError, match=rf"^eta must be finite and positive, "
                                             rf"got \[{shown}\]$"):
            run_experiment("lcls", {"m": 12, "n": 8, "p": 3}, etas, 0, outdir=str(outdir))
        assert not outdir.exists()

    def test_bad_step_from_a_grid_function_rejected(self, tmp_path):
        outdir = tmp_path / "bundle"
        with pytest.raises(ValueError, match="finite and positive"):
            run_experiment("lcls", {"m": 12, "n": 8, "p": 3},
                           lambda report: [report.eta_opt, np.nan], 0, outdir=str(outdir))
        assert not outdir.exists()

    def test_inadmissible_eta_flagged_not_fatal(self):
        prob, x_star = make_instance("lcls", {"m": 12, "n": 8, "p": 3}, 6)
        report = analyze_problem(prob)
        etas = [0.5 * report.eta_opt, 1.02 * report.eta_max]
        bundle = run_experiment("lcls", {"m": 12, "n": 8, "p": 3}, etas, 6)
        good, bad = bundle["runs"]
        assert good["admissible"] and good["relative_gap"] <= 0.02
        assert not bad["admissible"]
        assert bad.get("rho_hat") is None or bad["rho_hat"] >= 1.0

    def test_optimal_step_has_smallest_measured_rate(self):
        prob, x_star = make_instance("lcls", {"m": 12, "n": 8, "p": 3}, 7)
        report = analyze_problem(prob)
        etas = [0.4 * report.eta_opt, 0.7 * report.eta_opt, report.eta_opt]
        bundle = run_experiment("lcls", {"m": 12, "n": 8, "p": 3}, etas, 7)
        measured = [run["rho_hat"] for run in bundle["runs"]]
        assert measured[-1] == min(measured)

    def test_divergent_eta_recorded_not_fatal(self):
        prob, _ = make_instance("lcls", {"m": 12, "n": 8, "p": 3}, 12)
        report = analyze_problem(prob)
        etas = [0.5 * report.eta_opt, 5.0 * report.eta_max]
        bundle = run_experiment("lcls", {"m": 12, "n": 8, "p": 3}, etas, 12)
        good, bad = bundle["runs"]
        assert good["admissible"] and not good["diverged"]
        assert bad["diverged"] and bad["stop_reason"] == "diverged"
        assert bad["divergence_iteration"] >= 1

    def test_certified_start_inside_region(self):
        prob, x_star = make_instance("sphere", {"m": 10, "n": 6, "gamma": -0.5}, 8)
        eta = 0.8 * analyze_problem(prob, x_star).eta_opt
        bundle = run_experiment("sphere", {"m": 10, "n": 6, "gamma": -0.5}, [eta], 8)
        run = bundle["runs"][0]
        assert run["admissible"]
        assert run["initial_error"] < run["region_radius"]
