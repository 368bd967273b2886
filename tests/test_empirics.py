import filecmp

import numpy as np
import pytest

from pgdlab.applications import analyze_problem
from pgdlab.empirics import (
    default_etas,
    estimate_rate,
    make_iht_instance,
    make_lcls_instance,
    make_mcp_instance,
    make_sphere_instance,
    run_experiment,
)
from pgdlab.engine import Trace, certify_stationary
from pgdlab.errors import RateEstimationError


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
        trace = synthetic_trace(0.5 ** np.arange(60))
        est = estimate_rate(trace, floor=1e-30)
        assert est.rho_hat == pytest.approx(0.5, abs=1e-12)
        assert not est.floor_hit

    def test_two_mode_tail(self):
        k = np.arange(400)
        trace = synthetic_trace(0.9**k + 0.1**k)
        est = estimate_rate(trace, floor=1e-30)
        assert est.rho_hat == pytest.approx(0.9, rel=1e-6)

    def test_floor_excludes_noise(self):
        k = np.arange(100)
        errors = np.maximum(0.5**k, 1e-13)
        trace = synthetic_trace(errors, floor=1e-12)
        est = estimate_rate(trace)
        assert est.rho_hat == pytest.approx(0.5, abs=1e-9)
        assert est.floor_hit
        assert errors[est.window[1]] > 1e-12

    def test_too_short_rejected(self):
        trace = synthetic_trace(0.5 ** np.arange(10))
        with pytest.raises(RateEstimationError, match="usable"):
            estimate_rate(trace, floor=1e-30)

    def test_no_reference_rejected(self):
        trace = synthetic_trace(0.5 ** np.arange(60))
        trace.errors = None
        with pytest.raises(RateEstimationError):
            estimate_rate(trace)


class TestGenerators:
    def test_same_seed_same_instance(self):
        a1, x1 = make_mcp_instance(8, 6, 2, 30, 42)
        a2, x2 = make_mcp_instance(8, 6, 2, 30, 42)
        np.testing.assert_array_equal(a1.A, a2.A)
        np.testing.assert_array_equal(a1.b, a2.b)
        np.testing.assert_array_equal(x1, x2)

    def test_mcp_rank_exact(self):
        _, X_star = make_mcp_instance(10, 8, 3, 40, 1)
        sig = np.linalg.svd(X_star, compute_uv=False)
        assert sig[2] / sig[0] > 1e-8
        assert sig[3] / sig[0] < 1e-12

    def test_paper_scale_instance(self):
        prob, X_star = make_mcp_instance(50, 40, 3, 800, 7)
        assert prob.A.shape == (2000, 2000)
        assert X_star.shape == (50, 40)
        report = analyze_problem(prob, X_star.reshape(-1, order="F"))
        assert report.tangent_basis.shape == (2000, 3 * (50 + 40 - 3))

    def test_iht_exact_and_residual(self):
        prob, x_star = make_iht_instance(18, 36, 4, 2)
        assert np.linalg.norm(prob.gradient(x_star)) <= 1e-10
        prob, x_star = make_iht_instance(18, 36, 4, 2, residual=True)
        v = prob.gradient(x_star)
        support = np.flatnonzero(x_star)
        assert np.linalg.norm(v[support]) <= 1e-10
        assert np.max(np.abs(v)) > 1e-6

    @pytest.mark.parametrize(
        "make, args, kwargs, name",
        [
            (make_iht_instance, (10, 20, 25, 0), {}, "s"),
            (make_iht_instance, (10, 20, 0, 0), {}, "s"),
            (make_iht_instance, (10, 20, 12, 0), {"residual": True}, "m"),
            (make_sphere_instance, (3, 6, -0.5, 0), {}, "m"),
            (make_lcls_instance, (0, 5, 2, 0), {}, "m"),
            (make_lcls_instance, (5, 0, 2, 0), {}, "n"),
            (make_iht_instance, (0, 20, 2, 0), {}, "m"),
            (make_sphere_instance, (5, 0, -0.5, 0), {}, "n"),
            (make_sphere_instance, (5, 4, np.nan, 0), {}, "gamma"),
            (make_mcp_instance, (0, 4, 1, 2, 0), {}, "m"),
            (make_mcp_instance, (5, 4, 0, 10, 0), {}, "r"),
        ],
        ids=["iht_s_above_n", "iht_s_zero", "iht_residual_s_above_m", "sphere_m_below_n",
             "lcls_m_zero", "lcls_n_zero", "iht_m_zero", "sphere_n_zero", "sphere_gamma_nan",
             "mcp_m_zero", "mcp_r_zero"],
    )
    def test_bad_sizes_rejected_before_drawing(self, make, args, kwargs, name):
        with pytest.raises(ValueError, match=rf"\b{name}="):
            make(*args, **kwargs)

    def test_sphere_zero_multiplier(self):
        prob, x_star = make_sphere_instance(10, 6, 0.0, 3)
        assert np.linalg.norm(prob.gradient(x_star)) <= 1e-10

    def test_all_generators_certify(self):
        cases = [
            make_lcls_instance(12, 8, 3, 4),
            make_iht_instance(16, 32, 4, 4),
            make_sphere_instance(10, 6, -0.5, 4),
        ]
        prob, X_star = make_mcp_instance(6, 5, 2, 22, 4)
        cases.append((prob, X_star.reshape(-1, order="F")))
        for prob, x_star in cases:
            x_ref = np.asarray(x_star, dtype=float).reshape(-1)
            cert = certify_stationary(prob, x_ref, eta=1e-3)
            assert cert.stationarity_residual <= 1e-10 * (1 + np.linalg.norm(x_ref))


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

    def test_deterministic_outputs(self, tmp_path):
        prob, x_star = make_sphere_instance(10, 6, -0.5, 5)
        eta = round(0.8 * analyze_problem(prob, x_star).eta_opt, 6)
        d1, d2 = tmp_path / "a", tmp_path / "b"
        for d in (d1, d2):
            run_experiment("sphere", {"m": 10, "n": 6, "gamma": -0.5}, [eta], 5, outdir=d)
        for name in ("manifest.json", f"trace_eta_{eta:g}.csv"):
            assert filecmp.cmp(d1 / name, d2 / name, shallow=False), name

    def test_grid_function_matches_precomputed_grid(self, tmp_path):
        params = {"m": 12, "n": 8, "p": 3}
        prob, x_star = make_lcls_instance(12, 8, 3, 4)
        etas = [0.5, 1.0, analyze_problem(prob, x_star).eta_opt]
        run_experiment("lcls", params, default_etas, 4, outdir=tmp_path / "fn")
        run_experiment("lcls", params, etas, 4, outdir=tmp_path / "list")
        manifest = (tmp_path / "fn" / "manifest.json").read_bytes()
        assert manifest == (tmp_path / "list" / "manifest.json").read_bytes()

    def test_inadmissible_eta_flagged_not_fatal(self):
        prob, x_star = make_lcls_instance(12, 8, 3, 6)
        report = analyze_problem(prob)
        etas = [0.5 * report.eta_opt, 1.02 * report.eta_max]
        bundle = run_experiment("lcls", {"m": 12, "n": 8, "p": 3}, etas, 6)
        good, bad = bundle["runs"]
        assert good["admissible"] and good["relative_gap"] <= 0.02
        assert not bad["admissible"]
        assert bad.get("rho_hat") is None or bad["rho_hat"] >= 1.0

    def test_optimal_step_has_smallest_measured_rate(self):
        prob, x_star = make_lcls_instance(12, 8, 3, 7)
        report = analyze_problem(prob)
        etas = [0.4 * report.eta_opt, 0.7 * report.eta_opt, report.eta_opt]
        bundle = run_experiment("lcls", {"m": 12, "n": 8, "p": 3}, etas, 7)
        measured = [run["rho_hat"] for run in bundle["runs"]]
        assert measured[-1] == min(measured)

    def test_divergent_eta_recorded_not_fatal(self):
        prob, _ = make_lcls_instance(12, 8, 3, 12)
        report = analyze_problem(prob)
        etas = [0.5 * report.eta_opt, 5.0 * report.eta_max]
        bundle = run_experiment("lcls", {"m": 12, "n": 8, "p": 3}, etas, 12)
        good, bad = bundle["runs"]
        assert good["admissible"] and not good["diverged"]
        assert bad["diverged"] and bad["stop_reason"] == "diverged"
        assert bad["divergence_iteration"] >= 1

    def test_certified_start_inside_region(self):
        prob, x_star = make_sphere_instance(10, 6, -0.5, 8)
        eta = 0.8 * analyze_problem(prob, x_star).eta_opt
        bundle = run_experiment("sphere", {"m": 10, "n": 6, "gamma": -0.5}, [eta], 8)
        run = bundle["runs"][0]
        assert run["admissible"]
        assert run["initial_error"] < run["region_radius"]
