"""Verify module: Lyapunov solve, identities, perturbation and convexity probes."""

import dataclasses
import json

import numpy as np
import pytest

import regimelq as rl
from regimelq.cli import main
from regimelq.errors import NonFiniteState
from regimelq.riccati import _hat_terms, stationarity_defect
from regimelq.verify import (
    PERTURBATION_DIRECTIONS,
    PROBE_CONTROLS,
    STATIONARITY_RTOL,
    stationarity_check,
)

from canonical import (
    det_lqr,
    multidim_two_segment,
    nonconvex,
    one_regime_market,
    problem_to_config,
    random_convex,
    scalar_analytic,
    stochastic_scalar,
    two_regime_coupling,
)

TWO_SIDED = {"value_identity", "lyapunov_identity", "mv_terminal_mean", "mv_terminal_variance"}
ONE_SIDED = {"perturbation_optimality": "deltas", "convexity_probe": "ratios"}
EXACT = {"sre_solve", "rhat_certificate", "stationarity"}


def assert_check_contract(check):
    """The pass rule and tolerance terms of each kind of check."""
    if check.name in TWO_SIDED:
        assert check.tolerance == 3.0 * check.stderr + check.bias_allowance
        assert check.passed == (abs(check.statistic) <= check.tolerance)
    elif check.name in ONE_SIDED:
        assert check.statistic == min(check.details[ONE_SIDED[check.name]])
        assert check.tolerance == 3.0 * check.stderr
        assert check.bias_allowance == 0.0
        if check.passed:
            assert check.statistic >= -check.tolerance
    else:
        assert check.name in EXACT
        assert check.stderr == 0.0 and check.bias_allowance == 0.0


class TestLyapunovSolve:
    def test_equal_terminal_weights_stay_constant(self):
        # A = C = Q = 0 and G = I for both regimes: coupling of equal
        # matrices vanishes, M stays at I
        base = {"A": 0, "B": 0, "C": 0, "D": 0, "Q": 0, "S": 0, "R": 1}
        prob = rl.make_problem(
            n=1, m=1, T=1.0, generator=[[-3.0, 3.0], [1.0, -1.0]],
            coefficients=[[dict(base), dict(base)]],
            G=[[[1.0]], [[1.0]]], x0=[1.0], i0=0,
        )
        lyap = rl.lyapunov_solve(prob, 50)
        np.testing.assert_allclose(lyap.P, np.ones_like(lyap.P), atol=1e-13)

    def test_scalar_exponential(self):
        # A = 1, C = Q = 0, G = 1: dM/dt = -2M backward gives M(0) = e^2
        prob = rl.make_problem(
            n=1, m=1, T=1.0, generator=[[0.0]],
            coefficients=[[{"A": 1.0, "B": 0, "C": 0, "D": 0, "Q": 0, "S": 0, "R": 1}]],
            G=[[[1.0]]], x0=[1.0], i0=0,
        )
        lyap = rl.lyapunov_solve(prob, 200)
        assert lyap.P[0, 0, 0, 0] == pytest.approx(np.exp(2.0), abs=5e-9)

    def test_pure_running_weight(self):
        # Q = 1, A = C = 0, G = 0: M(0) = T = 1
        prob = rl.make_problem(
            n=1, m=1, T=1.0, generator=[[0.0]],
            coefficients=[[{"A": 0, "B": 0, "C": 0, "D": 0, "Q": 1.0, "S": 0, "R": 1}]],
            G=[[[0.0]]], x0=[1.0], i0=0,
        )
        lyap = rl.lyapunov_solve(prob, 100)
        assert lyap.P[0, 0, 0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_terminal_condition_and_symmetry(self):
        prob = two_regime_coupling()
        lyap = rl.lyapunov_solve(prob, 60)
        np.testing.assert_array_equal(lyap.P[-1], prob.G)
        assert np.max(np.abs(lyap.P - lyap.P.swapaxes(-1, -2))) <= 1e-12

    def test_matches_riccati_when_shat_vanishes(self):
        # B = 0, S = 0, C = 0 (D free): Shat is exactly zero, so the Riccati
        # and Lyapunov solves subtract the same exact zero and coincide
        prob = rl.make_problem(
            n=1, m=1, T=1.0, generator=[[-0.5, 0.5], [0.5, -0.5]],
            coefficients=[[
                {"A": 0.4, "B": 0, "C": 0, "D": 0.3, "Q": 1.0, "S": 0, "R": 1.0},
                {"A": -0.2, "B": 0, "C": 0, "D": 0.1, "Q": 0.5, "S": 0, "R": 2.0},
            ]],
            G=[[[1.0]], [[2.0]]], x0=[1.0], i0=0,
        )
        grid = rl.solve_riccati(prob, 80)
        lyap = rl.lyapunov_solve(prob, 80)
        np.testing.assert_array_equal(grid.P, lyap.P)

    def test_two_regime_scalar_matches_exact_exponential(self):
        # constant coefficients: in tau = T - t the backward system is
        # d/dtau [M; 1] = [[diag(2A + C^2) + rates, Q], [0, 0]] [M; 1], so
        # [M(t); 1] = expm((T - t) L) [G; 1] exactly.  B, D and S are
        # nonzero, so the solve must drop the control to match
        from scipy.linalg import expm

        A, C, Q, G = (np.array(v) for v in ([0.3, -0.5], [0.4, 0.2], [1.0, 0.5], [2.0, 1.0]))
        rates = np.array([[-1.5, 1.5], [0.8, -0.8]])
        prob = rl.make_problem(
            n=1, m=1, T=1.0, generator=rates,
            coefficients=[[
                {"A": A[k], "B": 0.7, "C": C[k], "D": 0.3, "Q": Q[k], "S": 0.1, "R": 1.0}
                for k in range(2)
            ]],
            G=[[[g]] for g in G], x0=[1.0], i0=0,
        )
        L = np.zeros((3, 3))
        L[:2, :2] = np.diag(2.0 * A + C**2) + rates
        L[:2, 2] = Q
        lyap = rl.lyapunov_solve(prob, 200)
        exact = np.array([(expm((prob.T - t) * L) @ [*G, 1.0])[:2] for t in lyap.times])
        # largest node error measured 4.5e-11, 2.8e-12 and 1.7e-13 at
        # N = 100, 200 and 400: fourth order
        np.testing.assert_allclose(lyap.P[..., 0, 0], exact, rtol=0, atol=1e-11)

    @pytest.mark.parametrize("make", [
        two_regime_coupling, multidim_two_segment, lambda: random_convex(3),
    ], ids=["two_regime", "multidim_two_segment", "random_convex_3"])
    def test_gains_are_exactly_zero_and_rhat_exactly_one(self, make):
        lyap = rl.lyapunov_solve(make(), 40)
        assert not lyap.Theta.any()
        assert np.all(lyap.rhat_min_eig == 1.0)


class TestValueIdentity:
    def test_scalar_analytic(self):
        prob = scalar_analytic()
        grid = rl.solve_riccati(prob, 200)
        check = rl.value_identity_check(prob, grid, 2000, 101)
        assert check.passed
        assert check.details["target"] == pytest.approx(0.5, abs=1e-8)

    def test_two_regime(self):
        prob = two_regime_coupling()
        grid = rl.solve_riccati(prob, 100)
        check = rl.value_identity_check(prob, grid, 50_000, 102)
        assert check.passed
        assert check.details["target"] == pytest.approx(1.0 + np.exp(-2.0), abs=1e-8)

    def test_deterministic_lqr_exact_up_to_discretization(self):
        prob = det_lqr()
        grid = rl.solve_riccati(prob, 200)
        check = rl.value_identity_check(prob, grid, 500, 103)
        assert check.passed
        assert check.stderr == 0.0  # no randomness at all
        assert check.bias_allowance > 0.0



def _relative_defect(Shat, Rhat, Theta) -> float:
    """||Shat + Rhat Theta||_F / (||Shat||_F + ||Rhat||_F ||Theta||_F), 0 on a zero scale."""
    norm = np.linalg.norm
    scale = norm(Shat) + norm(Rhat) * norm(Theta)
    return float(norm(Shat + Rhat @ Theta) / scale) if scale > 0 else 0.0


def _scaled_costs(prob: rl.ProblemSpec, scale: float) -> rl.ProblemSpec:
    """``prob`` with Q, S, R and G multiplied by ``scale``."""
    cfg = problem_to_config(prob)
    for segment in cfg["segments"]:
        for cell in segment["coefficients"].values():
            for name in ("Q", "S", "R"):
                cell[name] = (scale * np.array(cell[name])).tolist()
    cfg["G"] = {k: (scale * np.array(G)).tolist() for k, G in cfg["G"].items()}
    return rl.problem_from_config(cfg)


class TestStationarity:
    def test_residual_tiny_on_closed_loop(self):
        # Shat + Rhat Theta is the closed-loop stationarity functional per unit state
        for prob in (scalar_analytic(), two_regime_coupling(), stochastic_scalar()):
            grid = rl.solve_riccati(prob, 100)
            assert stationarity_defect(prob, grid) <= 1e-12

    @pytest.mark.parametrize("N", [50, 100])
    def test_residual_equals_per_node_restack(self, N):
        # the same bytes as interpolating P and re-stacking the segment at
        # every node (with the stored gain) and every step midpoint (with the
        # one-time gain)
        prob = multidim_two_segment()
        grid = rl.solve_riccati(prob, N)
        law = rl.FeedbackLaw(prob, grid)
        regimes = range(prob.num_regimes)
        gains = [(t, grid.Theta[i]) for i, t in enumerate(grid.times)]
        gains += [(t, [law.gain(t, k) for k in regimes])
                  for t in 0.5 * (grid.times[:-1] + grid.times[1:])]
        worst = 0.0
        for t, Theta in gains:
            Shat, Rhat = _hat_terms(law.interpolated_P(t), prob.coefficients_at(t))
            for k in regimes:
                worst = max(worst, _relative_defect(Shat[k], Rhat[k], Theta[k]))
        assert stationarity_defect(prob, grid) == worst

    def test_perturbed_gain_detected(self):
        prob = stochastic_scalar()
        grid = rl.solve_riccati(prob, 100)
        Theta = grid.Theta.copy()
        Theta[40, 0] += 0.1  # no longer the stationary gain at one node
        check = stationarity_check(prob, dataclasses.replace(grid, Theta=Theta), 106)
        assert not check.passed
        assert check.statistic > 1e-3

    def test_perturbed_node_p_detected_at_that_node(self):
        # the midpoint gains are re-solved from the interpolated P, so only the
        # perturbed node, whose stored gain came from the old P, breaks the identity
        prob = multidim_two_segment()
        grid = rl.solve_riccati(prob, 50)
        P = grid.P.copy()
        P[20] += 0.1 * np.eye(prob.n)
        broken = dataclasses.replace(grid, P=P)
        check = stationarity_check(prob, broken, 107)
        assert not check.passed
        Shat, Rhat = _hat_terms(P[20], prob.coefficients_at(grid.times[20]))
        at_node = max(_relative_defect(*terms) for terms in zip(Shat, Rhat, grid.Theta[20]))
        assert check.statistic == pytest.approx(at_node, rel=1e-12)

    @pytest.mark.parametrize("scale", [1.0, 1e8, 1e10])
    def test_bound_is_relative_to_the_cost_weights(self, scale):
        # Q, S, R and G times a scale leave Theta unchanged and P scaled; the
        # absolute defect grew with it (1.33e-7 at 1e8, 9.3e-6 at 1e10)
        prob = _scaled_costs(random_convex(3), scale)
        grid = rl.solve_riccati(prob, 50)
        check = stationarity_check(prob, grid, 109)
        assert check.passed and check.statistic <= 1e-14
        Theta = grid.Theta.copy()
        Theta[20, 0] *= 1.0 + 1e-6  # a gain off by a relative 1e-6 at one node
        broken = stationarity_check(prob, dataclasses.replace(grid, Theta=Theta), 109)
        assert not broken.passed and broken.statistic > 1e-7

    def test_non_finite_gain_detected(self):
        # a NaN defect fails the check rather than dropping out of the maximum
        prob = stochastic_scalar()
        grid = rl.solve_riccati(prob, 50)
        Theta = grid.Theta.copy()
        Theta[10, 0] = np.nan
        check = stationarity_check(prob, dataclasses.replace(grid, Theta=Theta), 111)
        assert not check.passed and np.isnan(check.statistic)

    def test_zero_scale_counts_as_zero(self):
        # two_regime_coupling has B = D = S = 0, so Shat = 0 and Theta = 0
        prob = two_regime_coupling()
        grid = rl.solve_riccati(prob, 50)
        assert not grid.Theta.any()
        check = stationarity_check(prob, grid, 110)
        assert check.passed and check.statistic == 0.0

    def test_check_wrapper(self):
        prob = two_regime_coupling()
        grid = rl.solve_riccati(prob, 100)
        check = stationarity_check(prob, grid, 108)
        assert check.passed
        assert check.statistic == stationarity_defect(prob, grid)
        assert check.tolerance == STATIONARITY_RTOL
        assert check.stderr == 0.0 and check.bias_allowance == 0.0
        assert check.seed == 108 and check.n == 201 * prob.num_regimes


class TestPerturbation:
    def test_canonicals_all_nonnegative(self):
        for seed, prob in ((109, scalar_analytic()), (110, two_regime_coupling())):
            grid = rl.solve_riccati(prob, 100)
            check = rl.perturbation_test(prob, grid, 5000, seed)
            assert check.passed
            deltas = np.array(check.details["deltas"])
            stderrs = np.array(check.details["stderrs"])
            assert np.all(deltas >= -3.0 * stderrs)

    def test_deterministic_problem_strictly_positive(self):
        prob = det_lqr()
        grid = rl.solve_riccati(prob, 100)
        check = rl.perturbation_test(prob, grid, 200, 111)
        assert check.passed
        assert min(check.details["deltas"]) > 0.0


class TestLyapunovIdentity:
    def test_frozen_state(self):
        # A = C = Q = 0, G = I: zero-control cost is exactly |x0|^2
        prob = scalar_analytic()
        lyap = rl.lyapunov_solve(prob, 100)
        check = rl.lyapunov_identity_check(prob, lyap, 500, 112)
        assert check.passed
        assert check.details["target"] == pytest.approx(1.0, abs=1e-12)

    def test_scalar_exponential_growth(self):
        prob = rl.make_problem(
            n=1, m=1, T=1.0, generator=[[0.0]],
            coefficients=[[{"A": 1.0, "B": 0, "C": 0, "D": 0, "Q": 0, "S": 0, "R": 1}]],
            G=[[[1.0]]], x0=[1.0], i0=0,
        )
        lyap = rl.lyapunov_solve(prob, 200)
        check = rl.lyapunov_identity_check(prob, lyap, 500, 113)
        assert check.passed
        assert check.details["target"] == pytest.approx(np.exp(2.0), abs=1e-8)

    def test_two_regime_running_weight(self):
        # Q differs per regime; target from the coupled linear solve
        prob = rl.make_problem(
            n=1, m=1, T=1.0, generator=[[-1.0, 1.0], [1.0, -1.0]],
            coefficients=[[
                {"A": 0, "B": 0, "C": 0, "D": 0, "Q": 2.0, "S": 0, "R": 1},
                {"A": 0, "B": 0, "C": 0, "D": 0, "Q": 0.5, "S": 0, "R": 1},
            ]],
            G=[[[0.0]], [[0.0]]], x0=[1.0], i0=0,
        )
        lyap = rl.lyapunov_solve(prob, 100)
        check = rl.lyapunov_identity_check(prob, lyap, 50_000, 114)
        assert check.passed


class TestConvexityProbe:
    def test_pure_control_energy_ratio_one(self):
        # R = I and every other weight zero with B = D = 0: J = int |u|^2
        prob = rl.make_problem(
            n=1, m=1, T=1.0, generator=[[0.0]],
            coefficients=[[{"A": 0.3, "B": 0, "C": 0, "D": 0, "Q": 0, "S": 0, "R": 1.0}]],
            G=[[[0.0]]], x0=[1.0], i0=0,
        )
        check = rl.convexity_probe(prob, 500, 115, N=100)
        assert check.passed
        np.testing.assert_allclose(check.details["ratios"], 1.0, rtol=1e-12)

    def test_scalar_all_positive(self):
        check = rl.convexity_probe(scalar_analytic(), 2000, 116, N=100)
        assert check.passed
        assert min(check.details["ratios"]) > 0.0

    def test_nonconvex_detected(self):
        check = rl.convexity_probe(nonconvex(), 5000, 117, N=100)
        assert not check.passed
        assert check.statistic < 0.0


class TestMultiDimensional:
    @staticmethod
    def _problem():
        c1 = {
            "A": [[0.1, 0.2], [0.0, -0.1]], "B": [[1.0, 0.0], [0.3, 0.8]],
            "C": [[0.15, 0.0], [0.05, 0.1]], "D": [[0.2, 0.1], [0.0, 0.15]],
            "Q": [[1.0, 0.2], [0.2, 0.8]], "S": [[0.1, 0.0], [0.0, -0.1]],
            "R": [[1.0, 0.1], [0.1, 1.2]],
        }
        c2 = {
            "A": [[-0.2, 0.1], [0.1, 0.05]], "B": [[0.5, 0.2], [0.0, 1.0]],
            "C": [[0.0, 0.1], [0.1, 0.0]], "D": [[0.1, 0.0], [0.05, 0.2]],
            "Q": [[0.5, 0.0], [0.0, 0.7]], "S": [[0.0, 0.1], [0.1, 0.0]],
            "R": [[1.5, 0.0], [0.0, 0.9]],
        }
        return rl.make_problem(
            n=2, m=2, T=1.0, generator=[[-0.7, 0.7], [0.4, -0.4]],
            coefficients=[[c1, c2]],
            G=[[[1.0, 0.1], [0.1, 0.6]], [[0.4, 0.0], [0.0, 0.9]]],
            x0=[1.0, -0.5], i0=0,
        )

    def test_value_identity_end_to_end(self):
        # exercises the general-dimension batch engine against the solve
        prob = self._problem()
        grid = rl.solve_riccati(prob, 200)
        check = rl.value_identity_check(prob, grid, 40_000, 121)
        assert check.passed, (check.statistic, check.tolerance)

    def test_perturbation_and_stationarity(self):
        prob = self._problem()
        grid = rl.solve_riccati(prob, 100)
        assert rl.perturbation_test(prob, grid, 4000, 122).passed
        assert stationarity_check(prob, grid, 123).statistic <= 1e-12


class TestCheckContract:
    @pytest.mark.parametrize("make", [stochastic_scalar, nonconvex])
    def test_records_tolerance_terms_separately(self, make):
        checks = rl.run_standard_checks(make(), 50, 2000, 104)
        for check in checks:
            assert_check_contract(check)
        names = {c.name for c in checks}
        assert names & EXACT and names & set(ONE_SIDED)
        if make is stochastic_scalar:
            assert {"value_identity", "lyapunov_identity"} <= names

    def test_frontier_checks(self):
        market = one_regime_market()
        points, grid = rl.efficient_frontier(market, [1.2], N=100)
        checks = rl.mv_simulate_check(market, points[0], 2000, 104, grid)
        assert [c.name for c in checks] == ["mv_terminal_mean", "mv_terminal_variance"]
        for check in checks:
            assert_check_contract(check)


class TestStandardChecks:
    def test_all_pass_on_stochastic_scalar(self):
        checks = rl.run_standard_checks(stochastic_scalar(), 100, 5000, 118)
        assert all(c.passed for c in checks)
        names = [c.name for c in checks]
        assert names == [
            "rhat_certificate", "value_identity", "stationarity",
            "perturbation_optimality", "lyapunov_identity", "convexity_probe",
        ]

    def test_the_suite_fixes_the_family_sizes(self):
        checks = rl.run_standard_checks(stochastic_scalar(), 50, 1000, 121)
        by_name = {c.name: c.details for c in checks}
        perturbation, probe = by_name["perturbation_optimality"], by_name["convexity_probe"]
        assert perturbation["directions"] == PERTURBATION_DIRECTIONS
        assert len(perturbation["deltas"]) == PERTURBATION_DIRECTIONS
        assert probe["controls"] == PROBE_CONTROLS
        assert len(probe["ratios"]) == PROBE_CONTROLS

    def test_nonconvex_reports_failed_solve_and_probe(self):
        checks = rl.run_standard_checks(nonconvex(), 100, 2000, 119)
        by_name = {c.name: c for c in checks}
        assert not by_name["sre_solve"].passed
        assert not by_name["convexity_probe"].passed

    def test_non_finite_lyapunov_solve_propagates(self, tmp_path, capsys):
        # A = 400 under the feedback of B = R = 1 keeps P near 800, while the
        # zero control's P grows like exp(800 (T - t)) and overflows at N = 300:
        # the Riccati system solves, so the failure is the Lyapunov system's,
        # and it is not reported as a failed sre_solve
        prob = rl.make_problem(
            n=1, m=1, T=1.0, generator=[[0.0]],
            coefficients=[[{"A": 400.0, "B": 1.0, "C": 0, "D": 0, "Q": 1.0, "S": 0, "R": 1.0}]],
            G=[[[0.0]]], x0=[1.0], i0=0,
        )
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NonFiniteState):
            rl.run_standard_checks(prob, 300, 100, 122)
        # the CLI raises on overflow: a numerical failure, exit 2
        config = tmp_path / "unstable.json"
        config.write_text(json.dumps(problem_to_config(prob)))
        rc = main(["verify", "--config", str(config), "--grid", "300", "--paths", "100",
                   "--seed", "1", "--out", str(tmp_path / "out")])
        assert rc == 2
        assert json.loads(capsys.readouterr().err)["error"] == "FloatingPointError"

    def test_json_payload_roundtrip(self):
        checks = rl.run_standard_checks(stochastic_scalar(), 50, 1000, 120)
        payload = [c.to_json_dict() for c in checks]
        assert json.loads(json.dumps(payload)) == payload
        for entry in payload:
            for key in ("check", "status", "statistic", "tolerance", "n", "seed",
                        "bias_allowance"):
                assert key in entry
