"""Mean-variance module: market Riccati, moments, multiplier solve, frontier."""

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

import regimelq as rl
from regimelq.errors import (
    DegenerateConstraint,
    DimensionMismatch,
    NumericalError,
    ValidationError,
)

from canonical import det_lqr, one_regime_market

# closed forms for the one-regime market r=0.06, b=0.12, sigma=0.2, T=1:
THETA2 = 0.09  # ((b - r) / sigma)^2
RISKLESS_MEAN = np.exp(0.06)


def closed_form_variance(d, x0=1.0):
    return (d - x0 * np.exp(0.06)) ** 2 / (np.exp(THETA2) - 1.0)


class TestMarketValidation:
    def test_volatility_floor(self):
        with pytest.raises(ValidationError):
            rl.make_market(T=1.0, generator=[[0.0]], r=0.06, b=[0.12],
                           sigma=[0.05], delta=0.01, x0=1.0, i0=0)

    def test_positive_rate_required(self):
        with pytest.raises(ValidationError):
            rl.make_market(T=1.0, generator=[[0.0]], r=-0.01, b=[0.12],
                           sigma=[0.2], delta=0.01, x0=1.0, i0=0)

    @pytest.mark.parametrize("name, value, shape", [
        ("r", [0.05, 0.06], r"\(1,\)"),
        ("b", [0.12, 0.10], r"\(1, 1\)"),
        ("sigma", [[0.2], [0.3], [0.4]], r"\(1, 1\)"),
    ])
    def test_coefficient_that_does_not_broadcast_names_the_shape(self, name, value, shape):
        data = {"r": 0.06, "b": [0.12], "sigma": [0.2], name: value}
        with pytest.raises(DimensionMismatch, match=rf"{name} must broadcast to shape {shape}"):
            rl.make_market(T=1.0, generator=[[0.0]], delta=0.01, x0=1.0, i0=0, **data)

    def test_flat_market_is_one_segment(self):
        flat = json.loads(
            (Path(__file__).resolve().parent.parent / "configs" / "market_one_regime.json")
            .read_text()
        )
        segmented = {k: v for k, v in flat.items() if k not in ("r", "per_regime")}
        segmented["segments"] = [
            {"t_start": 0.0, "r": flat["r"], "per_regime": flat["per_regime"]}
        ]
        (a, targets_a), (b, targets_b) = map(rl.market_from_config, (flat, segmented))
        assert targets_a == targets_b
        for field in dataclasses.fields(rl.ProblemSpec):
            x, y = getattr(a, field.name), getattr(b, field.name)
            if field.name == "generator":
                x, y = x.rates, y.rates
            np.testing.assert_array_equal(x, y, err_msg=field.name)
            assert type(x) is type(y)


class TestMarketIsAProblem:
    def test_make_market_is_the_shifted_wealth_embedding(self):
        generator, breakpoints = [[-0.8, 0.8], [0.5, -0.5]], [0.0, 0.5, 1.0]
        r, b, sigma = [0.04, 0.05], [[0.10, 0.07], [0.12, 0.06]], [[0.25, 0.15], [0.3, 0.2]]
        market = rl.make_market(T=1.0, generator=generator, r=r, b=b, sigma=sigma,
                                delta=0.01, x0=1.5, i0=1, breakpoints=breakpoints)
        zero = [[0.0]]
        problem = rl.make_problem(
            n=1, m=1, T=1.0, generator=generator,
            coefficients=[
                [{"A": [[r[j]]], "B": [[b[j][k] - r[j]]], "C": zero, "D": [[sigma[j][k]]],
                  "Q": zero, "S": zero, "R": zero} for k in range(2)]
                for j in range(2)
            ],
            G=[[[1.0]], [[1.0]]], x0=[1.5], i0=1, breakpoints=breakpoints,
        )
        assert (market.n, market.m, market.num_regimes, market.T) == (1, 1, 2, 1.0)
        for name in problem.coefficients.dtype.names:
            np.testing.assert_array_equal(
                market.coefficients[name], problem.coefficients[name], err_msg=name
            )
        np.testing.assert_array_equal(market.breakpoints, problem.breakpoints)
        np.testing.assert_array_equal(market.x0, problem.x0)
        np.testing.assert_array_equal(market.generator.rates, problem.generator.rates)
        assert market.i0 == problem.i0 == 1

    @pytest.mark.parametrize("solve", [
        rl.mv_moment_odes,
        lambda problem: rl.mv_riccati(problem, 10),
        lambda problem: rl.lagrange_solve(problem, 1.1),
    ], ids=["mv_moment_odes", "mv_riccati", "lagrange_solve"])
    def test_problem_that_is_not_a_market_is_refused(self, solve):
        # det_lqr has n = m = 1 but Q != 0
        with pytest.raises(ValidationError, match="not a market's problem"):
            solve(det_lqr())


class TestMvRiccati:
    def test_one_regime_exponential(self):
        market = one_regime_market()
        grid = rl.mv_riccati(market, 200)
        # dP/dt = -(2r - theta^2) P, P(T) = 1
        exact = np.exp((2 * 0.06 - THETA2) * (1.0 - grid.times))
        np.testing.assert_allclose(grid.P[:, 0, 0, 0], exact, atol=1e-12)

    def test_no_risky_incentive(self):
        market = rl.make_market(T=1.0, generator=[[0.0]], r=0.06, b=[0.06],
                                sigma=[0.2], delta=0.01, x0=1.0, i0=0)
        grid = rl.mv_riccati(market, 100)
        np.testing.assert_allclose(grid.Theta, 0.0, atol=1e-12)
        assert grid.P[0, 0, 0, 0] == pytest.approx(np.exp(0.12), abs=1e-10)

    def test_two_regimes_decouple_without_jumps(self):
        market = rl.make_market(
            T=1.0, generator=[[0.0, 0.0], [0.0, 0.0]], r=0.05,
            b=[[0.10, 0.15]], sigma=[[0.2, 0.3]], delta=0.01, x0=1.0, i0=0,
        )
        grid = rl.mv_riccati(market, 100)
        for k, (bk, sk) in enumerate(((0.10, 0.2), (0.15, 0.3))):
            theta2 = ((bk - 0.05) / sk) ** 2
            assert grid.P[0, k, 0, 0] == pytest.approx(
                np.exp(2 * 0.05 - theta2), abs=1e-10
            )

    def test_gain_is_market_price_of_risk(self):
        market = one_regime_market()
        grid = rl.mv_riccati(market, 100)
        np.testing.assert_allclose(
            grid.Theta[:, 0, 0, 0], -(0.12 - 0.06) / 0.04, atol=1e-10
        )


class TestMomentOdes:
    def test_one_regime_factors(self):
        market = one_regime_market()
        factors = rl.mv_moment_odes(market)
        assert factors.kappa[0] == pytest.approx(np.exp(0.06 - THETA2), rel=1e-12)
        assert factors.rho[0] == pytest.approx(np.exp(2 * 0.06 - THETA2), rel=1e-12)

    def test_duality_rho_equals_p0(self):
        market = one_regime_market()
        grid = rl.mv_riccati(market, 200)
        factors = rl.mv_moment_odes(market, grid)
        p0 = float(grid.P[0, 0, 0, 0])
        assert abs(factors.rho[0] - p0) <= 1e-8 * abs(p0)

    def test_riskless_market_factors(self):
        market = rl.make_market(T=1.0, generator=[[0.0]], r=0.06, b=[0.06],
                                sigma=[0.2], delta=0.01, x0=1.0, i0=0)
        factors = rl.mv_moment_odes(market)
        assert factors.kappa[0] == pytest.approx(np.exp(0.06), rel=1e-12)
        assert factors.rho[0] == pytest.approx(np.exp(0.12), rel=1e-12)

    def test_two_segment_market_duality(self):
        market = rl.make_market(
            T=1.0, generator=[[-0.5, 0.5], [0.5, -0.5]],
            r=[0.04, 0.07],
            b=[[0.10, 0.08], [0.12, 0.06]],
            sigma=[[0.25, 0.2], [0.3, 0.22]],
            delta=0.01, x0=1.0, i0=0, breakpoints=[0.0, 0.4, 1.0],
        )
        grid = rl.mv_riccati(market, 200)
        factors = rl.mv_moment_odes(market, grid)
        p0 = float(grid.P[0, 0, 0, 0])
        assert abs(factors.rho[0] - p0) <= 1e-8 * abs(p0)

    @pytest.mark.parametrize("N", [2, 3, 7])
    def test_gains_checked_at_every_node(self, N):
        # at N = 2 the middle segment holds the node t = 0.5 and no segment midpoint
        market = rl.make_market(
            T=1.0, generator=[[-0.5, 0.5], [0.5, -0.5]],
            r=[0.04, 0.07, 0.05],
            b=[[0.10, 0.08], [0.12, 0.06], [0.09, 0.11]],
            sigma=[[0.25, 0.2], [0.3, 0.22], [0.2, 0.24]],
            delta=0.01, x0=1.0, i0=0, breakpoints=[0.0, 0.45, 0.55, 1.0],
        )
        grid = rl.mv_riccati(market, N)
        rl.mv_moment_odes(market, grid)
        if N == 2:
            Theta = grid.Theta.copy()
            Theta[1, 0, 0, 0] += 1e-3  # the node t = 0.5
            with pytest.raises(NumericalError):
                rl.mv_moment_odes(market, dataclasses.replace(grid, Theta=Theta))

    def test_two_regime_duality(self):
        market = rl.make_market(
            T=1.0, generator=[[-0.8, 0.8], [0.5, -0.5]], r=0.04,
            b=[[0.10, 0.07]], sigma=[[0.25, 0.15]], delta=0.01, x0=1.0, i0=1,
        )
        grid = rl.mv_riccati(market, 200)
        factors = rl.mv_moment_odes(market, grid)
        for k in range(2):
            p0 = float(grid.P[0, k, 0, 0])
            assert abs(factors.rho[k] - p0) <= 1e-8 * abs(p0)


class TestLagrangeSolve:
    def test_reference_numbers(self):
        market = one_regime_market()
        mu, gamma, xt0 = rl.lagrange_solve(market, 1.2)
        kappa = np.exp(0.06 - THETA2)
        gamma_exact = (1.2 - kappa) / (1.0 - np.exp(-THETA2))
        assert gamma == pytest.approx(gamma_exact, rel=1e-12)
        assert gamma == pytest.approx(2.6671, abs=5e-4)
        assert mu == pytest.approx(1.4671, abs=5e-4)
        assert xt0 == pytest.approx(1.0 - gamma * np.exp(-0.06), rel=1e-12)

    def test_riskless_attainable_mean_is_vertex(self):
        market = one_regime_market()
        mu, gamma, xt0 = rl.lagrange_solve(market, RISKLESS_MEAN)
        assert gamma == pytest.approx(np.exp(0.06), rel=1e-12)
        assert abs(xt0) <= 1e-12

    @pytest.mark.parametrize("d", [float("nan"), float("inf")])
    def test_non_finite_target_is_refused(self, d):
        market = one_regime_market()
        with pytest.raises(ValidationError, match="target mean must be finite"):
            rl.lagrange_solve(market, d)
        with pytest.raises(ValidationError, match="target mean must be finite"):
            rl.efficient_frontier(market, [1.1, d], N=10)

    def test_degenerate_when_no_risky_incentive(self):
        market = rl.make_market(T=1.0, generator=[[0.0]], r=0.06, b=[0.06],
                                sigma=[0.2], delta=0.01, x0=1.0, i0=0)
        with pytest.raises(DegenerateConstraint):
            rl.lagrange_solve(market, 1.2)


class TestEfficientFrontier:
    def test_reference_variance(self):
        market = one_regime_market()
        points, _ = rl.efficient_frontier(market, [1.2], N=200)
        assert points[0].variance == pytest.approx(closed_form_variance(1.2), abs=1e-6)
        assert points[0].variance == pytest.approx(0.2027, abs=5e-5)

    def test_vertex_variance_zero(self):
        market = one_regime_market()
        points, _ = rl.efficient_frontier(market, [RISKLESS_MEAN], N=200)
        assert abs(points[0].variance) <= 1e-10

    def test_variance_increases_away_from_vertex(self):
        market = one_regime_market()
        targets = [1.10, 1.15, 1.20]
        points, _ = rl.efficient_frontier(market, targets, N=200)
        distances = [abs(d - RISKLESS_MEAN) for d in targets]
        variances = [p.variance for p in points]
        order = np.argsort(distances)
        assert np.all(np.diff(np.array(variances)[order]) > 0)

    def test_quadratic_frontier_shape(self):
        market = one_regime_market()
        targets = [1.08, 1.11, 1.14, 1.17, 1.20]
        points, _ = rl.efficient_frontier(market, targets, N=200)
        coeffs, residuals, *_ = np.polyfit(
            targets, [p.variance for p in points], 2, full=True
        )
        assert float(residuals[0]) <= 1e-10

    def test_duality_cross_check_recorded(self):
        market = one_regime_market()
        points, _ = rl.efficient_frontier(market, [1.1, 1.2], N=200)
        for p in points:
            scale = max(abs(p.variance), 1e-12)
            assert abs(p.variance - p.riccati_value_check) <= 1e-8 * scale

    def test_gamma_equals_d_plus_mu(self):
        market = one_regime_market()
        points, _ = rl.efficient_frontier(market, [1.1, 1.15, 1.2], N=100)
        for p in points:
            assert p.gamma == p.d + p.mu

    def test_two_regime_equal_assets_collapse_to_one_regime(self):
        one = one_regime_market()
        two = rl.make_market(
            T=1.0, generator=[[-2.0, 2.0], [1.0, -1.0]], r=0.06,
            b=[[0.12, 0.12]], sigma=[[0.2, 0.2]], delta=0.01, x0=1.0, i0=0,
        )
        p_one, _ = rl.efficient_frontier(one, [1.1, 1.2], N=100)
        p_two, _ = rl.efficient_frontier(two, [1.1, 1.2], N=100)
        for a, b in zip(p_one, p_two):
            assert a.variance == pytest.approx(b.variance, rel=1e-10)
            assert a.mu == pytest.approx(b.mu, rel=1e-10)


class TestMvSimulateCheck:
    def test_one_regime_mean_and_variance(self):
        market = one_regime_market()
        points, grid = rl.efficient_frontier(market, [1.2], N=200)
        checks = rl.mv_simulate_check(market, points[0], 20_000, 201, grid)
        assert all(c.passed for c in checks)
        mean_check, var_check = checks
        assert mean_check.details["target"] == 1.2
        assert var_check.details["target"] == pytest.approx(0.2027, abs=5e-5)

    def test_two_regime_market(self):
        market = rl.make_market(
            T=1.0, generator=[[-0.8, 0.8], [0.5, -0.5]], r=0.04,
            b=[[0.10, 0.07]], sigma=[[0.25, 0.15]], delta=0.01, x0=1.0, i0=0,
        )
        points, grid = rl.efficient_frontier(market, [1.1], N=200)
        checks = rl.mv_simulate_check(market, points[0], 20_000, 202, grid)
        assert all(c.passed for c in checks)
