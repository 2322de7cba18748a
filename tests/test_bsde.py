"""BSDE module: path bundles, backward regression, residual diagnostics."""

import dataclasses
import inspect
import json
from math import fsum
from pathlib import Path

import numpy as np
import pytest

import regimelq as rl
from regimelq import bsde
from regimelq.bsde import (
    _driver,
    _driver_backward,
    constant_problem,
    model_from_config,
)
from regimelq.chain import sample_regimes_on_grid
from regimelq.errors import IllConditionedRegression, NegativeRhat, ValidationError
from regimelq.streams import CHUNK_SIZE, derive_rng, run_chunks

from bsde_reference import bsde_residual, full_driver, reference_regression_solve

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def _constant_coeffs(**kw):
    base = {
        "A": (0.1, 0.0), "B": (0.3, 0.0), "C": (0.0, 0.0), "D": (0.2, 0.0),
        "Q": (0.2, 0.0), "S": (0.0, 0.0), "R": (1.0, 0.0), "G": (1.0, 0.0),
    }
    base.update(kw)
    return base


def two_regime_model(**driver_kw):
    driver = {"kappa": 1.0, "theta_bar": 0.0, "nu": 0.5, "y0": 0.0}
    driver.update(driver_kw)
    return rl.make_model(
        T=1.0, generator=[[-0.3, 0.3], [0.4, -0.4]], i0=0,
        y_range=(-3.0, 3.0),
        coeffs=[
            _constant_coeffs(),
            _constant_coeffs(A=(0.05, 0.0), B=(0.2, 0.0), C=(0.1, 0.0),
                             D=(0.1, 0.0), Q=(0.3, 0.0), R=(0.8, 0.0), G=(0.6, 0.0)),
        ],
        **driver,
    )


def y_dependent_model():
    return rl.make_model(
        T=1.0, generator=[[-0.3, 0.3], [0.4, -0.4]], i0=0,
        kappa=1.0, theta_bar=0.0, nu=0.5, y0=0.0, y_range=(-3.0, 3.0),
        coeffs=[
            _constant_coeffs(A=(0.1, 0.02), B=(0.3, 0.05), D=(0.2, 0.02),
                             Q=(0.2, 0.02), R=(1.0, 0.05), G=(1.0, 0.05)),
            _constant_coeffs(A=(0.05, 0.0), B=(0.2, 0.03), C=(0.1, 0.0),
                             D=(0.1, 0.0), Q=(0.3, 0.05), R=(0.8, 0.02),
                             G=(0.6, 0.02)),
        ],
    )


def three_regime_model():
    return rl.make_model(
        T=1.0, generator=[[-0.5, 0.3, 0.2], [0.4, -0.6, 0.2], [0.1, 0.5, -0.6]], i0=1,
        kappa=0.8, theta_bar=0.2, nu=0.6, y0=0.1, y_range=(-2.5, 2.5),
        coeffs=[
            _constant_coeffs(A=(0.1, 0.02), B=(0.3, 0.05), D=(0.2, 0.02),
                             Q=(0.2, 0.02), R=(1.0, 0.05), G=(1.0, 0.05)),
            _constant_coeffs(A=(0.05, -0.03), B=(0.2, 0.03), C=(0.1, 0.02),
                             Q=(0.3, 0.05), S=(0.05, 0.01), R=(0.8, 0.02),
                             G=(0.6, 0.02)),
            _constant_coeffs(A=(-0.1, 0.01), B=(0.4, -0.05), C=(-0.1, 0.0),
                             D=(0.3, 0.05), Q=(0.1, 0.03), R=(1.2, -0.1),
                             G=(0.8, -0.1)),
        ],
    )


class TestModelValidation:
    def test_r_must_stay_positive_on_range(self):
        with pytest.raises(ValidationError):
            two_regime_model_bad = rl.make_model(
                T=1.0, generator=[[0.0]], i0=0,
                kappa=1.0, theta_bar=0.0, nu=0.5, y0=0.0, y_range=(-3.0, 3.0),
                coeffs=[_constant_coeffs(R=(0.5, 0.5))],
            )

    def test_g_must_be_nonnegative_on_range(self):
        with pytest.raises(ValidationError):
            rl.make_model(
                T=1.0, generator=[[0.0]], i0=0,
                kappa=1.0, theta_bar=0.0, nu=0.5, y0=0.0, y_range=(-3.0, 3.0),
                coeffs=[_constant_coeffs(G=(0.1, 0.2))],
            )

    def test_clipping_bounds_evaluation(self):
        model = y_dependent_model()
        far, edge = model.coeff_rows(np.array([100.0, 3.0]))("R")[0]
        assert far == edge


# the constant terms of two_regime_model() and y_dependent_model(), per regime
TWO_REGIME_CONSTS = [
    dict(A=0.1, B=0.3, C=0.0, D=0.2, Q=0.2, S=0.0, R=1.0, G=1.0),
    dict(A=0.05, B=0.2, C=0.1, D=0.1, Q=0.3, S=0.0, R=0.8, G=0.6),
]


def _embedding(T, generator, i0, consts):
    """``make_problem`` of a model's constant terms, ``consts[k]`` naming regime k's."""
    return rl.make_problem(
        n=1, m=1, T=T, generator=generator, x0=[1.0], i0=i0,
        coefficients=[[{name: [[c[name]]] for name in "ABCDQSR"} for c in consts]],
        G=[[[c["G"]]] for c in consts],
    )


def _assert_same_problem(got, want):
    assert (got.n, got.m, got.num_regimes, got.T) == (want.n, want.m, want.num_regimes, want.T)
    for name in want.coefficients.dtype.names:
        np.testing.assert_array_equal(
            got.coefficients[name], want.coefficients[name], err_msg=name
        )
    np.testing.assert_array_equal(got.breakpoints, want.breakpoints)
    np.testing.assert_array_equal(got.x0, want.x0)
    np.testing.assert_array_equal(got.i0, want.i0)
    np.testing.assert_array_equal(got.generator.rates, want.generator.rates)


class TestModelIsItsProblem:
    """A model's ``problem`` is ``make_problem`` of its maps at y = 0."""

    def test_y_dependent_model(self):
        want = _embedding(1.0, [[-0.3, 0.3], [0.4, -0.4]], 0, TWO_REGIME_CONSTS)
        _assert_same_problem(y_dependent_model().problem, want)

    # random_coeff_three_regime has y0 = 0.1: the problem is still the one at y = 0
    @pytest.mark.parametrize("name", ["random_coeff", "random_coeff_three_regime"])
    def test_bundled_config(self, name):
        cfg = json.loads((CONFIGS / f"{name}.json").read_text())
        consts = [
            {coeff: pair[0] for coeff, pair in cfg["coefficients"][str(k + 1)].items()}
            for k in range(len(cfg["generator"]))
        ]
        want = _embedding(cfg["T"], cfg["generator"], cfg["i0"] - 1, consts)
        _assert_same_problem(model_from_config(cfg).problem, want)

    def test_constant_problem_refuses_slopes(self):
        with pytest.raises(ValidationError, match="y-dependent"):
            constant_problem(y_dependent_model())

    def test_constant_problem_solves_bitwise_as_the_explicit_problem(self):
        got = rl.solve_riccati(constant_problem(two_regime_model()), 200)
        want = rl.solve_riccati(
            _embedding(1.0, [[-0.3, 0.3], [0.4, -0.4]], 0, TWO_REGIME_CONSTS), 200
        )
        for field in ("P", "Theta", "rhat_min_eig"):
            np.testing.assert_array_equal(getattr(got, field), getattr(want, field), err_msg=field)


def _forward_moments(model, N):
    """Mean and variance of the forward Euler driver at each node."""
    h = model.problem.T / N
    b = 1.0 - model.kappa * h
    m, v = [model.y0], [0.0]
    for _ in range(N):
        m.append(m[-1] + model.kappa * (model.theta_bar - m[-1]) * h)
        v.append(b * b * v[-1] + model.nu ** 2 * h)
    return np.array(m), np.array(v)


class TestGenerateTrainingPaths:
    def test_zero_volatility_driver_deterministic(self):
        model = two_regime_model(nu=0.0, kappa=2.0, theta_bar=1.0, y0=0.2)
        bundle = rl.generate_training_paths(model, 50, 20, 1)
        y = full_driver(bundle)
        assert np.all(y == y[:, :1])
        assert y[-1, 0] > y[0, 0]  # mean reversion toward 1
        np.testing.assert_allclose(y[:, 0], _forward_moments(model, 20)[0], rtol=1e-14)
        # the increments are node i's own normals, scaled by sqrt(h)
        for i in (0, 7, 19):
            z = derive_rng(1, "bundle-z", i).standard_normal(50)
            np.testing.assert_array_equal(bundle.dW[:, i], np.sqrt(1.0 / 20) * z)

    def test_frozen_driver(self):
        model = two_regime_model(nu=0.0, kappa=0.0, y0=0.3)
        bundle = rl.generate_training_paths(model, 30, 10, 2)
        np.testing.assert_array_equal(full_driver(bundle), np.full((11, 30), 0.3))

    def test_diverging_euler_step_rejected(self):
        # the Euler factor 1 - kappa*T/N must stay inside (-1, 1)
        with pytest.raises(ValidationError, match="kappa"):
            rl.generate_training_paths(two_regime_model(kappa=20.0), 30, 10, 2)
        model = two_regime_model(kappa=20.0)
        bundle = rl.generate_training_paths(model, 30, 11, 2)
        assert np.all(np.abs(full_driver(bundle)) < 3.0)

    def test_shape_and_reproducibility(self):
        model = y_dependent_model()
        a = rl.generate_training_paths(model, 10_000, 50, 3)
        assert a.y.shape == (10_000,)  # the driver at node N only
        assert full_driver(a).shape == (51, 10_000)
        assert a.dW.shape == (10_000, 50)
        assert a.regimes.shape == (10_000, 51)
        b = rl.generate_training_paths(model, 10_000, 50, 3)
        np.testing.assert_array_equal(a.y, b.y)
        np.testing.assert_array_equal(a.dW, b.dW)
        np.testing.assert_array_equal(a.regimes, b.regimes)

    def test_bundle_regimes_take_one_byte_per_node(self):
        bundle = rl.generate_training_paths(y_dependent_model(), 5000, 40, 3)
        assert bundle.regimes.nbytes == 5000 * 41

    def test_bundle_keeps_the_fields_the_benchmark_tracer_reads(self):
        # bench/tracer.py sums these arrays' nbytes, reads num_steps and binds
        # generate_training_paths's arguments by the names M and N
        M, N = 37, 9
        bundle = rl.generate_training_paths(y_dependent_model(), M, N, 3)
        for field in ("times", "y", "dW", "regimes"):
            assert isinstance(getattr(bundle, field), np.ndarray), field
        assert bundle.num_steps == N
        assert bundle.num_paths == M
        params = inspect.signature(rl.generate_training_paths).parameters
        assert {"M", "N"} <= set(params)

    @pytest.mark.parametrize("M", [1, 37])
    @pytest.mark.parametrize("N", [1, 2, 3, 4, 9, 10, 11, 100])
    def test_rows_satisfy_the_euler_recursion(self, N, M):
        model = y_dependent_model()
        bundle = rl.generate_training_paths(model, M, N, 40 + N)
        h = model.problem.T / N
        y = full_driver(bundle)
        dW = bundle.dW
        assert np.all(y[0] == model.y0)
        np.testing.assert_array_equal(y[-1], bundle.y)
        euler = y[:-1] + model.kappa * (model.theta_bar - y[:-1]) * h + model.nu * dW.T
        assert np.max(np.abs(y[1:] - euler)) <= 4 * np.finfo(float).eps * (1 + np.max(np.abs(y)))
        # the rows the walk yields, last node first, are those materialized
        nodes = []
        for i, yi, dWi in _driver_backward(bundle):
            np.testing.assert_array_equal(yi, y[i])
            np.testing.assert_array_equal(dWi, dW[:, i])
            nodes.append(i)
        assert nodes == list(range(N - 1, -1, -1))

    @pytest.mark.parametrize("kappa", [0.0, 1.5, 30.0])
    def test_walk_has_the_law_of_the_forward_chain(self, kappa):
        # kappa h = 1.5 at kappa = 30 (N = 20): the Euler factor is negative
        model = dataclasses.replace(three_regime_model(), kappa=kappa, y0=1.0)
        M, N = 20_000, 20
        h = model.problem.T / N
        bundle = rl.generate_training_paths(model, M, N, 31)
        y, dW = full_driver(bundle), bundle.dW.T
        m, v = _forward_moments(model, N)
        within = lambda got, want, se: abs(got - want) <= 5 * se
        assert np.all(y[0] == model.y0)
        for i in range(1, N + 1):
            assert within(y[i].mean(), m[i], np.sqrt(v[i] / M)), i
            assert within(y[i].var(ddof=1), v[i], v[i] * np.sqrt(2 / (M - 1))), i
        for i in range(N):
            assert within(dW[i].mean(), 0.0, np.sqrt(h / M)), i
            assert within(dW[i].var(ddof=1), h, h * np.sqrt(2 / (M - 1))), i
            if i > 0:
                assert within(np.corrcoef(y[i], dW[i])[0, 1], 0.0, 1 / np.sqrt(M)), i

    def test_increments_of_fewer_paths_are_a_prefix(self):
        model = y_dependent_model()
        small = rl.generate_training_paths(model, 37, 10, 5)
        large = rl.generate_training_paths(model, 5000, 10, 5)
        np.testing.assert_array_equal(small.y, large.y[:37])
        np.testing.assert_array_equal(small.dW, large.dW[:37])
        np.testing.assert_array_equal(full_driver(small), full_driver(large)[:, :37])

    @pytest.mark.parametrize("N", [1, 9, 100])
    def test_sweep_reads_each_node_once_last_first(self, N, monkeypatch):
        model = y_dependent_model()
        bundle = rl.generate_training_paths(model, 50, N, 7)
        seen = []
        walk = bsde._driver_backward

        def record(bundle):
            for i, yi, dWi in walk(bundle):
                seen.append(i)
                yield i, yi, dWi

        monkeypatch.setattr(bsde, "_driver_backward", record)
        rl.backward_regression_solve(model, bundle, degree=1)
        assert seen == list(range(N - 1, -1, -1))

    def test_regimes_come_from_the_chain_chunk_streams(self):
        model = three_regime_model()
        bundle = rl.generate_training_paths(model, CHUNK_SIZE + 10, 20, 9)
        draw = lambda rng, n: (
            sample_regimes_on_grid(
                model.problem.generator, model.problem.i0, bundle.times, rng, n
            ),
        )
        (want,) = run_chunks(CHUNK_SIZE + 10, 9, "bundle", draw)
        np.testing.assert_array_equal(bundle.regimes, want)
        assert bundle.regimes.dtype == want.dtype


def _inject_driver(monkeypatch, model, y, M, N):
    """A bundle whose driver is ``y`` at every node, on a real bundle's increments."""
    bundle = rl.generate_training_paths(model, M, N, 0)
    dW = bundle.dW.T
    monkeypatch.setattr(
        bsde, "_driver_backward", lambda bundle: ((i, y, dW[i]) for i in range(N - 1, -1, -1))
    )
    return dataclasses.replace(bundle, y=y)


class TestBackwardRegression:
    def test_terminal_exact_on_sample_points(self):
        model = y_dependent_model()
        bundle = rl.generate_training_paths(model, 2000, 20, 4)
        sol = rl.backward_regression_solve(model, bundle, degree=3)
        yN = bundle.y
        kN = bundle.regimes[:, -1]
        np.testing.assert_array_equal(
            sol.value_at(20, kN, yN), model.coeff_rows(yN, kN)("G")
        )

    def test_zero_data_gives_zero_solution(self):
        model = rl.make_model(
            T=1.0, generator=[[-0.3, 0.3], [0.4, -0.4]], i0=0,
            kappa=1.0, theta_bar=0.0, nu=0.5, y0=0.0, y_range=(-3.0, 3.0),
            coeffs=[
                _constant_coeffs(G=(0.0, 0.0), Q=(0.0, 0.0), S=(0.0, 0.0)),
                _constant_coeffs(G=(0.0, 0.0), Q=(0.0, 0.0), S=(0.0, 0.0),
                                 R=(0.8, 0.0)),
            ],
        )
        bundle = rl.generate_training_paths(model, 1000, 25, 5)
        sol = rl.backward_regression_solve(model, bundle, degree=3)
        np.testing.assert_array_equal(sol.value_weights, 0.0)

    def test_oracle_equivalence_constant_coefficients(self):
        model = two_regime_model()
        oracle = rl.solve_riccati(constant_problem(model), 1000)
        bundle = rl.generate_training_paths(model, 20_000, 50, 6)
        sol = rl.backward_regression_solve(model, bundle, degree=3)
        for k in range(2):
            got = sol.value_single(0, k, model.y0)
            want = float(oracle.P[0, k, 0, 0])
            assert abs(got - want) / abs(want) <= 5e-3

    def test_grid_coarser_than_the_switching_solves(self):
        # h * rate = 2: the first-order step I + h Q would have stay
        # probability -1; the exact step exp(h Q) takes any grid
        model = two_regime_model()
        model = dataclasses.replace(model, problem=dataclasses.replace(
            model.problem, generator=rl.validate_generator([[-30.0, 30.0], [40.0, -40.0]])
        ))
        oracle = rl.solve_riccati(constant_problem(model), 1000)
        bundle = rl.generate_training_paths(model, 20_000, 20, 6)
        sol = rl.backward_regression_solve(model, bundle, degree=3)
        for k in range(2):
            want = float(oracle.P[0, k, 0, 0])
            assert abs(sol.value_single(0, k, model.y0) - want) / abs(want) <= 5e-3

    def test_linear_driver_case(self):
        # Q = S = 0, B = C = D = 0: the recursion is the linear equation
        # dP/dt = -2 A P with regime coupling, matching the Lyapunov solve
        model = rl.make_model(
            T=1.0, generator=[[-0.5, 0.5], [0.5, -0.5]], i0=0,
            kappa=1.0, theta_bar=0.0, nu=0.5, y0=0.0, y_range=(-3.0, 3.0),
            coeffs=[
                _constant_coeffs(A=(0.4, 0.0), B=(0.0, 0.0), D=(0.0, 0.0),
                                 Q=(0.0, 0.0), G=(1.0, 0.0)),
                _constant_coeffs(A=(-0.2, 0.0), B=(0.0, 0.0), D=(0.0, 0.0),
                                 Q=(0.0, 0.0), G=(2.0, 0.0)),
            ],
        )
        lyap = rl.lyapunov_solve(constant_problem(model), 1000)
        bundle = rl.generate_training_paths(model, 20_000, 100, 7)
        sol = rl.backward_regression_solve(model, bundle, degree=3)
        for k in range(2):
            got = sol.value_single(0, k, model.y0)
            want = float(lyap.P[0, k, 0, 0])
            assert abs(got - want) / abs(want) <= 5e-3

    def test_y_dependent_solution_varies_in_y(self):
        model = y_dependent_model()
        bundle = rl.generate_training_paths(model, 20_000, 50, 8)
        sol = rl.backward_regression_solve(model, bundle, degree=3)
        mid = 25
        lo = sol.value_single(mid, 0, -1.0)
        hi = sol.value_single(mid, 0, 1.0)
        assert lo != hi

    def test_monotone_refinement_in_paths(self):
        # error vs the ODE oracle is non-increasing in M, averaged over seeds
        model = two_regime_model()
        oracle = float(rl.solve_riccati(constant_problem(model), 1000).P[0, 0, 0, 0])
        errs = []
        for M in (1000, 4000, 16_000):
            per_seed = []
            for seed in range(5):
                bundle = rl.generate_training_paths(model, M, 50, 100 + seed)
                sol = rl.backward_regression_solve(model, bundle, degree=3)
                per_seed.append(abs(sol.value_single(0, 0, model.y0) - oracle))
            errs.append(np.mean(per_seed))
        assert errs[0] >= errs[1] >= errs[2]

    @pytest.mark.parametrize("degree", [-1, 2.5, "3", None])
    def test_degree_must_be_a_nonnegative_integer(self, degree):
        model = y_dependent_model()
        bundle = rl.generate_training_paths(model, 100, 10, 9)
        with pytest.raises(ValidationError, match="degree"):
            rl.backward_regression_solve(model, bundle, degree=degree)

    def test_too_few_paths_rejected(self):
        model = y_dependent_model()
        bundle = rl.generate_training_paths(model, 30, 10, 9)
        with pytest.raises(ValidationError):
            rl.backward_regression_solve(model, bundle, degree=3)

    def test_ill_conditioned_basis_detected(self, monkeypatch):
        # two distinct driver values at every node: z^2 and z^3 duplicate
        # the lower columns, so they cannot support a cubic basis
        model = y_dependent_model()
        M, N = 400, 4
        y = 0.5 + np.where(np.arange(M) % 2 == 0, 0.0, 1e-6)
        bundle = _inject_driver(monkeypatch, model, y, M, N)
        assert np.unique(full_driver(bundle), axis=1).shape[1] == 2
        with pytest.raises(IllConditionedRegression):
            rl.backward_regression_solve(model, bundle, degree=3)

    def test_negative_rhat_detected(self):
        # strongly negative running weight drives the value negative, and
        # with D = 1, R small the regressed Rhat collapses
        model = rl.make_model(
            T=1.0, generator=[[-0.3, 0.3], [0.4, -0.4]], i0=0,
            kappa=1.0, theta_bar=0.0, nu=0.5, y0=0.0, y_range=(-3.0, 3.0),
            coeffs=[
                _constant_coeffs(Q=(-5.0, 0.0), D=(1.0, 0.0), R=(0.001, 0.0),
                                 G=(0.0, 0.0)),
                _constant_coeffs(Q=(-5.0, 0.0), D=(1.0, 0.0), R=(0.001, 0.0),
                                 G=(0.0, 0.0)),
            ],
        )
        bundle = rl.generate_training_paths(model, 1000, 25, 10)
        with pytest.raises(NegativeRhat):
            rl.backward_regression_solve(model, bundle, degree=3)


class TestBsdeResidual:
    def test_zero_solution_residuals_exactly_zero(self):
        model = rl.make_model(
            T=1.0, generator=[[-0.3, 0.3], [0.4, -0.4]], i0=0,
            kappa=1.0, theta_bar=0.0, nu=0.5, y0=0.0, y_range=(-3.0, 3.0),
            coeffs=[
                _constant_coeffs(G=(0.0, 0.0), Q=(0.0, 0.0)),
                _constant_coeffs(G=(0.0, 0.0), Q=(0.0, 0.0), R=(0.8, 0.0)),
            ],
        )
        train = rl.generate_training_paths(model, 1000, 25, 11)
        sol = rl.backward_regression_solve(model, train, degree=3)
        fresh = rl.generate_training_paths(model, 500, 25, 12)
        res = bsde_residual(sol, model, fresh)
        np.testing.assert_array_equal(res.mean, 0.0)

    def test_unbiased_on_constant_coefficients(self):
        model = two_regime_model()
        train = rl.generate_training_paths(model, 50_000, 50, 13)
        sol = rl.backward_regression_solve(model, train, degree=3)
        fresh = rl.generate_training_paths(model, 20_000, 50, 24)
        res = bsde_residual(sol, model, fresh)
        z = np.abs(res.mean) / res.stderr
        assert np.max(z) <= 3.0

    def test_residual_shrinks_with_step(self):
        # single regime with C = D = 0: the residual is the pure (first
        # order) scheme bias, so the trend is free of sampling noise
        model = rl.make_model(
            T=1.0, generator=[[0.0]], i0=0,
            kappa=1.0, theta_bar=0.0, nu=0.5, y0=0.0, y_range=(-3.0, 3.0),
            coeffs=[_constant_coeffs(A=(0.4, 0.0), B=(0.5, 0.0), C=(0.0, 0.0),
                                     D=(0.0, 0.0), Q=(0.3, 0.0), G=(1.5, 0.0))],
        )
        maxima = []
        for N in (25, 50, 100):
            train = rl.generate_training_paths(model, 5000, N, 15)
            sol = rl.backward_regression_solve(model, train, degree=3)
            fresh = rl.generate_training_paths(model, 2000, N, 16)
            res = bsde_residual(sol, model, fresh)
            maxima.append(np.max(np.abs(res.mean)))
        assert maxima[0] > maxima[1] > maxima[2]


def _exact_products(A, B):
    """A B' of row-major (p, M) and (q, M) arrays, each entry summed exactly.

    Only the products round, by eps / 2 each, so an entry is off by at most
    eps / 2 times the sum of its terms' magnitudes; a plain dot product of M
    terms would add up to M eps and swamp the bounds below.
    """
    return np.array([[fsum(a * b) for b in B] for a in A])


class TestBasisFactorization:
    """``_basis_svd`` (R factor, then the SVD of R) against numpy's thin SVD."""

    EPS = np.finfo(np.float64).eps

    @pytest.mark.parametrize("degree", [0, 3, 5, 8, 12])
    def test_matches_numpy_svd(self, degree):
        y = 0.3 + 0.5 * np.random.default_rng(5).standard_normal(20_000)
        Ut, sv, Vt, c, s = bsde._basis_svd(y, degree, np.empty((degree + 1, len(y))))
        assert (c, s) == (float(y.mean()), float(y.std()))
        assert Ut.shape == (degree + 1, len(y)) and Ut.flags.c_contiguous
        U, sv_ref, _ = np.linalg.svd(
            np.vander((y - c) / s, degree + 1, increasing=True), full_matrices=False
        )
        np.testing.assert_allclose(sv, sv_ref, rtol=0, atol=10 * self.EPS * sv_ref[0])
        bound = 10 * (sv_ref[0] / sv_ref[-1]) * self.EPS
        gram = _exact_products(Ut, Ut)
        assert np.max(np.abs(gram - np.eye(degree + 1))) <= bound
        # targets with a large part in the span, one without
        Y = np.vstack([np.cos(y), y * y, np.random.default_rng(6).standard_normal(len(y))])
        got = _exact_products(Y, Ut) @ Ut
        if degree == 0:
            # the projector is the sample mean; numpy's U of a ones column
            # spreads over about 20 ulp, so its projector is the rougher one
            want = np.array([[fsum(row) / len(y)] for row in Y])
        else:
            want = _exact_products(Y, U.T) @ U.T
        assert np.max(np.abs(got - want)) <= bound * np.max(np.abs(want))

    def test_degenerate_samples_give_the_constant_basis(self):
        y = 0.7 + 1e-14 * np.random.default_rng(7).standard_normal(1000)
        assert y.std() < bsde.DEGENERATE_STD
        Ut, sv, Vt, c, s = bsde._basis_svd(y, 5, np.empty((6, len(y))))
        assert Ut.shape == (1, len(y)) and sv.shape == (1,) and Vt.shape == (1, 1)
        assert (c, s) == (float(y.mean()), 1.0)
        np.testing.assert_allclose(sv, np.sqrt(len(y)), rtol=4 * self.EPS)
        np.testing.assert_allclose(Ut * Vt[0, 0], 1.0 / np.sqrt(len(y)), rtol=4 * self.EPS)

    def test_four_distinct_values_cannot_carry_a_quintic(self, monkeypatch):
        # the driver takes 4 values at every node, so the degree 5 basis has
        # rank 4; under the CLI's floating-point traps the sweep still
        # reports the condition number, not a floating-point error
        model = y_dependent_model()
        M, N = 400, 4
        bundle = _inject_driver(monkeypatch, model, 0.1 * (np.arange(M) % 4), M, N)
        assert np.unique(full_driver(bundle), axis=1).shape[1] == 4
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            with pytest.raises(IllConditionedRegression):
                rl.backward_regression_solve(model, bundle, degree=5)


class TestSweepAgainstReference:
    """The sweep against the three-lstsq sweep it replaced."""

    CASES = {
        # the bsde command's bundled config at its benchmark size and seed
        "random_coeff": (
            lambda: model_from_config(json.loads((CONFIGS / "random_coeff.json").read_text())),
            30_000, 100, 42,
        ),
        "y_dependent": (y_dependent_model, 8000, 40, 21),
        "three_regime": (three_regime_model, 8000, 40, 22),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_matches_reference_sweep(self, case):
        make, M, N, seed = self.CASES[case]
        model = make()
        bundle = rl.generate_training_paths(model, M, N, seed)
        sol = rl.backward_regression_solve(model, bundle, degree=3)
        ref = reference_regression_solve(model, bundle, degree=3)
        np.testing.assert_array_equal(sol.y_center, ref.y_center)
        np.testing.assert_array_equal(sol.y_scale, ref.y_scale)
        # per field, i.e. per basis power over all nodes and regimes: a
        # weight near zero carries the absolute rounding of the large ones
        for name in ("value_weights", "lambda_weights"):
            got, want = getattr(sol, name), getattr(ref, name)
            err = np.max(np.abs(got - want), axis=(0, 1))
            assert np.all(err <= 1e-10 * np.max(np.abs(want), axis=(0, 1))), name
        # a residual of a degenerate (constant) basis is pure rounding, so
        # residuals are compared on the scale of the values they measure
        scale = float(np.max(np.abs(ref.value_weights)))
        np.testing.assert_allclose(
            sol.regression_residuals, ref.regression_residuals,
            rtol=1e-10, atol=1e-10 * scale,
        )
        np.testing.assert_allclose(sol.basis_condition, ref.basis_condition, rtol=1e-12)

    def test_condition_number_is_that_of_the_basis(self):
        model = three_regime_model()
        bundle = rl.generate_training_paths(model, 3000, 10, 23)
        sol = rl.backward_regression_solve(model, bundle, degree=3)
        y = full_driver(bundle)
        for i in range(bundle.num_steps):
            z = (y[i] - sol.y_center[i]) / sol.y_scale[i]
            Phi = np.vander(z, 4, increasing=True) if np.std(z) > 0.0 else np.ones((len(z), 1))
            assert sol.basis_condition[i] == pytest.approx(np.linalg.cond(Phi), rel=1e-12)

    def test_negative_rhat_checked_per_regime(self):
        # regime 1 below the floor on 0.15% of its samples, regime 2 nowhere:
        # 0.075% of all samples, yet one regime crosses the 0.1% limit
        M = 20_000
        R = np.ones((2, M))
        R[0, :30] = -1.0
        coef = lambda name: R.copy() if name == "R" else np.zeros((2, M))
        zero = np.zeros((2, M))
        with pytest.raises(NegativeRhat, match="0.15% of samples"):
            _driver(coef, zero, zero, 0.5)
        R[0, :30] = 1.0
        R[0, :10] = -1.0  # 0.05% of regime 1's samples: tolerated
        assert np.all(_driver(coef, zero, zero, 0.5) == 0.0)
