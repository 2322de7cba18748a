"""BSDE module: path bundles, backward regression, residual diagnostics."""

import json
from pathlib import Path

import numpy as np
import pytest

import regimelq as rl
from regimelq.bsde import PathBundle, _driver, constant_problem, model_from_config
from regimelq.errors import IllConditionedRegression, NegativeRhat, ValidationError

from bsde_reference import reference_regression_solve

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


class TestGenerateTrainingPaths:
    def test_zero_volatility_driver_deterministic(self):
        model = two_regime_model(nu=0.0, kappa=2.0, theta_bar=1.0, y0=0.2)
        bundle = rl.generate_training_paths(model, 50, 20, 1)
        assert np.all(bundle.y == bundle.y[0])
        assert bundle.y[0, -1] > bundle.y[0, 0]  # mean reversion toward 1

    def test_frozen_driver(self):
        model = two_regime_model(nu=0.0, kappa=0.0, y0=0.3)
        bundle = rl.generate_training_paths(model, 30, 10, 2)
        np.testing.assert_array_equal(bundle.y, np.full((30, 11), 0.3))

    def test_diverging_euler_step_rejected(self):
        # the Euler factor 1 - kappa*T/N must stay inside (-1, 1)
        with pytest.raises(ValidationError, match="kappa"):
            rl.generate_training_paths(two_regime_model(kappa=20.0), 30, 10, 2)
        bundle = rl.generate_training_paths(two_regime_model(kappa=20.0), 30, 11, 2)
        assert np.all(np.abs(bundle.y) < 3.0)

    def test_shape_and_reproducibility(self):
        model = y_dependent_model()
        a = rl.generate_training_paths(model, 10_000, 50, 3)
        assert a.y.shape == (10_000, 51)
        assert a.dW.shape == (10_000, 50)
        assert a.regimes.shape == (10_000, 51)
        b = rl.generate_training_paths(model, 10_000, 50, 3)
        np.testing.assert_array_equal(a.y, b.y)
        np.testing.assert_array_equal(a.regimes, b.regimes)

    def test_bundle_regimes_take_one_byte_per_node(self):
        bundle = rl.generate_training_paths(y_dependent_model(), 5000, 40, 3)
        assert bundle.regimes.nbytes == 5000 * 41


class TestBackwardRegression:
    def test_terminal_exact_on_sample_points(self):
        model = y_dependent_model()
        bundle = rl.generate_training_paths(model, 2000, 20, 4)
        sol = rl.backward_regression_solve(model, bundle, degree=3)
        yN = bundle.y[:, -1]
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
            want = float(lyap.M[0, k, 0, 0])
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

    def test_too_few_paths_rejected(self):
        model = y_dependent_model()
        bundle = rl.generate_training_paths(model, 30, 10, 9)
        with pytest.raises(ValidationError):
            rl.backward_regression_solve(model, bundle, degree=3)

    def test_ill_conditioned_basis_detected(self):
        # two distinct driver values cannot support a cubic basis
        model = y_dependent_model()
        M, N = 400, 4
        times = np.linspace(0.0, 1.0, N + 1)
        # two distinct driver values: z^2 and z^3 duplicate the lower columns
        y = np.tile(np.where(np.arange(M) % 2 == 0, 0.0, 1e-6), (N + 1, 1)).T
        bundle = PathBundle(
            times=times,
            y=y + 0.5,
            dW=np.zeros((M, N)),
            regimes=np.zeros((M, N + 1), dtype=np.int64),
            seed=0,
        )
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
        res = rl.bsde_residual(sol, model, fresh)
        np.testing.assert_array_equal(res.mean, 0.0)

    def test_unbiased_on_constant_coefficients(self):
        model = two_regime_model()
        train = rl.generate_training_paths(model, 50_000, 50, 13)
        sol = rl.backward_regression_solve(model, train, degree=3)
        fresh = rl.generate_training_paths(model, 20_000, 50, 24)
        res = rl.bsde_residual(sol, model, fresh)
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
            res = rl.bsde_residual(sol, model, fresh)
            maxima.append(res.max_abs_mean())
        assert maxima[0] > maxima[1] > maxima[2]


class TestSweepAgainstReference:
    """The one-SVD sweep against the three-lstsq sweep it replaced."""

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
        for i in range(bundle.num_steps):
            z = (bundle.y[:, i] - sol.y_center[i]) / sol.y_scale[i]
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
