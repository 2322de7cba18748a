"""Simulate module: Euler stepping, path records, cost evaluation, MC engine."""

import mmap

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import regimelq as rl
from regimelq.errors import ValidationError
from regimelq.simulate import (
    _draw_chunk_noise, _evolve, _loop_table, mc_run, paired_refinement_run,
)
from regimelq.streams import (
    CHUNK_SIZE, MAP_MIN_BYTES, derive_rng, derive_seed, mapped_zeros, run_chunks,
)

import kernel_reference as ref
from canonical import (
    det_lqr,
    det_lqr_oracle,
    multidim_two_segment,
    scalar_analytic,
    stochastic_scalar,
    switching_scalar,
    two_regime_coupling,
)


class TestEulerStep:
    def test_identity_when_all_zero(self):
        cs = rl.coeff_at(two_regime_coupling(), 0.0, 0)
        x = np.array([1.7])
        out = rl.euler_maruyama_step(x, np.array([0.3]), cs, 0.1, 0.01)
        np.testing.assert_array_equal(out, x)

    def test_pure_drift(self):
        cs = rl.coeff_at(
            rl.make_problem(
                n=1, m=1, T=1.0, generator=[[0.0]],
                coefficients=[[{"A": 1, "B": 0, "C": 0, "D": 0, "Q": 0, "S": 0, "R": 1}]],
                G=[[[0.0]]], x0=[1.0], i0=0,
            ), 0.0, 0,
        )
        out = rl.euler_maruyama_step(np.array([1.0]), np.array([0.0]), cs, 0.3, 0.01)
        assert out[0] == pytest.approx(1.01, rel=1e-14)

    def test_pure_diffusion(self):
        prob = rl.make_problem(
            n=2, m=1, T=1.0, generator=[[0.0]],
            coefficients=[[{
                "A": np.zeros((2, 2)), "B": np.zeros((2, 1)), "C": np.eye(2),
                "D": np.zeros((2, 1)), "Q": np.zeros((2, 2)),
                "S": np.zeros((1, 2)), "R": [[1.0]],
            }]],
            G=[np.eye(2)], x0=[1.0, 0.0], i0=0,
        )
        cs = rl.coeff_at(prob, 0.0, 0)
        out = rl.euler_maruyama_step(np.array([1.0, 0.0]), np.array([0.0]), cs, 0.1, 0.5)
        np.testing.assert_allclose(out, [1.1, 0.0])


class TestClosedLoopPath:
    def test_frozen_state_under_zero_gain(self):
        # Theta = 0 (B=S=C=0 makes Shat vanish) and A = 0: X stays at x0
        prob = rl.make_problem(
            n=1, m=1, T=1.0, generator=[[0.0]],
            coefficients=[[{"A": 0, "B": 0, "C": 0, "D": 0.5, "Q": 1, "S": 0, "R": 1}]],
            G=[[[1.0]]], x0=[1.3], i0=0,
        )
        grid = rl.solve_riccati(prob, 50)
        path = rl.simulate_closed_loop(prob, rl.FeedbackLaw(prob, grid), 50, 11)
        np.testing.assert_array_equal(path.X, np.full((51, 1), 1.3))
        np.testing.assert_array_equal(path.U, np.zeros((50, 1)))

    def test_deterministic_lqr_cost_matches_fine_oracle(self):
        # no diffusion, no chain: the Euler path cost converges to the
        # continuous optimal cost from the independent RK4 oracle
        _, cost_oracle = det_lqr_oracle()
        prob = det_lqr()
        grid = rl.solve_riccati(prob, 2000)
        law = rl.FeedbackLaw(prob, grid)
        path = rl.simulate_closed_loop(prob, law, 2000, 5)
        assert path.dW @ path.dW > 0  # noise drawn but inert (C = D = 0)
        coarse = rl.simulate_closed_loop(prob, law, 1000, 5)
        err_fine = abs(path.cost - cost_oracle)
        err_coarse = abs(coarse.cost - cost_oracle)
        assert err_fine <= 5e-3
        assert err_fine <= 0.75 * err_coarse  # first-order refinement

    def test_reproducible(self):
        prob = stochastic_scalar()
        grid = rl.solve_riccati(prob, 100)
        law = rl.FeedbackLaw(prob, grid)
        a = rl.simulate_closed_loop(prob, law, 100, 21)
        b = rl.simulate_closed_loop(prob, law, 100, 21)
        np.testing.assert_array_equal(a.X, b.X)
        assert a.cost == b.cost


class TestEvaluateCost:
    def test_terminal_only(self):
        prob = rl.make_problem(
            n=2, m=1, T=1.0, generator=[[0.0]],
            coefficients=[[{
                "A": np.zeros((2, 2)), "B": np.zeros((2, 1)), "C": np.zeros((2, 2)),
                "D": np.zeros((2, 1)), "Q": np.zeros((2, 2)),
                "S": np.zeros((1, 2)), "R": np.eye(1),
            }]],
            G=[np.eye(2)], x0=[3.0, 4.0], i0=0,
        )
        grid = rl.solve_riccati(prob, 10)
        path = rl.simulate_closed_loop(prob, rl.FeedbackLaw(prob, grid), 10, 1)
        assert rl.evaluate_cost(path, prob) == pytest.approx(25.0, rel=1e-14)

    def test_zero_path(self):
        prob = rl.make_problem(
            n=1, m=1, T=1.0, generator=[[0.0]],
            coefficients=[[{"A": 0, "B": 1, "C": 0, "D": 0, "Q": 1, "S": 0, "R": 1}]],
            G=[[[1.0]]], x0=[0.0], i0=0,
        )
        grid = rl.solve_riccati(prob, 10)
        path = rl.simulate_closed_loop(prob, rl.FeedbackLaw(prob, grid), 10, 2)
        assert rl.evaluate_cost(path, prob) == 0.0

    def test_constant_integrand_exact(self):
        # X frozen at 1, u = 0, Q = 1, G = 0: left sum of a constant is exact
        prob = rl.make_problem(
            n=1, m=1, T=1.0, generator=[[0.0]],
            coefficients=[[{"A": 0, "B": 0, "C": 0, "D": 0, "Q": 1, "S": 0, "R": 1}]],
            G=[[[0.0]]], x0=[1.0], i0=0,
        )
        grid = rl.solve_riccati(prob, 40)
        path = rl.simulate_closed_loop(prob, rl.FeedbackLaw(prob, grid), 40, 3)
        assert rl.evaluate_cost(path, prob) == pytest.approx(1.0, rel=1e-12)

    def test_additivity(self):
        prob = stochastic_scalar()
        grid = rl.solve_riccati(prob, 100)
        path = rl.simulate_closed_loop(prob, rl.FeedbackLaw(prob, grid), 100, 4)
        assert rl.evaluate_cost(path, prob) == pytest.approx(
            path.running_cost + path.terminal_cost, rel=1e-14
        )


class TestMcCost:
    def test_deterministic_problem_zero_stderr(self):
        prob = det_lqr()
        grid = rl.solve_riccati(prob, 100)
        est = rl.mc_cost(prob, rl.FeedbackLaw(prob, grid), 500, 9, 100)
        assert est.stderr == 0.0
        assert est.n == 500

    def test_frozen_state_zero_table(self):
        # scalar test problem with u = 0: A = C = Q = 0 freezes X, cost = G x0^2
        prob = scalar_analytic()
        table = rl.ControlTable(values=np.zeros((50, 1)))
        est = rl.mc_cost(prob, table, 200, 10, 50)
        assert est.mean == 1.0
        assert est.stderr == 0.0

    def test_scalar_closed_loop_value(self):
        prob = scalar_analytic()
        grid = rl.solve_riccati(prob, 200)
        est = rl.mc_cost(prob, rl.FeedbackLaw(prob, grid), 1000, 12, 200)
        # no diffusion: stderr is zero and the discrete cost telescopes to 1/2
        assert est.mean == pytest.approx(0.5, abs=1e-12)

    def test_two_regime_value_within_three_stderr(self):
        prob = two_regime_coupling()
        grid = rl.solve_riccati(prob, 100)
        est = rl.mc_cost(prob, rl.FeedbackLaw(prob, grid), 100_000, 13, 100)
        target = float(grid.P[0, 0, 0, 0])
        assert abs(est.mean - target) <= 3.0 * est.stderr

    def test_reproducible_across_workers(self):
        prob = stochastic_scalar()
        grid = rl.solve_riccati(prob, 100)
        law = rl.FeedbackLaw(prob, grid)
        est1 = rl.mc_cost(prob, law, 20_000, 14, 100, workers=1)
        est4 = rl.mc_cost(prob, law, 20_000, 14, 100, workers=4)
        assert est1 == est4

    def test_grid_refinement_reduces_bias(self):
        # value estimates approach x0' P(0) x0 as the grid refines
        prob = stochastic_scalar()
        grid = rl.solve_riccati(prob, 400)
        law = rl.FeedbackLaw(prob, grid)
        target = float(prob.x0 @ grid.P[0, prob.i0] @ prob.x0)
        biases = []
        for N in (50, 100, 200):
            c_n, c_2n, _, _ = paired_refinement_run(prob, lambda n: law, 20_000, 15, N)
            # paired refinement estimates the bias step with tiny variance
            biases.append(abs(float(np.mean(c_2n - c_n))))
        assert biases[0] > biases[1] > biases[2]

    def test_scalar_and_general_paths_agree(self):
        # the kernel gives the same cost on a scalar problem and on its
        # embedding with a decoupled, unweighted second state
        prob1 = stochastic_scalar()
        cs = prob1.coefficients[0][0]
        prob2 = rl.make_problem(
            n=2, m=1, T=1.0, generator=[[0.0]],
            coefficients=[[{
                "A": np.diag([cs.A[0, 0], 0.0]), "B": [[cs.B[0, 0]], [0.0]],
                "C": np.diag([cs.C[0, 0], 0.0]), "D": [[cs.D[0, 0]], [0.0]],
                "Q": np.diag([cs.Q[0, 0], 0.0]), "S": [[cs.S[0, 0], 0.0]],
                "R": cs.R,
            }]],
            G=[np.diag([1.0, 0.0])], x0=[1.0, 0.0], i0=0,
        )
        g1 = rl.solve_riccati(prob1, 100)
        table = rl.ControlTable(values=np.full((100, 1), 0.2))
        est1 = rl.mc_cost(prob1, table, 5000, 16, 100)
        est2 = rl.mc_cost(prob2, table, 5000, 16, 100)
        assert est1.mean == pytest.approx(est2.mean, rel=1e-12)
        assert g1.P.shape == (101, 1, 1, 1)

    def test_common_random_numbers_zero_perturbation(self):
        prob = stochastic_scalar()
        grid = rl.solve_riccati(prob, 100)
        law = rl.FeedbackLaw(prob, grid)
        zero = rl.ControlTable(values=np.zeros((100, 1)))
        est = rl.mc_cost_diff(
            prob, rl.PerturbedFeedback(law, zero), law, 2000, 17, 100
        )
        assert est.mean == 0.0
        assert est.stderr == 0.0

    def test_zero_paths_rejected(self):
        prob = stochastic_scalar()
        law = rl.FeedbackLaw(prob, rl.solve_riccati(prob, 20))
        with pytest.raises(ValidationError):
            mc_run(prob, law, 0, 19, 20)
        with pytest.raises(ValidationError):
            paired_refinement_run(prob, lambda n: law, 0, 19, 20)

    def test_estimators_need_one_hundred_paths(self):
        prob = stochastic_scalar()
        grid = rl.solve_riccati(prob, 20)
        law = rl.FeedbackLaw(prob, grid)
        with pytest.raises(ValidationError):
            rl.mc_cost(prob, law, 99, 20, 20)
        with pytest.raises(ValidationError):
            rl.mc_cost_diff(prob, law, law, 5, 20, 20)
        # a check built on too few paths is refused, not reported with a nan tolerance
        with pytest.raises(ValidationError):
            rl.perturbation_test(prob, grid, 5, 1, 3)

    def test_terminal_state_returned(self):
        prob = two_regime_coupling()
        grid = rl.solve_riccati(prob, 50)
        costs, x_T = mc_run(prob, rl.FeedbackLaw(prob, grid), 300, 18, 50)
        # B = D = 0 and A = C = 0: state frozen, cost = G(alpha_T) x0^2
        np.testing.assert_array_equal(x_T, np.ones((300, 1)))
        assert set(np.round(costs, 12)) <= {0.0, 2.0}


def _reference_paths(prob, gains, table, times, regimes, dW):
    """Step each path alone with euler_maruyama_step; cost it with evaluate_cost."""
    N = len(times) - 1
    h = times[1] - times[0]
    costs, x_T = [], []
    for reg, dw in zip(regimes, dW):
        X = np.empty((N + 1, prob.n))
        U = np.zeros((N, prob.m))
        X[0] = prob.x0
        for i in range(N):
            cs = rl.coeff_at(prob, times[i], reg[i])
            if gains is not None:
                U[i] = gains(times[i], reg[i]) @ X[i]
            if table is not None:
                U[i] += table[i]
            X[i + 1] = rl.euler_maruyama_step(X[i], U[i], cs, dw[i], h)
        path = rl.PathRecord(times, dw, reg, X, U, running_cost=0.0, terminal_cost=0.0)
        costs.append(rl.evaluate_cost(path, prob))
        x_T.append(X[-1])
    return np.array(costs), np.array(x_T)


def _assert_close(actual, expected):
    scale = np.max(np.abs(expected))
    np.testing.assert_allclose(actual, expected, rtol=1e-12, atol=1e-12 * scale)


class TestKernelMatchesReference:
    """The batch kernel against per-path Euler stepping on the same noise."""

    N = 20

    @pytest.mark.parametrize("make_problem", [switching_scalar, multidim_two_segment])
    @pytest.mark.parametrize("kind", ["feedback", "perturbed", "table"])
    def test_mc_run_costs_and_terminal_state(self, make_problem, kind):
        prob = make_problem()
        times = np.linspace(0.0, prob.T, self.N + 1)
        law = rl.FeedbackLaw(prob, rl.solve_riccati(prob, self.N))
        v = 0.3 * derive_rng(20).standard_normal((self.N, prob.m))
        control = {
            "feedback": law,
            "perturbed": rl.PerturbedFeedback(law, rl.ControlTable(v)),
            "table": rl.ControlTable(v),
        }[kind]
        n_paths, seed = 40, 21
        costs, x_T = mc_run(prob, control, n_paths, seed, self.N)
        regimes, dW = _draw_chunk_noise(prob, times, derive_rng(seed, "chunk", 0), n_paths)
        ref_costs, ref_x_T = _reference_paths(
            prob, None if kind == "table" else law.gain,
            None if kind == "feedback" else v, times, regimes, dW,
        )
        _assert_close(costs, ref_costs)
        _assert_close(x_T, ref_x_T)

    def test_recorded_path_matches_reference(self):
        prob = multidim_two_segment()
        law = rl.FeedbackLaw(prob, rl.solve_riccati(prob, self.N))
        path = rl.simulate_closed_loop(prob, law, self.N, 22)
        costs, x_T = _reference_paths(
            prob, law.gain, None, path.times, path.regimes[None], path.dW[None]
        )
        _assert_close(path.cost, costs[0])
        _assert_close(path.X[-1], x_T[0])
        U = np.array([law.gain(t, k) @ x for t, k, x in zip(path.times, path.regimes, path.X[:-1])])
        _assert_close(path.U, U)


@st.composite
def kernel_instances(draw):
    """A random problem with n, m, D <= 3 on one or two segments, and a control."""
    n, m, d = (draw(st.integers(min_value=1, max_value=3)) for _ in range(3))
    N = draw(st.integers(min_value=2, max_value=8))
    vals = st.floats(min_value=-1.0, max_value=1.0)
    mat = lambda rows, cols: np.array(
        draw(st.lists(vals, min_size=rows * cols, max_size=rows * cols))
    ).reshape(rows, cols)
    def psd(k):
        L = mat(k, k)
        return np.eye(k) + L @ L.T

    cell = lambda: {
        "A": 0.5 * mat(n, n), "B": mat(n, m), "C": 0.5 * mat(n, n), "D": 0.1 * mat(n, m),
        "Q": psd(n), "S": 0.25 * mat(m, n), "R": psd(m),
    }
    breakpoints = [0.0, draw(st.floats(min_value=0.2, max_value=0.8)), 1.0]
    if draw(st.booleans()):
        breakpoints.pop(1)
    rates = np.array(
        draw(st.lists(st.floats(min_value=0.0, max_value=3.0), min_size=d * d, max_size=d * d))
    ).reshape(d, d)
    np.fill_diagonal(rates, 0.0)
    np.fill_diagonal(rates, -rates.sum(axis=1))
    prob = rl.make_problem(
        n=n, m=m, T=1.0, generator=rates,
        coefficients=[[cell() for _ in range(d)] for _ in breakpoints[1:]],
        G=[psd(n) for _ in range(d)], x0=mat(1, n)[0],
        i0=draw(st.integers(min_value=0, max_value=d - 1)), breakpoints=breakpoints,
    )
    # a fine solve keeps RK4 stable; the kernel reads its gains off-node
    law = rl.FeedbackLaw(prob, rl.solve_riccati(prob, 32))
    table = rl.ControlTable(mat(N, m))
    control = draw(st.sampled_from([
        law, rl.PerturbedFeedback(law, table), table,
    ]))
    return prob, N, control


@settings(max_examples=60, deadline=None, derandomize=True)
@given(kernel_instances())
def test_property_kernel_matches_reference(instance):
    # the state-major kernel against the path-major einsum kernel it replaced,
    # on the same noise, which the copy-free draw reproduces exactly
    prob, N, control = instance
    times = np.linspace(0.0, prob.T, N + 1)
    seed = derive_seed(23, prob.n, prob.m, prob.num_regimes, N)
    regimes, dW = _draw_chunk_noise(prob, times, derive_rng(seed), 37)
    ref_regimes, ref_dW = ref._draw_chunk_noise(prob, times, derive_rng(seed), 37)
    np.testing.assert_array_equal(regimes, ref_regimes)
    np.testing.assert_array_equal(dW, ref_dW)

    states = np.empty((N + 1, prob.n, 37))
    ref_states = np.empty((37, N + 1, prob.n))
    got = _evolve(prob, _loop_table(prob, control, times), regimes, dW, states=states)
    want = ref._evolve(prob, ref._loop_table(prob, control, times), regimes, dW, ref_states)
    for actual, expected in zip(got + (states.transpose(2, 0, 1),), want + (ref_states,)):
        if prob.n == 1:
            # one term per mat-vec row: every product is the same single multiply
            assert actual.tobytes() == np.ascontiguousarray(expected).tobytes()
        else:
            scale = np.max(np.abs(expected))
            np.testing.assert_allclose(actual, expected, rtol=1e-13, atol=1e-13 * scale)


@pytest.mark.parametrize("workers", [1, 2])
def test_chunk_lanes_keep_the_floating_point_error_state(workers):
    # a fault raises on a worker lane exactly as on the caller's thread
    def draw(rng, n):
        return (np.full(n, 1e300) * 1e300,)

    with np.errstate(over="raise"):
        with pytest.raises(FloatingPointError):
            run_chunks(2 * CHUNK_SIZE, 1, "fault", draw, workers)


def _memory_map_under(a: np.ndarray):
    while isinstance(a, np.ndarray):
        a = a.base
    a = a.obj if isinstance(a, memoryview) else a
    return a if isinstance(a, mmap.mmap) else None


@pytest.mark.parametrize("nbytes", [8, MAP_MIN_BYTES - 8, MAP_MIN_BYTES, 3 * MAP_MIN_BYTES])
def test_mapped_zeros_is_a_writable_zeroed_array(nbytes):
    a = mapped_zeros((2, nbytes // 16), np.int64)
    assert a.shape == (2, nbytes // 16) and a.dtype == np.int64
    assert a.flags.c_contiguous and a.flags.writeable and not a.any()
    assert (_memory_map_under(a) is not None) == (nbytes >= MAP_MIN_BYTES)


def test_full_chunk_noise_lies_in_memory_maps():
    # a full chunk's regimes and increments stay off the malloc heap, where
    # their placement would move the run's peak memory by megabytes
    prob = two_regime_coupling()
    times = np.linspace(0.0, prob.T, 101)
    regimes, dW = _draw_chunk_noise(prob, times, derive_rng(3), CHUNK_SIZE)
    assert regimes.nbytes >= MAP_MIN_BYTES and dW.nbytes >= MAP_MIN_BYTES
    assert _memory_map_under(regimes) is not None and _memory_map_under(dW) is not None
