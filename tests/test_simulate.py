"""Simulate module: Euler stepping, path records, cost evaluation, MC engine."""

import json
import mmap
import os
import runpy
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import regimelq as rl
from regimelq import chain, simulate
from regimelq.chain import sample_regimes_on_grid
from regimelq.errors import ValidationError
from regimelq.model import without_control
from regimelq.simulate import _kernel_pass, _loop_table, mc_run, paired_refinement_run
from regimelq.streams import (
    CHUNK_SIZE, MAP_MIN_BYTES, derive_rng, derive_seed, mapped_zeros, run_chunks,
)

import kernel_reference as ref
from canonical import (
    coeff_at,
    det_lqr,
    det_lqr_oracle,
    multidim_two_segment,
    random_convex,
    scalar_analytic,
    stochastic_scalar,
    switching_scalar,
    two_regime_coupling,
)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


class TestEulerStep:
    def test_identity_when_all_zero(self):
        cs = coeff_at(two_regime_coupling(), 0.0, 0)
        x = np.array([1.7])
        out = ref.euler_maruyama_step(x, np.array([0.3]), cs, 0.1, 0.01)
        np.testing.assert_array_equal(out, x)

    def test_pure_drift(self):
        cs = coeff_at(
            rl.make_problem(
                n=1, m=1, T=1.0, generator=[[0.0]],
                coefficients=[[{"A": 1, "B": 0, "C": 0, "D": 0, "Q": 0, "S": 0, "R": 1}]],
                G=[[[0.0]]], x0=[1.0], i0=0,
            ), 0.0, 0,
        )
        out = ref.euler_maruyama_step(np.array([1.0]), np.array([0.0]), cs, 0.3, 0.01)
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
        cs = coeff_at(prob, 0.0, 0)
        out = ref.euler_maruyama_step(np.array([1.0, 0.0]), np.array([0.0]), cs, 0.1, 0.5)
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
        assert ref.evaluate_cost(path, prob) == pytest.approx(25.0, rel=1e-14)

    def test_zero_path(self):
        prob = rl.make_problem(
            n=1, m=1, T=1.0, generator=[[0.0]],
            coefficients=[[{"A": 0, "B": 1, "C": 0, "D": 0, "Q": 1, "S": 0, "R": 1}]],
            G=[[[1.0]]], x0=[0.0], i0=0,
        )
        grid = rl.solve_riccati(prob, 10)
        path = rl.simulate_closed_loop(prob, rl.FeedbackLaw(prob, grid), 10, 2)
        assert ref.evaluate_cost(path, prob) == 0.0

    def test_constant_integrand_exact(self):
        # X frozen at 1, u = 0, Q = 1, G = 0: left sum of a constant is exact
        prob = rl.make_problem(
            n=1, m=1, T=1.0, generator=[[0.0]],
            coefficients=[[{"A": 0, "B": 0, "C": 0, "D": 0, "Q": 1, "S": 0, "R": 1}]],
            G=[[[0.0]]], x0=[1.0], i0=0,
        )
        grid = rl.solve_riccati(prob, 40)
        path = rl.simulate_closed_loop(prob, rl.FeedbackLaw(prob, grid), 40, 3)
        assert ref.evaluate_cost(path, prob) == pytest.approx(1.0, rel=1e-12)

    def test_additivity(self):
        prob = stochastic_scalar()
        grid = rl.solve_riccati(prob, 100)
        path = rl.simulate_closed_loop(prob, rl.FeedbackLaw(prob, grid), 100, 4)
        assert ref.evaluate_cost(path, prob) == pytest.approx(
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
            c_n, c_2n, _, _ = paired_refinement_run(prob, law, 20_000, 15, N)
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
        zero = rl.ControlTable(values=np.zeros((100, 1)), law=law)
        est = rl.mc_cost_diff(prob, zero, law, 2000, 17, 100)
        assert est.mean == 0.0
        assert est.stderr == 0.0

    def test_zero_paths_rejected(self):
        prob = stochastic_scalar()
        law = rl.FeedbackLaw(prob, rl.solve_riccati(prob, 20))
        with pytest.raises(ValidationError):
            mc_run(prob, law, 0, 19, 20)
        with pytest.raises(ValidationError):
            paired_refinement_run(prob, law, 0, 19, 20)

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
            rl.perturbation_test(prob, grid, 1, 3)

    def test_control_resolution(self):
        prob = stochastic_scalar()
        grid = rl.solve_riccati(prob, 20)
        with pytest.raises(ValidationError, match="unsupported control source"):
            rl.mc_cost(prob, grid, 200, 22, 20)
        perturbed = rl.ControlTable(np.zeros((21, prob.m)), rl.FeedbackLaw(prob, grid))
        with pytest.raises(ValidationError, match=r"control table shape \(21, 1\) does not match"):
            rl.mc_cost(prob, perturbed, 200, 22, 20)

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
            cs = coeff_at(prob, times[i], reg[i])
            if gains is not None:
                U[i] = gains(times[i], reg[i]) @ X[i]
            if table is not None:
                U[i] += table[i]
            X[i + 1] = ref.euler_maruyama_step(X[i], U[i], cs, dw[i], h)
        path = rl.PathRecord(times, dw, reg, X, U, running_cost=0.0, terminal_cost=0.0)
        costs.append(ref.evaluate_cost(path, prob))
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
            "perturbed": rl.ControlTable(v, law),
            "table": rl.ControlTable(v),
        }[kind]
        n_paths, seed = 40, 21
        costs, x_T = mc_run(prob, control, n_paths, seed, self.N)
        regimes, dW = ref.replay_chunk_noise(prob, times, derive_rng(seed, "chunk", 0), n_paths)
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


@pytest.mark.parametrize("kind", ["feedback", "perturbed", "table"])
def test_loop_table_block_maps_a_regime_state_to_its_closed_loop_terms(kind):
    # column block k of M[i] applied to e_k (x) [x; 1] gives the closed-loop
    # drift, diffusion and cost terms of regime k, built here from the grid
    # coefficients and the gains
    prob = multidim_two_segment()
    n, d, N = prob.n, prob.num_regimes, 6
    times = np.linspace(0.0, prob.T, N + 1)
    law = rl.FeedbackLaw(prob, rl.solve_riccati(prob, N))
    v = 0.3 * derive_rng(26).standard_normal((N, prob.m))
    control = {
        "feedback": law,
        "perturbed": rl.ControlTable(v, law),
        "table": rl.ControlTable(v),
    }[kind]
    M = _loop_table(prob, control, times).M
    assert M.shape == (N, 3 * n + 1, d * (n + 1))
    if kind == "feedback":
        # without v the affine column of every block and the last row are zero
        assert not M[:, :, n :: n + 1].any() and not M[:, 3 * n].any()
    A, B, C, D, Q, S, R = prob.coefficients_at(times[:-1])
    Theta = np.zeros((N, d, prob.m, n)) if kind == "table" else law.gains_at_times(times[:-1])
    v = np.zeros_like(v) if kind == "feedback" else v
    rng = derive_rng(27)
    for i in range(N):
        for k in range(d):
            a, b, c, dd, q, s, r, th = (x[i, k] for x in (A, B, C, D, Q, S, R, Theta))
            x = rng.standard_normal(n)
            onehot = np.zeros((d, n + 1))
            onehot[k] = np.append(x, 1.0)
            got = M[i] @ onehot.ravel()
            vi = v[i]
            want = np.concatenate([
                (a + b @ th) @ x + b @ vi,
                (c + dd @ th) @ x + dd @ vi,
                (q + th.T @ s + s.T @ th + th.T @ r @ th) @ x + 2.0 * (s.T @ vi + th.T @ r @ vi),
                [vi @ r @ vi],
            ])
            np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-13 * np.max(np.abs(want)))
            u = th @ x + vi
            assert x @ got[2 * n : 3 * n] + got[3 * n] == pytest.approx(
                x @ q @ x + 2.0 * u @ s @ x + u @ r @ u, rel=1e-12
            )


@st.composite
def kernel_instances(draw):
    """A random problem with n, m <= 3 and D <= 5 on one or two segments, and a control."""
    n, m = (draw(st.integers(min_value=1, max_value=3)) for _ in range(2))
    d = draw(st.integers(min_value=1, max_value=5))
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
        law, rl.ControlTable(table.values, law), table,
    ]))
    return prob, N, control


def _assert_matches_reference(actual, expected, n):
    if n == 1:
        # one term per mat-vec row: every product is the same single multiply
        assert actual.tobytes() == np.ascontiguousarray(expected).tobytes()
    else:
        scale = np.max(np.abs(expected))
        np.testing.assert_allclose(actual, expected, rtol=1e-13, atol=1e-13 * scale)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(kernel_instances())
def test_property_kernel_matches_reference(instance):
    # the one-matmul kernel pass against the path-major einsum kernel of
    # kernel_reference, fed the increments replayed from the same stream
    prob, N, control = instance
    times = np.linspace(0.0, prob.T, N + 1)
    seed = derive_seed(23, prob.n, prob.m, prob.num_regimes, N)
    rng = derive_rng(seed)
    regimes = sample_regimes_on_grid(prob.generator, prob.i0, times, rng, 37)
    states = np.empty((N + 1, prob.n, 37))
    drawn = np.empty((N, 37))
    (got,) = _kernel_pass(
        prob, times, regimes, rng, [(_loop_table(prob, control, times), 1)],
        states=states, dW=drawn,
    )
    ref_regimes, dW = ref.replay_chunk_noise(prob, times, derive_rng(seed), 37)
    np.testing.assert_array_equal(regimes, ref_regimes)
    assert drawn.T.tobytes() == np.ascontiguousarray(dW).tobytes()

    ref_states = np.empty((37, N + 1, prob.n))
    want = ref._evolve(prob, ref._loop_table(prob, control, times), regimes, dW, ref_states)
    for actual, expected in zip(got + (states.transpose(2, 0, 1),), want + (ref_states,)):
        _assert_matches_reference(actual, expected, prob.n)


@pytest.mark.parametrize("make_problem", [switching_scalar, multidim_two_segment])
def test_refined_run_matches_reference_on_pairwise_summed_increments(make_problem):
    # the stride-2 variant steps the N grid on the sum of each pair of 2N
    # increments, at the regime of its left node; the reference is fed
    # that sum and every other node of the 2N chain
    prob = make_problem()
    N, n_paths, seed = 10, 40, 28
    times2 = np.linspace(0.0, prob.T, 2 * N + 1)
    law = rl.FeedbackLaw(prob, rl.solve_riccati(prob, 2 * N))
    costs1, costs2, x_T1, x_T2 = paired_refinement_run(prob, law, n_paths, seed, N)
    regimes2, dW2 = ref.replay_chunk_noise(prob, times2, derive_rng(seed, "refine", 0), n_paths)
    for costs, x_T, times, regimes, dW in [
        (costs1, x_T1, times2[::2], regimes2[:, ::2], dW2[:, 0::2] + dW2[:, 1::2]),
        (costs2, x_T2, times2, regimes2, dW2),
    ]:
        running, terminal, want_x_T = ref._evolve(
            prob, ref._loop_table(prob, law, times), regimes, dW
        )
        _assert_matches_reference(costs, running + terminal, prob.n)
        _assert_matches_reference(x_T, want_x_T, prob.n)


@pytest.mark.parametrize("make_problem", [two_regime_coupling, det_lqr])
def test_diffusion_free_pass_draws_no_increments(make_problem):
    # C = D = 0: after the chain the pass draws nothing from the chunk
    # stream, and every lane, stride 1 and the stride-2 refinement lane,
    # steps bit for bit as the reference does on the increments it skipped
    prob = make_problem()
    N, n_paths, seed = 10, 40, 29
    times2 = np.linspace(0.0, prob.T, 2 * N + 1)
    law = rl.FeedbackLaw(prob, rl.solve_riccati(prob, 2 * N))
    v = 0.3 * derive_rng(30).standard_normal((2 * N, prob.m))
    perturbed = rl.ControlTable(v, law)
    rng = derive_rng(seed)
    regimes = sample_regimes_on_grid(prob.generator, prob.i0, times2, rng, n_paths)
    after_chain = rng.bit_generator.state
    got = _kernel_pass(prob, times2, regimes, rng, [
        (_loop_table(prob, law, times2[::2]), 2),
        (_loop_table(prob, law, times2), 1),
        (_loop_table(prob, perturbed, times2), 1),
    ])
    assert rng.bit_generator.state == after_chain
    _, dW2 = ref.replay_chunk_noise(prob, times2, derive_rng(seed), n_paths)
    for actual, (control, times, regs, dW) in zip(got, [
        (law, times2[::2], regimes[:, ::2], dW2[:, 0::2] + dW2[:, 1::2]),
        (law, times2, regimes, dW2),
        (perturbed, times2, regimes, dW2),
    ]):
        want = ref._evolve(prob, ref._loop_table(prob, control, times), regs, dW)
        for a, b in zip(actual, want):
            _assert_matches_reference(a, b, prob.n)


def _control_noise_only() -> rl.ProblemSpec:
    """C = 0, D != 0: a zero control table steps without diffusion, a feedback law with it."""
    return rl.make_problem(
        n=1, m=1, T=1.0, generator=[[0.0]],
        coefficients=[[{"A": 0.1, "B": 0.5, "C": 0, "D": 0.4, "Q": 1.0, "S": 0, "R": 1.0}]],
        G=[[[1.0]]], x0=[1.0], i0=0,
    )


def _one_noisy_regime() -> rl.ProblemSpec:
    """Two regimes; only the second has diffusion."""
    return rl.make_problem(
        n=1, m=1, T=1.0, generator=[[-2.0, 2.0], [1.5, -1.5]],
        coefficients=[[
            {"A": 0.1, "B": 0.5, "C": 0, "D": 0, "Q": 1.0, "S": 0.1, "R": 1.0},
            {"A": -0.3, "B": 1.0, "C": 0.4, "D": 0.1, "Q": 0.5, "S": -0.2, "R": 2.0},
        ]],
        G=[[[1.0]], [[0.5]]], x0=[1.0], i0=0,
    )


@pytest.mark.parametrize("make_problem", [_control_noise_only, _one_noisy_regime])
def test_pass_with_any_diffusion_draws_for_every_variant(make_problem):
    # one variant or one regime with diffusion makes the whole pass draw,
    # and each variant steps as the reference does on those increments
    prob = make_problem()
    N, n_paths, seed = 20, 40, 31
    times = np.linspace(0.0, prob.T, N + 1)
    law = rl.FeedbackLaw(prob, rl.solve_riccati(prob, N))
    zero = rl.ControlTable(np.zeros((N, prob.m)))
    diffusion = [_loop_table(prob, c, times).M[:, 1:2] for c in (zero, law)]
    if make_problem is _control_noise_only:
        assert not diffusion[0].any() and diffusion[1].any()
    else:
        for block in diffusion:  # columns [x, 1] of regime 0, then of regime 1
            assert not block[..., :2].any() and block[..., 2:].any()
    costs_zero, costs_law, x_T_zero = mc_run(prob, zero, n_paths, seed, N, control_b=law)
    regimes, dW = ref.replay_chunk_noise(prob, times, derive_rng(seed, "chunk", 0), n_paths)
    for control, costs, x_T in [(zero, costs_zero, x_T_zero), (law, costs_law, None)]:
        running, terminal, want_x_T = ref._evolve(
            prob, ref._loop_table(prob, control, times), regimes, dW
        )
        _assert_matches_reference(costs, running + terminal, prob.n)
        if x_T is not None:
            _assert_matches_reference(x_T, want_x_T, prob.n)


def test_recorded_diffusion_free_path_keeps_drawing_its_increments():
    # simulate_closed_loop records dW, so its stream still advances past the chain
    prob = two_regime_coupling()
    N, seed = 20, 32
    law = rl.FeedbackLaw(prob, rl.solve_riccati(prob, N))
    path = rl.simulate_closed_loop(prob, law, N, seed)
    regimes, dW = ref.replay_chunk_noise(prob, path.times, derive_rng(seed, "path"), 1)
    np.testing.assert_array_equal(path.regimes, regimes[0])
    assert path.dW.tobytes() == dW[0].tobytes()


# --- live blocks -----------------------------------------------------------

def _block_index(n: int, block: str):
    """(row or column axis, index) of a named block of a (N, 3n+1, D, n+1) table."""
    return {
        "drift": (1, slice(0, n)), "diffusion": (1, slice(n, 2 * n)),
        "cost": (1, slice(2 * n, 3 * n)), "affine": (1, 3 * n),
        "X": (3, slice(0, n)), "1": (3, n),
    }[block]


def _zeroed(table, n: int, num_regimes: int, blocks, regimes=None):
    """``table`` with the named blocks zeroed, in every regime or only in ``regimes``."""
    M = table.M.reshape(len(table.M), 3 * n + 1, num_regimes, n + 1).copy()
    for block in blocks:
        axis, index = _block_index(n, block)
        where = [slice(None)] * 4
        where[axis] = index
        where[2] = slice(None) if regimes is None else regimes
        M[tuple(where)] = 0.0
    M = M.reshape(table.M.shape)
    return table._replace(M=M, live=simulate._live_blocks(M, n, num_regimes))


def _assert_pass_matches_full_table(prob, times, variants, n_paths, seed, record=False):
    """The live-block pass, its draws and its recordings, bit for bit against
    the full-table reference on the increments replayed from the same stream."""
    rng = derive_rng(seed)
    regimes = sample_regimes_on_grid(prob.generator, prob.i0, times, rng, n_paths)
    after_chain = rng.bit_generator.state
    N, first_stride = len(times) - 1, variants[0][1]
    states = np.empty((N // first_stride + 1, prob.n, n_paths)) if record else None
    drawn = np.empty((N, n_paths)) if record else None
    got = _kernel_pass(prob, times, regimes, rng, variants, states=states, dW=drawn)
    _, dW = ref.replay_chunk_noise(prob, times, derive_rng(seed), n_paths)
    noisy = record or any(table.M[:, prob.n : 2 * prob.n].any() for table, _ in variants)
    assert (rng.bit_generator.state != after_chain) == noisy
    if record:
        assert drawn.T.tobytes() == np.ascontiguousarray(dW).tobytes()
    for lane, ((table, stride), actual) in enumerate(zip(variants, got)):
        want_states = np.empty_like(states) if record and lane == 0 else None
        summed = sum(dW[:, k::stride] for k in range(stride))
        want = ref.full_table_evolve(prob, table, regimes[:, ::stride], summed, want_states)
        for a, b in zip(actual, want):
            assert a.tobytes() == np.ascontiguousarray(b).tobytes()
        if want_states is not None:
            assert states.tobytes() == want_states.tobytes()
    return got


LIVE_BLOCKS = ["drift", "diffusion", "cost", "affine", "X", "1"]


@pytest.mark.parametrize("blocks", [[b] for b in LIVE_BLOCKS] + [LIVE_BLOCKS],
                         ids=LIVE_BLOCKS + ["all"])
@pytest.mark.parametrize("record", [False, True], ids=["batch", "recorded"])
def test_live_block_pass_matches_full_table(blocks, record):
    # a perturbed law on a problem with diffusion has every block live; one
    # block (or all) zeroed in its stride-1 lane and its stride-2 lane, next
    # to an untouched feedback lane
    prob = multidim_two_segment()
    n, d, N = prob.n, prob.num_regimes, 10
    times2 = np.linspace(0.0, prob.T, 2 * N + 1)
    law = rl.FeedbackLaw(prob, rl.solve_riccati(prob, 2 * N))
    v = 0.3 * derive_rng(33).standard_normal((2 * N, prob.m))
    perturbed = rl.ControlTable(v, law)
    fine = _zeroed(_loop_table(prob, perturbed, times2), n, d, blocks)
    coarse = _zeroed(_loop_table(prob, law, times2[::2]), n, d, blocks)
    full = simulate._live_blocks(_loop_table(prob, perturbed, times2).M, n, d)
    live = simulate._live_blocks(fine.M, n, d)
    assert full.M.shape == (2 * N, 3 * n + 1, d * (n + 1))
    assert live.M.size == 0 if blocks == LIVE_BLOCKS else live.M.size < full.M.size
    variants = [(fine, 1), (coarse, 2), (_loop_table(prob, law, times2), 1)]
    got = _assert_pass_matches_full_table(prob, times2, variants, 40, 34, record)
    if blocks == LIVE_BLOCKS:
        for lane in got[:2]:  # no live block: x0 and a zero running cost
            assert not lane[0].any() and (lane[2] == prob.x0).all()


def test_live_blocks_vanish_in_every_regime_only():
    # a block zeroed in some regimes but not all stays live
    prob = multidim_two_segment()
    n, d, N = prob.n, prob.num_regimes, 6
    times = np.linspace(0.0, prob.T, N + 1)
    law = rl.FeedbackLaw(prob, rl.solve_riccati(prob, N))
    table = _zeroed(_loop_table(prob, law, times), n, d, ["drift", "X"], regimes=[0, 2])
    live = simulate._live_blocks(table.M, n, d)
    assert live.cols == slice(0, n)  # the constant column of a feedback law is dead
    assert (live.drift, live.diffusion, live.cost, live.affine) == (
        slice(0, n), slice(n, 2 * n), slice(2 * n, 3 * n), None
    )
    assert live.M.shape == (N, 3 * n, d * n)
    _assert_pass_matches_full_table(prob, times, [(table, 1)], 40, 35)


def test_two_regime_pattern_steps_only_the_affine_cost():
    # A = B = C = D = Q = S = 0: Theta = 0, so the feedback law has no live
    # block and a perturbed law only its v'R v entry; nothing is drawn
    prob = rl.problem_from_config(json.loads((CONFIGS / "two_regime.json").read_text()))
    n, d, N = prob.n, prob.num_regimes, 10
    times2 = np.linspace(0.0, prob.T, 2 * N + 1)
    law = rl.FeedbackLaw(prob, rl.solve_riccati(prob, 2 * N))
    v = 0.3 * derive_rng(36).standard_normal((2 * N, prob.m))
    perturbed = _loop_table(prob, rl.ControlTable(v, law), times2)
    feedback = _loop_table(prob, law, times2)
    assert simulate._live_blocks(feedback.M, n, d).M.size == 0
    live = simulate._live_blocks(perturbed.M, n, d)
    assert live.M.shape == (2 * N, 1, d) and live.cols == slice(n, n + 1)
    assert live.affine == 0 and live.drift is live.diffusion is live.cost is None
    variants = [(perturbed, 1), (_loop_table(prob, law, times2[::2]), 2), (feedback, 1)]
    got = _assert_pass_matches_full_table(prob, times2, variants, 40, 37)
    for running, _, x_T in got[1:]:
        assert not running.any() and (x_T == prob.x0).all()


@st.composite
def zero_patterns(draw):
    """A random table with n, D <= 3 and a random set of its blocks zeroed,
    in every regime or in some, as up to three lanes at stride 1 or 2."""
    n = draw(st.integers(min_value=1, max_value=3))
    d = draw(st.integers(min_value=1, max_value=3))
    N = draw(st.integers(min_value=1, max_value=5))
    rates = np.full((d, d), 1.5)
    np.fill_diagonal(rates, -1.5 * (d - 1))
    cell = {"A": np.zeros((n, n)), "B": np.zeros((n, 1)), "C": np.zeros((n, n)),
            "D": np.zeros((n, 1)), "Q": np.eye(n), "S": np.zeros((1, n)), "R": np.eye(1)}
    x0 = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n))) + 0.0
    prob = rl.make_problem(
        n=n, m=1, T=1.0, generator=rates, coefficients=[[cell] * d],
        G=[np.eye(n)] * d, x0=x0, i0=draw(st.integers(min_value=0, max_value=d - 1)),
    )
    times = np.linspace(0.0, 1.0, 2 * N + 1)
    variants = []
    for lane in range(draw(st.integers(min_value=1, max_value=3))):
        stride = draw(st.sampled_from([1, 2]))
        nodes = 2 * N // stride
        rng = derive_rng(38, n, d, N, lane)
        M = 0.5 * rng.standard_normal((nodes, 3 * n + 1, d * (n + 1)))
        table = simulate._LoopTable(float(times[stride]), None, M, simulate._live_blocks(M, n, d))
        dead = draw(st.lists(st.sampled_from(LIVE_BLOCKS), unique=True))
        some = draw(st.lists(st.integers(min_value=0, max_value=d - 1), unique=True))
        table = _zeroed(table, n, d, dead)
        table = _zeroed(table, n, d, draw(st.lists(st.sampled_from(LIVE_BLOCKS))), some)
        variants.append((table, stride))
    n_paths = draw(st.sampled_from([1, 2, 5, 37]))
    return prob, times, variants, n_paths, draw(st.booleans())


@settings(max_examples=80, deadline=None, derandomize=True)
@given(zero_patterns())
def test_property_live_block_pass_matches_full_table(instance):
    prob, times, variants, n_paths, record = instance
    _assert_pass_matches_full_table(prob, times, variants, n_paths, 39, record)


# --- the kernel plan ---------------------------------------------------------

def _record_cuts(monkeypatch) -> list:
    """Record every ``_live_blocks`` call as (keep_all, the table's M, the cut)."""
    calls = []
    cut = simulate._live_blocks

    def recorded(M, n, num_regimes, keep_all=False):
        live = cut(M, n, num_regimes, keep_all)
        calls.append((keep_all, M, live))
        return live

    monkeypatch.setattr(simulate, "_live_blocks", recorded)
    return calls


def test_each_table_is_cut_once_per_run(monkeypatch):
    # the cut travels with its table, so no chunk of the run cuts again
    prob = multidim_two_segment()
    N, n_paths = 4, 2 * CHUNK_SIZE + 100  # three chunks
    law = rl.FeedbackLaw(prob, rl.solve_riccati(prob, 2 * N))
    perturbed = rl.ControlTable(0.1 * np.ones((N, prob.m)), law)
    calls = _record_cuts(monkeypatch)
    mc_run(prob, law, n_paths, 3, N, control_b=perturbed)
    assert [keep_all for keep_all, *_ in calls] == [False, False]
    calls.clear()
    paired_refinement_run(prob, law, n_paths, 3, N)
    assert [keep_all for keep_all, *_ in calls] == [False, False]


def test_one_path_pass_steps_the_full_table(monkeypatch):
    # BLAS sums a matrix-vector product in blocks of columns, so a one-path
    # pass cuts the whole table again, although the feedback law's affine
    # column is dead and its compact cut is narrower; the property below
    # checks the bytes this keeps
    prob = multidim_two_segment()
    law = rl.FeedbackLaw(prob, rl.solve_riccati(prob, 6))
    calls = _record_cuts(monkeypatch)
    rl.simulate_closed_loop(prob, law, 6, 7)
    (keep_compact, M, compact), (keep_full, M_full, full) = calls
    assert (keep_compact, keep_full) == (False, True) and M_full is M
    assert full.M is M and compact.M.shape[2] < M.shape[2]
    # so does a last chunk of one path, on the run's own table
    calls.clear()
    mc_run(prob, law, CHUNK_SIZE + 1, 8, 6)
    (keep_compact, M, _), (keep_full, M_full, full) = calls
    assert (keep_compact, keep_full) == (False, True) and M_full is M and full.M is M


def _whole_table(table, n: int):
    """``table`` with its whole matrix as the cut: every column, every row,
    and its live row blocks named where they sit in the matrix."""
    at = (slice(0, n), slice(n, 2 * n), slice(2 * n, 3 * n), 3 * n)
    blocks = [None if live is None else where for live, where in zip(table.live[2:], at)]
    return table._replace(live=simulate._LiveBlocks(table.M, slice(0, n + 1), *blocks))


# (seed, N, open-loop part): random_convex(2) is n = 3, m = 1 with one regime,
# where the compact cut of a feedback law drops 1 of 4 columns; stepped at one
# path on that cut, its X_T moved in the last bit
@settings(max_examples=25, deadline=None, derandomize=True)
@given(st.integers(min_value=0, max_value=2**16), st.integers(min_value=2, max_value=5),
       st.booleans())
@example(2, 2, False)
def test_property_pass_gives_the_whole_table_bytes(seed, N, affine):
    # on a random convex problem (n, m, D <= 3), with and without a live
    # affine column: one recorded path, a 4096-path chunk and a one-path last
    # chunk step to the bytes of the same pass on the whole table
    prob = random_convex(seed)
    times = np.linspace(0.0, prob.T, N + 1)
    control = rl.FeedbackLaw(prob, rl.solve_riccati(prob, N))
    if affine:
        control = rl.ControlTable(derive_rng(40, N).standard_normal((N, prob.m)), control)
    table = _loop_table(prob, control, times)
    whole = _whole_table(table, prob.n)
    got = []
    for variant in (table, whole):
        rng = derive_rng(41)
        regimes = sample_regimes_on_grid(prob.generator, prob.i0, times, rng, 1)
        states, dW = np.empty((N + 1, prob.n, 1)), np.empty((N, 1))
        out = _kernel_pass(prob, times, regimes, rng, [(variant, 1)], states=states, dW=dW)
        got.append([a.tobytes() for a in (*out[0], states, dW)])
    assert got[0] == got[1]
    got = []
    for variant in (table, whole):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(simulate, "_loop_table", lambda *args: variant)
            got.append([a.tobytes() for a in mc_run(prob, control, CHUNK_SIZE + 1, 42, N)])
    assert got[0] == got[1]


def test_whole_table_bytes_at_four_blas_threads():
    # OpenBLAS splits a product across its threads by the thread count
    env = dict(os.environ, OPENBLAS_NUM_THREADS="4")
    test = f"{Path(__file__).resolve()}::test_property_pass_gives_the_whole_table_bytes"
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", test],
        cwd=CONFIGS.parent, env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


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


def _multidim_workload_problem() -> rl.ProblemSpec:
    workloads = runpy.run_path(str(CONFIGS.parent / "bench" / "workloads.py"))
    return rl.problem_from_config(workloads["multidim_config"](42))


SLQ_CONFIGS = [
    path for path in sorted(CONFIGS.glob("*.json"))
    if json.loads(path.read_text())["kind"] == "slq"
]


@pytest.mark.parametrize("load", [
    *(lambda path=path: rl.problem_from_config(json.loads(path.read_text()))
      for path in SLQ_CONFIGS),
    _multidim_workload_problem,
], ids=[path.stem for path in SLQ_CONFIGS] + ["multidim"])
def test_lyapunov_law_steps_the_zero_tables_bytes(load):
    # without its control a problem's gains are exact zeros, so the Lyapunov
    # law's closed-loop table is the zero control's, live-block cut included,
    # on the estimate's N grid and on the calibration's 2N grid
    prob, N = load(), 20
    free = without_control(prob)
    law = rl.FeedbackLaw(free, rl.lyapunov_solve(prob, N))
    times2 = np.linspace(0.0, prob.T, 2 * N + 1)
    for times in (times2[::2], times2):
        zero = _loop_table(prob, rl.ControlTable(np.zeros((len(times) - 1, prob.m))), times)
        lyap = _loop_table(free, law, times)
        assert not lyap.gains.any()
        assert lyap.M.tobytes() == zero.M.tobytes()
        assert lyap.live[1:] == zero.live[1:]
        assert lyap.live.M.tobytes() == zero.live.M.tobytes()


@pytest.mark.parametrize("load", [
    lambda: rl.problem_from_config(json.loads((CONFIGS / "two_regime.json").read_text())),
    _multidim_workload_problem,
], ids=["two_regime", "multidim"])
def test_narrow_regimes_step_like_int64_regimes(load):
    # the kernel only compares the regimes with their labels, so their dtype moves no bit
    prob = load()
    N = 20
    times = np.linspace(0.0, prob.T, N + 1)
    law = rl.FeedbackLaw(prob, rl.solve_riccati(prob, N))
    v = 0.3 * derive_rng(24).standard_normal((N, prob.m))
    variants = [(_loop_table(prob, rl.ControlTable(v, law), times), 1)]
    regimes = sample_regimes_on_grid(prob.generator, prob.i0, times, derive_rng(25), 300)
    assert regimes.dtype == np.int8
    narrow = _kernel_pass(prob, times, regimes, derive_rng(26), variants)[0]
    wide = _kernel_pass(prob, times, regimes.astype(np.int64), derive_rng(26), variants)[0]
    for a, b in zip(narrow, wide):
        assert a.tobytes() == b.tobytes()


class _AllocationLog:
    """numpy with its array constructors logged, for a module's ``np``."""

    CONSTRUCTORS = ("empty", "zeros", "ones", "full", "empty_like", "zeros_like", "ones_like")

    def __init__(self):
        self.requests = []  # (module, shape, dtype, array)

    def wrap(self, module, make):
        def logged(*args, **kwargs):
            a = make(*args, **kwargs)
            self.requests.append((module, a.shape, a.dtype, a))
            return a
        return logged

    def numpy_for(self, module):
        log = self

        class LoggedNumpy:
            def __getattr__(self, name):
                attr = getattr(np, name)
                return log.wrap(module, attr) if name in log.CONSTRUCTORS else attr

        return LoggedNumpy()


def test_full_chunk_holds_no_per_node_array_but_its_regime_grid(monkeypatch):
    # the increments are drawn a row at a time, so the one per-path, per-node
    # array a full chunk requests is its int8 chain grid, in a map of its own
    log = _AllocationLog()
    for module in (simulate, chain):
        monkeypatch.setattr(module, "np", log.numpy_for(module.__name__))
        monkeypatch.setattr(
            module, "mapped_zeros", log.wrap(module.__name__, mapped_zeros), raising=False
        )
    prob = two_regime_coupling()
    law = rl.FeedbackLaw(prob, rl.solve_riccati(prob, 100))
    table = rl.ControlTable(np.zeros((100, prob.m)))
    mc_run(prob, law, CHUNK_SIZE, 3, 100, control_b=table)
    paired_refinement_run(prob, law, CHUNK_SIZE, 3, 50)
    node_counts = {50, 51, 100, 101}  # N or N+1 of either grid
    per_node = [
        request for request in log.requests
        if CHUNK_SIZE in request[1] and node_counts & set(request[1])
    ]
    assert [request[:3] for request in per_node] == [
        ("regimelq.chain", (101, CHUNK_SIZE), np.int8)
    ] * 2
    assert all(_memory_map_under(a) is not None for *_, a in per_node)
