"""Riccati module: RHS algebra, backward solve, feedback law, certificates."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import solve_ivp

import regimelq as rl
from regimelq.errors import SingularRhat, ValidationError
from regimelq import riccati
from regimelq.riccati import RHAT_FLOOR, _guard_rhat, stationarity_defect

from canonical import (
    TWO_REGIME_P0,
    coeff_at,
    det_lqr,
    det_lqr_oracle,
    multidim_two_segment,
    nonconvex,
    random_convex,
    riccati_rhs,
    scalar_analytic,
    scalar_p_exact,
    two_regime_coupling,
)


class TestRiccatiRhs:
    def test_all_zero(self):
        prob = rl.make_problem(
            n=1, m=1, T=1.0, generator=[[0.0]],
            coefficients=[[{"A": 0, "B": 0, "C": 0, "D": 0, "Q": 0, "S": 0, "R": 1}]],
            G=[[[0.0]]], x0=[0.0], i0=0,
        )
        dP = riccati_rhs(np.zeros((1, 1, 1)), 0.5, prob)
        np.testing.assert_array_equal(dP, np.zeros((1, 1, 1)))

    def test_scalar_quadratic_term(self):
        # A=C=Q=S=0, B=R=1, D=0: dP/dt = P^2
        prob = scalar_analytic()
        for p in (0.3, 1.0, 2.5):
            dP = riccati_rhs(np.array([[[p]]]), 0.2, prob)
            assert dP[0, 0, 0] == pytest.approx(p * p, rel=1e-14)

    def test_coupling_only(self):
        prob = two_regime_coupling()
        dP = riccati_rhs(np.array([[[2.0]], [[0.0]]]), 0.1, prob)
        assert dP[0, 0, 0] == pytest.approx(2.0, rel=1e-14)
        assert dP[1, 0, 0] == pytest.approx(-2.0, rel=1e-14)

    def test_singular_rhat_reported(self):
        prob = nonconvex()
        with pytest.raises(SingularRhat) as exc_info:
            riccati_rhs(np.array([[[-10.0]]]), 1.0, prob)
        assert exc_info.value.eigenvalue < 0.0


class TestSolveRiccati:
    def test_scalar_analytic(self):
        grid = rl.solve_riccati(scalar_analytic(), 200)
        err = np.max(np.abs(grid.P[:, 0, 0, 0] - scalar_p_exact(grid.times)))
        assert err <= 1e-8
        assert grid.P[0, 0, 0, 0] == pytest.approx(0.5, abs=1e-8)
        assert grid.Theta[0, 0, 0, 0] == pytest.approx(-0.5, abs=1e-8)

    def test_two_regime_coupling(self):
        grid = rl.solve_riccati(two_regime_coupling(), 200)
        assert grid.P[0, 0, 0, 0] == pytest.approx(TWO_REGIME_P0[0], abs=1e-8)
        assert grid.P[0, 1, 0, 0] == pytest.approx(TWO_REGIME_P0[1], abs=1e-8)

    def test_decoupling_when_no_jumps(self):
        # two regimes with distinct coefficients but zero generator: each P
        # equals the corresponding single-regime solve
        c1 = {"A": 0.2, "B": 1.0, "C": 0.1, "D": 0.3, "Q": 1.0, "S": 0.1, "R": 1.0}
        c2 = {"A": -0.1, "B": 0.5, "C": 0.0, "D": 0.2, "Q": 0.5, "S": 0.0, "R": 2.0}
        joint = rl.make_problem(
            n=1, m=1, T=1.0, generator=[[0.0, 0.0], [0.0, 0.0]],
            coefficients=[[dict(c1), dict(c2)]], G=[[[1.0]], [[0.5]]],
            x0=[1.0], i0=0,
        )
        grid = rl.solve_riccati(joint, 100)
        for k, (coeffs, g) in enumerate(((c1, 1.0), (c2, 0.5))):
            single = rl.make_problem(
                n=1, m=1, T=1.0, generator=[[0.0]],
                coefficients=[[dict(coeffs)]], G=[[[g]]], x0=[1.0], i0=0,
            )
            sgrid = rl.solve_riccati(single, 100)
            np.testing.assert_allclose(
                grid.P[:, k], sgrid.P[:, 0], rtol=0, atol=1e-10
            )

    def test_terminal_exact_bitwise(self):
        prob = two_regime_coupling()
        grid = rl.solve_riccati(prob, 50)
        np.testing.assert_array_equal(grid.P[-1], prob.G)

    def test_symmetry_at_every_node(self):
        prob = rl.make_problem(
            n=2, m=1, T=1.0, generator=[[-0.5, 0.5], [1.0, -1.0]],
            coefficients=[[
                {"A": [[0.1, 0.2], [0.0, -0.1]], "B": [[1.0], [0.5]],
                 "C": [[0.1, 0.0], [0.0, 0.2]], "D": [[0.2], [0.1]],
                 "Q": np.eye(2), "S": [[0.1, 0.0]], "R": [[1.0]]},
                {"A": [[-0.2, 0.1], [0.1, 0.0]], "B": [[0.3], [1.0]],
                 "C": [[0.0, 0.1], [0.1, 0.0]], "D": [[0.1], [0.3]],
                 "Q": 0.5 * np.eye(2), "S": [[0.0, 0.1]], "R": [[2.0]]},
            ]],
            G=[np.eye(2), np.diag([2.0, 0.5])], x0=[1.0, 0.0], i0=0,
        )
        grid = rl.solve_riccati(prob, 100)
        asym = np.max(np.abs(grid.P - grid.P.swapaxes(-1, -2)))
        assert asym <= 1e-10

    def test_fourth_order_convergence(self):
        prob = scalar_analytic()
        errs = []
        for N in (50, 100, 200):
            grid = rl.solve_riccati(prob, N)
            errs.append(np.max(np.abs(grid.P[:, 0, 0, 0] - scalar_p_exact(grid.times))))
        for e_coarse, e_fine in zip(errs, errs[1:]):
            ratio = e_coarse / e_fine
            assert 10.0 <= ratio <= 25.0, f"convergence ratio {ratio}"

    def test_stationarity_identity_at_nodes(self):
        for prob in (scalar_analytic(), two_regime_coupling(), det_lqr()):
            grid = rl.solve_riccati(prob, 100)
            assert stationarity_defect(prob, grid) <= 1e-10

    def test_nonconvex_detected(self):
        with pytest.raises(SingularRhat):
            rl.solve_riccati(nonconvex(), 200)

    def test_coarse_grid_with_failing_stage_is_regridded(self, monkeypatch):
        # a convex problem whose N = 2 RK4 solve leaves the psd cone at a stage
        # value at t = 0.5: the solve is redone at N = 4, which passes, and
        # read off at every other node
        prob = random_convex(124)
        grid = rl.solve_riccati(prob, 2)
        assert rl.rhat_certificate(grid) >= 1.0  # Rhat >= R >= I
        fine = rl.solve_riccati(prob, 4)
        np.testing.assert_array_equal(grid.times, fine.times[::2])
        np.testing.assert_array_equal(grid.P, fine.P[::2])
        np.testing.assert_array_equal(grid.Theta, fine.Theta[::2])
        np.testing.assert_array_equal(grid.rhat_min_eig, fine.rhat_min_eig[::2])
        monkeypatch.setattr(riccati, "MAX_REGRID_LEVELS", 0)
        with pytest.raises(SingularRhat) as exc_info:
            rl.solve_riccati(prob, 2)
        assert exc_info.value.t == 0.5

    def test_convex_problem_solves_at_two_steps(self, monkeypatch):
        # random_convex(7) keeps Rhat >= R >= I along the exact solution, yet the
        # first full step passes the guard and leaves P(0.5) where a stage of
        # the second step loses positivity; the solve is then redone at N = 4,
        # which passes, and read off at every other node
        prob = random_convex(7)
        grid = rl.solve_riccati(prob, 2)
        assert rl.rhat_certificate(grid) >= 1.0
        fine = rl.solve_riccati(prob, 4)
        np.testing.assert_array_equal(grid.times, fine.times[::2])
        np.testing.assert_array_equal(grid.P, fine.P[::2])
        np.testing.assert_array_equal(grid.Theta, fine.Theta[::2])
        monkeypatch.setattr(riccati, "MAX_REGRID_LEVELS", 0)
        with pytest.raises(SingularRhat):
            rl.solve_riccati(prob, 2)

    def test_seeded_convex_problems_solve_on_coarse_grids(self):
        # every seed solves at N = 2 and N = 3, regridding where a coarse grid
        # fails the guard; Rhat >= R >= I holds at every N = 3 node, while a
        # 2-step P need not be psd (seed 73's certificate is 0.845 at N = 2)
        for seed in range(200):
            prob = random_convex(seed)
            rl.solve_riccati(prob, 2)
            assert rl.rhat_certificate(rl.solve_riccati(prob, 3)) >= 1.0, seed

    def test_two_segments_compose(self):
        # solving the piecewise problem equals composing per-segment solves
        c1 = {"A": 0.4, "B": 1.0, "C": 0.1, "D": 0.2, "Q": 1.0, "S": 0.1, "R": 1.0}
        c2 = {"A": -0.2, "B": 0.5, "C": 0.0, "D": 0.1, "Q": 0.5, "S": 0.0, "R": 2.0}
        piecewise = rl.make_problem(
            n=1, m=1, T=1.0, generator=[[0.0]],
            coefficients=[[dict(c1)], [dict(c2)]], G=[[[1.0]]],
            x0=[1.0], i0=0, breakpoints=[0.0, 0.5, 1.0],
        )
        grid = rl.solve_riccati(piecewise, 100)

        late = rl.make_problem(
            n=1, m=1, T=0.5, generator=[[0.0]],
            coefficients=[[dict(c2)]], G=[[[1.0]]], x0=[1.0], i0=0,
        )
        p_mid = rl.solve_riccati(late, 50).P[0, 0]
        early = rl.make_problem(
            n=1, m=1, T=0.5, generator=[[0.0]],
            coefficients=[[dict(c1)]], G=[p_mid], x0=[1.0], i0=0,
        )
        p0 = rl.solve_riccati(early, 50).P[0, 0, 0, 0]
        assert grid.P[50, 0, 0, 0] == pytest.approx(p_mid[0, 0], abs=1e-12)
        assert grid.P[0, 0, 0, 0] == pytest.approx(p0, abs=1e-12)

    def test_step_with_two_breakpoints_keeps_fourth_order(self):
        # at N = 10 and 20 one step holds both breakpoints and is taken as three
        # sub-steps, one per segment
        c = {"A": 0.1, "B": 1.0, "C": 0.1, "D": 0.2, "Q": 1.0, "S": 0.1, "R": 1.0}
        prob = rl.make_problem(
            n=1, m=1, T=1.0, generator=[[0.0]],
            coefficients=[[dict(c)], [dict(c, A=-0.3, R=2.0)], [dict(c, B=0.3)]],
            G=[[[1.0]]], x0=[1.0], i0=0, breakpoints=[0.0, 0.41, 0.43, 1.0],
        )
        ref = rl.solve_riccati(prob, 4000).P[0, 0, 0, 0]
        errs = [abs(rl.solve_riccati(prob, N).P[0, 0, 0, 0] - ref) for N in (10, 20, 40)]
        for e_coarse, e_fine in zip(errs, errs[1:]):
            assert 10.0 <= e_coarse / e_fine <= 25.0

    def test_breakpoint_a_rounding_off_a_node_lies_on_it(self):
        # node 3 of the N = 10 grid is 0.30000000000000004: a breakpoint at 0.3
        # takes no ulp-sized sub-step and solves bit for bit as one on the node
        c1 = {"A": 0.4, "B": 1.0, "C": 0.1, "D": 0.2, "Q": 1.0, "S": 0.1, "R": 1.0}
        c2 = {"A": -0.2, "B": 0.5, "C": 0.0, "D": 0.1, "Q": 0.5, "S": 0.0, "R": 2.0}
        node = np.linspace(0.0, 1.0, 11)[3]
        assert node != 0.3
        grids = [
            rl.solve_riccati(rl.make_problem(
                n=1, m=1, T=1.0, generator=[[0.0]], coefficients=[[dict(c1)], [dict(c2)]],
                G=[[[1.0]]], x0=[1.0], i0=0, breakpoints=[0.0, s, 1.0],
            ), 10)
            for s in (0.3, node)
        ]
        np.testing.assert_array_equal(grids[0].P, grids[1].P)

    def test_det_lqr_matches_independent_oracle(self):
        p0_oracle, _ = det_lqr_oracle()
        grid = rl.solve_riccati(det_lqr(), 400)
        assert grid.P[0, 0, 0, 0] == pytest.approx(p0_oracle, abs=1e-9)


class TestFeedbackGain:
    def test_node_matches_stored_theta(self):
        prob = two_regime_coupling()
        grid = rl.solve_riccati(prob, 100)
        law = rl.FeedbackLaw(prob, grid)
        for i in (0, 37, 100):
            for k in range(2):
                np.testing.assert_allclose(
                    law.gain(grid.times[i], k), grid.Theta[i, k], atol=1e-13
                )

    @pytest.mark.parametrize(
        "make", [two_regime_coupling, det_lqr, scalar_analytic, multidim_two_segment]
    )
    @pytest.mark.parametrize("N", [25, 100])
    def test_gain_table_reads_nodes_and_solves_between(self, make, N):
        prob = make()
        grid = rl.solve_riccati(prob, N)
        law = rl.FeedbackLaw(prob, grid)
        assert law.gains_at_times(grid.times[:-1]).tobytes() == grid.Theta[:-1].tobytes()
        # the refinement grid: even nodes are solved nodes, odd ones lie between
        fine = np.linspace(0.0, prob.T, 2 * N + 1)[:-1]
        gains = law.gains_at_times(fine)
        assert gains[::2].tobytes() == grid.Theta[:-1].tobytes()
        for j in range(1, 2 * N, 2):
            for k in range(prob.num_regimes):
                np.testing.assert_array_equal(gains[j, k], law.gain(fine[j], k))

    def test_zero_gain_when_shat_vanishes(self):
        # B = 0, S = 0, C = 0 make Shat identically zero
        prob = rl.make_problem(
            n=1, m=1, T=1.0, generator=[[0.0]],
            coefficients=[[{"A": 0.5, "B": 0, "C": 0, "D": 0.3, "Q": 1, "S": 0, "R": 1}]],
            G=[[[1.0]]], x0=[1.0], i0=0,
        )
        grid = rl.solve_riccati(prob, 50)
        law = rl.FeedbackLaw(prob, grid)
        for t in (0.0, 0.21, 0.77, 1.0):
            assert abs(law.gain(t, 0)[0, 0]) <= 1e-14

    def test_scalar_midpoint_value(self):
        # analytic Theta(0.5) = -P(0.5) = -1/1.5
        prob = scalar_analytic()
        grid = rl.solve_riccati(prob, 200)
        law = rl.FeedbackLaw(prob, grid)
        assert law.gain(0.5, 0)[0, 0] == pytest.approx(-1.0 / 1.5, abs=1e-5)

    def test_interpolated_p_rejects_times_off_the_grid(self):
        prob = det_lqr()
        law = rl.FeedbackLaw(prob, rl.solve_riccati(prob, 20))
        for t in (-0.1, prob.T + 0.1, float("nan"), [0.3, float("nan")]):
            with pytest.raises(ValidationError):
                law.interpolated_P(t)
        with pytest.raises(ValidationError):
            law.gain(float("nan"), 0)

    def test_interpolated_gain_keeps_identity(self):
        prob = det_lqr()
        grid = rl.solve_riccati(prob, 50)
        law = rl.FeedbackLaw(prob, grid)
        for t in (0.013, 0.511, 0.999):
            P = law.interpolated_P(t)
            cs = coeff_at(prob, t, 0)
            Shat = cs.B.T @ P[0] + cs.D.T @ P[0] @ cs.C + cs.S
            Rhat = cs.R + cs.D.T @ P[0] @ cs.D
            defect = Shat + Rhat @ law.gain(t, 0)
            assert np.max(np.abs(defect)) <= 1e-12


class TestGuardRhat:
    def test_names_earliest_failing_time_and_argmin_regime(self):
        # min eigenvalues per (time, regime); times 1 and 2 fail, time 1 first
        eigs = np.array([[1.0, 2.0, 0.5], [0.3, -2.0, -1.0], [-5.0, 1.0, 1.0]])
        Rhat = eigs[..., None, None] * np.eye(2)
        with pytest.raises(SingularRhat) as info:
            _guard_rhat(Rhat, [0.0, 0.25, 0.5])
        assert (info.value.t, info.value.regime, info.value.eigenvalue) == (0.25, 1, -2.0)
        assert str(info.value) == str(SingularRhat(0.25, 1, -2.0))

    def test_returns_smallest_eigenvalue_per_time_and_regime(self):
        Rhat = np.array([[[[2.0, 0.0], [0.0, 3.0]]], [[[1.0, 0.0], [0.0, RHAT_FLOOR]]]])
        np.testing.assert_array_equal(_guard_rhat(Rhat, [0.0, 1.0]), [[2.0], [RHAT_FLOOR]])


class TestRhatCertificate:
    def test_identity_r_no_diffusion(self):
        grid = rl.solve_riccati(scalar_analytic(), 50)
        assert rl.rhat_certificate(grid) == pytest.approx(1.0, abs=1e-12)

    def test_r_plus_pd_psd_bound(self):
        # R = I and D = I with P psd gives Rhat = I + P >= I
        prob = rl.make_problem(
            n=2, m=2, T=1.0, generator=[[0.0]],
            coefficients=[[{
                "A": np.zeros((2, 2)), "B": np.eye(2), "C": np.zeros((2, 2)),
                "D": np.eye(2), "Q": np.eye(2), "S": np.zeros((2, 2)), "R": np.eye(2),
            }]],
            G=[np.diag([1.0, 0.5])], x0=[1.0, 0.0], i0=0,
        )
        grid = rl.solve_riccati(prob, 50)
        assert np.min(grid.P) >= -1e-12  # P stays psd here
        assert rl.rhat_certificate(grid) >= 1.0 - 1e-10

    def test_positive_on_canonicals(self):
        for prob in (scalar_analytic(), two_regime_coupling(), det_lqr()):
            grid = rl.solve_riccati(prob, 100)
            assert rl.rhat_certificate(grid) > 0.0


def _psd(draw_vals, n):
    M = np.array(draw_vals).reshape(n, n)
    return M @ M.T + 1e-3 * np.eye(n)


@st.composite
def psd_instances(draw):
    n = draw(st.integers(min_value=1, max_value=3))
    d = draw(st.integers(min_value=1, max_value=3))
    vals = st.floats(min_value=-1.0, max_value=1.0)
    mat = lambda rows, cols: np.array(
        draw(st.lists(vals, min_size=rows * cols, max_size=rows * cols))
    ).reshape(rows, cols)
    coefficients = [[
        {
            "A": mat(n, n), "B": mat(n, 1), "C": mat(n, n), "D": mat(n, 1),
            "Q": _psd(draw(st.lists(vals, min_size=n * n, max_size=n * n)), n),
            "S": np.zeros((1, n)),
            "R": [[draw(st.floats(min_value=0.5, max_value=2.0))]],
        }
        for _ in range(d)
    ]]
    G = [_psd(draw(st.lists(vals, min_size=n * n, max_size=n * n)), n) for _ in range(d)]
    rates = np.array(
        draw(st.lists(st.floats(min_value=0.0, max_value=2.0), min_size=d * d, max_size=d * d))
    ).reshape(d, d)
    np.fill_diagonal(rates, 0.0)
    rates[np.diag_indices(d)] = -rates.sum(axis=1)
    return rl.make_problem(
        n=n, m=1, T=1.0, generator=rates, coefficients=coefficients,
        G=G, x0=np.ones(n), i0=0,
    )


@settings(max_examples=20, deadline=None, derandomize=True)
@given(psd_instances())
def test_property_positivity_preserved(prob):
    # S = 0, Q psd, G psd, R pd: every Riccati node stays psd
    grid = rl.solve_riccati(prob, 60)
    min_eig = np.min(np.linalg.eigvalsh(grid.P))
    assert min_eig >= -1e-9
    assert np.max(np.abs(grid.P - grid.P.swapaxes(-1, -2))) <= 1e-10


@st.composite
def gain_instances(draw):
    """Convex problems with n, m, D <= 3 and one or two segments, plus a grid size.

    R >= I, Q >= I and ||S||_2 <= 0.75 keep Q - S'R^{-1}S positive definite,
    so P stays psd and Rhat = R + D'PD >= I; small A, C, D and at least four
    steps keep the RK4 stages there too.  A second segment starts on a grid
    node or strictly between two.
    """
    n, m, d = (draw(st.integers(min_value=1, max_value=3)) for _ in range(3))
    N = draw(st.integers(min_value=4, max_value=12))
    vals = st.floats(min_value=-1.0, max_value=1.0)
    mat = lambda rows, cols: np.array(
        draw(st.lists(vals, min_size=rows * cols, max_size=rows * cols))
    ).reshape(rows, cols)
    psd = lambda k: np.eye(k) + _psd(mat(k, k).ravel(), k)
    cell = lambda: {
        "A": 0.5 * mat(n, n), "B": mat(n, m), "C": 0.5 * mat(n, n), "D": 0.1 * mat(n, m),
        "Q": psd(n), "S": 0.25 * mat(m, n), "R": psd(m),
    }
    nodes = np.linspace(0.0, 1.0, N + 1)
    breakpoints = [0.0, 1.0]
    split = draw(st.sampled_from(["none", "node", "between"]))
    if split == "node":
        breakpoints.insert(1, nodes[draw(st.integers(min_value=1, max_value=N - 1))])
    elif split == "between":
        j = draw(st.integers(min_value=0, max_value=N - 1))
        breakpoints.insert(1, nodes[j] + draw(st.floats(min_value=0.05, max_value=0.95)) / N)
    rates = np.array(
        draw(st.lists(st.floats(min_value=0.0, max_value=2.0), min_size=d * d, max_size=d * d))
    ).reshape(d, d)
    np.fill_diagonal(rates, 0.0)
    np.fill_diagonal(rates, -rates.sum(axis=1))
    prob = rl.make_problem(
        n=n, m=m, T=1.0, generator=rates,
        coefficients=[[cell() for _ in range(d)] for _ in breakpoints[1:]],
        G=[_psd(mat(n, n).ravel(), n) for _ in range(d)], x0=np.ones(n), i0=0,
        breakpoints=breakpoints,
    )
    times = draw(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=8))
    return prob, N, np.array(times + list(breakpoints))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(gain_instances())
def test_property_p_and_lyapunov_m_exactly_symmetric(instance):
    # each RK4 derivative is symmetrized, so every stage value and node is too
    prob, N, _ = instance
    for X in (rl.solve_riccati(prob, N).P, rl.lyapunov_solve(prob, N).P):
        assert np.array_equal(X, X.swapaxes(-1, -2))
        assert np.array_equal(X[-1], prob.G)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(gain_instances())
def test_property_solved_grid_is_stationary(instance):
    # Shat + Rhat Theta = 0 to roundoff at every node and step midpoint;
    # symmetry and P(T) = G on these instances are the property above
    prob, N, _ = instance
    assert stationarity_defect(prob, rl.solve_riccati(prob, N)) <= 1e-10


@settings(max_examples=30, deadline=None, derandomize=True)
@given(gain_instances())
def test_property_gain_table_equals_pointwise_gain(instance):
    # the batched table reads every time exactly as the one-time law.gain does
    prob, N, times = instance
    law = rl.FeedbackLaw(prob, rl.solve_riccati(prob, N))
    gains = law.gains_at_times(times)
    assert gains.shape == (len(times), prob.num_regimes, prob.m, prob.n)
    for t, row in zip(times, gains):
        for k in range(prob.num_regimes):
            assert row[k].tobytes() == law.gain(t, k).tobytes()


def _dop853_reference(prob, times) -> np.ndarray:
    """P at ``times`` from scipy's DOP853 (rtol 1e-10), segment by segment.

    The right-hand side is written out per regime, apart from the package's
    stacked algebra; coefficients are constant on each segment, so each one
    is integrated on its own, backward from its right end.
    """
    rates = prob.generator.rates
    d, n = prob.num_regimes, prob.n

    def rhs(cells):
        def f(t, y):
            P = y.reshape(d, n, n)
            dP = np.empty_like(P)
            for k, c in enumerate(cells):
                Shat = c.B.T @ P[k] + c.D.T @ P[k] @ c.C + c.S
                Rhat = c.R + c.D.T @ P[k] @ c.D
                dP[k] = -(P[k] @ c.A + c.A.T @ P[k] + c.C.T @ P[k] @ c.C + c.Q
                          - Shat.T @ np.linalg.solve(Rhat, Shat)
                          + sum(rates[k, l] * P[l] for l in range(d)))
            return dP.ravel()
        return f

    P = np.empty((len(times), d, n, n))
    y = prob.G.ravel()
    bp = prob.breakpoints
    for j in range(prob.num_segments - 1, -1, -1):
        inside = (times >= bp[j]) & (times <= bp[j + 1])
        sol = solve_ivp(rhs(prob.coefficients[j]), (bp[j + 1], bp[j]), y, method="DOP853",
                        rtol=1e-10, atol=1e-12, dense_output=True)
        assert sol.success, sol.message
        P[inside] = sol.sol(times[inside]).T.reshape(-1, d, n, n)
        y = sol.y[:, -1]  # at the segment's left end, which need not be a node
    return P


@settings(max_examples=25, deadline=None, derandomize=True)
@given(gain_instances())
def test_property_solve_agrees_with_dop853_reference(instance):
    # RK4 at 48 N steps (192-576) against an independent adaptive solve, at
    # every node; a step that straddles a breakpoint is split there.  Over 600
    # random instances the largest error was 7.1e-9 of 1 + max |P| with the
    # breakpoint between nodes, 2.2e-9 on a node (1.0e-7 at 24 N steps)
    prob, N, _ = instance
    grid = rl.solve_riccati(prob, 48 * N)
    ref = _dop853_reference(prob, grid.times)
    assert np.max(np.abs(grid.P - ref)) <= 1e-7 * (1.0 + np.max(np.abs(ref)))
