"""Canonical test problems used across the suite.

Three solvable instances with independent oracles plus one deliberately
non-convex instance:

* scalar_analytic: closed form P(t) = 1/(2 - t), Theta = -P.
* two_regime_coupling: pure jump coupling, P_1(0) = 1 + e^-2, P_2(0) = 1 - e^-2.
* det_lqr: no diffusion, no chain; oracle is a fine RK4 integration.
* nonconvex: terminal weight -10 with D = 1, so R + D'PD < 0 at T.

It also holds instances without oracles: a switching scalar problem and a
multidimensional one for the simulation engine, and seeded random convex
problems for the Riccati solve.  ``coeff_at`` and ``riccati_rhs`` read a
problem's coefficients and Riccati derivative at one time, for the tests,
and ``problem_to_config`` writes a problem as its JSON config.
"""

import numpy as np

import regimelq as rl
from regimelq.errors import OutOfHorizon, ValidationError
from regimelq.riccati import _rhs


def coeff_at(problem: rl.ProblemSpec, t: float, k: int) -> np.record:
    """The (segment, regime) cell in force at time t for regime k (right-continuous)."""
    if not 0 <= k < problem.num_regimes:
        raise OutOfHorizon(f"regime {k} out of range")
    return problem.coefficients[problem.segment_index(t)][k]


def riccati_rhs(P_all, t: float, problem: rl.ProblemSpec) -> np.ndarray:
    """dP/dt at time t for stacked per-regime symmetric matrices P_all.

    Raises :class:`SingularRhat` when any Rhat = R + D'PD has an eigenvalue
    below ``RHAT_FLOOR``.
    """
    P = np.asarray(P_all, dtype=np.float64)
    if P.shape != (problem.num_regimes, problem.n, problem.n):
        raise ValidationError(
            f"P_all must have shape ({problem.num_regimes}, {problem.n}, {problem.n})"
        )
    return _rhs(P, t, problem.coefficients_at(t), problem.generator.rates)


def problem_to_config(problem: rl.ProblemSpec) -> dict:
    """Inverse of :func:`regimelq.problem_from_config` (round-trips exactly)."""
    segments = []
    for j in range(problem.num_segments):
        coeffs = {}
        for k in range(problem.num_regimes):
            cs = problem.coefficients[j][k]
            coeffs[str(k + 1)] = {
                name: getattr(cs, name).tolist()
                for name in ("A", "B", "C", "D", "Q", "S", "R")
            }
        segments.append({"t_start": float(problem.breakpoints[j]), "coefficients": coeffs})
    return {
        "spec_version": 1,
        "kind": "slq",
        "n": problem.n,
        "m": problem.m,
        "regimes": problem.num_regimes,
        "T": problem.T,
        "generator": problem.generator.rates.tolist(),
        "segments": segments,
        "G": {str(k + 1): G.tolist() for k, G in enumerate(problem.G)},
        "x0": problem.x0.tolist(),
        "i0": problem.i0 + 1,
    }


def scalar_analytic() -> rl.ProblemSpec:
    return rl.make_problem(
        n=1, m=1, T=1.0, generator=[[0.0]],
        coefficients=[[{"A": 0, "B": 1, "C": 0, "D": 0, "Q": 0, "S": 0, "R": 1}]],
        G=[[[1.0]]], x0=[1.0], i0=0,
    )


def scalar_p_exact(t):
    return 1.0 / (2.0 - np.asarray(t))


def two_regime_coupling() -> rl.ProblemSpec:
    zero = {"A": 0, "B": 0, "C": 0, "D": 0, "Q": 0, "S": 0, "R": 1}
    return rl.make_problem(
        n=1, m=1, T=1.0, generator=[[-1.0, 1.0], [1.0, -1.0]],
        coefficients=[[dict(zero), dict(zero)]],
        G=[[[2.0]], [[0.0]]], x0=[1.0], i0=0,
    )


TWO_REGIME_P0 = (1.0 + np.exp(-2.0), 1.0 - np.exp(-2.0))


def det_lqr() -> rl.ProblemSpec:
    return rl.make_problem(
        n=1, m=1, T=1.0, generator=[[0.0]],
        coefficients=[[{"A": 0.3, "B": 1.0, "C": 0, "D": 0, "Q": 1.0, "S": 0.2, "R": 1.0}]],
        G=[[[0.5]]], x0=[1.0], i0=0,
    )


def nonconvex() -> rl.ProblemSpec:
    return rl.make_problem(
        n=1, m=1, T=1.0, generator=[[0.0]],
        coefficients=[[{"A": 0, "B": 1.0, "C": 0, "D": 1.0, "Q": 0, "S": 0, "R": 1.0}]],
        G=[[[-10.0]]], x0=[1.0], i0=0,
    )


def stochastic_scalar() -> rl.ProblemSpec:
    """Scalar problem with genuine diffusion noise (not part of acceptance)."""
    return rl.make_problem(
        n=1, m=1, T=1.0, generator=[[0.0]],
        coefficients=[[{"A": 0.1, "B": 0.5, "C": 0.2, "D": 0.3, "Q": 1.0, "S": 0.1, "R": 1.0}]],
        G=[[[1.0]]], x0=[1.0], i0=0,
    )


def switching_scalar() -> rl.ProblemSpec:
    """Two regimes with different scalar dynamics and genuine noise."""
    return rl.make_problem(
        n=1, m=1, T=1.0, generator=[[-2.0, 2.0], [1.5, -1.5]],
        coefficients=[[
            {"A": 0.1, "B": 0.5, "C": 0.2, "D": 0.3, "Q": 1.0, "S": 0.1, "R": 1.0},
            {"A": -0.3, "B": 1.0, "C": 0.4, "D": 0.1, "Q": 0.5, "S": -0.2, "R": 2.0},
        ]],
        G=[[[1.0]], [[0.5]]], x0=[1.0], i0=0,
    )


def multidim_two_segment() -> rl.ProblemSpec:
    """n = 3, m = 2, three regimes, coefficients switching at t = 0.5.

    Convex by construction: R = I, G and Q - S'S are positive semidefinite
    (||S||_2 <= 0.5), so Rhat = R + D'PD >= I along the whole solve.
    """
    rng = np.random.default_rng(2024)
    n, m, d = 3, 2, 3

    def regime():
        S = rng.standard_normal((m, n))
        L = rng.standard_normal((n, n))
        return {
            "A": -0.3 * np.eye(n) + 0.2 * rng.standard_normal((n, n)),
            "B": 0.5 * rng.standard_normal((n, m)),
            "C": 0.2 * rng.standard_normal((n, n)),
            "D": 0.2 * rng.standard_normal((n, m)),
            "Q": np.eye(n) + 0.1 * L @ L.T,
            "S": 0.5 * S / np.linalg.norm(S, 2),
            "R": np.eye(m),
        }

    rates = rng.uniform(0.5, 2.0, size=(d, d))
    np.fill_diagonal(rates, 0.0)
    np.fill_diagonal(rates, -rates.sum(axis=1))
    return rl.make_problem(
        n=n, m=m, T=1.0, generator=rates,
        coefficients=[[regime() for _ in range(d)] for _ in range(2)],
        G=[0.5 * np.eye(n) for _ in range(d)], x0=[1.0, -0.5, 0.3], i0=1,
        breakpoints=[0.0, 0.5, 1.0],
    )


def random_convex(seed: int) -> rl.ProblemSpec:
    """Seeded convex problem with n, m, D <= 3 on [0, 1], one segment.

    A, B, C, D have entries in [-1, 1]; Q = LL' + I, R = LL' + I,
    ||S||_2 = 0.75 and G = LL', so Q - S'R^{-1}S > 0 and Rhat >= R >= I
    along the exact solution; off-diagonal rates lie in [0.1, 1].
    """
    rng = np.random.default_rng(seed)
    n, m, d = (int(k) for k in rng.integers(1, 4, size=3))
    U = lambda *shape: rng.uniform(-1.0, 1.0, shape)

    def psd(k):
        L = U(k, k)
        return L @ L.T

    def regime():
        S = U(m, n)
        return {
            "A": U(n, n), "B": U(n, m), "C": U(n, n), "D": U(n, m),
            "Q": psd(n) + np.eye(n), "S": 0.75 * S / np.linalg.norm(S, 2),
            "R": psd(m) + np.eye(m),
        }

    rates = rng.uniform(0.1, 1.0, (d, d))
    np.fill_diagonal(rates, 0.0)
    np.fill_diagonal(rates, -rates.sum(axis=1))
    return rl.make_problem(
        n=n, m=m, T=1.0, generator=rates, coefficients=[[regime() for _ in range(d)]],
        G=[psd(n) for _ in range(d)], x0=np.ones(n), i0=0,
    )


def canonical_problems():
    return {
        "scalar_analytic": scalar_analytic(),
        "two_regime_coupling": two_regime_coupling(),
        "det_lqr": det_lqr(),
    }


def one_regime_market() -> rl.ProblemSpec:
    return rl.make_market(
        T=1.0, generator=[[0.0]], r=0.06, b=[0.12], sigma=[0.2],
        delta=0.01, x0=1.0, i0=0,
    )


def det_lqr_oracle(N: int = 4000) -> tuple[float, float]:
    """Independent fine-RK4 oracle for det_lqr: returns (P(0), optimal cost).

    Integrates the scalar Riccati ODE and the closed-loop state/cost ODEs
    with plain RK4, sharing nothing with the package solvers.
    """
    A, B, Q, S, R, G, T = 0.3, 1.0, 1.0, 0.2, 1.0, 0.5, 1.0
    h = T / N

    def p_rhs(p):
        shat = B * p + S
        return -(2 * A * p + Q - shat * shat / R)

    ts = np.linspace(0.0, T, N + 1)
    p = np.empty(N + 1)
    p[N] = G
    for i in range(N, 0, -1):
        k1 = p_rhs(p[i])
        k2 = p_rhs(p[i] - 0.5 * h * k1)
        k3 = p_rhs(p[i] - 0.5 * h * k2)
        k4 = p_rhs(p[i] - h * k3)
        p[i - 1] = p[i] - (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)

    def state_rhs(p_val, xc):
        x, c = xc
        u = -(B * p_val + S) / R * x
        return np.array([A * x + B * u, Q * x * x + 2 * S * x * u + R * u * u])

    xc = np.array([1.0, 0.0])
    for i in range(N):
        p_mid = 0.5 * (p[i] + p[i + 1])
        k1 = state_rhs(p[i], xc)
        k2 = state_rhs(p_mid, xc + 0.5 * h * k1)
        k3 = state_rhs(p_mid, xc + 0.5 * h * k2)
        k4 = state_rhs(p[i + 1], xc + h * k3)
        xc = xc + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
    cost = xc[1] + G * xc[0] ** 2
    return float(p[0]), float(cost)
