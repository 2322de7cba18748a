"""Continuous-time mean-variance portfolio selection under regime switching.

A single bond (rate r) and a single risky asset (appreciation b(t, k),
volatility sigma(t, k)) give the self-financing wealth dynamics

    dX = [r X + (b - r) u] dt + sigma u dW.

Minimizing Var(X_T) subject to E[X_T] = d is handled by a Lagrange
multiplier mu: with gamma = d + mu and the shifted wealth
Xt(s) = X(s) - gamma exp(-int_s^T r), the constrained problem becomes the
LQ problem min E[Xt(T)^2], a special case of the general solver with
A = r, B = b - r, C = 0, D = sigma, Q = S = R = 0, G = 1.  A market is
that problem: :func:`make_market` checks the market rules and returns its
:class:`~regimelq.model.ProblemSpec`, with the initial wealth as x0, and
every function here takes it and reads r, theta = (b - r) / sigma and
sigma back from its coefficient table.

Moments of the closed-loop wealth are propagated by forward ODEs.  The
generator enters transposed: for m_k(t) = E[Xt(t) 1{a(t)=k}] the forward
(Kolmogorov) balance over [t, t+dt] gains probability mass lam_lk dt from
every regime l, so dm/dt = diag(growth_k) m + rates' m, and likewise for
the second moment with growth 2(r + (b-r)Theta) + sigma^2 Theta^2.  With
piecewise-constant coefficients each segment is propagated exactly by a
matrix exponential, and min E[Xt(T)^2] = P(0, i0) xt0^2 gives the duality
cross-check rho = P(0, i0).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .chain import expm, validate_generator
from .errors import (
    DegenerateConstraint,
    DimensionMismatch,
    NonPositiveP,
    NumericalError,
    ValidationError,
)
from .model import (
    ConfigReader,
    ProblemSpec,
    make_problem,
    validate_breakpoints,
    with_initial_state,
)
from .riccati import FeedbackLaw, RiccatiGrid, solve_riccati

P_FLOOR = 1e-12
DEGENERATE_TOL = 1e-12
DUALITY_RTOL = 1e-8


def _broadcast(value, shape: tuple, name: str) -> NDArray[np.float64]:
    arr = np.asarray(value, dtype=np.float64)
    try:
        return np.broadcast_to(arr, shape)
    except ValueError:
        raise DimensionMismatch(
            f"{name} must broadcast to shape {shape}, got {arr.shape}"
        ) from None


def make_market(*, T: float, generator, r, b, sigma, delta: float, x0: float, i0: int,
                breakpoints=None) -> ProblemSpec:
    """Validate raw market data; returns its shifted-wealth problem.

    ``r`` has one value per segment; ``b`` and ``sigma`` one value per
    (segment, regime).  Scalars are broadcast to a single segment.  The
    volatility must satisfy sigma^2 >= delta > 0 everywhere and the rate
    must be positive.  The problem has n = m = 1, A = r, B = b - r,
    D = sigma, C = Q = S = R = 0, G = 1 and the wealth x0 as its state.
    """
    gen = validate_generator(generator)
    d = gen.size
    bp = validate_breakpoints(T, breakpoints)
    J = len(bp) - 1
    r_arr = _broadcast(r, (J,), "r")
    b_arr = _broadcast(b, (J, d), "b")
    s_arr = _broadcast(sigma, (J, d), "sigma")
    if not (np.all(np.isfinite(r_arr)) and np.all(np.isfinite(b_arr)) and np.all(np.isfinite(s_arr))):
        raise ValidationError("market coefficients must be finite")
    if not float(delta) > 0.0:
        raise ValidationError("volatility floor delta must be positive")
    if np.any(s_arr**2 < float(delta)):
        raise ValidationError("sigma^2 >= delta violated")
    if np.any(r_arr <= 0.0):
        raise ValidationError("interest rate must be positive")
    if not 0.0 < float(x0) < np.inf:
        raise ValidationError("initial wealth must be finite and positive")
    return make_problem(
        n=1,
        m=1,
        T=float(T),
        generator=gen,
        coefficients=[[dict(A=r_arr[j], B=b_arr[j, k] - r_arr[j], C=0.0, D=s_arr[j, k],
                            Q=0.0, S=0.0, R=0.0) for k in range(d)] for j in range(J)],
        G=[1.0] * d,
        x0=[float(x0)],
        i0=i0,
        breakpoints=bp,
    )


def market_from_config(cfg: dict) -> tuple[ProblemSpec, list[float]]:
    """Parse the ``kind: "market"`` JSON config; returns (problem, targets)."""
    read = ConfigReader(cfg, "market", ("delta", "x0"))
    bp, segs = read.segments(flat=("r", "per_regime"))
    per_regime = [
        read.by_regime(s["per_regime"], f"segment {j} per_regime") for j, s in enumerate(segs)
    ]
    problem = make_market(
        T=read.T,
        generator=read.generator,
        r=[float(s["r"]) for s in segs],
        b=[[float(v["b"]) for v in row] for row in per_regime],
        sigma=[[float(v["sigma"]) for v in row] for row in per_regime],
        delta=float(cfg["delta"]),
        x0=float(cfg["x0"]),
        i0=read.i0,
        breakpoints=bp,
    )
    targets = [float(v) for v in cfg.get("targets", [])]
    if not np.all(np.isfinite(targets)):
        raise ValidationError("targets must be finite")
    return problem, targets


def _market(problem: ProblemSpec):
    """(r, theta, sigma) of a market's problem: the rate per segment (J,),
    and theta = (b - r) / sigma and sigma per (segment, regime) (J, D)."""
    c = problem.coefficients
    if not (problem.n == problem.m == 1
            and not any(np.any(c[name]) for name in "CQSR")
            and np.all(c.G == 1.0) and np.all(c.D != 0.0)
            and np.all(c.A == c.A[:, :1])):
        raise ValidationError(
            "not a market's problem: need n = m = 1, C = Q = S = R = 0, G = 1, "
            "sigma != 0 and one rate A in every regime"
        )
    A, B, D = (c[name][:, :, 0, 0] for name in "ABD")
    return A[:, 0], B / D, D


def mv_riccati(problem: ProblemSpec, N: int) -> RiccatiGrid:
    """Scalar Riccati grid of the shifted-wealth problem.

    R = 0 is admissible because Rhat = sigma^2 P stays positive while P
    does; a P node at or below the floor raises :class:`NonPositiveP`.
    """
    _market(problem)  # refuses a problem that is not a market's
    grid = solve_riccati(problem, N)
    if grid.P.min() <= P_FLOOR:
        i, k = np.unravel_index(int(grid.P[:, :, 0, 0].argmin()), grid.P.shape[:2])
        raise NonPositiveP(
            f"P(t={grid.times[i]:.6g}, regime {k + 1}) = {grid.P[i, k, 0, 0]:.3e}"
        )
    return grid


@dataclass(frozen=True)
class MomentFactors:
    """Terminal mean/second-moment growth factors per starting regime."""

    kappa: NDArray[np.float64]  # (D,) E[Xt(T)] / xt0
    rho: NDArray[np.float64]  # (D,) E[Xt(T)^2] / xt0^2


def mv_moment_odes(problem: ProblemSpec, grid: RiccatiGrid | None = None) -> MomentFactors:
    """Propagate E[Xt] and E[Xt^2] forward under the optimal feedback.

    In the deterministic-coefficient case Theta = -(b - r) / sigma^2 in
    closed form; when a solved grid is supplied its gains are checked
    against that identity at every node.  Segment propagation uses matrix exponentials of
    diag(growth) + rates', exact for piecewise-constant coefficients.
    """
    r, theta, sigma = _market(problem)
    if grid is not None:
        # closed-form gains in force at every node, by the grid's own segment rule
        expected = (-theta / sigma)[problem.segment_index(grid.times)]
        if np.max(np.abs(grid.Theta[:, :, 0, 0] - expected)) > 1e-8:
            raise NumericalError(
                "solved feedback gains deviate from the closed-form market gains"
            )
    rates_t = problem.generator.rates.T
    d = problem.num_regimes
    E_mean = np.eye(d)
    E_second = np.eye(d)
    for j in range(problem.num_segments):
        dt = problem.breakpoints[j + 1] - problem.breakpoints[j]
        growth_mean = r[j] - theta[j] ** 2
        growth_second = 2.0 * r[j] - theta[j] ** 2
        E_mean = expm((np.diag(growth_mean) + rates_t) * dt) @ E_mean
        E_second = expm((np.diag(growth_second) + rates_t) * dt) @ E_second
    ones = np.ones(d)
    return MomentFactors(kappa=E_mean.T @ ones, rho=E_second.T @ ones)


def lagrange_solve(
    problem: ProblemSpec, d: float, factors: MomentFactors | None = None
) -> tuple[float, float, float]:
    """Multiplier solve for target mean d; returns (mu, gamma, xt0).

    The constraint E[X_T] = d with X_T = Xt_T + gamma and
    E[Xt_T] = kappa (x0 - gamma disc) gives
    gamma = (d - x0 kappa) / (1 - kappa disc), disc = exp(-int r).
    A vanishing denominator means the mean cannot be steered (no risky
    incentive anywhere) and raises :class:`DegenerateConstraint`; a
    non-finite target raises :class:`ValidationError`.
    """
    if not np.isfinite(d):
        raise ValidationError(f"target mean must be finite, got {d!r}")
    r, _, _ = _market(problem)
    if factors is None:
        factors = mv_moment_odes(problem)
    kappa = float(factors.kappa[problem.i0])
    disc = float(np.exp(-np.sum(r * np.diff(problem.breakpoints))))
    denom = 1.0 - kappa * disc
    if abs(denom) < DEGENERATE_TOL:
        raise DegenerateConstraint(
            "terminal mean cannot be steered: 1 - kappa exp(-int r) vanishes"
        )
    x0 = float(problem.x0[0])
    gamma = (float(d) - x0 * kappa) / denom
    mu = gamma - float(d)
    gamma = float(d) + mu  # re-derive so gamma = d + mu holds bitwise
    xt0 = x0 - gamma * disc
    return mu, gamma, xt0


@dataclass(frozen=True)
class FrontierPoint:
    """One point of the efficient frontier with its duality cross-check."""

    d: float
    mu: float
    gamma: float
    xtilde0: float
    variance: float
    riccati_value_check: float  # P(0, i0) xt0^2 - mu^2, must equal variance
    kappa: float
    rho: float


def efficient_frontier(
    problem: ProblemSpec, targets, N: int = 200
) -> tuple[list[FrontierPoint], RiccatiGrid]:
    """Frontier sweep over the target means.

    Per target: multiplier solve, then Var = rho xt0^2 - (kappa xt0)^2 from
    the moment ODEs, cross-checked against the duality form
    P(0, i0) xt0^2 - mu^2; disagreement beyond 1e-8 relative aborts.
    """
    grid = mv_riccati(problem, N)
    factors = mv_moment_odes(problem, grid)
    kappa = float(factors.kappa[problem.i0])
    rho = float(factors.rho[problem.i0])
    p0 = float(grid.P[0, problem.i0, 0, 0])
    scale = max(abs(rho), abs(p0))
    if abs(rho - p0) > DUALITY_RTOL * scale:
        raise NumericalError(
            f"duality cross-check failed: rho={rho!r} vs P(0)={p0!r}"
        )
    points = []
    for d in targets:
        mu, gamma, xt0 = lagrange_solve(problem, d, factors)
        variance = rho * xt0**2 - (kappa * xt0) ** 2
        points.append(
            FrontierPoint(
                d=float(d),
                mu=mu,
                gamma=gamma,
                xtilde0=xt0,
                variance=variance,
                riccati_value_check=p0 * xt0**2 - mu**2,
                kappa=kappa,
                rho=rho,
            )
        )
    return points, grid


def _variance_stderr(x: NDArray) -> float:
    """Asymptotic standard error of the sample variance (fourth-moment form)."""
    n = len(x)
    xc = x - x.mean()
    m4 = float(np.mean(xc**4))
    s2 = float(np.var(x, ddof=1))
    return float(np.sqrt(max(m4 - s2**2 * (n - 3) / (n - 1), 0.0) / n))


def mv_simulate_check(
    problem: ProblemSpec,
    point: FrontierPoint,
    n_paths: int,
    seed: int,
    grid: RiccatiGrid,
    workers: int = 1,
) -> list:
    """Monte Carlo check of one frontier point under the optimal strategy.

    Simulates the closed-loop shifted wealth, undoes the shift at T, and
    compares the sample mean against d and the sample variance against the
    ODE variance, each within 3 stderr plus a Richardson bias allowance.
    Returns the two :class:`~regimelq.verify.CheckResult`s, mean first.
    """
    # only the frontier simulates, so `solve` on a market loads none of these
    from .simulate import mc_run, paired_refinement_run
    from .streams import derive_seed
    from .verify import CheckResult, calibration_paths, paired_allowance

    _market(problem)  # refuses a problem that is not a market's
    N = len(grid.times) - 1
    shifted = with_initial_state(problem, [point.xtilde0])
    law = FeedbackLaw(shifted, grid)
    _, x_tilde_T = mc_run(shifted, law, n_paths, derive_seed(seed, "mv-mc"), N, workers)
    xT = x_tilde_T[:, 0] + point.gamma
    mc_mean, mc_var = float(xT.mean()), float(np.var(xT, ddof=1))
    _, _, xt_n, xt_2n = paired_refinement_run(
        shifted, law, calibration_paths(n_paths),
        derive_seed(seed, "mv-cal"), N, workers,
    )
    x_n, x_2n = xt_n[:, 0], xt_2n[:, 0]
    mean_diff = x_2n - x_n
    mean_allow, _ = paired_allowance(mean_diff.mean(), mean_diff)
    # paired influence values of the variance difference
    var_allow, _ = paired_allowance(
        np.var(x_2n, ddof=1) - np.var(x_n, ddof=1),
        (x_2n - x_2n.mean()) ** 2 - (x_n - x_n.mean()) ** 2,
    )
    return [
        CheckResult.within(
            "mv_terminal_mean", mc_mean - point.d, float(xT.std(ddof=1) / np.sqrt(len(xT))),
            mean_allow, n_paths, seed, {"mc_mean": mc_mean, "target": point.d},
        ),
        CheckResult.within(
            "mv_terminal_variance", mc_var - point.variance, _variance_stderr(xT),
            var_allow, n_paths, seed, {"mc_var": mc_var, "target": point.variance},
        ),
    ]
