"""Continuous-time mean-variance portfolio selection under regime switching.

A single bond (rate r) and a single risky asset (appreciation b(t, k),
volatility sigma(t, k)) give the self-financing wealth dynamics

    dX = [r X + (b - r) u] dt + sigma u dW.

Minimizing Var(X_T) subject to E[X_T] = d is handled by a Lagrange
multiplier mu: with gamma = d + mu and the shifted wealth
Xt(s) = X(s) - gamma exp(-int_s^T r), the constrained problem becomes the
LQ problem min E[Xt(T)^2], a special case of the general solver with
A = r, B = b - r, C = 0, D = sigma, Q = S = R = 0, G = 1.

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

from .chain import GeneratorMatrix, expm, validate_generator
from .errors import (
    DegenerateConstraint,
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
from .simulate import mc_run, paired_refinement_run
from .streams import derive_seed
from .verify import CheckResult, calibration_paths, paired_allowance

P_FLOOR = 1e-12
DEGENERATE_TOL = 1e-12
DUALITY_RTOL = 1e-8


@dataclass(frozen=True)
class MarketSpec:
    """Validated market data, piecewise constant in time."""

    T: float
    generator: GeneratorMatrix
    breakpoints: NDArray[np.float64]  # (J+1,)
    r: NDArray[np.float64]  # (J,)
    b: NDArray[np.float64]  # (J, D)
    sigma: NDArray[np.float64]  # (J, D)
    delta: float
    x0: float
    i0: int

    @property
    def num_regimes(self) -> int:
        return self.generator.size

    @property
    def num_segments(self) -> int:
        return len(self.breakpoints) - 1

    def rate_integral(self) -> float:
        """Exact int_0^T r(s) ds of the piecewise-constant rate."""
        return float(np.sum(self.r * np.diff(self.breakpoints)))

    def theta(self) -> NDArray[np.float64]:
        """Market price of risk (b - r) / sigma per (segment, regime)."""
        return (self.b - self.r[:, None]) / self.sigma


def make_market(
    *,
    T: float,
    generator,
    r,
    b,
    sigma,
    delta: float,
    x0: float,
    i0: int,
    breakpoints=None,
) -> MarketSpec:
    """Validate raw market data.

    ``r`` has one value per segment; ``b`` and ``sigma`` one value per
    (segment, regime).  Scalars are broadcast to a single segment.  The
    volatility must satisfy sigma^2 >= delta > 0 everywhere and the rate
    must be positive.
    """
    gen = validate_generator(generator)
    d = gen.size
    bp = validate_breakpoints(T, breakpoints)
    J = len(bp) - 1
    r_arr = np.broadcast_to(np.asarray(r, dtype=np.float64), (J,)).copy()
    b_arr = np.broadcast_to(np.asarray(b, dtype=np.float64), (J, d)).copy()
    s_arr = np.broadcast_to(np.asarray(sigma, dtype=np.float64), (J, d)).copy()
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
    return MarketSpec(
        T=float(T),
        generator=gen,
        breakpoints=bp,
        r=r_arr,
        b=b_arr,
        sigma=s_arr,
        delta=float(delta),
        x0=float(x0),
        i0=gen.initial_regime(i0),
    )


def market_from_config(cfg: dict) -> tuple[MarketSpec, list[float]]:
    """Parse the ``kind: "market"`` JSON config; returns (market, targets)."""
    read = ConfigReader(cfg, "market", ("delta", "x0"))
    bp, segs = read.segments(flat=("r", "per_regime"))
    per_regime = [
        read.by_regime(s["per_regime"], f"segment {j} per_regime") for j, s in enumerate(segs)
    ]
    market = make_market(
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
    return market, targets


def market_to_problem(market: MarketSpec) -> ProblemSpec:
    """Embed the shifted-wealth problem in the general solver's format."""
    d = market.num_regimes
    coefficients = []
    for j in range(market.num_segments):
        per_regime = []
        for k in range(d):
            per_regime.append(
                {
                    "A": [[market.r[j]]],
                    "B": [[market.b[j, k] - market.r[j]]],
                    "C": [[0.0]],
                    "D": [[market.sigma[j, k]]],
                    "Q": [[0.0]],
                    "S": [[0.0]],
                    "R": [[0.0]],
                }
            )
        coefficients.append(per_regime)
    return make_problem(
        n=1,
        m=1,
        T=market.T,
        generator=market.generator,
        coefficients=coefficients,
        G=[[[1.0]] for _ in range(d)],
        x0=[market.x0],
        i0=market.i0,
        breakpoints=market.breakpoints,
    )


def mv_riccati(market: MarketSpec, N: int) -> RiccatiGrid:
    """Scalar Riccati grid of the shifted-wealth problem.

    R = 0 is admissible because Rhat = sigma^2 P stays positive while P
    does; a P node at or below the floor raises :class:`NonPositiveP`.
    """
    grid = solve_riccati(market_to_problem(market), N)
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


def mv_moment_odes(market: MarketSpec, grid: RiccatiGrid | None = None) -> MomentFactors:
    """Propagate E[Xt] and E[Xt^2] forward under the optimal feedback.

    In the deterministic-coefficient case Theta = -(b - r) / sigma^2 in
    closed form; when a solved grid is supplied its gains are checked
    against that identity at every node.  Segment propagation uses matrix exponentials of
    diag(growth) + rates', exact for piecewise-constant coefficients.
    """
    theta = market.theta()  # (J, D)
    if grid is not None:
        # closed-form gains in force at every node, by the grid's own segment rule
        seg = market_to_problem(market).segment_index(grid.times)
        expected = (-theta / market.sigma)[seg]
        if np.max(np.abs(grid.Theta[:, :, 0, 0] - expected)) > 1e-8:
            raise NumericalError(
                "solved feedback gains deviate from the closed-form market gains"
            )
    rates_t = market.generator.rates.T
    d = market.num_regimes
    E_mean = np.eye(d)
    E_second = np.eye(d)
    for j in range(market.num_segments):
        dt = market.breakpoints[j + 1] - market.breakpoints[j]
        growth_mean = market.r[j] - theta[j] ** 2
        growth_second = 2.0 * market.r[j] - theta[j] ** 2
        E_mean = expm((np.diag(growth_mean) + rates_t) * dt) @ E_mean
        E_second = expm((np.diag(growth_second) + rates_t) * dt) @ E_second
    ones = np.ones(d)
    return MomentFactors(kappa=E_mean.T @ ones, rho=E_second.T @ ones)


def lagrange_solve(
    market: MarketSpec, d: float, factors: MomentFactors | None = None
) -> tuple[float, float, float]:
    """Multiplier solve for target mean d; returns (mu, gamma, xt0).

    The constraint E[X_T] = d with X_T = Xt_T + gamma and
    E[Xt_T] = kappa (x0 - gamma disc) gives
    gamma = (d - x0 kappa) / (1 - kappa disc), disc = exp(-int r).
    A vanishing denominator means the mean cannot be steered (no risky
    incentive anywhere) and raises :class:`DegenerateConstraint`.
    """
    if factors is None:
        factors = mv_moment_odes(market)
    kappa = float(factors.kappa[market.i0])
    disc = float(np.exp(-market.rate_integral()))
    denom = 1.0 - kappa * disc
    if abs(denom) < DEGENERATE_TOL:
        raise DegenerateConstraint(
            "terminal mean cannot be steered: 1 - kappa exp(-int r) vanishes"
        )
    gamma = (float(d) - market.x0 * kappa) / denom
    mu = gamma - float(d)
    gamma = float(d) + mu  # re-derive so gamma = d + mu holds bitwise
    xt0 = market.x0 - gamma * disc
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
    market: MarketSpec, targets, N: int = 200
) -> tuple[list[FrontierPoint], RiccatiGrid]:
    """Frontier sweep over the target means.

    Per target: multiplier solve, then Var = rho xt0^2 - (kappa xt0)^2 from
    the moment ODEs, cross-checked against the duality form
    P(0, i0) xt0^2 - mu^2; disagreement beyond 1e-8 relative aborts.
    """
    grid = mv_riccati(market, N)
    factors = mv_moment_odes(market, grid)
    kappa = float(factors.kappa[market.i0])
    rho = float(factors.rho[market.i0])
    p0 = float(grid.P[0, market.i0, 0, 0])
    scale = max(abs(rho), abs(p0))
    if abs(rho - p0) > DUALITY_RTOL * scale:
        raise NumericalError(
            f"duality cross-check failed: rho={rho!r} vs P(0)={p0!r}"
        )
    points = []
    for d in targets:
        mu, gamma, xt0 = lagrange_solve(market, d, factors)
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


def _terminal_wealth_stats(problem, law, n_paths, seed, N, gamma, workers):
    _, x_tilde_T = mc_run(problem, law, n_paths, seed, N, workers)
    xT = x_tilde_T[:, 0] + gamma
    n = len(xT)
    return {
        "mean": float(xT.mean()),
        "mean_stderr": float(xT.std(ddof=1) / np.sqrt(n)),
        "var": float(np.var(xT, ddof=1)),
        "var_stderr": _variance_stderr(xT),
    }


def mv_simulate_check(
    market: MarketSpec,
    point: FrontierPoint,
    n_paths: int,
    seed: int,
    grid: RiccatiGrid,
    workers: int = 1,
) -> list[CheckResult]:
    """Monte Carlo check of one frontier point under the optimal strategy.

    Simulates the closed-loop shifted wealth, undoes the shift at T, and
    compares the sample mean against d and the sample variance against the
    ODE variance, each within 3 stderr plus a Richardson bias allowance.
    """
    N = len(grid.times) - 1
    problem = with_initial_state(market_to_problem(market), [point.xtilde0])
    law = FeedbackLaw(problem, grid)
    stats = _terminal_wealth_stats(
        problem, law, n_paths, derive_seed(seed, "mv-mc"), N, point.gamma, workers
    )
    _, _, xt_n, xt_2n = paired_refinement_run(
        problem, law, calibration_paths(n_paths),
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
            "mv_terminal_mean", stats["mean"] - point.d, stats["mean_stderr"],
            mean_allow, n_paths, seed, {"mc_mean": stats["mean"], "target": point.d},
        ),
        CheckResult.within(
            "mv_terminal_variance", stats["var"] - point.variance, stats["var_stderr"],
            var_allow, n_paths, seed, {"mc_var": stats["var"], "target": point.variance},
        ),
    ]
