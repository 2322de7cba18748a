"""Statistical and algebraic verification of the optimality structure.

Each check reduces to |statistic| <= 3 * stderr + bias_allowance, with both
tolerance terms recorded separately.  The bias allowance absorbs the O(h)
weak error of the Euler scheme and is calibrated per check by a Richardson
comparison of the estimate at N and 2N steps; statistical error alone
cannot absorb discretization bias, so the two are never mixed.

The adjoint quantities never get their own backward solve: along a
closed-loop path the adjoint pair is Y = P X and Z = P (C + D Theta) X, so
the stationarity functional B'Y + D'Z + S X + R u collapses to
(Shat + Rhat Theta) X, which :func:`stationarity_residual` evaluates as
pure algebra with zero statistical tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.typing import NDArray

from .errors import NumericalError, ValidationError
from .model import ProblemSpec, with_initial_state
from .riccati import (
    FeedbackLaw,
    RiccatiGrid,
    _hat_terms,
    _integrate_backward,
    _lyapunov_rhs,
    _stacks,
    rhat_certificate,
    solve_riccati,
)
from .simulate import (
    ControlTable,
    PathRecord,
    PerturbedFeedback,
    mc_cost,
    mc_cost_diff,
    paired_refinement_run,
    simulate_closed_loop,
)
from .streams import derive_rng, derive_seed

STATIONARITY_RTOL = 1e-8
# quadratic-form targets come from an RK4 grid, so identity checks cannot
# resolve differences below the backward solver's own truncation scale
SOLVER_RESOLUTION = 1e-10


def _floored_allowance(allowance: float, target: float) -> float:
    return max(allowance, SOLVER_RESOLUTION * (1.0 + abs(target)))


@dataclass
class CheckResult:
    """Outcome of one named check with its raw numbers."""

    name: str
    passed: bool
    statistic: float
    tolerance: float
    stderr: float
    bias_allowance: float
    n: int
    seed: int
    details: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "check": self.name,
            "status": "pass" if self.passed else "fail",
            "statistic": self.statistic,
            "tolerance": self.tolerance,
            "stderr": self.stderr,
            "bias_allowance": self.bias_allowance,
            "n": self.n,
            "seed": self.seed,
            "details": self.details,
        }


@dataclass(frozen=True)
class LyapunovGrid:
    """Zero-control value matrices M(t, k) on the uniform grid; M(T, k) = G_k."""

    times: NDArray[np.float64]
    M: NDArray[np.float64]  # (N+1, D, n, n)


def lyapunov_solve(problem: ProblemSpec, N: int) -> LyapunovGrid:
    """Solve the coupled linear (zero-control) backward system.

    Same integrator as the Riccati solve with the quadratic feedback term
    removed, so x0' M(0, i0) x0 is the exact cost of the zero control.
    """
    times, M = _integrate_backward(problem, N, _lyapunov_rhs)
    return LyapunovGrid(times=times, M=M)


def random_control_table(
    problem: ProblemSpec,
    N: int,
    rng: np.random.Generator,
    num_blocks: int = 8,
    normalize: bool = False,
) -> ControlTable:
    """Block-constant random control table; optionally int |u|^2 dt = 1."""
    blocks = rng.standard_normal((num_blocks, problem.m))
    reps = np.diff(np.linspace(0, N, num_blocks + 1).astype(int))
    values = np.repeat(blocks, reps, axis=0)
    table = ControlTable(values=values)
    if normalize:
        norm = np.sqrt(table.l2_norm_sq(problem.T))
        table = ControlTable(values=values / norm)
    return table


def richardson_allowance(
    problem: ProblemSpec,
    control_for,
    N: int,
    n_paths: int,
    seed: int,
    workers: int = 1,
) -> tuple[float, dict]:
    """Discretization-bias allowance from a paired N vs 2N comparison.

    ``control_for(N)`` must return the control source for an N-step grid.
    Both runs share refined common noise, so the per-path cost differences
    estimate the weak-error step directly; the additive allowance
    3 |mean diff| + 3 stderr(diff) bounds the O(h) bias of the N-step
    estimate with margin for calibration noise.
    """
    costs_n, costs_2n, _, _ = paired_refinement_run(
        problem, control_for, n_paths, seed, N, workers
    )
    diff = costs_2n - costs_n
    delta = float(diff.mean())
    stderr = float(diff.std(ddof=1) / np.sqrt(len(diff)))
    allowance = 3.0 * abs(delta) + 3.0 * stderr
    return allowance, {
        "richardson_delta": delta,
        "richardson_stderr": stderr,
        "calibration_paths": n_paths,
    }


def value_identity_check(
    problem: ProblemSpec,
    grid: RiccatiGrid,
    n_paths: int,
    seed: int,
    N: int | None = None,
    workers: int = 1,
) -> CheckResult:
    """MC cost under the feedback law vs the quadratic value x0' P(0, i0) x0."""
    N = N or len(grid.times) - 1
    law = FeedbackLaw(problem, grid)
    est = mc_cost(problem, law, n_paths, derive_seed(seed, "value-mc"), N, workers)
    n_cal = max(1000, n_paths // 10)
    allowance, cal = richardson_allowance(
        problem, lambda n: law, N, n_cal, derive_seed(seed, "value-cal"), workers
    )
    target = float(problem.x0 @ grid.P[0, problem.i0] @ problem.x0)
    allowance = _floored_allowance(allowance, target)
    statistic = est.mean - target
    tolerance = 3.0 * est.stderr + allowance
    return CheckResult(
        name="value_identity",
        passed=bool(abs(statistic) <= tolerance),
        statistic=statistic,
        tolerance=tolerance,
        stderr=est.stderr,
        bias_allowance=allowance,
        n=n_paths,
        seed=seed,
        details={"mc_mean": est.mean, "target": target, **cal},
    )


def stationarity_residual(
    problem: ProblemSpec, path: PathRecord, grid: RiccatiGrid
) -> float:
    """Max norm over nodes of the stationarity functional along the path.

    Evaluates Shat(t_i, k_i) X_i + Rhat(t_i, k_i) u_i with the path's own
    recorded controls; under the grid's feedback law this is
    (Shat + Rhat Theta) X_i, zero up to linear-solve roundoff.
    """
    law = FeedbackLaw(problem, grid)
    stacks = _stacks(problem)
    nodes = law.node_indices(path.times[: len(path.U)])
    worst = 0.0
    for i in range(len(path.U)):
        t = float(path.times[i])
        k = int(path.regimes[i])
        P = grid.P[nodes[i]] if nodes[i] >= 0 else law.interpolated_P(t)
        Shat, Rhat = _hat_terms(P, stacks[problem.segment_index(t)])
        F = Shat[k] @ path.X[i] + Rhat[k] @ path.U[i]
        worst = max(worst, float(np.linalg.norm(F)))
    return worst


def stationarity_check(
    problem: ProblemSpec,
    grid: RiccatiGrid,
    seed: int,
    num_paths: int = 5,
    N: int | None = None,
) -> CheckResult:
    """Algebraic stationarity along simulated closed-loop paths; no MC slack."""
    N = N or len(grid.times) - 1
    law = FeedbackLaw(problem, grid)
    worst_ratio = 0.0
    for j in range(num_paths):
        path = simulate_closed_loop(problem, law, N, derive_seed(seed, "stat", j))
        residual = stationarity_residual(problem, path, grid)
        scale = float(np.max(np.linalg.norm(path.X, axis=1)))
        ratio = residual / scale if scale > 0.0 else residual
        worst_ratio = max(worst_ratio, ratio)
    return CheckResult(
        name="stationarity",
        passed=bool(worst_ratio <= STATIONARITY_RTOL),
        statistic=worst_ratio,
        tolerance=STATIONARITY_RTOL,
        stderr=0.0,
        bias_allowance=0.0,
        n=num_paths,
        seed=seed,
        details={"paths": num_paths},
    )


def perturbation_test(
    problem: ProblemSpec,
    grid: RiccatiGrid,
    K: int,
    n_paths: int,
    seed: int,
    N: int | None = None,
    workers: int = 1,
) -> CheckResult:
    """Open-loop optimality probe: J(u* + v_k) - J(u*) >= -3 stderr for all k.

    Directions are normalized block-constant tables; differences use common
    random numbers, so v = 0 gives exactly zero.  The minimum difference per
    unit ||v||^2 is reported as an empirical convexity estimate.
    """
    if K < 5:
        raise ValidationError("need at least K=5 perturbation directions")
    N = N or len(grid.times) - 1
    law = FeedbackLaw(problem, grid)
    deltas, stderrs = [], []
    for j in range(K):
        table = random_control_table(
            problem, N, derive_rng(seed, "dir", j), normalize=True
        )
        est = mc_cost_diff(
            problem,
            PerturbedFeedback(law, table),
            law,
            n_paths,
            derive_seed(seed, "pert-mc", j),
            N,
            workers,
        )
        deltas.append(est.mean)
        stderrs.append(est.stderr)
    deltas = np.array(deltas)
    stderrs = np.array(stderrs)
    passed = bool(np.all(deltas >= -3.0 * stderrs))
    worst = int(np.argmin(deltas))
    return CheckResult(
        name="perturbation_optimality",
        passed=passed,
        statistic=float(deltas[worst]),
        tolerance=float(3.0 * stderrs[worst]),
        stderr=float(stderrs[worst]),
        bias_allowance=0.0,
        n=n_paths,
        seed=seed,
        details={
            "directions": K,
            "deltas": deltas.tolist(),
            "stderrs": stderrs.tolist(),
            "empirical_convexity": float(deltas.min()),
        },
    )


def lyapunov_identity_check(
    problem: ProblemSpec,
    lyap: LyapunovGrid,
    n_paths: int,
    seed: int,
    N: int | None = None,
    workers: int = 1,
) -> CheckResult:
    """Zero-control MC cost vs the quadratic form x0' M(0, i0) x0."""
    N = N or len(lyap.times) - 1
    zero_table = lambda n: ControlTable(values=np.zeros((n, problem.m)))
    est = mc_cost(
        problem, zero_table(N), n_paths, derive_seed(seed, "lyap-mc"), N, workers
    )
    n_cal = max(1000, n_paths // 10)
    allowance, cal = richardson_allowance(
        problem, zero_table, N, n_cal, derive_seed(seed, "lyap-cal"), workers
    )
    target = float(problem.x0 @ lyap.M[0, problem.i0] @ problem.x0)
    allowance = _floored_allowance(allowance, target)
    statistic = est.mean - target
    tolerance = 3.0 * est.stderr + allowance
    return CheckResult(
        name="lyapunov_identity",
        passed=bool(abs(statistic) <= tolerance),
        statistic=statistic,
        tolerance=tolerance,
        stderr=est.stderr,
        bias_allowance=allowance,
        n=n_paths,
        seed=seed,
        details={"mc_mean": est.mean, "target": target, **cal},
    )


def convexity_probe(
    problem: ProblemSpec,
    K: int,
    n_paths: int,
    seed: int,
    N: int,
    workers: int = 1,
) -> CheckResult:
    """Estimate min_k J(0, 0, i0; u_k) / int |u_k|^2 over random controls.

    The minimum ratio is an empirical lower-bound estimate of the convexity
    constant, not a certified one; a negative value flags a non-convex
    instance.
    """
    if K < 5:
        raise ValidationError("need at least K=5 probe controls")
    zero_x0 = with_initial_state(problem, np.zeros(problem.n))
    ratios, rel_errs = [], []
    for j in range(K):
        table = random_control_table(problem, N, derive_rng(seed, "probe", j))
        denom = table.l2_norm_sq(problem.T)
        est = mc_cost(
            zero_x0, table, n_paths, derive_seed(seed, "probe-mc", j), N, workers
        )
        ratios.append(est.mean / denom)
        rel_errs.append(est.stderr / denom)
    ratios = np.array(ratios)
    rel_errs = np.array(rel_errs)
    passed = bool(np.all(ratios >= -3.0 * rel_errs))
    worst = int(np.argmin(ratios))
    return CheckResult(
        name="convexity_probe",
        passed=passed,
        statistic=float(ratios[worst]),
        tolerance=float(3.0 * rel_errs[worst]),
        stderr=float(rel_errs[worst]),
        bias_allowance=0.0,
        n=n_paths,
        seed=seed,
        details={
            "controls": K,
            "ratios": ratios.tolist(),
            "empirical_convexity_lower_bound": float(ratios.min()),
        },
    )


def run_standard_checks(
    problem: ProblemSpec,
    N: int,
    n_paths: int,
    seed: int,
    workers: int = 1,
    perturbation_paths: int | None = None,
    probe_paths: int | None = None,
) -> list[CheckResult]:
    """Full verification suite on one problem.

    A Riccati solve failure is itself reported as a failed ``sre_solve``
    check (correct detection of a non-convex instance) and the convexity
    probe still runs; every other check needs the solved grid.
    """
    perturbation_paths = perturbation_paths or min(n_paths, 10_000)
    probe_paths = probe_paths or min(n_paths, 10_000)
    checks: list[CheckResult] = []
    try:
        grid = solve_riccati(problem, N)
    except NumericalError as exc:
        checks.append(
            CheckResult(
                name="sre_solve",
                passed=False,
                statistic=float("nan"),
                tolerance=0.0,
                stderr=0.0,
                bias_allowance=0.0,
                n=0,
                seed=seed,
                details={"error": type(exc).__name__, "message": str(exc)},
            )
        )
        checks.append(
            convexity_probe(problem, 8, probe_paths, derive_seed(seed, "probe"), N, workers)
        )
        return checks

    eps_hat = rhat_certificate(grid)
    checks.append(
        CheckResult(
            name="rhat_certificate",
            passed=bool(eps_hat > 0.0),
            statistic=eps_hat,
            tolerance=0.0,
            stderr=0.0,
            bias_allowance=0.0,
            n=grid.rhat_min_eig.size,
            seed=seed,
            details={},
        )
    )
    checks.append(
        value_identity_check(problem, grid, n_paths, derive_seed(seed, "value"), N, workers)
    )
    checks.append(stationarity_check(problem, grid, derive_seed(seed, "stat"), N=N))
    checks.append(
        perturbation_test(
            problem, grid, 10, perturbation_paths, derive_seed(seed, "pert"), N, workers
        )
    )
    lyap = lyapunov_solve(problem, N)
    checks.append(
        lyapunov_identity_check(problem, lyap, n_paths, derive_seed(seed, "lyap"), N, workers)
    )
    checks.append(
        convexity_probe(problem, 8, probe_paths, derive_seed(seed, "probe"), N, workers)
    )
    return checks
