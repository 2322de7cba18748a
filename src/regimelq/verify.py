"""Statistical and algebraic verification of the optimality structure.

Every check is built by one of the three :class:`CheckResult`
constructors.  ``within`` passes when |statistic| <= 3 * stderr +
bias_allowance, with both tolerance terms recorded separately; ``above``
when every value is >= -3 stderr; ``exact`` is algebra with no statistical
slack.  The bias allowance absorbs the O(h)
weak error of the Euler scheme and is calibrated per check by a Richardson
comparison of the estimate at N and 2N steps; statistical error alone
cannot absorb discretization bias, so the two are never mixed.

The adjoint quantities never get their own backward solve: along a
closed-loop path the adjoint pair is Y = P X and Z = P (C + D Theta) X, so
the stationarity functional B'Y + D'Z + S X + R u collapses to
(Shat + Rhat Theta) X.  :func:`stationarity_check` bounds its coefficient,
relative to the size of its two terms, at every node and step midpoint of
the solved grid (:func:`regimelq.riccati.stationarity_defect`), as pure
algebra with zero statistical tolerance and no simulated path.

The zero-control layer has no solver of its own either: the Lyapunov system
is the Riccati system of :func:`~regimelq.model.without_control`, and the
Lyapunov identity is that problem's value identity.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalError
from .model import ProblemSpec, with_initial_state, without_control
from .riccati import (
    FeedbackLaw,
    RiccatiGrid,
    rhat_certificate,
    solve_riccati,
    stationarity_defect,
)
from .simulate import (
    ControlTable,
    mc_cost,
    mc_cost_diff,
    paired_refinement_run,
)
from .streams import derive_rng, derive_seed

STATIONARITY_RTOL = 1e-8
# quadratic-form targets come from an RK4 grid, so identity checks cannot
# resolve differences below the backward solver's own truncation scale
SOLVER_RESOLUTION = 1e-10
PERTURBATION_DIRECTIONS = 10
PROBE_CONTROLS = 8
CONTROL_BLOCKS = 8  # constant blocks of every random control table
MAX_PROBE_PATHS = 10_000  # paths per perturbation direction or probe control


def calibration_paths(n_paths: int) -> int:
    """Paths of the Richardson calibration run behind an n_paths estimate."""
    return max(1000, n_paths // 10)


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

    @classmethod
    def within(cls, name, statistic, stderr, bias_allowance, n, seed, details):
        """Two-sided check: |statistic| <= 3 stderr + bias_allowance."""
        tolerance = 3.0 * stderr + bias_allowance
        return cls(name, bool(abs(statistic) <= tolerance), statistic, tolerance,
                   stderr, bias_allowance, n, seed, details)

    @classmethod
    def above(cls, name, values, stderrs, n, seed, details):
        """One-sided check: every value >= -3 stderr; reports the smallest."""
        values, stderrs = np.asarray(values), np.asarray(stderrs)
        worst = int(np.argmin(values))
        return cls(name, bool(np.all(values >= -3.0 * stderrs)), float(values[worst]),
                   float(3.0 * stderrs[worst]), float(stderrs[worst]), 0.0, n, seed, details)

    @classmethod
    def exact(cls, name, passed, statistic, tolerance, n, seed, details):
        """Algebraic check: no statistical error and no bias allowance."""
        return cls(name, bool(passed), statistic, tolerance, 0.0, 0.0, n, seed, details)

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


def lyapunov_solve(problem: ProblemSpec, N: int) -> RiccatiGrid:
    """Solve the coupled linear (zero-control) backward system.

    It is the Riccati solve of ``without_control(problem)``, whose feedback
    term is exactly zero, so x0' P(0, i0) x0 is the exact cost of the zero
    control and every gain is 0.  Its Rhat is I, so it is never redone on a
    finer grid.
    """
    return solve_riccati(without_control(problem), N)


def random_control_table(
    problem: ProblemSpec,
    N: int,
    rng: np.random.Generator,
    normalize: bool = False,
) -> ControlTable:
    """Block-constant random control table; optionally int |u|^2 dt = 1."""
    blocks = rng.standard_normal((CONTROL_BLOCKS, problem.m))
    reps = np.diff(np.linspace(0, N, CONTROL_BLOCKS + 1).astype(int))
    values = np.repeat(blocks, reps, axis=0)
    table = ControlTable(values=values)
    if normalize:
        norm = np.sqrt(table.l2_norm_sq(problem.T))
        table = ControlTable(values=values / norm)
    return table


def paired_allowance(delta, influence) -> tuple[float, float]:
    """Bias allowance 3 |delta| + 3 stderr from a paired N vs 2N comparison.

    ``delta`` is the estimated change of the statistic from N to 2N steps and
    ``influence`` its per-path paired influence values, whose standard error
    measures the calibration noise.  Returns (allowance, stderr).
    """
    stderr = float(influence.std(ddof=1) / np.sqrt(len(influence)))
    return 3.0 * abs(float(delta)) + 3.0 * stderr, stderr


def richardson_allowance(
    problem: ProblemSpec,
    control: FeedbackLaw,
    N: int,
    n_paths: int,
    seed: int,
    workers: int = 1,
) -> tuple[float, dict]:
    """Discretization-bias allowance from a paired N vs 2N comparison.

    Both runs of ``control`` share refined common noise, so the per-path
    cost differences estimate the weak-error step directly;
    :func:`paired_allowance` bounds the O(h) bias of the N-step estimate
    with margin for calibration noise.
    """
    costs_n, costs_2n, _, _ = paired_refinement_run(
        problem, control, n_paths, seed, N, workers
    )
    diff = costs_2n - costs_n
    delta = float(diff.mean())
    allowance, stderr = paired_allowance(delta, diff)
    return allowance, {
        "richardson_delta": delta,
        "richardson_stderr": stderr,
        "calibration_paths": n_paths,
    }


def _identity_check(
    name: str, tag: str, problem: ProblemSpec, grid: RiccatiGrid,
    n_paths: int, seed: int, workers: int,
) -> CheckResult:
    """MC cost of the feedback law of ``grid`` vs its value x0' P(0, i0) x0.

    Streams ``{tag}-mc`` (estimate) and ``{tag}-cal`` (Richardson
    calibration on ``calibration_paths(n_paths)``); the allowance never
    falls below the solver's resolution of the target.
    """
    N = len(grid.times) - 1
    law = FeedbackLaw(problem, grid)
    target = float(problem.x0 @ grid.P[0, problem.i0] @ problem.x0)
    est = mc_cost(problem, law, n_paths, derive_seed(seed, f"{tag}-mc"), N, workers)
    allowance, cal = richardson_allowance(
        problem, law, N, calibration_paths(n_paths),
        derive_seed(seed, f"{tag}-cal"), workers,
    )
    allowance = max(allowance, SOLVER_RESOLUTION * (1.0 + abs(target)))
    return CheckResult.within(
        name, est.mean - target, est.stderr, allowance, n_paths, seed,
        {"mc_mean": est.mean, "target": target, **cal},
    )


def value_identity_check(
    problem: ProblemSpec,
    grid: RiccatiGrid,
    n_paths: int,
    seed: int,
    workers: int = 1,
) -> CheckResult:
    """MC cost under the feedback law vs the quadratic value x0' P(0, i0) x0."""
    return _identity_check("value_identity", "value", problem, grid, n_paths, seed, workers)


def stationarity_check(
    problem: ProblemSpec,
    grid: RiccatiGrid,
    seed: int,
) -> CheckResult:
    """Largest relative ||Shat + Rhat Theta||_F at every node and step midpoint; no MC slack.

    The Frobenius norm bounds |(Shat + Rhat Theta) X| / |X| at every state
    X, so it bounds the stationarity functional of any closed-loop path
    per unit state.  Dividing it by ||Shat||_F + ||Rhat||_F ||Theta||_F
    (see :func:`regimelq.riccati.stationarity_defect`) makes
    ``STATIONARITY_RTOL`` a relative bound: scaling Q, S, R and G leaves
    Theta and the statistic unchanged.
    """
    N = len(grid.times) - 1
    defect = stationarity_defect(problem, grid)
    return CheckResult.exact(
        "stationarity", defect <= STATIONARITY_RTOL, defect, STATIONARITY_RTOL,
        (2 * N + 1) * problem.num_regimes, seed, {"nodes": N + 1, "midpoints": N},
    )


def perturbation_test(
    problem: ProblemSpec,
    grid: RiccatiGrid,
    n_paths: int,
    seed: int,
    workers: int = 1,
) -> CheckResult:
    """Open-loop optimality probe: J(u* + v_k) - J(u*) >= -3 stderr for all k.

    The ``PERTURBATION_DIRECTIONS`` directions are normalized block-constant
    tables; differences use common random numbers, so v = 0 gives exactly
    zero.  The minimum difference per unit ||v||^2 is reported as an
    empirical convexity estimate.
    """
    N = len(grid.times) - 1
    law = FeedbackLaw(problem, grid)
    deltas, stderrs = [], []
    for j in range(PERTURBATION_DIRECTIONS):
        table = random_control_table(
            problem, N, derive_rng(seed, "dir", j), normalize=True
        )
        est = mc_cost_diff(
            problem,
            ControlTable(table.values, law),
            law,
            n_paths,
            derive_seed(seed, "pert-mc", j),
            N,
            workers,
        )
        deltas.append(est.mean)
        stderrs.append(est.stderr)
    return CheckResult.above(
        "perturbation_optimality", deltas, stderrs, n_paths, seed,
        {
            "directions": PERTURBATION_DIRECTIONS,
            "deltas": deltas,
            "stderrs": stderrs,
            "empirical_convexity": min(deltas),
        },
    )


def lyapunov_identity_check(
    problem: ProblemSpec,
    lyap: RiccatiGrid,
    n_paths: int,
    seed: int,
    workers: int = 1,
) -> CheckResult:
    """Zero-control MC cost vs x0' P(0, i0) x0 of :func:`lyapunov_solve`.

    The value identity of ``without_control(problem)``, whose feedback law
    is the zero control.
    """
    return _identity_check(
        "lyapunov_identity", "lyap", without_control(problem), lyap, n_paths, seed, workers
    )


def convexity_probe(
    problem: ProblemSpec,
    n_paths: int,
    seed: int,
    N: int,
    workers: int = 1,
) -> CheckResult:
    """Estimate min_k J(0, 0, i0; u_k) / int |u_k|^2 over ``PROBE_CONTROLS`` random controls.

    The minimum ratio is an empirical lower-bound estimate of the convexity
    constant, not a certified one; a negative value flags a non-convex
    instance.
    """
    zero_x0 = with_initial_state(problem, np.zeros(problem.n))
    ratios, rel_errs = [], []
    for j in range(PROBE_CONTROLS):
        table = random_control_table(problem, N, derive_rng(seed, "probe", j))
        denom = table.l2_norm_sq(problem.T)
        est = mc_cost(
            zero_x0, table, n_paths, derive_seed(seed, "probe-mc", j), N, workers
        )
        ratios.append(est.mean / denom)
        rel_errs.append(est.stderr / denom)
    return CheckResult.above(
        "convexity_probe", ratios, rel_errs, n_paths, seed,
        {
            "controls": PROBE_CONTROLS,
            "ratios": ratios,
            "empirical_convexity_lower_bound": min(ratios),
        },
    )


def run_standard_checks(
    problem: ProblemSpec,
    N: int,
    n_paths: int,
    seed: int,
    workers: int = 1,
) -> list[CheckResult]:
    """Full verification suite on one problem.

    A Riccati solve failure is itself reported as a failed ``sre_solve``
    check (correct detection of a non-convex instance) and the convexity
    probe still runs; every other check needs the solved grid.
    """
    probe_paths = min(n_paths, MAX_PROBE_PATHS)
    try:
        grid = solve_riccati(problem, N)
    except NumericalError as exc:
        checks = [
            CheckResult.exact(
                "sre_solve", False, float("nan"), 0.0, 0, seed,
                {"error": type(exc).__name__, "message": str(exc)},
            )
        ]
    else:
        eps_hat = rhat_certificate(grid)
        checks = [
            CheckResult.exact(
                "rhat_certificate", eps_hat > 0.0, eps_hat, 0.0,
                grid.rhat_min_eig.size, seed, {},
            ),
            value_identity_check(
                problem, grid, n_paths, derive_seed(seed, "value"), workers
            ),
            stationarity_check(problem, grid, seed),
            perturbation_test(
                problem, grid, probe_paths, derive_seed(seed, "pert"), workers
            ),
            lyapunov_identity_check(
                problem, lyapunov_solve(problem, N), n_paths,
                derive_seed(seed, "lyap"), workers,
            ),
        ]
    checks.append(
        convexity_probe(problem, probe_paths, derive_seed(seed, "probe"), N, workers)
    )
    return checks
