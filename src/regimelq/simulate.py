"""Joint simulation of (W, chain, X, u) and Monte Carlo cost estimation.

One kernel steps every path.  A control u = Theta X + v is first turned
into the closed-loop coefficients Acl = A + B Theta, Ccl = C + D Theta,
Mcl = Q + Theta'S + S'Theta + Theta'R Theta and, when an open-loop part v
is present, the affine terms B v, D v, S'v + Theta'R v and v'R v; a pure
``ControlTable`` has Theta = 0.  Each grid node gets one (3n+1, D(n+1))
matrix: its column block k maps [X; 1] of a path in regime k to
[Acl X + B v; Ccl X + D v; Mcl X + 2 (S'v + Theta'R v); v'R v], and
without v the affine column and the last row are zero.  The kernel holds X
as (n, paths), one contiguous row per component above a row of ones, and
each step writes the one-hot state e_k (x) [X; 1] of every path and applies
the node's matrix with one matrix product.  The other regimes' columns
meet exact zeros, so at n = 1 each output is its coefficient times X, then
plus its affine term, the two roundings of the gather kernel this replaced;
at n > 1 the sum may round differently.  The product costs D(n+1)(3n+1)
multiply-adds per path-step, so it pays only for few regimes (see the
README).  The chain is sampled exactly and written straight onto the grid;
the Brownian increments are scaled in place where they were drawn.
``mc_run`` and ``paired_refinement_run`` hand their paths to the chunk
driver :func:`~regimelq.streams.run_chunks`, which the BSDE training bundle
shares: each chunk owns a random stream derived from (seed, key, chunk
index), so estimates are bit-identical regardless of worker count, and
per-path results are kept in path order.  ``simulate_closed_loop`` is
the same noise draw and kernel on one path with its states recorded (used
by algebraic checks and path dumps).

Conventions: controls and regimes are evaluated at left endpoints
(explicit scheme, predictable integrands); the chain is simulated exactly
and projected onto the grid; the running cost is a left Riemann sum.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from numpy.typing import NDArray

from .chain import sample_regimes_on_grid
from .errors import NonFiniteState, ValidationError
from .model import ProblemSpec
from .riccati import FeedbackLaw, _on_grid
# CHUNK_SIZE is re-exported: it is the path count of one batch chunk
from .streams import CHUNK_SIZE, derive_rng, mapped_zeros, run_chunks

MIN_PATHS = 100  # fewest paths behind a Monte Carlo estimate or a CLI run


@dataclass(frozen=True)
class MCEstimate:
    """Monte Carlo mean with standard error; the unit of statistical checks."""

    mean: float
    stderr: float
    n: int
    seed: int


@dataclass(frozen=True)
class ControlTable:
    """Deterministic piecewise-constant open-loop control on the sim grid."""

    values: NDArray[np.float64]  # (N, m), row i in force on [t_i, t_{i+1})

    @property
    def num_steps(self) -> int:
        return self.values.shape[0]

    def l2_norm_sq(self, T: float) -> float:
        """Exact int_0^T |u|^2 dt of the piecewise-constant table."""
        h = T / self.num_steps
        return float(np.sum(self.values**2) * h)


@dataclass(frozen=True)
class PerturbedFeedback:
    """Closed-loop law plus an additive open-loop perturbation table."""

    law: FeedbackLaw
    table: ControlTable


Control = FeedbackLaw | ControlTable | PerturbedFeedback


@dataclass
class PathRecord:
    """One recorded joint sample path with its cost decomposition."""

    times: NDArray[np.float64]  # (N+1,)
    dW: NDArray[np.float64]  # (N,)
    regimes: NDArray[np.signedinteger]  # (N+1,) regime at each node, sampler dtype
    X: NDArray[np.float64]  # (N+1, n)
    U: NDArray[np.float64]  # (N, m), left endpoints
    running_cost: float
    terminal_cost: float

    @property
    def cost(self) -> float:
        return self.running_cost + self.terminal_cost


def simulate_closed_loop(
    problem: ProblemSpec, law: FeedbackLaw, N: int, seed: int
) -> PathRecord:
    """Simulate one closed-loop path u_i = Theta(t_i, k_i) X_i on an N-step grid.

    The law should be solved on a grid at least as fine as N; off-node gains
    come from the law's P interpolation either way.
    """
    times = np.linspace(0.0, problem.T, N + 1)
    table = _loop_table(problem, law, times)
    regimes, dW = _draw_chunk_noise(problem, times, derive_rng(seed, "path"), 1)
    states = np.empty((N + 1, problem.n, 1))
    running, terminal, _ = _evolve(problem, table, regimes, dW, states=states)
    X = states[..., 0]
    gains = table.gains[np.arange(N), regimes[0, :-1]]  # (N, m, n)
    return PathRecord(
        times=times,
        dW=dW[0],
        regimes=regimes[0],
        X=X,
        U=np.einsum("imn,in->im", gains, X[:-1]),
        running_cost=float(running[0]),
        terminal_cost=float(terminal[0]),
    )


# --- batch engine ---------------------------------------------------------

def _resolve_control(control: Control, problem: ProblemSpec, times) -> tuple:
    """Split a control into (gains (N, D, m, n) | None, table (N, m) | None)."""
    N = len(times) - 1
    gains = table = None
    if isinstance(control, PerturbedFeedback):
        gains = control.law.gains_at_times(times[:-1])
        table = control.table.values
    elif isinstance(control, FeedbackLaw):
        gains = control.gains_at_times(times[:-1])
    elif isinstance(control, ControlTable):
        table = control.values
    else:
        raise ValidationError(f"unsupported control source {type(control)!r}")
    if table is not None and table.shape != (N, problem.m):
        raise ValidationError(
            f"control table shape {table.shape} does not match grid ({N}, {problem.m})"
        )
    return gains, table


class _LoopTable(NamedTuple):
    """One control on one grid, per (node, regime); see the module docstring."""

    h: float
    gains: NDArray | None  # (N, D, m, n) Theta; None for a pure ControlTable
    M: NDArray  # (N, 3n+1, D(n+1)): column block k maps [X; 1] of regime k


def _loop_table(problem: ProblemSpec, control: Control, times) -> _LoopTable:
    """Closed-loop coefficients of ``control`` at every grid node and regime."""
    gains, v = _resolve_control(control, problem, times)
    A, B, C, D, Q, S, R = _on_grid(problem, times[:-1])
    n = problem.n
    Theta = np.zeros(B.shape[:2] + (problem.m, n)) if gains is None else gains
    ThetaT = Theta.swapaxes(-1, -2)
    cross = ThetaT @ S
    M = np.zeros(B.shape[:2] + (3 * n + 1, n + 1))  # (N, D, rows, [X; 1])
    M[..., : 3 * n, :n] = np.concatenate(
        [A + B @ Theta, C + D @ Theta, Q + cross + cross.swapaxes(-1, -2) + ThetaT @ R @ Theta],
        axis=-2,
    )
    if v is not None:
        v = np.broadcast_to(v[:, None, :, None], B.shape[:2] + (problem.m, 1))
        Rv = R @ v
        M[..., : 3 * n, n:] = np.concatenate(
            [B @ v, D @ v, 2.0 * (S.swapaxes(-1, -2) @ v + ThetaT @ Rv)], axis=-2
        )
        M[..., 3 * n :, n:] = v.swapaxes(-1, -2) @ Rv
    M = np.ascontiguousarray(M.transpose(0, 2, 1, 3)).reshape(len(M), 3 * n + 1, -1)
    return _LoopTable(float(times[1] - times[0]), gains, M)


def _draw_chunk_noise(problem: ProblemSpec, times, rng, n_chunk: int):
    """Exact chain regimes on the grid, plus Brownian increments.

    Both are (paths, nodes) arrays.  The regimes are node-major in memory,
    so each kernel step reads a contiguous row; the increments are scaled
    in place where they were drawn, and each step reads one strided column.
    """
    regimes = sample_regimes_on_grid(problem.generator, problem.i0, times, rng, n_chunk)
    dW = rng.standard_normal(out=mapped_zeros((n_chunk, len(times) - 1)))
    dW *= np.sqrt(times[1] - times[0])
    return regimes, dW


def _evolve(problem: ProblemSpec, table: _LoopTable, regimes, dW, states=None):
    """Step every path of a chunk; returns (running costs, terminal costs, X_T).

    The state is held as (n, paths), one contiguous row per component, above
    a row of ones.  ``states``, when given, receives X at every node, shape
    (N+1, n, paths).
    """
    n = problem.n
    h = table.h
    paths = regimes.shape[0]
    labels = np.arange(problem.num_regimes, dtype=regimes.dtype)[:, None, None]
    X1 = np.ones((n + 1, paths))  # [X; 1]
    X = X1[:n]
    X[:] = problem.x0[:, None]
    running = np.zeros(paths)
    Z = np.empty((problem.num_regimes, n + 1, paths))  # e_k (x) [X; 1] per path
    Y = np.empty((3 * n + 1, paths))
    for i in range(regimes.shape[1] - 1):
        if states is not None:
            states[i] = X
        np.multiply(regimes[:, i] == labels, X1, out=Z)
        np.matmul(table.M[i], Z.reshape(-1, paths), out=Y)
        running += h * (np.einsum("ip,ip->p", X, Y[2 * n : 3 * n]) + Y[3 * n])
        X += Y[:n] * h
        X += Y[n : 2 * n] * dW[:, i]
    if not np.all(np.isfinite(X)):
        raise NonFiniteState("state became non-finite during batch simulation")
    if states is not None:
        states[-1] = X
    X_T = X.T
    G = problem.terminal_weights()
    terminal = np.einsum("pi,pij,pj->p", X_T, G[regimes[:, -1]], X_T)
    return running, terminal, X_T


def _cost_and_state(problem: ProblemSpec, table: _LoopTable, regimes, dW):
    running, terminal, X_T = _evolve(problem, table, regimes, dW)
    return running + terminal, X_T


def mc_run(
    problem: ProblemSpec,
    control: Control,
    n_paths: int,
    seed: int,
    N: int,
    workers: int = 1,
    control_b: Control | None = None,
):
    """Run the chunked Monte Carlo engine.

    Returns ``(costs, X_T)`` arrays ordered by path index, or, when
    ``control_b`` is given, ``(costs_a, costs_b, X_T_a)`` where both control
    variants share the same chain and Brownian draws (common random numbers).
    """
    times = np.linspace(0.0, problem.T, N + 1)
    table_a = _loop_table(problem, control, times)
    table_b = None if control_b is None else _loop_table(problem, control_b, times)

    def chunk(rng, n):
        regimes, dW = _draw_chunk_noise(problem, times, rng, n)
        costs, X_T = _cost_and_state(problem, table_a, regimes, dW)
        if table_b is None:
            return costs, X_T
        return costs, _cost_and_state(problem, table_b, regimes, dW)[0], X_T

    return run_chunks(n_paths, seed, "chunk", chunk, workers)


def paired_refinement_run(
    problem: ProblemSpec,
    control_for,
    n_paths: int,
    seed: int,
    N: int,
    workers: int = 1,
):
    """Simulate each path on N and 2N steps with refined common noise.

    The 2N Brownian increments sum pairwise to the N increments and both
    grids share the exact chain path, so per-path differences isolate the
    discretization effect; used to calibrate bias allowances.
    ``control_for(N)`` must return the control source for an N-step grid.
    Returns (costs_N, costs_2N, X_T_N, X_T_2N).
    """
    times2 = np.linspace(0.0, problem.T, 2 * N + 1)
    table1 = _loop_table(problem, control_for(N), times2[::2])
    table2 = _loop_table(problem, control_for(2 * N), times2)

    def chunk(rng, n):
        regimes2, dW2 = _draw_chunk_noise(problem, times2, rng, n)
        dW1 = np.add(dW2[:, 0::2], dW2[:, 1::2], out=mapped_zeros((n, N)))
        costs1, xT1 = _cost_and_state(problem, table1, regimes2[:, ::2], dW1)
        costs2, xT2 = _cost_and_state(problem, table2, regimes2, dW2)
        return costs1, costs2, xT1, xT2

    return run_chunks(n_paths, seed, "refine", chunk, workers)


def _estimate(values: NDArray, seed: int) -> MCEstimate:
    n = len(values)
    if n < MIN_PATHS:
        raise ValidationError(f"a Monte Carlo estimate needs at least {MIN_PATHS} paths")
    mean = float(np.mean(values))
    stderr = float(np.std(values, ddof=1) / np.sqrt(n))
    return MCEstimate(mean=mean, stderr=stderr, n=n, seed=seed)


def mc_cost(
    problem: ProblemSpec,
    control: Control,
    n_paths: int,
    seed: int,
    N: int,
    workers: int = 1,
) -> MCEstimate:
    """Monte Carlo estimate of the cost under the given control source."""
    costs, _ = mc_run(problem, control, n_paths, seed, N, workers)
    return _estimate(costs, seed)


def mc_cost_diff(
    problem: ProblemSpec,
    control_a: Control,
    control_b: Control,
    n_paths: int,
    seed: int,
    N: int,
    workers: int = 1,
) -> MCEstimate:
    """Estimate of J(control_a) - J(control_b) with common random numbers."""
    costs_a, costs_b, _ = mc_run(
        problem, control_a, n_paths, seed, N, workers, control_b=control_b
    )
    return _estimate(costs_a - costs_b, seed)
