"""Reference Monte Carlo kernels: per-path Euler stepping, a path-major
gather with einsum mat-vecs, and the full-table matrix product.

``euler_maruyama_step`` and ``evaluate_cost`` step and cost one recorded
path at a time, straight from the coefficient cells; the batch kernel is
tested against them on the same noise.

:func:`full_table_evolve` is the state-major kernel before it stepped only
the live blocks of its table: one product of the whole (3n+1, D(n+1))
matrix with the one-hot state per step, and every update applied.  The
live-block pass must give its bytes.

The rest is the step kernel that the state-major kernel replaced, kept as
the oracle that ``simulate._kernel_pass``, one matrix product per step on a
one-hot state with the increments drawn a step at a time, is tested
against; :func:`replay_chunk_noise` rebuilds the increments that pass drew.
A control u = Theta X + v becomes a table per (grid node, regime) of the
closed-loop coefficients Acl = A + B Theta, Ccl = C + D Theta,
Mcl = Q + Theta'S + S'Theta + Theta'R Theta, stacked as (N, D, 3n, n), and
of the affine terms B v, D v, 2 (S'v + Theta'R v), stacked as (N, D, 3n),
and v'R v.  Each step gathers every path's (3n, n) matrix by its regime and
applies it with an einsum mat-vec; X is held as (paths, n).
"""

from typing import NamedTuple

import numpy as np
from numpy.typing import NDArray

from regimelq.chain import sample_regimes_on_grid
from regimelq.errors import NonFiniteState, ValidationError
from regimelq.model import ProblemSpec
from regimelq.simulate import Control, PathRecord, _resolve_control


def euler_maruyama_step(
    x: NDArray, u: NDArray, coeffs, dW: float, h: float
) -> NDArray:
    """One explicit step x' = x + (Ax + Bu) h + (Cx + Du) dW."""
    if not h > 0.0:
        raise ValidationError("step size must be positive")
    x_new = x + (coeffs.A @ x + coeffs.B @ u) * h + (coeffs.C @ x + coeffs.D @ u) * dW
    if not np.all(np.isfinite(x_new)):
        raise NonFiniteState("state became non-finite during Euler step")
    return x_new


def evaluate_cost(path: PathRecord, problem: ProblemSpec) -> float:
    """Quadratic cost of a recorded path: left Riemann sum plus terminal term."""
    h = path.times[1] - path.times[0]
    total = 0.0
    for i in range(len(path.U)):
        cs = problem.coefficients[problem.segment_index(path.times[i])][path.regimes[i]]
        x, u = path.X[i], path.U[i]
        total += (x @ cs.Q @ x + 2.0 * (u @ cs.S @ x) + u @ cs.R @ u) * h
    G = problem.G[path.regimes[-1]]
    xT = path.X[-1]
    return float(total + xT @ G @ xT)


class _LoopTable(NamedTuple):
    """One control on one grid, per (node, regime); see the module docstring."""

    h: float
    gains: NDArray | None  # (N, D, m, n) Theta; None for a pure ControlTable
    W: NDArray  # (N, D, 3n, n): Acl, Ccl, Mcl stacked
    w: NDArray | None  # (N, D, 3n): B v, D v, 2 (S'v + Theta'R v); None without v
    c: NDArray | None  # (N, D): v'R v


def _loop_table(problem: ProblemSpec, control: Control, times) -> _LoopTable:
    """Closed-loop coefficients of ``control`` at every grid node and regime."""
    gains, v = _resolve_control(control, problem, times)
    A, B, C, D, Q, S, R = problem.coefficients_at(times[:-1])
    Theta = np.zeros(B.shape[:2] + (problem.m, problem.n)) if gains is None else gains
    ThetaT = Theta.swapaxes(-1, -2)
    cross = ThetaT @ S
    W = np.concatenate(
        [A + B @ Theta, C + D @ Theta, Q + cross + cross.swapaxes(-1, -2) + ThetaT @ R @ Theta],
        axis=-2,
    )
    h = float(times[1] - times[0])
    if v is None:
        return _LoopTable(h, gains, W, None, None)
    v = np.broadcast_to(v[:, None, :, None], B.shape[:2] + (problem.m, 1))
    Rv = R @ v
    w = np.concatenate([B @ v, D @ v, 2.0 * (S.swapaxes(-1, -2) @ v + ThetaT @ Rv)], axis=-2)
    c = v.swapaxes(-1, -2) @ Rv
    return _LoopTable(h, gains, W, w[..., 0], c[..., 0, 0])


def replay_chunk_noise(problem: ProblemSpec, times, rng, n_chunk: int):
    """The regimes and the (paths, N) increments a kernel pass draws from ``rng``.

    Replays the chunk stream in the pass's order: the chain onto the grid
    first, then N rows of ``n_chunk`` standard normals, one per fine step,
    each scaled by sqrt(h).  A pass without diffusion draws only the chain
    and steps as it would on these increments.  The increments are a transposed view of the
    node-major rows, so each step reads a contiguous row.
    """
    regimes = sample_regimes_on_grid(problem.generator, problem.i0, times, rng, n_chunk)
    dW = rng.standard_normal((len(times) - 1, n_chunk)).T
    dW *= np.sqrt(times[1] - times[0])
    return regimes, dW


def _evolve(problem: ProblemSpec, table: _LoopTable, regimes, dW, states=None):
    """Step every path of a chunk; returns (running costs, terminal costs, X_T).

    ``states``, when given, receives X at every node, shape (paths, N+1, n).
    """
    n = problem.n
    h = table.h
    X = np.broadcast_to(problem.x0, (regimes.shape[0], n)).copy()
    running = np.zeros(regimes.shape[0])
    for i, (reg, dw) in enumerate(zip(regimes.T, dW.T)):
        if states is not None:
            states[:, i] = X
        Y = np.einsum("pij,pj->pi", np.take(table.W[i], reg, axis=0), X)
        if table.w is None:
            running += h * np.einsum("pi,pi->p", X, Y[:, 2 * n :])
        else:
            Y += np.take(table.w[i], reg, axis=0)
            running += h * (np.einsum("pi,pi->p", X, Y[:, 2 * n :]) + np.take(table.c[i], reg))
        X = X + Y[:, :n] * h + Y[:, n : 2 * n] * dw[:, None]
    if not np.all(np.isfinite(X)):
        raise NonFiniteState("state became non-finite during batch simulation")
    if states is not None:
        states[:, -1] = X
    G = problem.G
    terminal = np.einsum("pi,pij,pj->p", X, G[regimes[:, -1]], X)
    return running, terminal, X




def full_table_evolve(problem: ProblemSpec, table, regimes, dW, states=None):
    """Step every path on ``simulate._loop_table``'s whole matrix; returns
    (running costs, terminal costs, X_T).

    ``regimes`` is (paths, N+1) and ``dW`` (paths, N) on the table's grid;
    ``states``, when given, receives X at every node, shape (N+1, n, paths).
    """
    n = problem.n
    paths = regimes.shape[0]
    labels = np.arange(problem.num_regimes)[:, None, None]
    X1 = np.ones((n + 1, paths))
    X1[:n] = problem.x0[:, None]
    X = X1[:n]
    running = np.zeros(paths)
    Z = np.empty((problem.num_regimes, n + 1, paths))
    for j, M in enumerate(table.M):
        if states is not None:
            states[j] = X
        np.multiply(regimes[:, j] == labels, X1, out=Z)
        Y = M @ Z.reshape(-1, paths)
        running += table.h * (np.einsum("ip,ip->p", X, Y[2 * n : 3 * n]) + Y[3 * n])
        X += Y[:n] * table.h
        X += Y[n : 2 * n] * dW[:, j]
    X_T = X.T
    if states is not None:
        states[-1] = X
    terminal = np.einsum("pi,pij,pj->p", X_T, problem.G[regimes[:, -1]], X_T)
    return running, terminal, X_T
