"""Reference Monte Carlo kernel: path-major gather and einsum mat-vecs.

This is the step kernel that ``simulate._evolve`` replaced, kept as the
oracle its state-major form is tested against, together with the noise
draw it read.  A control u = Theta X + v becomes a table per (grid node,
regime) of the closed-loop coefficients Acl = A + B Theta, Ccl = C + D Theta,
Mcl = Q + Theta'S + S'Theta + Theta'R Theta, stacked as (N, D, 3n, n), and
of the affine terms B v, D v, 2 (S'v + Theta'R v), stacked as (N, D, 3n),
and v'R v.  Each step gathers every path's (3n, n) matrix by its regime and
applies it with an einsum mat-vec; X is held as (paths, n).  The increments
are written through a transposed view of a node-major array.
"""

from typing import NamedTuple

import numpy as np
from numpy.typing import NDArray

from regimelq.chain import sample_regimes_on_grid
from regimelq.errors import NonFiniteState
from regimelq.model import ProblemSpec
from regimelq.riccati import _on_grid
from regimelq.simulate import Control, _resolve_control


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
    A, B, C, D, Q, S, R = _on_grid(problem, times[:-1])
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


def _draw_chunk_noise(problem: ProblemSpec, times, rng, n_chunk: int):
    """Exact chain regimes on the grid, plus Brownian increments.

    Both (paths, nodes) arrays are node-major in memory, so each kernel
    step reads contiguous rows without a transposed copy.
    """
    regimes = sample_regimes_on_grid(problem.generator, problem.i0, times, rng, n_chunk)
    N = len(times) - 1
    dW = np.empty((N, n_chunk)).T
    np.multiply(rng.standard_normal((n_chunk, N)), np.sqrt(times[1] - times[0]), out=dW)
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
    G = problem.terminal_weights()
    terminal = np.einsum("pi,pij,pj->p", X, G[regimes[:, -1]], X)
    return running, terminal, X


