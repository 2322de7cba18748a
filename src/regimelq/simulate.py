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
README).  ``mc_run`` and ``paired_refinement_run`` hand their paths to
the chunk driver :func:`~regimelq.streams.run_chunks`, which the BSDE
training bundle shares: each chunk owns a random stream derived from (seed,
key, chunk index), so estimates are bit-identical regardless of worker
count, and per-path results are kept in path order.  A chunk first samples
its chain exactly onto the grid, the one per-path, per-node array it holds
(int8 up to 128 regimes).  Then one kernel pass steps every variant of the
chunk, a list of (table, stride), in lockstep: each fine step draws one row
of Brownian increments from the chunk's stream into a reused buffer, and
every variant consumes it.  ``mc_run`` steps a control and its common-noise
partner at stride 1; ``paired_refinement_run`` steps its 2N grid at stride
1 and its N grid at stride 2, on the sum of each pair of rows.  So a chunk's
noise memory is O(paths), whatever the grid.  A pass that records no
increments and whose variants have no diffusion (every table's rows
Ccl X + D v zero at every node and regime: C = D = 0, as in the bundled
``slq`` configs) draws none.  That moves no byte: a chunk draws its chain
first and its increments last, so no later draw shifts, and each skipped
update added exact zeros to X.
``simulate_closed_loop`` is the same pass on one path with its states and
increments recorded (used by algebraic checks and path dumps), so it always
draws.

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
from .streams import CHUNK_SIZE, derive_rng, run_chunks

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
    rng = derive_rng(seed, "path")
    regimes = sample_regimes_on_grid(problem.generator, problem.i0, times, rng, 1)
    states = np.empty((N + 1, problem.n, 1))
    dW = np.empty((N, 1))
    ((running, terminal, _),) = _kernel_pass(
        problem, times, regimes, rng, [(table, 1)], states=states, dW=dW
    )
    X = states[..., 0]
    gains = table.gains[np.arange(N), regimes[0, :-1]]  # (N, m, n)
    return PathRecord(
        times=times,
        dW=dW[:, 0],
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


def _kernel_pass(
    problem: ProblemSpec, times, regimes, rng, variants, states=None, dW=None
) -> list:
    """Step every variant of a chunk in lockstep on one stream of increments.

    ``regimes`` is the chunk's chain on ``times``, (paths, N+1).  Each fine
    step draws one row of ``paths`` standard normals from ``rng`` into a
    reused buffer and scales it by sqrt(h) in place; every variant consumes
    that row.  A variant ``(table, stride)`` has its table on
    ``times[::stride]`` and steps on the sum of each ``stride`` consecutive
    rows, at the regime of its left node.  The state is held as (n, paths),
    one contiguous row per component, above a row of ones.  Returns one
    ``(running costs, terminal costs, X_T)`` per variant and raises
    :class:`NonFiniteState` when a state or a cost is not finite.
    ``states`` and ``dW``, when given, receive the first variant's X at each
    of its nodes, (nodes, n, paths), and the fine increments, (N, paths).

    The pass needs noise when ``dW`` is given or when any variant's
    diffusion rows ``M[:, n:2n]`` hold a nonzero at any node or regime.
    Without it, it skips the draw, the sqrt(h) scaling, the stride
    accumulator and the diffusion update, which added exact zeros, and
    leaves ``rng`` where the chain draw left it.  On a 2-core Intel Xeon
    machine that took a two-variant 4096-path pass of ``two_regime.json``
    at N = 100 from 21.4 to 9.8 ms, and ``verify`` on it at
    ``--grid 100 --paths 5000`` from 0.91 to 0.74 s.
    """
    n = problem.n
    paths = regimes.shape[0]
    noisy = dW is not None or any(table.M[:, n : 2 * n].any() for table, _ in variants)
    labels = np.arange(problem.num_regimes, dtype=regimes.dtype)[:, None, None]
    Z = np.empty((problem.num_regimes, n + 1, paths))  # e_k (x) [X; 1] per path
    Y = np.empty((3 * n + 1, paths))
    lanes = []
    for table, stride in variants:
        X1 = np.ones((n + 1, paths))  # [X; 1]
        X1[:n] = problem.x0[:, None]
        acc = np.empty(paths) if stride > 1 else None
        lanes.append((table, stride, X1, np.zeros(paths), acc))
    row = np.empty(paths)
    sqrt_h = np.sqrt(times[1] - times[0])
    for i in range(len(times) - 1):
        if noisy:
            rng.standard_normal(out=row)
            row *= sqrt_h
            if dW is not None:
                dW[i] = row
        for lane, (table, stride, X1, running, acc) in enumerate(lanes):
            dw = row
            if stride > 1 and noisy:
                if i % stride:
                    np.add(acc, row, out=acc)
                else:
                    acc[:] = row
                dw = acc
            if (i + 1) % stride:
                continue
            j = i // stride
            X = X1[:n]
            if states is not None and lane == 0:
                states[j] = X
            np.multiply(regimes[:, i + 1 - stride] == labels, X1, out=Z)
            np.matmul(table.M[j], Z.reshape(-1, paths), out=Y)
            running += table.h * (np.einsum("ip,ip->p", X, Y[2 * n : 3 * n]) + Y[3 * n])
            X += Y[:n] * table.h
            if noisy:
                X += Y[n : 2 * n] * dw
    G_T = problem.terminal_weights()[regimes[:, -1]]
    out = []
    for _, _, X1, running, _ in lanes:
        X_T = X1[:n].T
        if not np.all(np.isfinite(X_T)):
            raise NonFiniteState("state became non-finite during batch simulation")
        terminal = np.einsum("pi,pij,pj->p", X_T, G_T, X_T)
        if not (np.all(np.isfinite(running)) and np.all(np.isfinite(terminal))):
            raise NonFiniteState("cost became non-finite during batch simulation")
        out.append((running, terminal, X_T))
    if states is not None:
        states[-1] = out[0][2].T
    return out


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
    variants = [(_loop_table(problem, c, times), 1) for c in (control, control_b) if c is not None]

    def chunk(rng, n):
        regimes = sample_regimes_on_grid(problem.generator, problem.i0, times, rng, n)
        out = _kernel_pass(problem, times, regimes, rng, variants)
        return (*(running + terminal for running, terminal, _ in out), out[0][2])

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
        regimes = sample_regimes_on_grid(problem.generator, problem.i0, times2, rng, n)
        (r1, t1, xT1), (r2, t2, xT2) = _kernel_pass(
            problem, times2, regimes, rng, [(table1, 2), (table2, 1)]
        )
        return r1 + t1, r2 + t2, xT1, xT2

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
