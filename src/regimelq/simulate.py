"""Joint simulation of (W, chain, X, u) and Monte Carlo cost estimation.

One kernel steps every path.  A control u = Theta X + v is first turned
into the closed-loop coefficients Acl = A + B Theta, Ccl = C + D Theta,
Mcl = Q + Theta'S + S'Theta + Theta'R Theta and, when an open-loop part v
is present, the affine terms B v, D v, S'v + Theta'R v and v'R v; a
``ControlTable`` without a law has Theta = 0.  Each grid node gets one
(3n+1, D(n+1)) matrix: its column block k maps [X; 1] of a path in regime k to
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
noise memory is O(paths), whatever the grid.  Each variant steps only the
row and column blocks of its matrix that are nonzero at some node and
regime (see ``_kernel_pass``), and a pass that records no increments and
whose variants have no live diffusion block (C = D = 0, as in the bundled
``slq`` configs) draws none.  That moves no byte: a chunk draws its chain
first and its increments last, so no later draw shifts, and each skipped
term was an exact zero.
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
from .riccati import FeedbackLaw
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
    """Piecewise-constant open-loop control v on the sim grid; with ``law``, u = Theta X + v."""

    values: NDArray[np.float64]  # (N, m), row i in force on [t_i, t_{i+1})
    law: FeedbackLaw | None = None

    @property
    def num_steps(self) -> int:
        return self.values.shape[0]

    def l2_norm_sq(self, T: float) -> float:
        """Exact int_0^T |u|^2 dt of the piecewise-constant table."""
        h = T / self.num_steps
        return float(np.sum(self.values**2) * h)


Control = FeedbackLaw | ControlTable


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
    if isinstance(control, ControlTable):
        law, table = control.law, control.values
    elif isinstance(control, FeedbackLaw):
        law, table = control, None
    else:
        raise ValidationError(f"unsupported control source {type(control)!r}")
    if table is not None and table.shape != (N, problem.m):
        raise ValidationError(
            f"control table shape {table.shape} does not match grid ({N}, {problem.m})"
        )
    return None if law is None else law.gains_at_times(times[:-1]), table


class _LoopTable(NamedTuple):
    """One control on one grid, per (node, regime); see the module docstring."""

    h: float
    gains: NDArray | None  # (N, D, m, n) Theta; None for a ControlTable without a law
    M: NDArray  # (N, 3n+1, D(n+1)): column block k maps [X; 1] of regime k
    live: _LiveBlocks  # the live blocks of M, cut once per table


def _loop_table(problem: ProblemSpec, control: Control, times) -> _LoopTable:
    """Closed-loop coefficients of ``control`` at every grid node and regime."""
    gains, v = _resolve_control(control, problem, times)
    A, B, C, D, Q, S, R = problem.coefficients_at(times[:-1])
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
    h = float(times[1] - times[0])
    return _LoopTable(h, gains, M, _live_blocks(M, n, problem.num_regimes))


class _LiveBlocks(NamedTuple):
    """The live part of a loop table; see :func:`_live_blocks`."""

    M: NDArray  # (N, kept rows, D x kept columns)
    cols: slice  # the rows of [X; 1] that each regime's kept columns read
    drift: slice | None  # rows of the compact product; None for a dead block
    diffusion: slice | None
    cost: slice | None
    affine: int | None  # the v'R v row

    @property
    def dead(self) -> bool:
        """No block is live: the state keeps x0 and the running cost 0."""
        return all(block is None for block in self[2:])


def _live_blocks(M: NDArray, n: int, num_regimes: int, keep_all: bool = False) -> _LiveBlocks:
    """Cut the live blocks out of a loop table ``M``, (N, 3n+1, D(n+1)).

    A row block (drift ``[0, n)``, diffusion ``[n, 2n)``, cost ``[2n, 3n)``,
    affine cost ``3n``) or a column block (``X`` or the constant 1, in
    every regime) is live when it holds a nonzero at some node and regime.
    The compact matrix keeps the live rows and, per regime, the live
    columns, in their order; with ``keep_all`` it is ``M`` itself, and only
    the live row blocks are named.
    """
    per_regime = M.reshape(len(M), 3 * n + 1, num_regimes, n + 1)
    x_live, one_live = per_regime[..., :n].any(), per_regime[..., n].any()
    cols = slice(0 if x_live or keep_all else n, n + 1 if one_live or keep_all else n)
    rows, blocks = [], []
    for start, stop in ((0, n), (n, 2 * n), (2 * n, 3 * n), (3 * n, 3 * n + 1)):
        at = len(rows)
        blocks.append(slice(at, at + stop - start) if M[:, start:stop].any() else None)
        if blocks[-1] is not None or keep_all:
            rows += range(start, stop)
    affine = blocks.pop()
    blocks.append(None if affine is None else affine.start)
    if keep_all:
        return _LiveBlocks(M, cols, *blocks)
    columns = np.arange(num_regimes)[:, None] * (n + 1) + np.arange(n + 1)[cols]
    compact = M[:, np.array(rows, dtype=np.intp)[:, None], columns.ravel()]
    return _LiveBlocks(np.ascontiguousarray(compact), cols, *blocks)


class _Lane(NamedTuple):
    """One variant's plan for one kernel pass (see :func:`_kernel_pass`).

    The buffer fields are views into the pass's shared one-hot buffer ``Z``,
    its regime mask, or product buffer ``Y``, set up once per pass; every
    row field is None when its block is dead, and ``M`` is None when every
    block is.
    """

    h: float
    stride: int
    M: NDArray | None  # the live table, (nodes, rows, cols)
    X: NDArray  # (n, paths) view of the state
    X1: NDArray | None  # the rows of [X; 1] that the live columns read; None for [1]
    Z: NDArray  # (D, kept columns, paths): the one-hot state; the mask for [1]
    Z2: NDArray  # Z as (D x kept columns, paths), the product's operand
    Y: NDArray  # (rows, paths): the product
    drift: NDArray | None  # rows of Y
    diffusion: NDArray | None
    cost: NDArray | None
    affine: NDArray | None  # the v'R v row of Y
    running: NDArray  # (paths,) running cost
    acc: NDArray | None  # (paths,) pair-sum of the increments at stride > 1


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

    Each variant steps only the live blocks of its table (``table.live``,
    see :func:`_live_blocks`): its one-hot state holds only the live
    columns, its product only the live rows, and the cost, drift and
    diffusion updates run only for live row blocks; a variant with no live
    block keeps ``x0`` and a zero running cost.  A pure feedback law has a
    dead affine column and ``v'R v`` row, a problem with C = D = 0 dead
    diffusion rows, and on ``two_regime.json`` (A = B = C = D = Q = S = 0)
    the feedback law has no live block and a control table only its
    ``v'R v`` entry.  No byte moves: every skipped term is an exact zero,
    which leaves a nonzero or +0 state or cost as it was, and a matrix
    product accumulates each entry over its terms in order.  A one-path
    pass cuts the whole table instead, because its product is a
    matrix-vector product, which BLAS sums in blocks of columns, so a
    dropped zero column would regroup the other terms: a feedback law at
    n = 3 with one regime has 3 live columns of 4, and its compact
    one-path pass moved the last bit of X_T (OpenBLAS 0.3.31, Haswell
    kernels, one and four threads); products over two or more paths kept
    their bytes.

    Each variant's plan (:class:`_Lane`) is set up once per pass: its
    buffer and row views, and its dead flag.  A step forms the mask
    ``regimes == k`` of a node into one reused float64 buffer, once for the
    lanes in a row that step from that node; the cast of a comparison to
    float64 gives exactly 1.0 or 0.0.  Each lane multiplies the mask by its
    rows of [X; 1], and a lane whose only live column is the constant 1 (a
    control table on ``two_regime.json``) reads the mask itself as its
    one-hot state.
    The cost and the state are updated in place through one scratch row,
    by the operations and in the order of
    ``running += h * (X'Y_cost + Y_affine)``, ``X += Y_drift * h`` and
    ``X += Y_diffusion * dW``.

    The pass needs noise when ``dW`` is given or when some variant's
    diffusion block is live.  Without it, it skips the draw, the sqrt(h)
    scaling and the stride accumulator, and leaves ``rng`` where the chain
    draw left it.  On a 2-core Intel Xeon machine, a two-variant 4096-path
    pass (feedback law and perturbed law) of ``two_regime.json`` at
    N = 100 took 12.6 ms on the full table and 3.7 ms on the live blocks;
    the multidim pass at N = 25, which only drops the affine blocks of its
    feedback variant, took 10.2 -> 9.7 ms (medians of 60 interleaved runs).
    The per-pass plan and the float mask then took the same two_regime
    pass 3.9 -> 2.2 ms and left the multidim pass at 11.6 ms (one BLAS
    thread, medians over 7 alternating processes of 60 runs each).
    """
    n, num_regimes = problem.n, problem.num_regimes
    paths = regimes.shape[0]
    cuts = [
        _live_blocks(table.M, n, num_regimes, keep_all=True) if paths == 1 else table.live
        for table, _ in variants
    ]
    # one buffer each for the one-hot state and the product, sized for the widest lane
    Z = np.empty(max((live.M.shape[2] for live in cuts), default=0) * paths)
    Y = np.empty(max((live.M.shape[1] for live in cuts), default=0) * paths)
    mask = np.empty((num_regimes, 1, paths))  # regimes == k at one node, as 1.0 or 0.0
    lanes = []
    for (table, stride), live in zip(variants, cuts):
        ones = live.cols == slice(n, n + 1)  # the constant is the only live column
        X1 = np.ones((n + 1, paths))  # [X; 1]
        X1[:n] = problem.x0[:, None]
        Zj = mask if ones else Z[: live.M.shape[2] * paths].reshape(num_regimes, -1, paths)
        Yj = Y[: live.M.shape[1] * paths].reshape(-1, paths)
        rows = lambda block: None if block is None else Yj[block]
        lanes.append(_Lane(
            table.h, stride, None if live.dead else live.M, X1[:n],
            None if ones else X1[live.cols],
            Zj, Zj.reshape(-1, paths), Yj, rows(live.drift), rows(live.diffusion),
            rows(live.cost), rows(live.affine), np.zeros(paths),
            np.empty(paths) if stride > 1 and live.diffusion is not None else None,
        ))
    noisy = dW is not None or any(lane.diffusion is not None for lane in lanes)
    labels = np.arange(num_regimes, dtype=regimes.dtype)[:, None, None]
    mask_node = -1  # the node whose regimes == labels the mask holds
    row = np.empty(paths)
    scratch = np.empty(paths)
    sqrt_h = np.sqrt(times[1] - times[0])
    for i in range(len(times) - 1):
        if noisy:
            rng.standard_normal(out=row)
            row *= sqrt_h
            if dW is not None:
                dW[i] = row
        for lane, (h, stride, M, X, X1, Zj, Z2, Yj, drift, diffusion, cost, affine,
                   running, acc) in enumerate(lanes):
            dw = row
            if acc is not None:
                if i % stride:
                    np.add(acc, row, out=acc)
                else:
                    acc[:] = row
                dw = acc
            if (i + 1) % stride:
                continue
            j = i // stride
            if states is not None and lane == 0:
                states[j] = X
            if M is None:
                continue
            left = i + 1 - stride
            if left != mask_node:
                np.equal(regimes[:, left], labels, out=mask)
                mask_node = left
            if X1 is not None:
                np.multiply(mask, X1, out=Zj)
            np.matmul(M[j], Z2, out=Yj)
            term = affine
            if cost is not None:
                term = np.einsum("ip,ip->p", X, cost, out=scratch)
                if affine is not None:
                    term += affine
            if term is not None:
                term *= h
                running += term
            if drift is not None:
                drift *= h
                X += drift
            if diffusion is not None:
                diffusion *= dw
                X += diffusion
    G_T = problem.G[regimes[:, -1]]
    out = []
    for lane in lanes:
        X_T, running = lane.X.T, lane.running
        if not np.isfinite(X_T).all():
            raise NonFiniteState("state became non-finite during batch simulation")
        terminal = np.einsum("pi,pij,pj->p", X_T, G_T, X_T)
        if not (np.isfinite(running).all() and np.isfinite(terminal).all()):
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
    control: FeedbackLaw,
    n_paths: int,
    seed: int,
    N: int,
    workers: int = 1,
):
    """Simulate each path on N and 2N steps with refined common noise.

    The 2N Brownian increments sum pairwise to the N increments and both
    grids share the exact chain path, so per-path differences isolate the
    discretization effect; used to calibrate bias allowances.  ``control``
    is read on both grids, so it is a feedback law: a ``ControlTable``
    fits one grid only.  Returns (costs_N, costs_2N, X_T_N, X_T_2N).
    """
    times2 = np.linspace(0.0, problem.T, 2 * N + 1)
    table1 = _loop_table(problem, control, times2[::2])
    table2 = _loop_table(problem, control, times2)

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
