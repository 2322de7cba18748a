"""Backward solve of the regime-coupled Riccati system and the feedback law.

With deterministic per-regime coefficients, writing the value matrix as a
C^1 function P(t, k) of time and regime and expanding d[P(t, a(t))] along
the chain forces the Brownian martingale part to vanish and the jump part
to be P(t, l) - P(t, k); its compensator contributes the coupling term
sum_l rate_kl (P_l - P_k) to the drift.  The system solved here is therefore

    dP_k/dt = -[ P_k A_k + A_k' P_k + C_k' P_k C_k + Q_k
                 - Shat_k' Rhat_k^{-1} Shat_k + sum_l rate_kl (P_l - P_k) ],
    P_k(T) = G_k,

with Shat_k = B_k' P_k + D_k' P_k C_k + S_k and Rhat_k = R_k + D_k' P_k D_k.
The feedback gain solves Rhat Theta = -Shat (never an explicit inverse), so
the stationarity identity Shat + Rhat Theta = 0 holds to solver precision at
every node, and off nodes P is interpolated linearly and Theta recomputed,
which preserves the identity exactly at the interpolated P.
:func:`stationarity_defect` measures it at every node and step midpoint.
The coupled Lyapunov system of the zero control is the Riccati system of
:func:`regimelq.model.without_control`: with B = D = S = 0 and R = I, Shat
is exactly zero, so the feedback term subtracts an exact zero, Rhat = I
and every gain is 0.

Integration is classical fixed-step RK4.  Each derivative is symmetrized, so
every stage value, and P, is exactly symmetric.  The solve reads every
step's coefficients with one ``problem.coefficients_at`` call at the step
midpoints; gains and hat terms read theirs the same way at their times.  A
step that straddles a breakpoint is taken as one RK4 sub-step per segment,
each on its own segment's coefficients, so off-node breakpoints keep the
solve fourth order; a breakpoint within ``ON_NODE_RTOL`` h of a node lies
on that node.
A sequence of problems with equal n, m, D, T, breakpoints and generator is
solved as one integration with a leading problem axis, each member bitwise
equal to its own solve; one problem is the batch of one.
Uniform positivity of Rhat is monitored throughout; losing it signals a
problem that is not uniformly convex and raises :class:`SingularRhat`
instead of regularizing.  A coarse grid can lose it at a stage value or a
node although the solution keeps Rhat >= R, so a solve that fails the
guard anywhere, node gains included, is redone on the grids of 2N, 4N, ...,
2^MAX_REGRID_LEVELS N steps and read off at the N-grid nodes; the solve
raises when G fails, or when the finest of those grids fails.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np
from numpy.typing import NDArray

from .errors import RHAT_FLOOR, NonFiniteState, NumericalError, SingularRhat, ValidationError
from .model import Coefficients, ProblemSpec

MAX_REGRID_LEVELS = 4  # a failing solve is redone on 2N, ..., 2^MAX_REGRID_LEVELS N steps
ON_NODE_RTOL = 1e-9  # a breakpoint this close to a node, relative to the step, lies on it


def _hat_terms(P: NDArray, st: Coefficients):
    """Shat, Rhat for stacked symmetric P of shape (D, n, n) or (K, D, n, n)."""
    DtP = st.D.swapaxes(-1, -2) @ P
    Shat = st.B.swapaxes(-1, -2) @ P + DtP @ st.C + st.S
    Rhat = st.R + DtP @ st.D
    Rhat = 0.5 * (Rhat + Rhat.swapaxes(-1, -2))
    return Shat, Rhat


def _guard_rhat(Rhat: NDArray, times) -> NDArray:
    """Smallest eigenvalue of Rhat per (time, regime) of a (K, D, m, m) stack.

    Raises :class:`SingularRhat` at the earliest time where some regime falls
    below ``RHAT_FLOOR``, naming the regime of smallest eigenvalue there.
    """
    min_eigs = np.linalg.eigvalsh(Rhat)[..., 0]
    failing = (min_eigs < RHAT_FLOOR).any(axis=-1)
    if failing.any():
        i = int(np.argmax(failing))
        k = int(np.argmin(min_eigs[i]))
        raise SingularRhat(float(times[i]), k, float(min_eigs[i, k]))
    return min_eigs


def _rhs(P: NDArray, t: float, st: Coefficients, rates: NDArray) -> NDArray:
    """Forward-time dP/dt of a (D, n, n) system or a (K, D, n, n) batch; symmetrized."""
    PA = P @ st.A
    drift = PA + PA.swapaxes(-1, -2) + st.C.swapaxes(-1, -2) @ P @ st.C + st.Q
    Shat, Rhat = _hat_terms(P, st)
    members = Rhat.reshape((-1,) + Rhat.shape[-3:])
    _guard_rhat(members, [t] * len(members))
    drift = drift - Shat.swapaxes(-1, -2) @ np.linalg.solve(Rhat, Shat)
    dP = -(drift + np.einsum("kl,...lij->...kij", rates, P))
    return 0.5 * (dP + dP.swapaxes(-1, -2))


@dataclass(frozen=True)
class RiccatiGrid:
    """Solved Riccati data on a uniform time grid.

    ``P[i, k]`` is symmetric, ``P[-1, k] == G_k`` exactly, ``Theta[i, k]``
    solves Rhat Theta = -Shat at the node, and ``rhat_min_eig[i, k]`` records
    the smallest eigenvalue of Rhat there.
    """

    times: NDArray[np.float64]
    P: NDArray[np.float64]  # (N+1, D, n, n)
    Theta: NDArray[np.float64]  # (N+1, D, m, n)
    rhat_min_eig: NDArray[np.float64]  # (N+1, D)


def _node_gain(P: NDArray, st: Coefficients, times):
    """Gains and Rhat spectra of a (K, D, n, n) stack of P at ``times``."""
    Shat, Rhat = _hat_terms(P, st)
    min_eigs = _guard_rhat(Rhat, times)
    return np.linalg.solve(Rhat, -Shat), min_eigs


def _rk4_step(P: NDArray, h: float, t1: float, st: Coefficients, rates) -> NDArray:
    """One RK4 step of size h from P at t1 back to t1 - h on the coefficients ``st``."""
    k1 = _rhs(P, t1, st, rates)
    tm = t1 - 0.5 * h
    k2 = _rhs(P - 0.5 * h * k1, tm, st, rates)
    k3 = _rhs(P - 0.5 * h * k2, tm, st, rates)
    k4 = _rhs(P - h * k3, t1 - h, st, rates)
    return P - (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _stacked(problems: list[ProblemSpec], t) -> Coefficients:
    """The coefficients of every problem at ``t``, problem axis before the regime axis."""
    per_problem = [p.coefficients_at(t) for p in problems]
    return Coefficients(*(np.stack(arrays, axis=-4) for arrays in zip(*per_problem)))


def _integrate_on_grid(problems: list[ProblemSpec], N: int):
    """RK4 backward integration of a batch of problems of one shape from P(T) = G.

    Returns the uniform N-step grid and P of shape (N+1, K, D, n, n), member
    q of the batch at ``P[:, q]``.  Each step reads the coefficients at its
    midpoint.  A step with breakpoints strictly inside it, farther than
    ``ON_NODE_RTOL`` h from both its nodes, is taken as one sub-step per
    segment, each reading its own segment at its own midpoint.  A failed
    Rhat guard in any member raises :class:`SingularRhat`; retrying is the
    caller's business.
    """
    if N < 2:
        raise ValidationError("need at least N=2 grid steps")
    first = problems[0]
    h = first.T / N
    times = np.linspace(0.0, first.T, N + 1)
    # midpoints, because segment_index is right-continuous at a breakpoint node
    steps = _stacked(problems, times[1:] - 0.5 * h)
    rates = first.generator.rates
    cuts = first.breakpoints[1:-1]
    owner = np.searchsorted(times, cuts)  # step i runs from times[i - 1] to times[i]
    inside = np.minimum(cuts - times[owner - 1], times[owner] - cuts) > ON_NODE_RTOL * h
    split = {i: cuts[inside & (owner == i)] for i in owner[inside]}

    P = np.empty((N + 1, len(problems), first.num_regimes, first.n, first.n))
    P[N] = [p.G for p in problems]
    for i in range(N, 0, -1):
        if i in split:
            edges = [times[i], *split[i][::-1], times[i - 1]]
            X = P[i]
            for t1, t0 in zip(edges, edges[1:]):
                st = _stacked(problems, 0.5 * (t0 + t1))
                X = _rk4_step(X, t1 - t0, t1, st, rates)
            P[i - 1] = X
        else:
            st = Coefficients(*(a[i - 1] for a in steps))
            P[i - 1] = _rk4_step(P[i], h, times[i], st, rates)
        if not np.isfinite(P[i - 1]).all():
            raise NonFiniteState(f"non-finite Riccati state at t={times[i - 1]:.6g}")
    return times, P


def _solve(problems: list[ProblemSpec], N: int, levels) -> list[RiccatiGrid]:
    """One batched solve per regrid level in ``levels``; the first that passes.

    Node gains are taken member by member.  A level fails when any member
    fails the guard anywhere; the last failure is raised.
    """
    for level in levels:
        try:
            times, P = _integrate_on_grid(problems, N * 2**level)
            times, P = times[:: 2**level], P[:: 2**level]
            grids = []
            for q, problem in enumerate(problems):
                Pq = np.ascontiguousarray(P[:, q])
                Theta, rhat_min = _node_gain(Pq, problem.coefficients_at(times), times)
                grids.append(RiccatiGrid(times=times, P=Pq, Theta=Theta, rhat_min_eig=rhat_min))
        except SingularRhat as exc:
            failure = exc
        else:
            return grids
    raise failure


def _check_one_shape(problems: list[ProblemSpec]) -> None:
    """Reject a batch whose members differ in n, m, D, T, breakpoints or generator.

    A step split at one member's breakpoint would change another member's
    bytes, and the coupling term reads one generator.
    """
    if not problems:
        raise ValidationError("need at least one problem to solve")
    first = problems[0]
    for p in problems[1:]:
        if (
            (p.n, p.m, p.num_regimes, p.T) != (first.n, first.m, first.num_regimes, first.T)
            or not np.array_equal(p.breakpoints, first.breakpoints)
            or not np.array_equal(p.generator.rates, first.generator.rates)
        ):
            raise ValidationError(
                "a batched Riccati solve needs equal n, m, regimes, T, breakpoints and generator"
            )


def solve_riccati(problem: ProblemSpec | Sequence[ProblemSpec], N: int):
    """Solve the coupled Riccati system backward from P(T, k) = G_k.

    Fixed-step RK4 with N steps; feedback gains and Rhat spectra recorded at
    every node.  When a stage value or a node gain fails the Rhat guard, the
    solve is redone on the 2^j N-step grid for j = 1, ..., MAX_REGRID_LEVELS,
    and the first that solves gives every 2^j-th node: the same values as
    the solve at 2^j N.  Raises :class:`SingularRhat` when the finest grid
    fails too, or :class:`NonFiniteState`, reporting the failing node and
    regime.

    Given a sequence of problems of one shape (:func:`_check_one_shape`),
    returns one :class:`RiccatiGrid` per problem from one integration with
    a leading problem axis, each bitwise equal to its own solve.  When the
    batch fails in any way, each problem is solved on its own instead, so a
    member regrids, or raises what it raises alone, the first failing
    member's error winning.
    """
    if isinstance(problem, ProblemSpec):
        return _solve([problem], N, range(MAX_REGRID_LEVELS + 1))[0]
    problems = list(problem)
    _check_one_shape(problems)
    try:
        return _solve(problems, N, [0])
    except (NumericalError, ArithmeticError, np.linalg.LinAlgError):
        return [_solve([p], N, range(MAX_REGRID_LEVELS + 1))[0] for p in problems]


@dataclass(frozen=True)
class FeedbackLaw:
    """State-feedback law u = Theta(t, k) x backed by a solved grid.

    P is interpolated linearly between the bracketing nodes and Theta
    re-solved from Rhat Theta = -Shat at the interpolated P, which keeps the
    stationarity identity exact off nodes as well.  At a node the
    interpolation weight is 0, so the re-solved gain is ``grid.Theta`` there,
    bit for bit.
    """

    problem: ProblemSpec
    grid: RiccatiGrid
    # gain tables by the bytes of their times, so every control on this law shares one
    _gains: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def interpolated_P(self, t) -> NDArray:
        """P at time t, shape (D, n, n); an array of times adds leading axes."""
        nodes = self.grid.times
        t = np.asarray(t, dtype=np.float64)
        inside = (t >= nodes[0]) & (t <= nodes[-1])
        if not np.all(inside):
            raise ValidationError(f"t={t[~inside].flat[0]} outside the solved grid")
        i = np.clip(np.searchsorted(nodes, t, side="right") - 1, 0, len(nodes) - 2)
        w = ((t - nodes[i]) / (nodes[i + 1] - nodes[i]))[..., None, None, None]
        return (1.0 - w) * self.grid.P[i] + w * self.grid.P[i + 1]

    def gain(self, t: float, k: int) -> NDArray:
        """Feedback gain Theta(t, k), recomputed from the interpolated P."""
        Theta, _ = _node_gain(self.interpolated_P([t]), self.problem.coefficients_at([t]), [t])
        return Theta[0, k]

    def gains_at_times(self, times) -> NDArray:
        """Stacked gains (len(times), D, m, n) for all regimes, one batched solve.

        Solved once per distinct times array; the table is read-only.
        """
        times = np.asarray(times, dtype=np.float64)
        key = (times.shape, times.tobytes())
        if key not in self._gains:
            P = self.interpolated_P(times)
            gains = _node_gain(P, self.problem.coefficients_at(times), times)[0]
            gains.flags.writeable = False
            self._gains[key] = gains
        return self._gains[key]


def rhat_certificate(grid: RiccatiGrid) -> float:
    """Minimum Rhat eigenvalue over all nodes and regimes.

    A strictly positive value is the numerical analogue of the uniform
    positivity certificate Rhat >= eps I that a convex problem must satisfy.
    """
    return float(grid.rhat_min_eig.min())


def stationarity_defect(problem: ProblemSpec, grid: RiccatiGrid) -> float:
    """Largest relative stationarity defect over regimes at every node and step midpoint.

    The defect of a (time, regime) is ||Shat + Rhat Theta||_F divided by its
    scale ||Shat||_F + ||Rhat||_F ||Theta||_F, which bounds the numerator's
    terms, so it does not grow with the cost weights; a zero scale has a
    zero defect and counts as 0, and a NaN anywhere makes the result NaN.
    Pure algebra on the solved grid: ``grid.Theta`` at the nodes, and the
    feedback law's re-solved gains at the midpoints, where P is
    interpolated.
    """
    law = FeedbackLaw(problem, grid)
    nodes = grid.times
    mids = 0.5 * (nodes[:-1] + nodes[1:])
    worst = []
    frobenius = lambda X: np.linalg.norm(X, axis=(-2, -1))
    for times, Theta in ((nodes, grid.Theta), (mids, law.gains_at_times(mids))):
        Shat, Rhat = _hat_terms(law.interpolated_P(times), problem.coefficients_at(times))
        defect = frobenius(Shat + Rhat @ Theta)
        scale = frobenius(Shat) + frobenius(Rhat) * frobenius(Theta)
        worst.append(np.divide(defect, scale, out=defect.copy(), where=scale > 0).max())
    return float(np.max(worst))
