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

Integration is classical fixed-step RK4.  Each derivative is symmetrized, so
every stage value, and P, is exactly symmetric.
Uniform positivity of Rhat is monitored throughout; losing it signals a
problem that is not uniformly convex and raises :class:`SingularRhat`
instead of regularizing.  A coarse step can lose it at a stage value or at
its end value although the solution keeps Rhat >= R, so such a step is
redone as two half-steps, up to ``MAX_STEP_HALVINGS`` deep.  A step that
still fails there may have been set up by an earlier step that passed the
guard but left P far off, so the whole solve is then redone on the grids of
2N, 4N, ..., 2^MAX_STEP_HALVINGS N steps and read off at the N-grid nodes;
the solve raises when G fails, or when the finest of those grids fails.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from numpy.typing import NDArray

from .errors import RHAT_FLOOR, NonFiniteState, SingularRhat, ValidationError
from .model import ProblemSpec

MAX_STEP_HALVINGS = 4  # deepest halving of a failing RK4 step, then of the whole grid


class _SegmentStack(NamedTuple):
    """Per-regime coefficients at one time (D, ., .), or at K times (K, D, ., .)."""

    A: NDArray
    B: NDArray
    C: NDArray
    D: NDArray
    Q: NDArray
    S: NDArray
    R: NDArray


def _on_grid(problem: ProblemSpec, times) -> _SegmentStack:
    """Coefficients in force at ``times``: (len(times), D, ., .), or (D, ., .) at one time."""
    rows = problem.segment_index(times)
    return _SegmentStack(*(
        np.array([[getattr(cs, name) for cs in seg] for seg in problem.coefficients])[rows]
        for name in _SegmentStack._fields
    ))


def _hat_terms(P: NDArray, st: _SegmentStack):
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


def _rhs(
    P: NDArray, t: float, st: _SegmentStack, rates: NDArray, quadratic: bool = True
) -> NDArray:
    """Forward-time derivative dP/dt of the stacked system; symmetrized.

    Without the quadratic feedback term it is the linear (zero-control)
    Lyapunov system.
    """
    PA = P @ st.A
    drift = PA + PA.swapaxes(-1, -2) + st.C.swapaxes(-1, -2) @ P @ st.C + st.Q
    if quadratic:
        Shat, Rhat = _hat_terms(P, st)
        _guard_rhat(Rhat[None], [t])
        drift = drift - Shat.swapaxes(-1, -2) @ np.linalg.solve(Rhat, Shat)
    dP = -(drift + np.einsum("kl,lij->kij", rates, P))
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


def _node_gain(P: NDArray, st: _SegmentStack, times):
    """Gains and Rhat spectra of a (K, D, n, n) stack of P at ``times``."""
    Shat, Rhat = _hat_terms(P, st)
    min_eigs = _guard_rhat(Rhat, times)
    return np.linalg.solve(Rhat, -Shat), min_eigs


def _rk4_step(
    P: NDArray, h: float, t1: float, st: _SegmentStack, rates, quadratic: bool, depth: int = 0
) -> NDArray:
    """One RK4 step of size h from P at t1 back to t1 - h.

    When a stage value or the end value fails the Rhat guard, the step is
    redone as two half-steps, at most ``MAX_STEP_HALVINGS`` times deep; at
    that depth the failure raises :class:`SingularRhat`.  The derivative at
    P itself is never retried: P is a node value already accepted, or G.
    """
    k1 = _rhs(P, t1, st, rates, quadratic)
    tm = t1 - 0.5 * h
    try:
        k2 = _rhs(P - 0.5 * h * k1, tm, st, rates, quadratic)
        k3 = _rhs(P - 0.5 * h * k2, tm, st, rates, quadratic)
        k4 = _rhs(P - h * k3, t1 - h, st, rates, quadratic)
        P_end = P - (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if quadratic:
            _guard_rhat(_hat_terms(P_end, st)[1][None], [t1 - h])
    except SingularRhat:
        if depth == MAX_STEP_HALVINGS:
            raise
        P = _rk4_step(P, 0.5 * h, t1, st, rates, quadratic, depth + 1)
        return _rk4_step(P, 0.5 * h, tm, st, rates, quadratic, depth + 1)
    return P_end


def _integrate_backward(
    problem: ProblemSpec, N: int, quadratic: bool = True
) -> tuple[NDArray, NDArray]:
    """RK4 backward integration from P(T) = G on the uniform N-step grid.

    When a step fails the Rhat guard at full halving depth, the integration
    is redone on the 2^j N-step grid for j = 1, 2, ..., MAX_STEP_HALVINGS,
    and the first that solves gives every 2^j-th node: the same values as
    the solve at 2^j N.  Only the finest grid's failure raises.
    """
    if N < 2:
        raise ValidationError("need at least N=2 grid steps")
    for level in range(MAX_STEP_HALVINGS + 1):
        try:
            times, P = _integrate_on_grid(problem, N * 2**level, quadratic)
            return times[:: 2**level], P[:: 2**level]
        except SingularRhat as exc:
            failure = exc
    raise failure


def _integrate_on_grid(problem: ProblemSpec, N: int, quadratic: bool):
    """RK4 backward integration on the uniform N-step grid, halving failed steps."""
    T = problem.T
    h = T / N
    times = np.linspace(0.0, T, N + 1)
    # one segment owns the whole step when breakpoints sit on grid nodes;
    # the midpoint lookup avoids grabbing the right-hand segment at a
    # breakpoint node (segment_index is right-continuous)
    steps = _on_grid(problem, times[1:] - 0.5 * h)
    rates = problem.generator.rates

    P = np.empty((N + 1, problem.num_regimes, problem.n, problem.n))
    P[N] = problem.terminal_weights()
    for i in range(N, 0, -1):
        st = _SegmentStack(*(a[i - 1] for a in steps))
        P[i - 1] = _rk4_step(P[i], h, times[i], st, rates, quadratic)
        if not np.isfinite(P[i - 1]).all():
            raise NonFiniteState(f"non-finite Riccati state at t={times[i - 1]:.6g}")
    return times, P


def solve_riccati(problem: ProblemSpec, N: int) -> RiccatiGrid:
    """Solve the coupled Riccati system backward from P(T, k) = G_k.

    Fixed-step RK4 with N steps; feedback gains and Rhat spectra recorded at
    every node.  Raises :class:`SingularRhat` or :class:`NonFiniteState` on
    failure, reporting the failing node and regime.
    """
    times, P = _integrate_backward(problem, N)
    Theta, rhat_min = _node_gain(P, _on_grid(problem, times), times)
    return RiccatiGrid(times=times, P=P, Theta=Theta, rhat_min_eig=rhat_min)


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

    def hat_terms(self, times):
        """Shat (K, D, m, n) and Rhat (K, D, m, m) at the interpolated P of K times."""
        return _hat_terms(self.interpolated_P(times), _on_grid(self.problem, times))

    def gain(self, t: float, k: int) -> NDArray:
        """Feedback gain Theta(t, k), recomputed from the interpolated P."""
        Theta, _ = _node_gain(self.interpolated_P([t]), _on_grid(self.problem, [t]), [t])
        return Theta[0, k]

    def gains_at_times(self, times) -> NDArray:
        """Stacked gains (len(times), D, m, n) for all regimes, one batched solve."""
        P = self.interpolated_P(times)
        return _node_gain(P, _on_grid(self.problem, times), times)[0]


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
        Shat, Rhat = law.hat_terms(times)
        defect = frobenius(Shat + Rhat @ Theta)
        scale = frobenius(Shat) + frobenius(Rhat) * frobenius(Theta)
        worst.append(np.divide(defect, scale, out=defect.copy(), where=scale > 0).max())
    return float(np.max(worst))
