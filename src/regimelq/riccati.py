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

Integration is classical fixed-step RK4, symmetrizing after every stage.
Uniform positivity of Rhat is monitored throughout; losing it signals a
problem that is not uniformly convex and raises :class:`SingularRhat`
instead of regularizing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from numpy.typing import NDArray

from .errors import NonFiniteState, SingularRhat, ValidationError
from .model import ProblemSpec

RHAT_FLOOR = 1e-8


class _SegmentStack(NamedTuple):
    """Per-regime coefficient arrays of one segment, stacked to (D, ., .)."""

    A: NDArray
    B: NDArray
    C: NDArray
    D: NDArray
    Q: NDArray
    S: NDArray
    R: NDArray
    Bt: NDArray
    Ct: NDArray
    Dt: NDArray


def _stack_segment(problem: ProblemSpec, j: int) -> _SegmentStack:
    sets = problem.coefficients[j]
    A = np.stack([cs.A for cs in sets])
    B = np.stack([cs.B for cs in sets])
    C = np.stack([cs.C for cs in sets])
    D = np.stack([cs.D for cs in sets])
    Q = np.stack([cs.Q for cs in sets])
    S = np.stack([cs.S for cs in sets])
    R = np.stack([cs.R for cs in sets])
    t = lambda M: M.swapaxes(-1, -2).copy()
    return _SegmentStack(A, B, C, D, Q, S, R, t(B), t(C), t(D))


def _stacks(problem: ProblemSpec) -> list[_SegmentStack]:
    return [_stack_segment(problem, j) for j in range(problem.num_segments)]


def _hat_terms(P: NDArray, st: _SegmentStack):
    """Shat, Rhat for stacked symmetric P of shape (D, n, n)."""
    DtP = st.Dt @ P
    Shat = st.Bt @ P + DtP @ st.C + st.S
    Rhat = st.R + DtP @ st.D
    Rhat = 0.5 * (Rhat + Rhat.swapaxes(-1, -2))
    return Shat, Rhat


def _guard_rhat(Rhat: NDArray, t: float) -> NDArray:
    """Smallest eigenvalue of Rhat per regime; raises below RHAT_FLOOR."""
    w = np.linalg.eigvalsh(Rhat)
    min_eigs = w[..., 0]
    if np.any(min_eigs < RHAT_FLOOR):
        k = int(np.argmin(min_eigs))
        raise SingularRhat(t, k, float(min_eigs[k]))
    return min_eigs


def _rhs(
    P: NDArray, t: float, st: _SegmentStack, rates: NDArray, quadratic: bool = True
) -> NDArray:
    """Forward-time derivative dP/dt of the stacked system; symmetrized.

    Without the quadratic feedback term it is the linear (zero-control)
    Lyapunov system.
    """
    PA = P @ st.A
    drift = PA + PA.swapaxes(-1, -2) + st.Ct @ P @ st.C + st.Q
    if quadratic:
        Shat, Rhat = _hat_terms(P, st)
        _guard_rhat(Rhat, t)
        drift = drift - Shat.swapaxes(-1, -2) @ np.linalg.solve(Rhat, Shat)
    dP = -(drift + np.einsum("kl,lij->kij", rates, P))
    return 0.5 * (dP + dP.swapaxes(-1, -2))


def riccati_rhs(P_all, t: float, problem: ProblemSpec) -> NDArray:
    """dP/dt at time t for stacked per-regime symmetric matrices P_all.

    Raises :class:`SingularRhat` when any Rhat = R + D'PD has an eigenvalue
    below ``RHAT_FLOOR``.
    """
    P = np.asarray(P_all, dtype=np.float64)
    if P.shape != (problem.num_regimes, problem.n, problem.n):
        raise ValidationError(
            f"P_all must have shape ({problem.num_regimes}, {problem.n}, {problem.n})"
        )
    st = _stack_segment(problem, problem.segment_index(t))
    return _rhs(P, t, st, problem.generator.rates)


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

    @property
    def num_nodes(self) -> int:
        return len(self.times)


def _node_gain(P: NDArray, st: _SegmentStack, t: float):
    Shat, Rhat = _hat_terms(P, st)
    min_eigs = _guard_rhat(Rhat, t)
    Theta = np.linalg.solve(Rhat, -Shat)
    return Theta, min_eigs


def _integrate_backward(
    problem: ProblemSpec, N: int, quadratic: bool = True
) -> tuple[NDArray, NDArray]:
    """RK4 backward integration from P(T) = G on the uniform N-step grid."""
    if N < 2:
        raise ValidationError("need at least N=2 grid steps")
    T = problem.T
    h = T / N
    times = np.linspace(0.0, T, N + 1)
    stacks = _stacks(problem)
    rates = problem.generator.rates
    seg_of = problem.segment_index

    P = np.empty((N + 1, problem.num_regimes, problem.n, problem.n))
    P[N] = problem.terminal_weights()
    sym = lambda M: 0.5 * (M + M.swapaxes(-1, -2))
    for i in range(N, 0, -1):
        t1 = times[i]
        t0 = times[i - 1]
        tm = t1 - 0.5 * h
        # one segment owns the whole step when breakpoints sit on grid nodes;
        # the midpoint lookup avoids grabbing the right-hand segment at a
        # breakpoint node (segment_index is right-continuous)
        st = stacks[seg_of(tm)]
        Pi = P[i]
        k1 = _rhs(Pi, t1, st, rates, quadratic)
        k2 = _rhs(sym(Pi - 0.5 * h * k1), tm, st, rates, quadratic)
        k3 = _rhs(sym(Pi - 0.5 * h * k2), tm, st, rates, quadratic)
        k4 = _rhs(sym(Pi - h * k3), t0, st, rates, quadratic)
        P[i - 1] = sym(Pi - (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4))
        if not np.all(np.isfinite(P[i - 1])):
            raise NonFiniteState(f"non-finite Riccati state at t={t0:.6g}")
    return times, P


def solve_riccati(problem: ProblemSpec, N: int) -> RiccatiGrid:
    """Solve the coupled Riccati system backward from P(T, k) = G_k.

    Fixed-step RK4 with N steps; feedback gains and Rhat spectra recorded at
    every node.  Raises :class:`SingularRhat` or :class:`NonFiniteState` on
    failure, reporting the failing node and regime.
    """
    times, P = _integrate_backward(problem, N)
    stacks = _stacks(problem)
    Theta = np.empty((len(times), problem.num_regimes, problem.m, problem.n))
    rhat_min = np.empty((len(times), problem.num_regimes))
    for i, t in enumerate(times):
        Theta[i], rhat_min[i] = _node_gain(P[i], stacks[problem.segment_index(t)], t)
    return RiccatiGrid(times=times, P=P, Theta=Theta, rhat_min_eig=rhat_min)


@dataclass(frozen=True)
class FeedbackLaw:
    """State-feedback law u = Theta(t, k) x backed by a solved grid.

    Off-node gains interpolate P linearly between the bracketing nodes and
    re-solve Rhat Theta = -Shat at the interpolated P, which keeps the
    stationarity identity exact off nodes as well.
    """

    problem: ProblemSpec
    grid: RiccatiGrid

    def interpolated_P(self, t: float) -> NDArray:
        times = self.grid.times
        if t < times[0] or t > times[-1]:
            raise ValidationError(f"t={t} outside the solved grid")
        i = min(int(np.searchsorted(times, t, side="right")) - 1, len(times) - 2)
        i = max(i, 0)
        h = times[i + 1] - times[i]
        w = (t - times[i]) / h
        return (1.0 - w) * self.grid.P[i] + w * self.grid.P[i + 1]

    def node_indices(self, times) -> NDArray[np.int64]:
        """Grid index of each time that is exactly a grid node, -1 elsewhere.

        At a node the interpolation weight is 0, so ``interpolated_P`` is
        ``grid.P[i]`` and the re-solved gain is ``grid.Theta[i]``, bit for bit.
        """
        times = np.asarray(times, dtype=np.float64)
        nodes = self.grid.times
        idx = np.minimum(np.searchsorted(nodes, times), len(nodes) - 1)
        return np.where(nodes[idx] == times, idx, -1)

    def gain(self, t: float, k: int) -> NDArray:
        """Feedback gain Theta(t, k), recomputed from the interpolated P."""
        P = self.interpolated_P(t)
        st = _stack_segment(self.problem, self.problem.segment_index(t))
        Theta, _ = _node_gain(P, st, t)
        return Theta[k]

    def gains_at_times(self, times) -> NDArray:
        """Stacked gains (len(times), D, m, n) for all regimes.

        Times on grid nodes read the solved ``grid.Theta``; only off-node
        times interpolate P and re-solve.
        """
        out = np.empty(
            (len(times), self.problem.num_regimes, self.problem.m, self.problem.n)
        )
        stacks = _stacks(self.problem)
        for i, (t, node) in enumerate(zip(times, self.node_indices(times))):
            if node >= 0:
                out[i] = self.grid.Theta[node]
                continue
            P = self.interpolated_P(t)
            st = stacks[self.problem.segment_index(t)]
            out[i], _ = _node_gain(P, st, t)
        return out


def rhat_certificate(grid: RiccatiGrid) -> float:
    """Minimum Rhat eigenvalue over all nodes and regimes.

    A strictly positive value is the numerical analogue of the uniform
    positivity certificate Rhat >= eps I that a convex problem must satisfy.
    """
    return float(grid.rhat_min_eig.min())


def stationarity_defect(problem: ProblemSpec, grid: RiccatiGrid) -> float:
    """Max over nodes/regimes of ||Shat + Rhat Theta||_inf (pure algebra)."""
    worst = 0.0
    stacks = _stacks(problem)
    for i, t in enumerate(grid.times):
        st = stacks[problem.segment_index(t)]
        Shat, Rhat = _hat_terms(grid.P[i], st)
        defect = Shat + Rhat @ grid.Theta[i]
        worst = max(worst, float(np.max(np.abs(defect))))
    return worst
