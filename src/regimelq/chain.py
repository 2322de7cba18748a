"""Continuous-time Markov chains: exact simulation and the exact step law.

The chain is simulated exactly (exponential holding times plus the embedded
jump chain), so jump counts carry no discretization bias.  Its law over a
step of length h is exp(h Q) (:meth:`GeneratorMatrix.transition`), from
this module's :func:`expm`.

Regimes are 0-based throughout the Python API (JSON configs use 1-based
labels, converted at ingestion).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .errors import DimensionMismatch, NegativeOffDiagonal, ValidationError
from .streams import mapped_zeros

DIAGONAL_REPAIR_TOL = 1e-12


def expm(A) -> NDArray[np.float64]:
    """exp(A) of a square matrix with nonnegative off-diagonal entries.

    Shifting the diagonal by c = max(0, -min diag A) leaves X = A + c I
    nonnegative, so no Taylor term of exp(X) cancels another.  X is halved
    s times, until its 1-norm is at most 1/2, where 18 Taylor terms leave a
    remainder below 1e-21; then exp(A) = (exp(-c / 2^s) exp(X / 2^s))^(2^s),
    squared back s times.  The result is nonnegative.
    """
    A = np.asarray(A, dtype=np.float64)
    c = max(0.0, -float(np.diag(A).min()))
    X = A + c * np.eye(len(A))
    s = 0
    norm = float(np.abs(X).sum(axis=0).max())
    while norm > 0.5:
        norm, s = norm / 2.0, s + 1
    X /= 2.0**s
    E = term = np.eye(len(A))
    for j in range(1, 18):
        term = term @ X / j
        E += term
    E *= np.exp(-c / 2.0**s)
    for _ in range(s):
        E = E @ E
    return E


@dataclass(frozen=True)
class GeneratorMatrix:
    """Validated transition-intensity matrix; rows sum to zero."""

    rates: NDArray[np.float64]

    @property
    def size(self) -> int:
        return self.rates.shape[0]

    def initial_regime(self, i0) -> int:
        """``i0`` as a 0-based regime index; the error names the 1-based label."""
        if not 0 <= int(i0) < self.size:
            raise ValidationError(
                f"initial regime label {int(i0) + 1} outside the labels 1..{self.size}"
            )
        return int(i0)

    def transition(self, h: float) -> NDArray[np.float64]:
        """P(a(t + h) = l | a(t) = k) = [exp(h Q)]_kl, each row renormalized to sum 1."""
        E = expm(h * self.rates)
        return E / E.sum(axis=1, keepdims=True)


def validate_generator(raw) -> GeneratorMatrix:
    """Validate a raw rate matrix and return a :class:`GeneratorMatrix`.

    A :class:`GeneratorMatrix` is returned unchanged.  Off-diagonal entries
    must be nonnegative.  The diagonal is recomputed as the negative
    off-diagonal row sum whenever the supplied diagonal deviates from that
    by more than 1e-12; otherwise it is kept as given.
    """
    if isinstance(raw, GeneratorMatrix):
        return raw
    rates = np.array(raw, dtype=np.float64)
    if rates.ndim != 2 or rates.shape[0] != rates.shape[1]:
        raise DimensionMismatch(f"generator must be square, got shape {rates.shape}")
    if not np.all(np.isfinite(rates)):
        raise NegativeOffDiagonal("generator has non-finite entries")
    d = rates.shape[0]
    off = rates.copy()
    np.fill_diagonal(off, 0.0)
    if np.any(off < 0.0):
        k, l = np.argwhere(off < 0.0)[0]
        raise NegativeOffDiagonal(
            f"rate[{k},{l}] = {rates[k, l]} is negative"
        )
    expected_diag = -off.sum(axis=1)
    if np.max(np.abs(np.diag(rates) - expected_diag)) > DIAGONAL_REPAIR_TOL:
        rates[np.diag_indices(d)] = expected_diag
    return GeneratorMatrix(rates=rates)


@dataclass(frozen=True)
class ChainPath:
    """One exact chain trajectory on [t0, T].

    ``jump_times`` is strictly increasing in (t0, T]; ``states[i]`` is the
    regime entered at ``jump_times[i]``.  The path is right-continuous and
    constant between jumps.
    """

    initial_regime: int
    jump_times: NDArray[np.float64]
    states: NDArray[np.int64]
    t0: float
    T: float

    def regime_at(self, t: float) -> int:
        """Right-continuous regime value at time t."""
        idx = int(np.searchsorted(self.jump_times, t, side="right"))
        return self.initial_regime if idx == 0 else int(self.states[idx - 1])

    def regimes_on_grid(self, times: NDArray[np.float64]) -> NDArray[np.int64]:
        """Right-continuous regime at each grid time."""
        idx = np.searchsorted(self.jump_times, times, side="right")
        seq = np.concatenate(([self.initial_regime], self.states)).astype(np.int64)
        return seq[idx]

    def occupation_times(self, num_regimes: int) -> NDArray[np.float64]:
        """Total time spent in each regime over [t0, T]."""
        bounds = np.concatenate(([self.t0], self.jump_times, [self.T]))
        seq = np.concatenate(([self.initial_regime], self.states)).astype(np.int64)
        occ = np.zeros(num_regimes)
        np.add.at(occ, seq, np.diff(bounds))
        return occ

    def jump_counts(self, num_regimes: int) -> NDArray[np.float64]:
        """Matrix of jump counts N_kl over (t0, T]."""
        counts = np.zeros((num_regimes, num_regimes))
        seq = np.concatenate(([self.initial_regime], self.states)).astype(np.int64)
        np.add.at(counts, (seq[:-1], seq[1:]), 1.0)
        return counts


def _check_sampler_args(gen: GeneratorMatrix, i0: int, t0: float, T: float, n_paths: int):
    """Reject what the samplers cannot draw (checked before any draw)."""
    gen.initial_regime(i0)
    if not t0 < T:
        raise ValidationError(f"require t0 < T, got t0={t0}, T={T}")
    if n_paths < 1:
        raise ValidationError("need at least one chain path")


def _jump_rounds(
    gen: GeneratorMatrix,
    i0: int,
    t0: float,
    T: float,
    rng: np.random.Generator,
    n_paths: int,
):
    """Exact event rounds of ``n_paths`` chains started in ``i0`` at ``t0``.

    Holding time in regime k is Exponential(-rates[k, k]); the next regime
    is drawn from the embedded chain.  A regime with zero total rate is
    absorbing.  All active paths advance one jump per round, so the per-path
    work is a few vectorized draws.  Each round yields ``(paths, jump times,
    regimes left, regimes entered)`` for the paths that jumped in (t0, T].
    """
    rates = gen.rates
    d = gen.size
    hold_rates = -np.diag(rates)
    embedded = np.zeros((d, d))
    for k_reg in np.flatnonzero(hold_rates > 0.0):
        row = rates[k_reg].copy()
        row[k_reg] = 0.0
        embedded[k_reg] = row / hold_rates[k_reg]
    cum = np.cumsum(embedded, axis=1)

    t = np.full(n_paths, float(t0))
    k = np.full(n_paths, int(i0), dtype=np.int64)
    active = np.flatnonzero(hold_rates[k] > 0.0)
    while active.size:
        rate = hold_rates[k[active]]
        t[active] = t[active] + rng.exponential(1.0 / rate)
        still = active[t[active] <= T]
        if still.size:
            u = rng.random(still.size)
            nxt = (u[:, None] < cum[k[still]]).argmax(axis=1)
            yield still, t[still], k[still], nxt
            k[still] = nxt
        active = still[hold_rates[k[still]] > 0.0]


def sample_chain_paths(
    gen: GeneratorMatrix,
    i0: int,
    t0: float,
    T: float,
    rng: np.random.Generator,
    n_paths: int,
) -> list[ChainPath]:
    """Sample ``n_paths`` exact chain paths on [t0, T].

    Raises :class:`ValidationError` unless ``0 <= i0 < d``, ``t0 < T`` and
    ``n_paths >= 1``.
    """
    _check_sampler_args(gen, i0, t0, T, n_paths)
    jump_lists: list[list[tuple[float, int]]] = [[] for _ in range(n_paths)]
    for still, t_jump, _, nxt in _jump_rounds(gen, i0, t0, T, rng, n_paths):
        for j, tj, kj in zip(still, t_jump, nxt):
            jump_lists[j].append((float(tj), int(kj)))

    out = []
    for jumps in jump_lists:
        times, states = zip(*jumps) if jumps else ((), ())
        out.append(
            ChainPath(
                initial_regime=int(i0),
                jump_times=np.asarray(times, dtype=np.float64),
                states=np.asarray(states, dtype=np.int64),
                t0=float(t0),
                T=float(T),
            )
        )
    return out


def sample_regimes_on_grid(
    gen: GeneratorMatrix,
    i0: int,
    times: NDArray[np.float64],
    rng: np.random.Generator,
    n_paths: int,
) -> NDArray[np.signedinteger]:
    """Right-continuous regimes of ``n_paths`` exact chains at each grid time.

    Draws exactly what :func:`sample_chain_paths` draws on
    [times[0], times[-1]], in the same order, and returns the
    ``(n_paths, len(times))`` array that ``ChainPath.regimes_on_grid`` gives
    for each of those paths; validates like :func:`sample_chain_paths`.  A
    jump at t changes the regime from the first node at or after t onward;
    per-node changes are summed, so several jumps between two nodes
    telescope to the last regime entered, and the prefix sum over nodes is
    formed in place, one node row at a time.  The array is node-major in
    memory (Fortran order): the simulation kernel reads it one node at a
    time.  Its dtype is the smallest signed integer that holds -D: every
    node value lies in [0, D-1] and every summed change in [-(D-1), D-1],
    so a regime takes one byte up to 128 regimes.
    """
    times = np.asarray(times, dtype=np.float64)
    if times.ndim != 1 or times.size < 2:
        raise ValidationError("need a grid of at least two times")
    _check_sampler_args(gen, i0, times[0], times[-1], n_paths)
    change = mapped_zeros((len(times), n_paths), np.min_scalar_type(-gen.size))
    change[0] = i0
    for still, t_jump, prev, nxt in _jump_rounds(gen, i0, times[0], times[-1], rng, n_paths):
        change[np.searchsorted(times, t_jump, side="left"), still] += nxt - prev
    for i in range(1, len(times)):
        np.add(change[i], change[i - 1], out=change[i])
    return change.T
