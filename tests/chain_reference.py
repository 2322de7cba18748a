"""Chain references for the tests: compensated counts and the plain grid sampler.

For each ordered pair (k, l) the compensated count

    N_kl(T) - rate_kl * (occupation time of k on [t0, T])

is a martingale evaluated at T; :func:`martingale_residual` estimates its
mean across ``regimelq.chain.sample_chain_paths`` paths, which the chain
tests compare against zero.

:func:`reference_jump_rounds` is ``regimelq.chain._jump_rounds`` written the
plain way: ``rng.exponential`` holding times and the next regime by a
compare-and-``argmax`` over the embedded chain's cumulative row.
:func:`reference_regimes_on_grid` places its jumps on the grid by
``searchsorted``.  ``regimelq.chain.sample_regimes_on_grid`` must draw the
same numbers and return the same array.
"""

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from regimelq.chain import ChainPath, GeneratorMatrix
from regimelq.errors import EmptySample


@dataclass(frozen=True)
class MartingaleResidual:
    """Per-pair sample mean and standard error of the compensated counts.

    ``stderr_qv`` estimates the same standard error from the predictable
    quadratic variation (which for a compensated counting process equals
    the compensator); unlike the sample stderr it stays valid when a rare
    pair saw no jumps at all.
    """

    mean: NDArray[np.float64]
    stderr: NDArray[np.float64]
    stderr_qv: NDArray[np.float64]
    n: int

    def max_zscore(self) -> float:
        scale = np.fmax(self.stderr, self.stderr_qv)
        with np.errstate(invalid="ignore", divide="ignore"):
            z = np.abs(self.mean) / scale
        z = z[np.isfinite(z)]
        return float(z.max()) if z.size else 0.0


def martingale_residual(
    paths: list[ChainPath], gen: GeneratorMatrix, T: float
) -> MartingaleResidual:
    """Sample mean/stderr of the compensated counting processes at T.

    For n == 1 the sample standard error is undefined and returned as NaN.
    """
    if not paths:
        raise EmptySample("no chain paths supplied")
    if any(p.T != T for p in paths):
        raise EmptySample(f"paths do not share the horizon T={T}")
    d = gen.size
    off = gen.rates.copy()
    np.fill_diagonal(off, 0.0)
    n = len(paths)
    res = np.empty((n, d, d))
    comp = np.zeros((d, d))
    for i, p in enumerate(paths):
        comp_i = off * p.occupation_times(d)[:, None]
        res[i] = p.jump_counts(d) - comp_i
        res[i][np.diag_indices(d)] = 0.0
        comp += comp_i
    mean = res.mean(axis=0)
    stderr_qv = np.sqrt(comp / n) / np.sqrt(n)
    if n >= 2:
        stderr = res.std(axis=0, ddof=1) / np.sqrt(n)
    else:
        stderr = np.full((d, d), np.nan)
    return MartingaleResidual(mean=mean, stderr=stderr, stderr_qv=stderr_qv, n=n)


def reference_jump_rounds(
    gen: GeneratorMatrix, i0: int, t0: float, T: float, rng: np.random.Generator, n_paths: int
):
    """The event rounds of ``regimelq.chain._jump_rounds``, drawn the plain way."""
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


def reference_regimes_on_grid(
    gen: GeneratorMatrix, i0: int, times, rng: np.random.Generator, n_paths: int
) -> NDArray[np.int64]:
    """``(n_paths, len(times))`` right-continuous regimes of exact chains on ``times``."""
    change = np.zeros((len(times), n_paths), dtype=np.int64)
    change[0] = i0
    for still, t_jump, prev, nxt in reference_jump_rounds(
        gen, i0, times[0], times[-1], rng, n_paths
    ):
        change[np.searchsorted(times, t_jump, side="left"), still] += nxt - prev
    return np.cumsum(change, axis=0).T
