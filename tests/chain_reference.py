"""Compensated counting-process statistics of sampled chain paths, for the tests.

For each ordered pair (k, l) the compensated count

    N_kl(T) - rate_kl * (occupation time of k on [t0, T])

is a martingale evaluated at T; :func:`martingale_residual` estimates its
mean across ``regimelq.chain.sample_chain_paths`` paths, which the chain
tests compare against zero.
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
