"""Benchmark workloads: the CLI command each one runs and the inputs it needs.

Every workload is one ``regimelq`` invocation.  Its seed reaches the program
as ``--seed`` and, for ``verify-multidim``, also drives the generator of the
config file the program is handed; the program sees only the generated file.

Sizes are chosen so that one invocation takes a few seconds on a 2-core
machine: a run repeats the invocation several times and reports medians.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # CLI subcommand
    config: str | None  # config under the checkout root; None = generated
    grid: int
    paths: int
    workers: int  # --workers of the timed invocations
    check_workers: int  # --workers of the untimed run whose bytes must match
    reference: str  # bench/reference_load.py load that gauges machine speed
    artifact: str  # file the command writes in --out

    def cli_args(self, config_path: Path, seed: int, out: Path, workers: int | None = None):
        return [
            self.command,
            "--config", str(config_path),
            "--grid", str(self.grid),
            "--paths", str(self.paths),
            "--workers", str(self.workers if workers is None else workers),
            "--seed", str(seed),
            "--out", str(out),
        ]


WORKLOADS = {
    w.name: w
    for w in (
        # fast-switching scalar chain: chain sampling + per-path projection and
        # the scalar fast-path kernel dominate; plain single-threaded baseline
        Workload("verify-switching", "verify", "configs/two_regime.json",
                 grid=100, paths=5000, workers=1, check_workers=1,
                 reference="mixed", artifact="verify_report.json"),
        # n=3, m=2, 3 slow-switching regimes: the only workload on the masked
        # per-regime kernel and n>1 Riccati algebra.  Timed at one worker: two
        # thread lanes contend for the GIL, run slower than one here and
        # spread about twice as much from run to run; the two-lane path runs
        # untimed (two full chunks of 4096 paths, one per lane) and must give
        # the same bytes
        Workload("verify-multidim", "verify", None,
                 grid=25, paths=8192, workers=1, check_workers=2,
                 reference="matrix", artifact="verify_report.json"),
        # regression sweep and the large training bundle; no simulate kernel,
        # no verify, no threads: the control for kernel and parallelism work
        Workload("bsde-random-coeff", "bsde", "configs/random_coeff.json",
                 grid=100, paths=30_000, workers=1, check_workers=1,
                 reference="mixed", artifact="bsde_weights.csv"),
    )
}


def _psd(rng: np.random.Generator, n: int, scale: float) -> np.ndarray:
    L = scale * rng.standard_normal((n, n))
    M = L @ L.T
    return 0.5 * (M + M.T)


# shape of the verify-multidim problem: state, control and regime counts
N_STATE, N_CONTROL, N_REGIMES = 3, 2, 3


def multidim_config(seed: int) -> dict:
    """Seeded ``kind: "slq"`` config that is convex by construction.

    R is positive definite, S = 0 and Q, G are positive semidefinite, so the
    Riccati solution stays positive semidefinite and Rhat = R + D'PD >= R.
    A = -0.4 I + 0.3 K / ||K||_2 has spectral abscissa at most -0.1; D is
    small and off-diagonal switching rates lie in [0.2, 0.5].
    """
    rng = np.random.default_rng(seed)
    rates = rng.uniform(0.2, 0.5, size=(N_REGIMES, N_REGIMES))
    np.fill_diagonal(rates, 0.0)
    np.fill_diagonal(rates, -rates.sum(axis=1))
    coefficients, G = {}, {}
    for k in range(1, N_REGIMES + 1):
        K = rng.standard_normal((N_STATE, N_STATE))
        coefficients[str(k)] = {
            "A": (-0.4 * np.eye(N_STATE) + 0.3 * K / np.linalg.norm(K, 2)).tolist(),
            "B": (0.5 * rng.standard_normal((N_STATE, N_CONTROL))).tolist(),
            "C": (0.1 * rng.standard_normal((N_STATE, N_STATE))).tolist(),
            "D": (0.1 * rng.standard_normal((N_STATE, N_CONTROL))).tolist(),
            "Q": _psd(rng, N_STATE, 0.5).tolist(),
            "S": np.zeros((N_CONTROL, N_STATE)).tolist(),
            "R": (0.5 * np.eye(N_CONTROL) + _psd(rng, N_CONTROL, 0.3)).tolist(),
        }
        G[str(k)] = _psd(rng, N_STATE, 0.5).tolist()
    return {
        "spec_version": 1,
        "kind": "slq",
        "n": N_STATE,
        "m": N_CONTROL,
        "regimes": N_REGIMES,
        "T": 1.0,
        "generator": rates.tolist(),
        "segments": [{"t_start": 0.0, "coefficients": coefficients}],
        "G": G,
        "x0": rng.standard_normal(N_STATE).tolist(),
        "i0": int(rng.integers(1, N_REGIMES + 1)),
    }


def config_for(workload: Workload, seed: int, root: Path, scratch: Path) -> Path:
    """Path of the config the workload runs on; generated ones go to ``scratch``."""
    if workload.config is not None:
        return root / workload.config
    path = scratch / f"{workload.name}-{seed}.json"
    path.write_text(json.dumps(multidim_config(seed)))
    return path
