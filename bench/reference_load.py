"""Fixed reference loads: the benchmark's gauge of how fast the machine runs right now.

Run as ``python3 bench/reference_load.py mixed|matrix`` in a fresh process;
the caller times the whole process.  Each load imports NumPy and does a
fixed share of the work a CLI workload does, but never touches
``regimelq``, so no change to the program can change its time.  On a shared
host whose speed drifts by 1.5-2x over minutes, a CLI invocation and the
reference load timed next to it slow down alike, and their ratio stays put.

``mixed`` steps scalar states with regime-indexed coefficients, searches
short sorted arrays and solves tall least-squares problems, as the scalar
kernel, the chain projection and the regression sweep do.  ``matrix`` steps
3-dim states per regime under boolean masks with 3x3 products, as the
masked per-regime kernel does; its working set is larger, and on a shared
host it slows down with the multidim workload where ``mixed`` does not.
"""

import sys

import numpy as np


def mixed(rng: np.random.Generator) -> float:
    # regime-indexed Euler stepping of 4096 paths, as in the scalar kernel
    paths, steps, h = 4096, 100, 0.01
    regimes = rng.integers(0, 3, size=(paths, steps))
    dW = rng.standard_normal((paths, steps)) * np.sqrt(h)
    a, b, q = np.array([0.1, -0.2, 0.05]), np.array([0.3, 0.2, 0.1]), np.array([1.0, 0.5, 2.0])
    total = 0.0
    for _ in range(12):
        X = np.ones(paths)
        cost = np.zeros(paths)
        for i in range(steps):
            reg = regimes[:, i]
            u = -b[reg] * X
            cost += h * (q[reg] * X * X + u * u)
            X = X + (a[reg] * X + b[reg] * u) * h + 0.2 * X * dW[:, i]
        total += float(cost.mean())

    # per-path searches on short sorted arrays, as in the chain projection
    grid = np.linspace(0.0, 1.0, steps + 1)
    for _ in range(12_000):
        jumps = np.sort(rng.random(2))
        total += int(np.searchsorted(jumps, grid, side="right")[-1])

    # tall least-squares fits, as in the regression sweep
    Phi = np.vander(rng.standard_normal(30_000), 4, increasing=True)
    targets = rng.standard_normal((30_000, 2))
    for _ in range(40):
        total += float(np.linalg.lstsq(Phi, targets, rcond=None)[0][0, 0])
    return total


def matrix(rng: np.random.Generator) -> float:
    # masked per-regime Euler stepping of 4096 paths of a 3-dim state
    paths, steps, h, n, m = 4096, 25, 0.04, 3, 2
    regimes = rng.integers(0, 3, size=(paths, steps))
    dW = rng.standard_normal((paths, steps)) * np.sqrt(h)
    A, C = 0.1 * rng.standard_normal((2, 3, n, n))
    B, D = 0.1 * rng.standard_normal((2, 3, n, m))
    gains = -0.1 * rng.standard_normal((steps, 3, m, n))
    Q, R = np.eye(n), np.eye(m)
    total = 0.0
    for _ in range(4):
        X = np.ones((paths, n))
        costs = np.zeros(paths)
        for i in range(steps):
            reg = regimes[:, i]
            X_next = np.empty_like(X)
            for k in np.unique(reg):
                idx = reg == k
                Xk = X[idx]
                uk = Xk @ gains[i, k].T
                drift = Xk @ A[k].T + uk @ B[k].T
                diff = Xk @ C[k].T + uk @ D[k].T
                X_next[idx] = Xk + drift * h + diff * dW[idx, i][:, None]
                costs[idx] += h * (np.einsum("pi,ij,pj->p", Xk, Q, Xk)
                                   + np.einsum("pi,ij,pj->p", uk, R, uk))
            X = X_next
        total += float(costs.mean())
    return total


if __name__ == "__main__":
    load = {"mixed": mixed, "matrix": matrix}[sys.argv[1]]
    print(repr(load(np.random.default_rng(0))))
