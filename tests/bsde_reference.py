"""Reference BSDE code for the tests: the three-``lstsq`` sweep, the full
driver and the out-of-sample one-step residual.

:func:`reference_regression_solve` is the regression sweep that
``bsde.backward_regression_solve`` replaced, kept as the oracle that the
package's sweep, one factorization of the basis per node, is tested against.
Each node builds the Vandermonde basis of the scaled driver, solves the
value targets, the dW-weighted targets and the refit with separate
``np.linalg.lstsq`` calls, evaluates the coefficient maps once per regime
and works on (M, d) arrays.  The recorded condition number is the one
lstsq's singular values give.  Its regime step is scipy's ``expm``, so the
comparison checks the package's ``chain.expm`` too.

:func:`full_driver` materializes the driver at every node of a bundle from
the package's backward walk, and :func:`bsde_residual` checks a solution's
one-step recursion along a fresh bundle with the package's driver.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg
from numpy.typing import NDArray

from regimelq import bsde
from regimelq.bsde import (
    CONDITION_MAX,
    DEGENERATE_STD,
    BsdeSolution,
    PathBundle,
    RandomCoefficientModel,
)
from regimelq.errors import IllConditionedRegression, NegativeRhat, ValidationError
from regimelq.riccati import RHAT_FLOOR


def full_driver(bundle: PathBundle) -> NDArray[np.float64]:
    """The driver at every node, node-major (N+1, M), from the package's walk.

    The walk is looked up on the module at each call, so a test that
    replaces ``bsde._driver_backward`` replaces it here too.
    """
    y = np.empty((bundle.num_steps + 1, bundle.num_paths))
    y[-1] = bundle.y
    for i, yi, _ in bsde._driver_backward(bundle):
        y[i] = yi
    return y


@dataclass(frozen=True)
class ResidualStats:
    """Out-of-sample one-step recursion residuals per node."""

    times: NDArray[np.float64]  # (N,) left endpoints
    mean: NDArray[np.float64]
    stderr: NDArray[np.float64]


def bsde_residual(
    solution: BsdeSolution, model: RandomCoefficientModel, bundle: PathBundle
) -> ResidualStats:
    """One-step residuals V_i - V_{i+1} - h * driver along fresh paths.

    The fresh bundle must be independent of the training bundle; residual
    means near zero indicate the backward recursion is consistent out of
    sample.
    """
    M, N = bundle.num_paths, bundle.num_steps
    h = model.T / N
    mean = np.zeros(N)
    stderr = np.zeros(N)
    y = full_driver(bundle)
    for i in range(N):
        yi = y[i]
        ki = bundle.regimes[:, i]
        Vi = solution.value_at(i, ki, yi)
        Vn = solution.value_at(i + 1, bundle.regimes[:, i + 1], y[i + 1])
        Li = solution.lambda_at(i, ki, yi)
        F = bsde._driver(model.coeff_rows(yi, ki), Vi, Li, float(bundle.times[i]))
        r = Vi - Vn - h * F
        mean[i] = float(r.mean())
        stderr[i] = float(r.std(ddof=1) / np.sqrt(M)) if M >= 2 else float("nan")
    return ResidualStats(times=bundle.times[:-1], mean=mean, stderr=stderr)


def _basis(y, degree):
    c = float(y.mean())
    s = float(y.std())
    if s < DEGENERATE_STD:
        return np.ones((len(y), 1)), c, 1.0
    z = (y - c) / s
    return np.vander(z, degree + 1, increasing=True), c, s


def _lstsq_guarded(Phi, targets, t):
    w, _, _, sv = np.linalg.lstsq(Phi, targets, rcond=None)
    cond = 1.0
    if Phi.shape[1] > 1:
        cond = sv[0] / sv[-1] if sv[-1] > 0.0 else np.inf
        if cond > CONDITION_MAX:
            raise IllConditionedRegression(
                f"basis condition number {cond:.3e} at t={t:.6g}"
            )
    return w, cond


def _pad_weights(w, num_regimes, width):
    out = np.zeros((num_regimes, width))
    out[:, : w.shape[0]] = w.T
    return out


def _driver(model, k, y, Pbar, Lbar, t):
    get = lambda name: model.coeff_rows(y)(name)[k]
    a, b, c, d = get("A"), get("B"), get("C"), get("D")
    q, s, r = get("Q"), get("S"), get("R")
    Qhat = 2.0 * a * Pbar + c * c * Pbar + 2.0 * Lbar * c + q
    Shat = b * Pbar + d * c * Pbar + d * Lbar + s
    Rhat = r + d * d * Pbar
    bad = Rhat <= RHAT_FLOOR
    if np.mean(bad) > 1e-3:
        raise NegativeRhat(
            f"Rhat <= {RHAT_FLOOR} on {100 * np.mean(bad):.2f}% of samples at t={t:.6g}"
        )
    Rhat = np.maximum(Rhat, RHAT_FLOOR)
    return Qhat - Shat * Shat / Rhat


def reference_regression_solve(model, bundle, degree=3):
    """The three-lstsq sweep; same inputs, checks and output as the package's."""
    M, N = bundle.num_paths, bundle.num_steps
    B = degree + 1
    if M < 10 * B:
        raise ValidationError(f"need at least {10 * B} paths for degree {degree}")
    d = model.num_regimes
    h = model.T / N
    trans = scipy.linalg.expm(h * model.generator.rates)  # not the package's expm

    value_weights = np.zeros((N, d, B))
    lambda_weights = np.zeros((N, d, B))
    centers = np.zeros(N)
    scales = np.ones(N)
    resid = np.zeros(N)
    conds = np.ones(N)

    y = full_driver(bundle)  # (N+1, M)
    Vnext = model.coeff_rows(y[N])("G").T  # (M, d)
    for i in range(N - 1, -1, -1):
        t = float(bundle.times[i])
        yi = y[i]
        Phi, c, s = _basis(yi, degree)
        g, conds[i] = _lstsq_guarded(Phi, Vnext, t)
        lam_raw, _ = _lstsq_guarded(Phi, Vnext * (bundle.dW[:, i] / h)[:, None], t)
        CE = (Phi @ g) @ trans.T  # (M, d)
        LAM = (Phi @ lam_raw) @ trans.T
        Vnew = np.empty((M, d))
        for k in range(d):
            F = _driver(model, k, yi, CE[:, k], LAM[:, k], t)
            Vnew[:, k] = CE[:, k] + h * F
        w, _ = _lstsq_guarded(Phi, Vnew, t)
        value_weights[i] = _pad_weights(w, d, B)
        lambda_weights[i] = _pad_weights(lam_raw @ trans.T, d, B)
        centers[i], scales[i] = c, s
        fitted = Phi @ w
        resid[i] = float(np.linalg.norm(fitted - Vnew) / np.sqrt(M * d))
        Vnext = fitted
    return BsdeSolution(
        times=bundle.times,
        degree=degree,
        y_center=centers,
        y_scale=scales,
        value_weights=value_weights,
        lambda_weights=lambda_weights,
        model=model,
        regression_residuals=resid,
        basis_condition=conds,
    )
