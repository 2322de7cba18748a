"""Regression-based backward solver for the scalar value equation with
Brownian-adapted random coefficients.

Coefficients are driven by a one-dimensional mean-reverting diffusion

    dy = kappa (theta_bar - y) dt + nu dW

sharing the Brownian motion of the state; each scalar coefficient is an
affine map of y clipped to a declared range (so all maps are bounded).
The value P(t, k, y) is approximated per regime by a polynomial in y,
fitted backward one step at a time:

    P(t_i, k, y) = E[ P(t_{i+1}, a(t_{i+1}), y(t_{i+1})) | k, y ]
                   + h * driver(t_i, k, y, Pbar, Lbar),

where the conditional expectation over the regime jump uses the one-step
transition probabilities I + h * rates (first order, so the compensated
jump term needs no separate estimator), the expectation over y is a
least-squares polynomial regression, and the Brownian coefficient Lbar is
estimated by regressing dW-weighted next-node values.  The driver uses the
same Qhat - Shat^2 / Rhat algebra as the Riccati drift, evaluated at the
regressed next-node values (explicit scheme).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .chain import GeneratorMatrix, sample_regimes_on_grid, validate_generator
from .errors import (
    IllConditionedRegression,
    NegativeRhat,
    ValidationError,
)
from .model import ProblemSpec, make_problem
from .riccati import RHAT_FLOOR
from .streams import run_chunks

COEFF_NAMES = ("A", "B", "C", "D", "Q", "S", "R", "G")
CONDITION_MAX = 1e10
DEGENERATE_STD = 1e-12


@dataclass(frozen=True)
class AffineMap:
    """Scalar coefficient c0 + c1 * y, evaluated at the clipped driver."""

    const: float
    slope: float = 0.0

    def __call__(self, y):
        return self.const + self.slope * y

    def range_bounds(self, lo: float, hi: float) -> tuple[float, float]:
        a, b = self(lo), self(hi)
        return (min(a, b), max(a, b))


@dataclass(frozen=True)
class RandomCoefficientModel:
    """Scalar (n = m = 1) problem family with driver-dependent coefficients."""

    T: float
    generator: GeneratorMatrix
    i0: int
    kappa: float
    theta_bar: float
    nu: float
    y0: float
    y_low: float
    y_high: float
    coeffs: tuple  # per regime: dict name -> AffineMap

    @property
    def num_regimes(self) -> int:
        return self.generator.size

    def clip(self, y):
        return np.clip(y, self.y_low, self.y_high)

    def coeff(self, name: str, k: int, y):
        return self.coeffs[k][name](self.clip(y))

    def coeff_selected(self, name: str, regimes: NDArray, y: NDArray) -> NDArray:
        """Vectorized evaluation with a per-sample regime index."""
        const = np.array([self.coeffs[k][name].const for k in range(self.num_regimes)])
        slope = np.array([self.coeffs[k][name].slope for k in range(self.num_regimes)])
        return const[regimes] + slope[regimes] * self.clip(y)


def make_model(
    *,
    T: float,
    generator,
    i0: int,
    kappa: float,
    theta_bar: float,
    nu: float,
    y0: float,
    y_range: tuple[float, float],
    coeffs,
) -> RandomCoefficientModel:
    """Validate and build a :class:`RandomCoefficientModel`.

    ``coeffs`` maps each regime to ``{name: (const, slope)}`` for the names
    A, B, C, D, Q, S, R, G.  Over the declared driver range R must stay
    strictly positive and G nonnegative.
    """
    gen = generator if isinstance(generator, GeneratorMatrix) else validate_generator(generator)
    lo, hi = float(y_range[0]), float(y_range[1])
    if not lo < hi:
        raise ValidationError("driver range must satisfy y_low < y_high")
    if not lo <= float(y0) <= hi:
        raise ValidationError("y0 must lie inside the declared driver range")
    if nu < 0.0:
        raise ValidationError("driver volatility nu must be nonnegative")
    if not 0 <= int(i0) < gen.size:
        raise ValidationError(f"initial regime {i0} out of range")
    per_regime = []
    for k in range(gen.size):
        entry = {}
        for name in COEFF_NAMES:
            spec = coeffs[k][name]
            amap = spec if isinstance(spec, AffineMap) else AffineMap(*np.atleast_1d(spec))
            entry[name] = AffineMap(float(amap.const), float(amap.slope))
        r_min, _ = entry["R"].range_bounds(lo, hi)
        if r_min <= 0.0:
            raise ValidationError(
                f"R must be strictly positive on the driver range (regime {k}: min {r_min})"
            )
        g_min, _ = entry["G"].range_bounds(lo, hi)
        if g_min < 0.0:
            raise ValidationError(
                f"G must be nonnegative on the driver range (regime {k}: min {g_min})"
            )
        per_regime.append(entry)
    return RandomCoefficientModel(
        T=float(T),
        generator=gen,
        i0=int(i0),
        kappa=float(kappa),
        theta_bar=float(theta_bar),
        nu=float(nu),
        y0=float(y0),
        y_low=lo,
        y_high=hi,
        coeffs=tuple(per_regime),
    )


def model_from_config(cfg: dict) -> RandomCoefficientModel:
    """Parse the ``kind: "random_coefficients"`` JSON config."""
    if cfg.get("spec_version") != 1:
        raise ValidationError("config must declare spec_version: 1")
    if cfg.get("kind") != "random_coefficients":
        raise ValidationError(f"expected kind 'random_coefficients', got {cfg.get('kind')!r}")
    gen = validate_generator(cfg["generator"])
    driver = cfg["driver"]
    coeffs = []
    for k in range(gen.size):
        raw = cfg["coefficients"][str(k + 1)]
        coeffs.append({name: tuple(raw[name]) for name in COEFF_NAMES})
    return make_model(
        T=float(cfg["T"]),
        generator=gen,
        i0=int(cfg["i0"]) - 1,
        kappa=float(driver["kappa"]),
        theta_bar=float(driver["theta_bar"]),
        nu=float(driver["nu"]),
        y0=float(driver["y0"]),
        y_range=tuple(driver["y_range"]),
        coeffs=coeffs,
    )


def constant_problem(model: RandomCoefficientModel) -> ProblemSpec:
    """The equivalent fixed-coefficient problem of a y-independent model.

    Only valid when every coefficient slope is zero; used to cross-check the
    regression solver against the ODE solver.
    """
    for k in range(model.num_regimes):
        for name in COEFF_NAMES:
            if model.coeffs[k][name].slope != 0.0:
                raise ValidationError("model has y-dependent coefficients")
    val = lambda name, k: [[model.coeffs[k][name].const]]
    coefficients = [
        [
            {name: val(name, k) for name in ("A", "B", "C", "D", "Q", "S", "R")}
            for k in range(model.num_regimes)
        ]
    ]
    return make_problem(
        n=1,
        m=1,
        T=model.T,
        generator=model.generator,
        coefficients=coefficients,
        G=[val("G", k) for k in range(model.num_regimes)],
        x0=[1.0],
        i0=model.i0,
    )


@dataclass
class PathBundle:
    """Training data: driver paths, Brownian increments, chain paths on a grid."""

    times: NDArray[np.float64]  # (N+1,)
    y: NDArray[np.float64]  # (M, N+1)
    dW: NDArray[np.float64]  # (M, N)
    regimes: NDArray[np.int64]  # (M, N+1)
    seed: int

    @property
    def num_paths(self) -> int:
        return self.y.shape[0]

    @property
    def num_steps(self) -> int:
        return self.y.shape[1] - 1


def generate_training_paths(
    model: RandomCoefficientModel, M: int, N: int, seed: int
) -> PathBundle:
    """Euler driver paths plus exact chain paths on the uniform N-step grid."""
    if M < 1 or N < 1:
        raise ValidationError("need M >= 1 paths and N >= 1 steps")
    h = model.T / N
    times = np.linspace(0.0, model.T, N + 1)

    def chunk(rng, n):
        regimes = sample_regimes_on_grid(model.generator, model.i0, times, rng, n)
        return regimes, rng.standard_normal((n, N)) * np.sqrt(h)

    regimes, dW = run_chunks(M, seed, "bundle", chunk)
    y = np.empty((M, N + 1))
    y[:, 0] = model.y0
    for i in range(N):
        yi = y[:, i]
        y[:, i + 1] = yi + model.kappa * (model.theta_bar - yi) * h + model.nu * dW[:, i]
    return PathBundle(times=times, y=y, dW=dW, regimes=regimes, seed=seed)


@dataclass
class BsdeSolution:
    """Per-node polynomial weights for the value and its Brownian coefficient.

    Node N is the terminal condition and is evaluated from the G maps
    directly, so terminal values are exact on every sample point.
    """

    times: NDArray[np.float64]
    degree: int
    y_center: NDArray[np.float64]  # (N,)
    y_scale: NDArray[np.float64]  # (N,)
    value_weights: NDArray[np.float64]  # (N, D, degree+1)
    lambda_weights: NDArray[np.float64]  # (N, D, degree+1)
    model: RandomCoefficientModel
    regression_residuals: NDArray[np.float64]  # (N,)

    @property
    def num_steps(self) -> int:
        return len(self.times) - 1

    def _eval(self, weights, i: int, regimes, y):
        z = (np.asarray(y, dtype=np.float64) - self.y_center[i]) / self.y_scale[i]
        powers = np.vander(z, self.degree + 1, increasing=True)  # (M, B)
        w = weights[i][np.asarray(regimes, dtype=np.int64)]  # (M, B)
        return np.sum(powers * w, axis=1)

    def value_at(self, i: int, regimes, y):
        """Value estimate at node i for per-sample (regime, driver) pairs."""
        if i == self.num_steps:
            return self.model.coeff_selected("G", np.asarray(regimes, dtype=np.int64), y)
        return self._eval(self.value_weights, i, regimes, y)

    def lambda_at(self, i: int, regimes, y):
        """Brownian-coefficient estimate at node i."""
        if i == self.num_steps:
            return np.zeros_like(np.asarray(y, dtype=np.float64))
        return self._eval(self.lambda_weights, i, regimes, y)

    def value_single(self, i: int, k: int, y: float) -> float:
        return float(self.value_at(i, np.array([k]), np.array([y]))[0])


def _basis(y: NDArray, degree: int) -> tuple[NDArray, float, float]:
    """Column-scaled polynomial basis; constant-only when y is degenerate."""
    c = float(y.mean())
    s = float(y.std())
    if s < DEGENERATE_STD:
        return np.ones((len(y), 1)), c, 1.0
    z = (y - c) / s
    return np.vander(z, degree + 1, increasing=True), c, s


def _lstsq_guarded(Phi: NDArray, targets: NDArray, t: float) -> NDArray:
    w, _, _, sv = np.linalg.lstsq(Phi, targets, rcond=None)
    if Phi.shape[1] > 1:
        cond = sv[0] / sv[-1] if sv[-1] > 0.0 else np.inf
        if cond > CONDITION_MAX:
            raise IllConditionedRegression(
                f"basis condition number {cond:.3e} at t={t:.6g}"
            )
    return w


def _pad_weights(w: NDArray, num_regimes: int, width: int) -> NDArray:
    out = np.zeros((num_regimes, width))
    out[:, : w.shape[0]] = w.T
    return out


def _driver(model, regimes_or_k, y, Pbar, Lbar, t):
    """Qhat - Shat^2 / Rhat with the regressed (Pbar, Lbar) plugged in."""
    if np.isscalar(regimes_or_k):
        get = lambda name: model.coeff(name, regimes_or_k, y)
    else:
        get = lambda name: model.coeff_selected(name, regimes_or_k, y)
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


def backward_regression_solve(
    model: RandomCoefficientModel, bundle: PathBundle, degree: int = 3
) -> BsdeSolution:
    """Backward least-squares sweep over the bundle.

    Raises :class:`IllConditionedRegression` when the scaled basis is
    numerically rank-deficient and :class:`NegativeRhat` when the regressed
    Rhat falls below the positivity floor on more than 0.1% of samples.
    """
    M, N = bundle.num_paths, bundle.num_steps
    B = degree + 1
    if M < 10 * B:
        raise ValidationError(f"need at least {10 * B} paths for degree {degree}")
    d = model.num_regimes
    h = model.T / N
    trans = np.eye(d) + h * model.generator.rates  # first-order step probabilities
    if np.any(np.diag(trans) < 0.0):
        raise ValidationError("grid too coarse for the generator: negative stay probability")

    value_weights = np.zeros((N, d, B))
    lambda_weights = np.zeros((N, d, B))
    centers = np.zeros(N)
    scales = np.ones(N)
    resid = np.zeros(N)

    yN = bundle.y[:, N]
    Vnext = np.stack([model.coeff("G", l, yN) for l in range(d)], axis=1)  # (M, d)
    for i in range(N - 1, -1, -1):
        t = float(bundle.times[i])
        yi = bundle.y[:, i]
        Phi, c, s = _basis(yi, degree)
        g = _lstsq_guarded(Phi, Vnext, t)
        lam_raw = _lstsq_guarded(Phi, Vnext * (bundle.dW[:, i] / h)[:, None], t)
        CE = (Phi @ g) @ trans.T  # (M, d): E over both y and the regime jump
        LAM = (Phi @ lam_raw) @ trans.T
        Vnew = np.empty((M, d))
        for k in range(d):
            F = _driver(model, k, yi, CE[:, k], LAM[:, k], t)
            Vnew[:, k] = CE[:, k] + h * F
        w = _lstsq_guarded(Phi, Vnew, t)
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
    )


@dataclass(frozen=True)
class ResidualStats:
    """Out-of-sample one-step recursion residuals per node."""

    times: NDArray[np.float64]  # (N,) left endpoints
    mean: NDArray[np.float64]
    stderr: NDArray[np.float64]

    def max_abs_mean(self) -> float:
        return float(np.max(np.abs(self.mean)))


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
    for i in range(N):
        yi = bundle.y[:, i]
        ki = bundle.regimes[:, i]
        Vi = solution.value_at(i, ki, yi)
        Vn = solution.value_at(i + 1, bundle.regimes[:, i + 1], bundle.y[:, i + 1])
        F = _driver(model, ki, yi, Vi, solution.lambda_at(i, ki, yi), float(bundle.times[i]))
        r = Vi - Vn - h * F
        mean[i] = float(r.mean())
        stderr[i] = float(r.std(ddof=1) / np.sqrt(M)) if M >= 2 else float("nan")
    return ResidualStats(times=bundle.times[:-1], mean=mean, stderr=stderr)
