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
regressed next-node values (explicit scheme).  This is the least-squares
Monte Carlo scheme of Gobet, Lemor & Warin (Ann. Appl. Probab. 15(3), 2005).

Each node takes one thin SVD of the scaled basis.  Its singular values give
the condition number S[0] / S[-1] that is checked against CONDITION_MAX,
and the value targets, the dW-weighted targets (one stacked right-hand
side) and the refit of the new values are all solved through the same
factors.  Normal equations are never formed: they would square the
condition number.
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
from .model import ConfigReader, ProblemSpec, check_horizon, make_problem
from .riccati import RHAT_FLOOR
from .streams import run_chunks

COEFF_NAMES = ("A", "B", "C", "D", "Q", "S", "R", "G")
CONDITION_MAX = 1e10
DEGENERATE_STD = 1e-12


@dataclass(frozen=True)
class RandomCoefficientModel:
    """Scalar (n = m = 1) problem family with driver-dependent coefficients.

    Row ``COEFF_NAMES.index(name)`` of ``const`` and ``slope`` holds that
    coefficient's map const + slope * y for every regime; maps are evaluated
    at the driver clipped to [y_low, y_high].
    """

    T: float
    generator: GeneratorMatrix
    i0: int
    kappa: float
    theta_bar: float
    nu: float
    y0: float
    y_low: float
    y_high: float
    const: NDArray[np.float64]  # (len(COEFF_NAMES), D)
    slope: NDArray[np.float64]  # (len(COEFF_NAMES), D)

    @property
    def num_regimes(self) -> int:
        return self.generator.size

    def coeff_rows(self, y: NDArray, regimes: NDArray | None = None):
        """Evaluator ``name -> map`` at the driver samples ``y``, clipped once.

        Without ``regimes`` each map comes as (d, M) rows, one per regime;
        with a per-sample regime index it comes as the (M,) selected values.
        """
        yc = np.clip(y, self.y_low, self.y_high)

        def evaluate(name: str) -> NDArray:
            row = COEFF_NAMES.index(name)
            const, slope = self.const[row], self.slope[row]
            if regimes is None:
                return const[:, None] + slope[:, None] * yc
            return const[regimes] + slope[regimes] * yc

        return evaluate


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
    A, B, C, D, Q, S, R, G; ``(const,)`` or a bare number means slope 0.
    Over the declared driver range R must stay strictly positive and G
    nonnegative, and every number must be finite.
    """
    gen = validate_generator(generator)
    T = check_horizon(T)
    scalars = {"kappa": kappa, "theta_bar": theta_bar, "nu": nu, "y0": y0, "y_range": y_range}
    bad = [name for name, v in scalars.items() if not np.all(np.isfinite(v))]
    if bad:
        raise ValidationError(f"driver {', '.join(bad)} must be finite")
    lo, hi = float(y_range[0]), float(y_range[1])
    if not lo < hi:
        raise ValidationError("driver range must satisfy y_low < y_high")
    if not lo <= float(y0) <= hi:
        raise ValidationError("y0 must lie inside the declared driver range")
    if nu < 0.0:
        raise ValidationError("driver volatility nu must be nonnegative")
    pair = lambda const, slope=0.0: (const, slope)  # [const] or a bare number: slope 0
    const, slope = np.array(
        [[pair(*np.atleast_1d(coeffs[k][name])) for k in range(gen.size)] for name in COEFF_NAMES],
        dtype=np.float64,
    ).transpose(2, 0, 1)
    finite = np.isfinite(const) & np.isfinite(slope)
    if not finite.all():
        k, row = np.argwhere(~finite.T)[0]
        raise ValidationError(f"{COEFF_NAMES[row]} (regime {k + 1}) must be finite")
    with np.errstate(over="ignore"):  # an end beyond the float range is out of range too
        r_min, g_min = np.minimum(const + slope * lo, const + slope * hi)[-2:]  # rows R, G
    if np.any(r_min <= 0.0):
        k = int(np.argmax(r_min <= 0.0))
        raise ValidationError(
            f"R must be strictly positive on the driver range (regime {k + 1}: min {r_min[k]})"
        )
    if np.any(g_min < 0.0):
        k = int(np.argmax(g_min < 0.0))
        raise ValidationError(
            f"G must be nonnegative on the driver range (regime {k + 1}: min {g_min[k]})"
        )
    return RandomCoefficientModel(
        T=T,
        generator=gen,
        i0=gen.initial_regime(i0),
        kappa=float(kappa),
        theta_bar=float(theta_bar),
        nu=float(nu),
        y0=float(y0),
        y_low=lo,
        y_high=hi,
        const=const,
        slope=slope,
    )


def model_from_config(cfg: dict) -> RandomCoefficientModel:
    """Parse the ``kind: "random_coefficients"`` JSON config."""
    read = ConfigReader(cfg, "random_coefficients", ("driver", "coefficients"))
    driver = cfg["driver"]
    return make_model(
        T=read.T,
        generator=read.generator,
        i0=read.i0,
        kappa=float(driver["kappa"]),
        theta_bar=float(driver["theta_bar"]),
        nu=float(driver["nu"]),
        y0=float(driver["y0"]),
        y_range=tuple(driver["y_range"]),
        coeffs=[
            {name: tuple(raw[name]) for name in COEFF_NAMES}
            for raw in read.by_regime(cfg["coefficients"], "coefficients")
        ],
    )


def constant_problem(model: RandomCoefficientModel) -> ProblemSpec:
    """The equivalent fixed-coefficient problem of a y-independent model.

    Only valid when every coefficient slope is zero; used to cross-check the
    regression solver against the ODE solver.
    """
    if np.any(model.slope):
        raise ValidationError("model has y-dependent coefficients")
    const = dict(zip(COEFF_NAMES, model.const))  # name -> (D,) values
    coefficients = [
        [
            {name: [[const[name][k]]] for name in ("A", "B", "C", "D", "Q", "S", "R")}
            for k in range(model.num_regimes)
        ]
    ]
    return make_problem(
        n=1,
        m=1,
        T=model.T,
        generator=model.generator,
        coefficients=coefficients,
        G=[[[g]] for g in const["G"]],
        x0=[1.0],
        i0=model.i0,
    )


@dataclass
class PathBundle:
    """Training data: driver paths, Brownian increments, chain paths on a grid.

    ``regimes`` has the dtype of :func:`~regimelq.chain.sample_regimes_on_grid`,
    one byte per path and node up to 128 regimes.
    """

    times: NDArray[np.float64]  # (N+1,)
    y: NDArray[np.float64]  # (M, N+1); generated bundles hold a node-major array's .T
    dW: NDArray[np.float64]  # (M, N)
    regimes: NDArray[np.signedinteger]  # (M, N+1)
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
    """Euler driver paths plus exact chain paths on the uniform N-step grid.

    The explicit Euler step multiplies the driver's deviation from
    ``theta_bar`` by 1 - kappa h, so the grid must have kappa h < 2.
    """
    if M < 1 or N < 1:
        raise ValidationError("need M >= 1 paths and N >= 1 steps")
    h = model.T / N
    if model.kappa * h >= 2.0:
        raise ValidationError(
            f"driver step kappa*T/N = {model.kappa * h!r} >= 2: the explicit Euler factor "
            "|1 - kappa*T/N| >= 1 makes the driver diverge; need N > kappa*T/2"
        )
    times = np.linspace(0.0, model.T, N + 1)

    def chunk(rng, n):
        regimes = sample_regimes_on_grid(model.generator, model.i0, times, rng, n)
        # scaled in place, from malloc, not mapped_zeros: freeing these blocks raises
        # glibc's mmap threshold, so the sweep's temporaries reuse heap pages
        dW = rng.standard_normal((n, N))
        dW *= np.sqrt(h)
        return regimes, dW

    regimes, dW = run_chunks(M, seed, "bundle", chunk)
    # node-major storage: each node's driver column is contiguous in y.T
    y = np.empty((N + 1, M))
    y[0] = model.y0
    for i in range(N):
        y[i + 1] = y[i] + model.kappa * (model.theta_bar - y[i]) * h + model.nu * dW[:, i]
    return PathBundle(times=times, y=y.T, dW=dW, regimes=regimes, seed=seed)


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
    basis_condition: NDArray[np.float64]  # (N,) S[0] / S[-1] of the scaled basis

    @property
    def num_steps(self) -> int:
        return len(self.times) - 1

    def _eval(self, weights, i: int, regimes, y):
        z = (np.asarray(y, dtype=np.float64) - self.y_center[i]) / self.y_scale[i]
        powers = np.vander(z, self.degree + 1, increasing=True)  # (M, B)
        w = weights[i][np.asarray(regimes)]  # (M, B)
        return np.sum(powers * w, axis=1)

    def value_at(self, i: int, regimes, y):
        """Value estimate at node i for per-sample (regime, driver) pairs."""
        if i == self.num_steps:
            return self.model.coeff_rows(y, np.asarray(regimes))("G")
        return self._eval(self.value_weights, i, regimes, y)

    def lambda_at(self, i: int, regimes, y):
        """Brownian-coefficient estimate at node i."""
        if i == self.num_steps:
            return np.zeros_like(np.asarray(y, dtype=np.float64))
        return self._eval(self.lambda_weights, i, regimes, y)

    def value_single(self, i: int, k: int, y: float) -> float:
        return float(self.value_at(i, np.array([k]), np.array([y]))[0])


def _basis_svd(y: NDArray, degree: int):
    """Thin SVD of the column-scaled polynomial basis Phi = U S V'.

    Returns ``(U', S, V', centre, scale)`` with U' a contiguous (B, M)
    array.  The basis holds the powers z^0 .. z^degree of
    z = (y - centre) / scale, built as the rows of a (B, M) array so that
    each power is one contiguous pass; it is constant-only when y is
    degenerate.
    """
    c = float(y.mean())
    s = float(y.std())
    if s < DEGENERATE_STD:
        s, degree = 1.0, 0
    PhiT = np.empty((degree + 1, len(y)))
    PhiT[0] = 1.0
    if degree >= 1:
        np.divide(y - c, s, out=PhiT[1])
    for p in range(2, degree + 1):
        np.multiply(PhiT[p - 1], PhiT[1], out=PhiT[p])
    # LAPACK factors the tall (M, B) layout several times faster than the wide
    U, sv, Vt = np.linalg.svd(PhiT.T, full_matrices=False)
    del PhiT  # the sweep's working set sits on top of the bundle: free early
    return np.ascontiguousarray(U.T), sv, Vt, c, s


def _driver(coef, Pbar, Lbar, t):
    """Qhat - Shat^2 / Rhat with the regressed (Pbar, Lbar) plugged in.

    ``coef(name)`` returns a coefficient map evaluated on the samples in the
    shape of ``Pbar``: (d, M) rows, one per regime, in the sweep and (M,)
    per-sample values in :func:`bsde_residual`.  Maps are fetched where they
    are used and each of C, D is dropped after its last use, so few
    sample-sized arrays are alive at once.  The Rhat floor is checked per
    row, that is per regime in the sweep.
    """
    c, d = coef("C"), coef("D")
    Rhat = coef("R") + d * d * Pbar
    bad = np.atleast_1d(np.mean(Rhat <= RHAT_FLOOR, axis=-1))
    if np.any(bad > 1e-3):
        frac = bad[np.argmax(bad > 1e-3)]
        raise NegativeRhat(
            f"Rhat <= {RHAT_FLOOR} on {100 * frac:.2f}% of samples at t={t:.6g}"
        )
    np.maximum(Rhat, RHAT_FLOOR, out=Rhat)
    Shat = coef("B") * Pbar + d * c * Pbar + d * Lbar + coef("S")
    del d
    Qhat = 2.0 * coef("A") * Pbar + c * c * Pbar + 2.0 * Lbar * c + coef("Q")
    del c
    Shat *= Shat
    Shat /= Rhat
    Qhat -= Shat
    return Qhat


def backward_regression_solve(
    model: RandomCoefficientModel, bundle: PathBundle, degree: int = 3
) -> BsdeSolution:
    """Backward least-squares sweep over the bundle.

    Each node takes one thin SVD Phi = U S V' of the scaled basis.  Its
    condition number S[0] / S[-1] is recorded, and every least-squares
    solve at the node goes through the same factors: the fitted values of
    targets Y are U U'Y and the weights V S^-1 U'Y.  Work arrays are
    regime-major (d, M).

    Raises :class:`IllConditionedRegression` when the scaled basis is
    numerically rank-deficient and :class:`NegativeRhat` when the regressed
    Rhat falls below the positivity floor on more than 0.1% of one regime's
    samples.
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
    conds = np.empty(N)

    # one stacked right-hand side: next-node values over the same times dW/h;
    # once projected, the lower rows hold the regressed Brownian coefficient
    rhs = np.empty((2 * d, M))
    rhs[:d] = model.coeff_rows(bundle.y[:, N])("G")
    for i in range(N - 1, -1, -1):
        t = float(bundle.times[i])
        yi = bundle.y[:, i]
        Ut, sv, Vt, centers[i], scales[i] = _basis_svd(yi, degree)
        b = len(sv)
        conds[i] = sv[0] / sv[-1] if sv[-1] > 0.0 else np.inf
        if b > 1 and conds[i] > CONDITION_MAX:
            raise IllConditionedRegression(
                f"basis condition number {conds[i]:.3e} at t={t:.6g}"
            )
        np.multiply(rhs[:d], bundle.dW[:, i] / h, out=rhs[d:])
        # basis coordinates U'Y, carried through the regime jump
        jump = trans @ (rhs @ Ut.T).reshape(2, d, b)
        lambda_weights[i, :, :b] = (jump[1] / sv) @ Vt
        LAM = np.matmul(jump[1], Ut, out=rhs[d:])
        V = jump[0] @ Ut  # E over both y and the regime jump
        V += h * _driver(model.coeff_rows(yi), V, LAM, t)
        coords = V @ Ut.T
        value_weights[i, :, :b] = (coords / sv) @ Vt
        np.matmul(coords, Ut, out=rhs[:d])  # fitted values: the next targets
        resid[i] = float(np.linalg.norm(rhs[:d] - V) / np.sqrt(M * d))
        del Ut, V  # free before the next factorization, which sets peak memory
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
        Li = solution.lambda_at(i, ki, yi)
        F = _driver(model.coeff_rows(yi, ki), Vi, Li, float(bundle.times[i]))
        r = Vi - Vn - h * F
        mean[i] = float(r.mean())
        stderr[i] = float(r.std(ddof=1) / np.sqrt(M)) if M >= 2 else float("nan")
    return ResidualStats(times=bundle.times[:-1], mean=mean, stderr=stderr)
