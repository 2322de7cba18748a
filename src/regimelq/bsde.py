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

The training bundle stores no increments and keeps the driver only at
checkpoint nodes, every s = isqrt(N) + 1 nodes plus node N
(:func:`checkpoint_nodes`).  Node i's increments are one row of M normals
from a stream of their own, keyed ``(seed, "bundle-dW", i)``, so any node's
row can be drawn again alone.  Generation steps the driver on each row and
keeps the checkpoints; walking backward, the sweep redraws each segment's
rows and rebuilds the segment's driver from its checkpoint.  Generation,
the sweep and :func:`full_driver` all step through the one function
:func:`_euler_rows`, with the same operations in the same order, so every
driver value the sweep reads is bit for bit the one a full-grid array would
hold.  The bundle then takes about 3 sqrt(N) instead of 2N + 1 rows of M
floats: the checkpoints, one (s + 1, M) driver segment and one (s, M)
increment segment (Griewank & Walther, "Algorithm 799: revolve", ACM TOMS
26(1), 2000, one level).  The per-node keys make the increments independent
of the checkpoint spacing, and an M'-path bundle's increments are the
first M' paths of any larger bundle's with the same seed.

Each node takes one thin SVD Phi = U S V' of the scaled (M, B) basis, by
way of its QR factor R alone (Chan's R-SVD, ACM TOMS 8(1), 1982): a
Householder QR that keeps only the (B, B) R, the SVD of R, and
U' = S^-1 V' Phi' as one (B, B) @ (B, M) product, so neither Q nor U is
formed in the tall shape.  At M = 30 000 and B = 4 the QR takes about
0.4 ms where numpy's tall SVD took 1.3 ms (2-core Intel Xeon, one BLAS
thread).  S is that of the basis, and
the rows of U' are orthonormal to about cond * eps, cond = S[0] / S[-1],
which is checked against CONDITION_MAX.  The value targets, the
dW-weighted targets (one stacked right-hand side) and the refit of the new
values are all solved through the same factors.  Normal equations are never
formed: they would square the condition number.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import isqrt

import numpy as np
from numpy.typing import NDArray

from .chain import GeneratorMatrix, sample_regimes_on_grid, validate_generator
from .errors import (
    RHAT_FLOOR,
    IllConditionedRegression,
    NegativeRhat,
    ValidationError,
)
from .model import ConfigReader, ProblemSpec, check_horizon, make_problem
from .streams import derive_rng, run_chunks

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
    """Training data: driver checkpoints and the keys of the bundle's draws.

    The driver is stored only at the grid nodes ``checkpoints`` (see
    :func:`checkpoint_nodes`), one contiguous row of ``y`` per node; every
    other node is rebuilt from the checkpoint before it by
    :func:`_euler_rows`, bit for bit.  No increments are stored: node i's
    increments are one row of M normals from the stream
    ``(seed, "bundle-dW", i)`` scaled by sqrt(h), redrawn by
    :meth:`increments` wherever they are needed, so the bundle's bytes are
    about sqrt(N) driver rows.  ``dW`` (path-major, (M, N)) and ``regimes``
    (the exact chain paths on the grid, from the chunk streams
    ``(seed, "bundle", c)``, with the dtype of
    :func:`~regimelq.chain.sample_regimes_on_grid`) are drawn whole on first
    access; the sweep reads neither.
    """

    times: NDArray[np.float64]  # (N+1,)
    y: NDArray[np.float64]  # (K, M): the driver at the nodes `checkpoints`
    checkpoints: NDArray[np.intp]  # (K,) increasing node indices, first 0, last N
    seed: int
    generator: GeneratorMatrix
    i0: int

    @property
    def num_paths(self) -> int:
        return self.y.shape[1]

    @property
    def num_steps(self) -> int:
        return len(self.times) - 1

    def increments(self, first: int, out: NDArray) -> NDArray:
        """Fill row j of the (rows, M) ``out`` with node ``first + j``'s increments."""
        scale = np.sqrt(self.times[-1] / self.num_steps)
        for j, row in enumerate(out):
            derive_rng(self.seed, "bundle-dW", first + j).standard_normal(out=row)
            row *= scale
        return out

    @cached_property
    def dW(self) -> NDArray[np.float64]:
        """(M, N) increments, path-major: a view of the node-major draw."""
        return self.increments(0, np.empty((self.num_steps, self.num_paths))).T

    @cached_property
    def regimes(self) -> NDArray[np.signedinteger]:
        """(M, N+1) exact chain paths on ``times``."""
        draw = lambda rng, n: (
            sample_regimes_on_grid(self.generator, self.i0, self.times, rng, n),
        )
        return run_chunks(self.num_paths, self.seed, "bundle", draw)[0]


def checkpoint_nodes(N: int) -> NDArray[np.intp]:
    """Nodes at which a bundle stores the driver: 0, s, 2s, ... and N.

    With s = isqrt(N) + 1 > sqrt(N) there are at most isqrt(N) + 2 of them,
    and no segment between two of them spans more than s steps.
    """
    return np.append(np.arange(0, N, isqrt(N) + 1), N)


def _euler_rows(model: RandomCoefficientModel, h: float, dW: NDArray, out: NDArray):
    """Fill ``out[1:]`` with the Euler driver nodes after ``out[0]``.

    Row j + 1 of ``out`` is stepped from row j on the increments ``dW[j]``,
    as y + kappa (theta_bar - y) h + nu dW in place.
    """
    noise = np.empty_like(out[0])
    for j, dw in enumerate(dW):
        y, step = out[j], out[j + 1]
        np.subtract(model.theta_bar, y, out=step)
        step *= model.kappa
        step *= h
        step += y
        step += np.multiply(model.nu, dw, out=noise)
    return out


def _segments(model: RandomCoefficientModel, bundle: PathBundle, order):
    """Rebuild the driver segments ``order`` (indices into the checkpoints).

    Yields ``(first, y, dW)`` per segment: its increments, nodes first to
    last - 1, redrawn into one reused (s, M) buffer, and the driver at nodes
    first to last, stepped on them from the checkpoint at ``first`` into
    one reused (s + 1, M) buffer.  Both are valid until the next segment.
    """
    N, M = bundle.num_steps, bundle.num_paths
    h = model.T / N
    y_buf = np.empty((isqrt(N) + 2, M))
    dW_buf = np.empty((isqrt(N) + 1, M))
    nodes = bundle.checkpoints
    for j in order:
        first, last = int(nodes[j]), int(nodes[j + 1])
        dW = bundle.increments(first, dW_buf[: last - first])
        y = y_buf[: last - first + 1]
        y[0] = bundle.y[j]
        yield first, _euler_rows(model, h, dW, y), dW


def _driver_backward(model: RandomCoefficientModel, bundle: PathBundle):
    """Yield ``(i, y_i, dW_i)`` for i = N-1 down to 0, rebuilt from the checkpoints.

    ``dW_i`` is node i's increments, the step from y_i to y_{i+1}.  The rows
    are valid until the next segment is rebuilt.
    """
    for first, y, dW in _segments(model, bundle, range(len(bundle.checkpoints) - 2, -1, -1)):
        for j in range(len(dW) - 1, -1, -1):
            yield first + j, y[j], dW[j]


def full_driver(model: RandomCoefficientModel, bundle: PathBundle) -> NDArray[np.float64]:
    """The driver at every node, node-major (N+1, M), rebuilt from the bundle."""
    y = np.empty((bundle.num_steps + 1, bundle.num_paths))
    y[-1] = bundle.y[-1]
    for i, yi, _ in _driver_backward(model, bundle):
        y[i] = yi
    return y


def generate_training_paths(
    model: RandomCoefficientModel, M: int, N: int, seed: int
) -> PathBundle:
    """Euler driver paths on the uniform N-step grid, kept at the checkpoints.

    The explicit Euler step multiplies the driver's deviation from
    ``theta_bar`` by 1 - kappa h, so the grid must have kappa h < 2.  The
    driver is stepped on each node's increments in turn and kept at
    :func:`checkpoint_nodes` only; the chain paths are drawn only if
    ``regimes`` is read.
    """
    if M < 1 or N < 1:
        raise ValidationError("need M >= 1 paths and N >= 1 steps")
    h = model.T / N
    if model.kappa * h >= 2.0:
        raise ValidationError(
            f"driver step kappa*T/N = {model.kappa * h!r} >= 2: the explicit Euler factor "
            "|1 - kappa*T/N| >= 1 makes the driver diverge; need N > kappa*T/2"
        )
    nodes = checkpoint_nodes(N)
    bundle = PathBundle(
        times=np.linspace(0.0, model.T, N + 1),
        y=np.empty((len(nodes), M)),
        checkpoints=nodes,
        seed=seed,
        generator=model.generator,
        i0=model.i0,
    )
    bundle.y[0] = model.y0
    for j, (_, y, _) in enumerate(_segments(model, bundle, range(len(nodes) - 1))):
        bundle.y[j + 1] = y[-1]
    return bundle


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


def _basis_svd(y: NDArray, degree: int, out: NDArray):
    """Thin SVD Phi = U S V' of the column-scaled polynomial basis, from its R factor.

    Returns ``(U', S, V', centre, scale)`` with U' a contiguous (B, M) view
    of the (degree + 1, M) work buffer ``out``.  The basis holds the powers
    z^0 .. z^degree of z = (y - centre) / scale, built in ``out`` as the
    rows of Phi' so that each power is one contiguous pass; it is
    constant-only when y is degenerate.  Only R of Phi = Q R is formed,
    R = Ur S V' gives S and V', and U' = S^-1 V' Phi' is written over Phi'.
    """
    c = float(y.mean())
    s = float(y.std())
    if s < DEGENERATE_STD:
        s, degree = 1.0, 0
    PhiT = out[: degree + 1]
    PhiT[0] = 1.0
    if degree >= 1:
        np.subtract(y, c, out=PhiT[1])
        PhiT[1] /= s
    for p in range(2, degree + 1):
        np.multiply(PhiT[p - 1], PhiT[1], out=PhiT[p])
    # Phi' transposed is Phi in column-major order, the layout LAPACK factors
    _, sv, Vt = np.linalg.svd(np.linalg.qr(PhiT.T, mode="r"))
    return np.matmul(Vt / sv[:, None], PhiT, out=PhiT), sv, Vt, c, s


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

    Each node takes one thin SVD Phi = U S V' of the scaled basis from the
    R factor of its QR, as :func:`_basis_svd` describes, with U' written
    into one (B, M) buffer of the sweep.  Its condition number
    cond = S[0] / S[-1] is recorded, and every least-squares solve at the
    node goes through the same factors: the fitted values of targets Y are
    U U'Y and the weights V S^-1 U'Y.  U' has orthonormal rows to about
    cond * eps, so below CONDITION_MAX the projection is as accurate as the
    basis allows.  Work arrays are regime-major (d, M).

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
    rhs[:d] = model.coeff_rows(bundle.y[-1])("G")
    basis = np.empty((B, M))  # each node's Phi', then its U'
    for i, yi, dWi in _driver_backward(model, bundle):
        t = float(bundle.times[i])
        Ut, sv, Vt, centers[i], scales[i] = _basis_svd(yi, degree, basis)
        b = len(sv)
        conds[i] = sv[0] / sv[-1] if sv[-1] > 0.0 else np.inf
        if b > 1 and conds[i] > CONDITION_MAX:
            raise IllConditionedRegression(
                f"basis condition number {conds[i]:.3e} at t={t:.6g}"
            )
        np.multiply(rhs[:d], dWi / h, out=rhs[d:])
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
        del V  # free before the next factorization, which sets peak memory
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
    y = full_driver(model, bundle)
    for i in range(N):
        yi = y[i]
        ki = bundle.regimes[:, i]
        Vi = solution.value_at(i, ki, yi)
        Vn = solution.value_at(i + 1, bundle.regimes[:, i + 1], y[i + 1])
        Li = solution.lambda_at(i, ki, yi)
        F = _driver(model.coeff_rows(yi, ki), Vi, Li, float(bundle.times[i]))
        r = Vi - Vn - h * F
        mean[i] = float(r.mean())
        stderr[i] = float(r.std(ddof=1) / np.sqrt(M)) if M >= 2 else float("nan")
    return ResidualStats(times=bundle.times[:-1], mean=mean, stderr=stderr)
