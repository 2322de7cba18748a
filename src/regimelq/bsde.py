"""Regression-based backward solver for the scalar value equation with
Brownian-adapted random coefficients.

Coefficients are driven by a one-dimensional mean-reverting diffusion

    dy = kappa (theta_bar - y) dt + nu dW

sharing the Brownian motion of the state; each scalar coefficient is an
affine map of y clipped to a declared range (so all maps are bounded).  A
model is its n = m = 1 problem (:class:`~regimelq.model.ProblemSpec`, whose
coefficient table holds the maps' constant terms, so it is the problem at
y = 0) plus the driver and the maps' slopes.
The value P(t, k, y) is approximated per regime by a polynomial in y,
fitted backward one step at a time:

    P(t_i, k, y) = E[ P(t_{i+1}, a(t_{i+1}), y(t_{i+1})) | k, y ]
                   + h * driver(t_i, k, y, Pbar, Lbar),

where the conditional expectation over the regime jump is exact: it
weights the next-node values by the one-step law exp(h * rates) of the
chain (``GeneratorMatrix.transition``), so no grid is too coarse for the
generator and the compensated jump term needs no separate estimator (the
driver does not read it); the expectation over y is a
least-squares polynomial regression, and the Brownian coefficient Lbar is
estimated by regressing dW-weighted next-node values.  The driver uses the
same Qhat - Shat^2 / Rhat algebra as the Riccati drift, evaluated at the
regressed next-node values (explicit scheme).  This is the least-squares
Monte Carlo scheme of Gobet, Lemor & Warin (Ann. Appl. Probab. 15(3), 2005).

The training bundle stores the driver at node N only.  The Euler driver
is a Gaussian AR(1) chain: with h = T/N and b = 1 - kappa h, node i has
mean m_i and variance v_i from m_{i+1} = kappa theta_bar h + b m_i and
v_{i+1} = b^2 v_i + nu^2 h, m_0 = y0, v_0 = 0.  So the path is drawn
backward, y_N = m_N + sqrt(v_N) z_N and then each (y_i, dW_i) from its law
given y_{i+1} (:func:`_driver_backward`), in exactly the order the sweep
reads the nodes, and each normal is drawn once.  Node i's normals z_i are
one row of M from a stream of their own, keyed ``(seed, "bundle-z", i)``,
so an M'-path bundle is the first M' paths of any larger bundle with the
same seed.  The rows satisfy y_{i+1} = y_i + kappa (theta_bar - y_i) h
+ nu dW_i to rounding, and the path has the joint law of the forward
chain.

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

from .chain import sample_regimes_on_grid
from .errors import (
    RHAT_FLOOR,
    IllConditionedRegression,
    NegativeRhat,
    ValidationError,
)
from .model import ConfigReader, ProblemSpec, make_problem
from .streams import derive_rng, run_chunks

COEFF_NAMES = ("A", "B", "C", "D", "Q", "S", "R", "G")
CONDITION_MAX = 1e10
DEGENERATE_STD = 1e-12


@dataclass(frozen=True)
class RandomCoefficientModel:
    """Scalar (n = m = 1) problem with driver-dependent coefficients.

    ``problem`` holds T, the generator, the initial regime i0 and, in its
    one-segment coefficient table, each map's constant term: it is the
    problem at y = 0 (not at ``y0``), with x0 = [1].  Row
    ``COEFF_NAMES.index(name)`` of ``slope`` holds that coefficient's slope
    for every regime; the map const + slope * y is evaluated at the driver
    clipped to [y_low, y_high].
    """

    problem: ProblemSpec
    kappa: float
    theta_bar: float
    nu: float
    y0: float
    y_low: float
    y_high: float
    slope: NDArray[np.float64]  # (len(COEFF_NAMES), D)

    def coeff_rows(self, y: NDArray, regimes: NDArray | None = None):
        """Evaluator ``name -> map`` at the driver samples ``y``, clipped once.

        Without ``regimes`` each map comes as (d, M) rows, one per regime;
        with a per-sample regime index it comes as the (M,) selected values.
        """
        yc = np.clip(y, self.y_low, self.y_high)

        def evaluate(name: str) -> NDArray:
            const = self.problem.coefficients[name][0, :, 0, 0]
            slope = self.slope[COEFF_NAMES.index(name)]
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
    nonnegative, and every number must be finite.  T, the generator and i0
    are checked by :func:`~regimelq.model.make_problem`, which builds the
    model's problem from the constant terms.
    """
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
        [[pair(*np.atleast_1d(coeffs[k][name])) for k in range(len(coeffs))]
         for name in COEFF_NAMES],
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
        problem=make_problem(  # one segment; its coefficients are the maps at y = 0
            n=1, m=1, T=T, generator=generator, x0=[1.0], i0=i0,
            coefficients=[[dict(zip(COEFF_NAMES, column)) for column in const.T]], G=const[-1],
        ),
        kappa=float(kappa),
        theta_bar=float(theta_bar),
        nu=float(nu),
        y0=float(y0),
        y_low=lo,
        y_high=hi,
        slope=slope,
    )


def _numbers(value, lengths: tuple, field: str, form: str) -> tuple:
    """A config list of one of the ``lengths``, as a tuple; else bad input naming ``field``."""
    if not isinstance(value, list) or len(value) not in lengths:
        raise ValidationError(f"{field} must be a list {form}, got {value!r}")
    return tuple(value)


def model_from_config(cfg: dict) -> RandomCoefficientModel:
    """Parse the ``kind: "random_coefficients"`` JSON config."""
    read = ConfigReader(cfg, "random_coefficients", ("driver", "coefficients"))
    driver = cfg["driver"]
    regimes = read.by_regime(cfg["coefficients"], "coefficients")
    return make_model(
        T=read.T,
        generator=read.generator,
        i0=read.i0,
        kappa=float(driver["kappa"]),
        theta_bar=float(driver["theta_bar"]),
        nu=float(driver["nu"]),
        y0=float(driver["y0"]),
        y_range=_numbers(driver["y_range"], (2,), "driver.y_range", "[low, high]"),
        coeffs=[
            {name: _numbers(raw[name], (1, 2), f"coefficients.{k + 1}.{name}",
                               "[const, slope] or [const]")
             for name in COEFF_NAMES}
            for k, raw in enumerate(regimes)
        ],
    )


def constant_problem(model: RandomCoefficientModel) -> ProblemSpec:
    """The model's problem, when every coefficient slope is zero; used to
    cross-check the regression solver against the ODE solver."""
    if np.any(model.slope):
        raise ValidationError("model has y-dependent coefficients")
    return model.problem


@dataclass
class PathBundle:
    """Training data: the driver at node N and the keys of the bundle's draws.

    ``y`` is the driver at node N.  Every earlier node is drawn backward
    from it by :func:`_driver_backward`, from node i's stream
    ``(seed, "bundle-z", i)``, the node means ``mean`` and the per-step rows
    ``bridge``; these small tables are all the walk needs of the model, so
    the driver at every node and ``dW`` come from the bundle alone.  ``dW``
    (path-major, (M, N)) and ``regimes`` (the exact chain paths on the grid
    of the model's ``problem``, from the chunk streams ``(seed, "bundle",
    c)``, with the dtype of :func:`~regimelq.chain.sample_regimes_on_grid`)
    are drawn whole on first access; the sweep reads neither.
    """

    times: NDArray[np.float64]  # (N+1,)
    y: NDArray[np.float64]  # (M,): the driver at node N
    mean: NDArray[np.float64]  # (N+1,) m_i, the driver's mean at node i
    bridge: NDArray[np.float64]  # (N, 4) per step i: (a, p, c, q) of _driver_backward
    seed: int
    problem: ProblemSpec

    @property
    def num_paths(self) -> int:
        return len(self.y)

    @property
    def num_steps(self) -> int:
        return len(self.times) - 1

    @cached_property
    def dW(self) -> NDArray[np.float64]:
        """(M, N) increments, path-major: a view of the node-major walk."""
        dW = np.empty((self.num_steps, self.num_paths))
        for i, _, dWi in _driver_backward(self):
            dW[i] = dWi
        return dW.T

    @cached_property
    def regimes(self) -> NDArray[np.signedinteger]:
        """(M, N+1) exact chain paths on ``times``."""
        draw = lambda rng, n: (
            sample_regimes_on_grid(self.problem.generator, self.problem.i0, self.times, rng, n),
        )
        return run_chunks(self.num_paths, self.seed, "bundle", draw)[0]


def _bridge(model: RandomCoefficientModel, N: int):
    """The Euler driver's node means m_i, its sd at node N and the walk's rows.

    Row i of the (N, 4) table is (a, p, c, q) = (b v_i / v_{i+1},
    nu r_i, nu h / v_{i+1}, -b r_i) with r_i = sqrt(h v_i / v_{i+1}), the
    coefficients of (y_i, dW_i) given y_{i+1} (see :func:`_driver_backward`).
    Without noise (v = 0) a row is (0, 0, 0, sqrt(h)): y_i = m_i and
    dW_i = sqrt(h) z_i.
    """
    h = model.problem.T / N
    b = 1.0 - model.kappa * h
    m, v = np.empty(N + 1), np.empty(N + 1)
    m[0], v[0] = model.y0, 0.0
    for i in range(N):
        m[i + 1] = model.kappa * model.theta_bar * h + b * m[i]
        v[i + 1] = b * b * v[i] + model.nu * model.nu * h
    if v[-1] == 0.0:  # nu = 0, or nu^2 h below the float range
        return m, 0.0, np.tile([0.0, 0.0, 0.0, np.sqrt(h)], (N, 1))
    w = v[:-1] / v[1:]
    r = np.sqrt(h * w)
    return m, np.sqrt(v[-1]), np.column_stack([b * w, model.nu * r, model.nu * h / v[1:], -b * r])


def _driver_backward(bundle: PathBundle):
    """Yield ``(i, y_i, dW_i)`` for i = N-1 down to 0, drawn backward from y_N.

    ``dW_i`` is node i's increments, the step from y_i to y_{i+1}.  Given
    e_{i+1} = y_{i+1} - m_{i+1} and node i's normals z_i, the walk sets
    dW_i = c e_{i+1} + q z_i and e_i = a e_{i+1} + p z_i from row i of
    ``bundle.bridge``: the law of the forward Euler chain's (y_i, dW_i)
    given y_{i+1}, whose covariance given y_{i+1} has rank one.

    The normals of each block of s = isqrt(N) + 1 nodes are drawn into a
    fresh (s, M) array, and y_i is written over z_i; the rows are valid
    while the caller holds them.  Freeing a block this large raises glibc's
    mmap threshold to its size (and its trim threshold to twice that),
    which is what keeps the sweep's (d, M) temporaries on the heap.  One
    reused row per node instead frees no such block, and glibc then trims
    its heap at every node: ``bsde --grid 100 --paths 30000`` took 105 150
    minor faults against 19 886 and ran about 0.17 s slower (2-core Intel
    Xeon).
    """
    N, M = bundle.num_steps, bundle.num_paths
    s = isqrt(N) + 1
    y = bundle.y
    for last in range(N, 0, -s):
        first = max(last - s, 0)
        block = np.empty((last - first, M))
        for j, row in enumerate(block):
            derive_rng(bundle.seed, "bundle-z", first + j).standard_normal(out=row)
        for i in range(last - 1, first - 1, -1):
            a, p, c, q = bundle.bridge[i]
            e = y - bundle.mean[i + 1]
            y = block[i - first]  # z_i, overwritten by y_i
            dW = q * y
            dW += c * e
            e *= a
            y *= p
            y += e
            y += bundle.mean[i]
            yield i, y, dW


def generate_training_paths(
    model: RandomCoefficientModel, M: int, N: int, seed: int
) -> PathBundle:
    """Euler driver paths on the uniform N-step grid, drawn at node N.

    The explicit Euler step multiplies the driver's deviation from
    ``theta_bar`` by 1 - kappa h, so the grid must have kappa h < 2.  Only
    the driver at node N is drawn here; the sweep draws the other nodes
    backward (:func:`_driver_backward`), and the chain paths are drawn
    only if ``regimes`` is read.
    """
    if M < 1 or N < 1:
        raise ValidationError("need M >= 1 paths and N >= 1 steps")
    h = model.problem.T / N
    if model.kappa * h >= 2.0:
        raise ValidationError(
            f"driver step kappa*T/N = {model.kappa * h!r} >= 2: the explicit Euler factor "
            "|1 - kappa*T/N| >= 1 makes the driver diverge; need N > kappa*T/2"
        )
    mean, sd, bridge = _bridge(model, N)
    y = derive_rng(seed, "bundle-z", N).standard_normal(M)
    y *= sd
    y += mean[N]
    return PathBundle(
        times=np.linspace(0.0, model.problem.T, N + 1),
        y=y,
        mean=mean,
        bridge=bridge,
        seed=seed,
        problem=model.problem,
    )


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
    shape of ``Pbar``: (d, M) rows, one per regime, as the sweep passes
    them, or (M,) per-sample values.  Maps are fetched where they are used
    and each of C, D is dropped after its last use, so few sample-sized
    arrays are alive at once.  The Rhat floor is checked per row, that is
    per regime in the sweep.
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

    Raises :class:`ValidationError` unless ``degree`` is an integer >= 0,
    :class:`IllConditionedRegression` when the scaled basis is
    numerically rank-deficient and :class:`NegativeRhat` when the regressed
    Rhat falls below the positivity floor on more than 0.1% of one regime's
    samples.
    """
    if not isinstance(degree, (int, np.integer)) or degree < 0:
        raise ValidationError(f"basis degree must be an integer >= 0, got {degree!r}")
    M, N = bundle.num_paths, bundle.num_steps
    B = degree + 1
    if M < 10 * B:
        raise ValidationError(f"need at least {10 * B} paths for degree {degree}")
    d = model.problem.num_regimes
    h = model.problem.T / N
    trans = model.problem.generator.transition(h)  # exact: exp(h Q)

    value_weights = np.zeros((N, d, B))
    lambda_weights = np.zeros((N, d, B))
    centers = np.zeros(N)
    scales = np.ones(N)
    resid = np.zeros(N)
    conds = np.empty(N)

    # one stacked right-hand side: next-node values over the same times dW/h;
    # once projected, the lower rows hold the regressed Brownian coefficient
    rhs = np.empty((2 * d, M))
    rhs[:d] = model.coeff_rows(bundle.y)("G")
    basis = np.empty((B, M))  # each node's Phi', then its U'
    for i, yi, dWi in _driver_backward(bundle):
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
