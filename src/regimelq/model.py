"""Problem definition and validation for the regime-switching LQ control problem.

State dynamics on [0, T]:

    dX = [A(t,k) X + B(t,k) u] dt + [C(t,k) X + D(t,k) u] dW,

with k the current regime of an independent Markov chain, and cost

    J(u) = E[ <G(k_T) X_T, X_T> + int_0^T <Q X, X> + 2 <S X, u> + <R u, u> dt ].

Coefficients are deterministic functions of (t, regime), piecewise constant
in t over a fixed segment partition of [0, T], stored once as a (segment,
regime) record table: ``problem.coefficients.A[j, k]`` is one coefficient,
``problem.coefficients[j][k]`` one cell, and ``problem.G`` the (D, n, n)
terminal weights.  :meth:`ProblemSpec.coefficients_at` is its one indexer.
Regimes are 0-based in the Python API; JSON configs label them 1..D
(converted at ingestion).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np
from numpy.typing import NDArray

from .chain import GeneratorMatrix, validate_generator
from .errors import (
    AsymmetricWeight,
    BadSegments,
    DimensionMismatch,
    OutOfHorizon,
    ValidationError,
)

ASYMMETRY_MAX = 1e-9


class Coefficients(NamedTuple):
    """Per-regime coefficients at one time (D, ., .), or at K times (K, D, ., .)."""

    A: NDArray[np.float64]  # n x n drift
    B: NDArray[np.float64]  # n x m control drift
    C: NDArray[np.float64]  # n x n diffusion
    D: NDArray[np.float64]  # n x m control diffusion
    Q: NDArray[np.float64]  # n x n state weight, symmetric
    S: NDArray[np.float64]  # m x n cross weight
    R: NDArray[np.float64]  # m x m control weight, symmetric


@dataclass(frozen=True)
class ProblemSpec:
    """Validated and immutable problem data, shareable by all solvers."""

    n: int
    m: int
    num_regimes: int
    T: float
    generator: GeneratorMatrix
    breakpoints: NDArray[np.float64]  # 0 = s_0 < ... < s_J = T
    coefficients: np.recarray  # (J, D) records with fields A, B, C, D, Q, S, R, G
    x0: NDArray[np.float64]
    i0: int

    @property
    def num_segments(self) -> int:
        return len(self.breakpoints) - 1

    def segment_index(self, t):
        """Segment owning t; [s_j, s_{j+1}) is right-continuous, T maps to the last.

        ``t`` may be a scalar (returns an int) or an array (returns an index
        array of its shape).  A time outside [0, T], or NaN, is an error.
        """
        t = np.asarray(t, dtype=np.float64)
        inside = (t >= 0.0) & (t <= self.T)
        if not np.all(inside):
            raise OutOfHorizon(f"t={t[~inside].flat[0]} outside [0, {self.T}]")
        j = np.minimum(np.searchsorted(self.breakpoints, t, side="right") - 1,
                       self.num_segments - 1)
        return j if j.ndim else int(j)

    @property
    def G(self) -> NDArray[np.float64]:
        """Stacked (D, n, n) terminal weights G_k."""
        return self.coefficients.G[-1]

    def coefficients_at(self, times) -> Coefficients:
        """Coefficients in force at ``times`` (see :meth:`segment_index`):
        (D, ., .) stacks at a scalar time, (K, D, ., .) at K times."""
        rows = self.segment_index(times)
        return Coefficients(*(
            np.take(self.coefficients[name], rows, axis=0) for name in Coefficients._fields
        ))


def _as_matrix(value, rows: int, cols: int, name: str) -> NDArray[np.float64]:
    arr = np.array(value, dtype=np.float64)
    if arr.ndim == 0:
        arr = arr.reshape(1, 1)
    if arr.shape != (rows, cols):
        raise DimensionMismatch(
            f"{name} must have shape ({rows}, {cols}), got {arr.shape}"
        )
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"{name} has non-finite entries")
    return arr


def _symmetrized(M: NDArray[np.float64], name: str) -> NDArray[np.float64]:
    with np.errstate(over="ignore"):  # an overflowing difference is an infinite asymmetry
        asym = float(np.max(np.abs(M - M.T))) if M.size else 0.0
    # small relative pad so decimal literals rounding just past the bound pass
    if asym > ASYMMETRY_MAX * (1.0 + 1e-6):
        raise AsymmetricWeight(f"{name} asymmetric by {asym:.3e} (> {ASYMMETRY_MAX})")
    return M if asym == 0.0 else (M + M.T) / 2.0  # M + M' overflows past 2**1023


def check_horizon(T) -> float:
    """The horizon as a float; it must be finite and positive."""
    T = float(T)
    if not 0.0 < T < np.inf:
        raise BadSegments(f"horizon T={T} must be finite and positive")
    return T


def validate_breakpoints(T, breakpoints=None) -> NDArray[np.float64]:
    """Segment partition 0 = s_0 < ... < s_J = T; ``None`` is the one segment [0, T]."""
    T = check_horizon(T)
    bp = np.array([0.0, T] if breakpoints is None else breakpoints, dtype=np.float64)
    if bp.ndim != 1 or len(bp) < 2 or bp[0] != 0.0 or bp[-1] != T:
        raise BadSegments(f"breakpoints must run from 0 to T={T}, got {bp}")
    if not np.all(np.diff(bp) > 0.0):  # also rejects NaN
        raise BadSegments("breakpoints must be strictly increasing")
    return bp


def make_problem(
    *,
    n: int,
    m: int,
    T: float,
    generator,
    coefficients,
    G,
    x0,
    i0: int,
    breakpoints=None,
) -> ProblemSpec:
    """Build a validated :class:`ProblemSpec` from raw arrays.

    ``coefficients`` is a sequence over segments; each segment is a sequence
    over regimes of dicts with keys A, B, C, D, Q, S, R.  ``G`` is a sequence
    over regimes.  ``breakpoints`` defaults to the single segment [0, T].
    Q, R and G are symmetrized; asymmetry beyond 1e-9 is an error.
    """
    if n < 1 or m < 1:
        raise DimensionMismatch("state and control dimensions must be >= 1")
    gen = validate_generator(generator)
    d = gen.size
    bp = validate_breakpoints(T, breakpoints)
    num_segments = len(bp) - 1
    if len(coefficients) != num_segments:
        raise BadSegments(
            f"{len(coefficients)} coefficient segments for {num_segments} breakpoint segments"
        )
    if len(G) != d:
        raise DimensionMismatch(f"need one terminal weight per regime, got {len(G)}")

    g_where = [f"G (regime {k + 1})" for k in range(d)]  # errors name the 1-based label
    g_mats = [_symmetrized(_as_matrix(G[k], n, n, g_where[k]), g_where[k]) for k in range(d)]

    # one record per (segment, regime): the seven coefficients and G_k
    shapes = dict(A=(n, n), B=(n, m), C=(n, n), D=(n, m), Q=(n, n), S=(m, n), R=(m, m))
    table = np.recarray(
        (num_segments, d), [(name, np.float64, s) for name, s in {**shapes, "G": (n, n)}.items()]
    )
    table["G"] = g_mats  # every segment's record of regime k carries G_k
    for j, seg in enumerate(coefficients):
        if len(seg) != d:
            raise DimensionMismatch(
                f"segment {j} has {len(seg)} regime entries, expected {d}"
            )
        for k, cs in enumerate(seg):
            for name, (rows, cols) in shapes.items():
                where = f"{name} (segment {j}, regime {k + 1})"
                M = _as_matrix(cs[name], rows, cols, where)
                table[name][j, k] = _symmetrized(M, where) if name in ("Q", "R") else M
    table.flags.writeable = False  # problem.G and the cells are views of it

    x0_arr = np.array(x0, dtype=np.float64).reshape(-1)
    if x0_arr.shape != (n,):
        raise DimensionMismatch(f"x0 must have length {n}, got {x0_arr.shape}")
    if not np.all(np.isfinite(x0_arr)):
        raise ValidationError("x0 has non-finite entries")

    return ProblemSpec(
        n=int(n),
        m=int(m),
        num_regimes=d,
        T=float(T),
        generator=gen,
        breakpoints=bp,
        coefficients=table,
        x0=x0_arr,
        i0=gen.initial_regime(i0),
    )


def with_initial_state(problem: ProblemSpec, x0) -> ProblemSpec:
    """Copy of the problem with a different initial state."""
    x0_arr = np.array(x0, dtype=np.float64).reshape(-1)
    if x0_arr.shape != (problem.n,):
        raise DimensionMismatch(f"x0 must have length {problem.n}")
    return replace(problem, x0=x0_arr)


def without_control(problem: ProblemSpec) -> ProblemSpec:
    """Copy of the problem with B, D and S zero and R the identity.

    Its Shat is exactly zero, so its Riccati system is the coupled Lyapunov
    system of the zero control and its gains are exactly zero.
    """
    table = problem.coefficients.copy()
    table["B"] = table["D"] = table["S"] = 0.0
    table["R"] = np.eye(problem.m)
    table.flags.writeable = False
    return replace(problem, coefficients=table)


# --- JSON config adapter -------------------------------------------------

def _non_number_leaf(cfg: dict):
    """``(path, value)`` of the first leaf of the config, in document order and
    the ``kind`` header left out, that is not a JSON number (a bool, a
    string or null); None when there is none."""
    stack = [(str(key), v) for key, v in reversed(cfg.items()) if key != "kind"]
    while stack:
        path, node = stack.pop()
        if isinstance(node, dict):
            stack.extend((f"{path}.{key}", v) for key, v in reversed(node.items()))
        elif isinstance(node, list):
            stack.extend((f"{path}[{i}]", node[i]) for i in reversed(range(len(node))))
        elif isinstance(node, bool) or not isinstance(node, (int, float)):
            return path, node
    return None


class ConfigReader:
    """Reads what every config kind states the same way: the header, the
    required ``fields``, ``T``, the generator (an optional ``regimes`` count
    must match it), integer fields and the 1-based ``i0`` label.  Every leaf
    but the ``kind`` header must be a JSON number.  Range rules stay with
    the constructors.
    """

    INTEGER_FIELDS = ("n", "m", "regimes", "i0")  # checked first, so their errors say "integer"

    def __init__(self, cfg: dict, kind: str, fields: tuple = ()):
        if cfg.get("spec_version") != 1:
            raise ValidationError("config must declare spec_version: 1")
        if cfg.get("kind") != kind:
            raise ValidationError(f"expected kind {kind!r}, got {cfg.get('kind')!r}")
        self.cfg = cfg
        for field in self.INTEGER_FIELDS:
            if field in cfg:
                self.integer(field)
        bad = _non_number_leaf(cfg)
        if bad:
            raise ValidationError(f"config value {bad[0]} must be a number, got {bad[1]!r}")
        for field in ("T", "generator", "i0") + fields:
            if field not in cfg:
                raise ValidationError(f"config missing field {field!r}")
        self.T = float(cfg["T"])
        self.generator = validate_generator(cfg["generator"])
        d = self.generator.size
        if "regimes" in cfg and self.integer("regimes") != d:
            raise DimensionMismatch(f"generator is {d}x{d} but regimes={cfg['regimes']}")
        self.i0 = self.integer("i0") - 1

    def integer(self, field: str) -> int:
        """The integral number ``field``; a fraction, a non-finite value or a bool is bad input."""
        value = self.cfg[field]
        if isinstance(value, bool) or not (
            isinstance(value, int) or isinstance(value, float) and value.is_integer()
        ):
            raise ValidationError(f"{field} must be an integer, got {value!r}")
        return int(value)

    def by_regime(self, mapping: dict, what: str) -> list:
        """Values of a mapping keyed by the regime labels '1'..'D', in regime order."""
        labels = [str(k + 1) for k in range(self.generator.size)]
        if set(mapping) != set(labels):
            raise ValidationError(
                f"{what} must be keyed by the regime labels {labels}, got {sorted(mapping)}"
            )
        return [mapping[label] for label in labels]

    def segments(self, flat: tuple = ()) -> tuple[list[float], list[dict]]:
        """Breakpoints and entries of the ``t_start`` segments list; without
        the list, the top-level ``flat`` fields are the one segment [0, T].
        """
        if "segments" in self.cfg:
            segs = self.cfg["segments"]
        else:
            segs = [{"t_start": 0.0, **{f: self.cfg[f] for f in flat}}]
        if not segs:
            raise BadSegments("config needs at least one segment")
        return [float(s["t_start"]) for s in segs] + [self.T], segs


def problem_from_config(cfg: dict) -> ProblemSpec:
    """Parse the ``kind: "slq"`` JSON config into a :class:`ProblemSpec`."""
    read = ConfigReader(cfg, "slq", ("n", "m", "regimes", "segments", "G", "x0"))
    breakpoints, segs = read.segments()
    return make_problem(
        n=read.integer("n"),
        m=read.integer("m"),
        T=read.T,
        generator=read.generator,
        coefficients=[
            read.by_regime(s["coefficients"], f"segment {j} coefficients")
            for j, s in enumerate(segs)
        ],
        G=read.by_regime(cfg["G"], "G"),
        x0=cfg["x0"],
        i0=read.i0,
        breakpoints=breakpoints,
    )


def validate_problem(raw: dict) -> ProblemSpec:
    """Alias of :func:`problem_from_config`, kept for ``bench/test_bench.py``; not public."""
    return problem_from_config(raw)
