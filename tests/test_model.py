"""Model module: validation, symmetrization, segment lookup, config round trip."""

import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import regimelq as rl
from regimelq.errors import (
    AsymmetricWeight,
    BadSegments,
    DimensionMismatch,
    OutOfHorizon,
)

from regimelq.model import without_control

from canonical import (
    coeff_at,
    multidim_two_segment,
    problem_to_config,
    random_convex,
    scalar_analytic,
    two_regime_coupling,
)


def _scalar_coeffs(**kw):
    base = {"A": 0, "B": 1, "C": 0, "D": 0, "Q": 0, "S": 0, "R": 1}
    base.update(kw)
    return base


class TestMakeProblem:
    def test_scalar_accepted(self):
        prob = scalar_analytic()
        assert prob.n == prob.m == 1
        assert prob.num_regimes == 1
        assert prob.T == 1.0

    def test_weight_symmetrized_within_tolerance(self):
        Q = [[1.0, 0.3], [0.300000001, 1.0]]
        prob = rl.make_problem(
            n=2, m=1, T=1.0, generator=[[0.0]],
            coefficients=[[{
                "A": np.zeros((2, 2)), "B": np.zeros((2, 1)), "C": np.zeros((2, 2)),
                "D": np.zeros((2, 1)), "Q": Q, "S": np.zeros((1, 2)), "R": [[1.0]],
            }]],
            G=[np.eye(2)], x0=[1.0, 0.0], i0=0,
        )
        Qs = prob.coefficients[0][0].Q
        np.testing.assert_allclose(Qs, Qs.T)
        assert abs(Qs[0, 1] - 0.3000000005) < 1e-12

    def test_symmetric_weight_near_the_float_limit_is_kept(self):
        # (M + M') / 2 overflows past 2**1023, so a symmetric weight is kept as given
        with np.errstate(over="raise"):
            prob = rl.make_problem(
                n=1, m=1, T=1.0, generator=[[0.0]],
                coefficients=[[_scalar_coeffs(Q=[[1e308]], R=[[1e308]])]],
                G=[[[1e308]]], x0=[1.0], i0=0,
            )
        for name in ("Q", "R", "G"):
            assert prob.coefficients[name][0, 0, 0, 0] == 1e308, name

    def test_asymmetric_weight_rejected(self):
        Q = [[1.0, 0.3], [0.31, 1.0]]
        with pytest.raises(AsymmetricWeight):
            rl.make_problem(
                n=2, m=1, T=1.0, generator=[[0.0]],
                coefficients=[[{
                    "A": np.zeros((2, 2)), "B": np.zeros((2, 1)), "C": np.zeros((2, 2)),
                    "D": np.zeros((2, 1)), "Q": Q, "S": np.zeros((1, 2)), "R": [[1.0]],
                }]],
                G=[np.eye(2)], x0=[1.0, 0.0], i0=0,
            )

    def test_shape_guard(self):
        # the malformed cell is named by its segment index and 1-based regime label
        cell = lambda B: {
            "A": np.zeros((2, 2)), "B": B, "C": np.zeros((2, 2)),
            "D": np.zeros((2, 2)), "Q": np.eye(2), "S": np.zeros((2, 2)), "R": np.eye(2),
        }
        for segments, regimes, bad in ((1, 1, (0, 0)), (2, 2, (1, 1))):
            coefficients = [
                [cell(np.zeros((2, 3) if (j, k) == bad else (2, 2))) for k in range(regimes)]
                for j in range(segments)
            ]
            where = f"B (segment {bad[0]}, regime {bad[1] + 1})"
            with pytest.raises(DimensionMismatch, match=re.escape(where)):
                rl.make_problem(
                    n=2, m=2, T=1.0, generator=np.zeros((regimes, regimes)),
                    coefficients=coefficients, G=[np.eye(2)] * regimes, x0=[1.0, 0.0], i0=0,
                    breakpoints=np.linspace(0.0, 1.0, segments + 1),
                )

    def test_bad_breakpoints(self):
        with pytest.raises(BadSegments):
            rl.make_problem(
                n=1, m=1, T=1.0, generator=[[0.0]],
                coefficients=[[_scalar_coeffs()], [_scalar_coeffs()]],
                G=[[[1.0]]], x0=[1.0], i0=0,
                breakpoints=[0.0, 0.7, 0.5, 1.0][:3],
            )


class TestCoeffAt:
    def test_single_segment_constant(self):
        prob = scalar_analytic()
        a = coeff_at(prob, 0.0, 0)
        b = coeff_at(prob, 0.73, 0)
        assert a.tobytes() == b.tobytes()

    def test_right_continuous_at_breakpoint(self):
        prob = rl.make_problem(
            n=1, m=1, T=1.0, generator=[[0.0]],
            coefficients=[[_scalar_coeffs(A=1.0)], [_scalar_coeffs(A=2.0)]],
            G=[[[1.0]]], x0=[1.0], i0=0,
            breakpoints=[0.0, 0.5, 1.0],
        )
        assert coeff_at(prob, 0.5, 0).A[0, 0] == 2.0
        assert coeff_at(prob, 0.499999, 0).A[0, 0] == 1.0

    def test_terminal_maps_to_last_segment(self):
        prob = rl.make_problem(
            n=1, m=1, T=1.0, generator=[[0.0]],
            coefficients=[[_scalar_coeffs(A=1.0)], [_scalar_coeffs(A=2.0)]],
            G=[[[1.0]]], x0=[1.0], i0=0,
            breakpoints=[0.0, 0.5, 1.0],
        )
        assert coeff_at(prob, 1.0, 0).A[0, 0] == 2.0

    def test_out_of_horizon(self):
        prob = scalar_analytic()
        with pytest.raises(OutOfHorizon):
            coeff_at(prob, 1.5, 0)
        with pytest.raises(OutOfHorizon):
            coeff_at(prob, -0.1, 0)
        with pytest.raises(OutOfHorizon):
            coeff_at(prob, float("nan"), 0)
        with pytest.raises(OutOfHorizon):
            prob.segment_index(np.array([0.2, np.nan]))

    def test_deterministic(self):
        prob = scalar_analytic()
        a = coeff_at(prob, 0.3, 0)
        b = coeff_at(prob, 0.3, 0)
        np.testing.assert_array_equal(a.A, b.A)


@st.composite
def indexed_problems(draw):
    """A problem with n, m, D <= 3 and 1-3 segments, its input cells and times.

    Entries are small integers, and Q, R, G are symmetric, so the table holds
    the input exactly.  The times are random ones in [0, T] and every
    breakpoint, T included.
    """
    n, m, d, segments = (draw(st.integers(min_value=1, max_value=3)) for _ in range(4))
    T = draw(st.floats(min_value=0.25, max_value=4.0))
    inner = draw(st.lists(st.floats(min_value=0.0, max_value=T, exclude_min=True,
                                    exclude_max=True),
                          min_size=segments - 1, max_size=segments - 1, unique=True))
    breakpoints = [0.0, *sorted(inner), T]
    mat = lambda rows, cols: np.array(draw(st.lists(
        st.integers(min_value=-9, max_value=9), min_size=rows * cols, max_size=rows * cols
    )), dtype=np.float64).reshape(rows, cols)

    def sym(k):
        M = mat(k, k)
        return M + M.T

    cells = [[{"A": mat(n, n), "B": mat(n, m), "C": mat(n, n), "D": mat(n, m),
               "Q": sym(n), "S": mat(m, n), "R": sym(m)} for _ in range(d)]
             for _ in range(segments)]
    G = [sym(n) for _ in range(d)]
    prob = rl.make_problem(n=n, m=m, T=T, generator=np.zeros((d, d)), coefficients=cells,
                           G=G, x0=np.zeros(n), i0=0, breakpoints=breakpoints)
    times = draw(st.lists(st.floats(min_value=0.0, max_value=T), max_size=8))
    return prob, cells, G, np.array(times + breakpoints)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(indexed_problems())
def test_property_coefficients_at_reads_the_input_cells(instance):
    # right-continuous on [s_j, s_{j+1}), T read from the last segment, and
    # a scalar time gives the same stacks as that time in an array
    prob, cells, G, times = instance
    bp = prob.breakpoints
    at = prob.coefficients_at(times)
    for i, t in enumerate(times):
        j = max(s for s in range(prob.num_segments) if bp[s] <= t)
        one = prob.coefficients_at(float(t))
        for name in rl.Coefficients._fields:
            want = np.stack([cell[name] for cell in cells[j]])
            assert np.array_equal(getattr(at, name)[i], want)
            assert np.array_equal(getattr(one, name), want)
            assert np.array_equal(getattr(prob.coefficients, name)[j], want)
    assert np.array_equal(prob.G, np.stack(G))
    assert prob.segment_index(prob.T) == prob.num_segments - 1


@pytest.mark.parametrize("make", [
    scalar_analytic, two_regime_coupling, multidim_two_segment, lambda: random_convex(3),
], ids=["scalar", "two_regime", "multidim_two_segment", "random_convex_3"])
def test_without_control_zeroes_only_the_control(make):
    prob = make()
    before = prob.coefficients.tobytes()
    free = without_control(prob)
    assert prob.coefficients.tobytes() == before
    assert not free.coefficients.flags.writeable
    with pytest.raises(ValueError):
        free.coefficients["B"] = 1.0
    for name in ("B", "D", "S"):
        assert not free.coefficients[name].any()
    np.testing.assert_array_equal(
        free.coefficients.R, np.broadcast_to(np.eye(prob.m), free.coefficients.R.shape)
    )
    for name in ("A", "C", "Q", "G"):
        np.testing.assert_array_equal(free.coefficients[name], prob.coefficients[name])
    for field in dataclasses.fields(prob):
        if field.name != "coefficients":
            assert getattr(free, field.name) is getattr(prob, field.name)


class TestConfigRoundTrip:
    def test_round_trip_identity(self):
        prob = rl.make_problem(
            n=1, m=1, T=1.0, generator=[[-1.0, 1.0], [2.0, -2.0]],
            coefficients=[
                [_scalar_coeffs(A=0.1), _scalar_coeffs(A=0.2)],
                [_scalar_coeffs(A=0.3), _scalar_coeffs(A=0.4)],
            ],
            G=[[[1.0]], [[2.0]]], x0=[1.5], i0=1,
            breakpoints=[0.0, 0.25, 1.0],
        )
        cfg = problem_to_config(prob)
        prob2 = rl.problem_from_config(cfg)
        assert prob2.i0 == prob.i0
        np.testing.assert_array_equal(prob2.breakpoints, prob.breakpoints)
        np.testing.assert_array_equal(prob2.generator.rates, prob.generator.rates)
        for j in range(prob.num_segments):
            for k in range(prob.num_regimes):
                for name in ("A", "B", "C", "D", "Q", "S", "R", "G"):
                    np.testing.assert_array_equal(
                        getattr(prob2.coefficients[j][k], name),
                        getattr(prob.coefficients[j][k], name),
                    )
        # second round trip is byte-stable
        assert problem_to_config(prob2) == cfg

    def test_one_based_regime_labels_in_config(self):
        prob = scalar_analytic()
        cfg = problem_to_config(prob)
        assert cfg["i0"] == 1
        assert set(cfg["G"].keys()) == {"1"}
