"""Model module: validation, symmetrization, segment lookup, config round trip."""

import numpy as np
import pytest

import regimelq as rl
from regimelq.errors import (
    AsymmetricWeight,
    BadSegments,
    DimensionMismatch,
    OutOfHorizon,
)

from canonical import scalar_analytic


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
        with pytest.raises(DimensionMismatch):
            rl.make_problem(
                n=2, m=2, T=1.0, generator=[[0.0]],
                coefficients=[[{
                    "A": np.zeros((2, 2)), "B": np.zeros((2, 3)), "C": np.zeros((2, 2)),
                    "D": np.zeros((2, 2)), "Q": np.eye(2), "S": np.zeros((2, 2)),
                    "R": np.eye(2),
                }]],
                G=[np.eye(2)], x0=[1.0, 0.0], i0=0,
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
        a = rl.coeff_at(prob, 0.0, 0)
        b = rl.coeff_at(prob, 0.73, 0)
        assert a is b

    def test_right_continuous_at_breakpoint(self):
        prob = rl.make_problem(
            n=1, m=1, T=1.0, generator=[[0.0]],
            coefficients=[[_scalar_coeffs(A=1.0)], [_scalar_coeffs(A=2.0)]],
            G=[[[1.0]]], x0=[1.0], i0=0,
            breakpoints=[0.0, 0.5, 1.0],
        )
        assert rl.coeff_at(prob, 0.5, 0).A[0, 0] == 2.0
        assert rl.coeff_at(prob, 0.499999, 0).A[0, 0] == 1.0

    def test_terminal_maps_to_last_segment(self):
        prob = rl.make_problem(
            n=1, m=1, T=1.0, generator=[[0.0]],
            coefficients=[[_scalar_coeffs(A=1.0)], [_scalar_coeffs(A=2.0)]],
            G=[[[1.0]]], x0=[1.0], i0=0,
            breakpoints=[0.0, 0.5, 1.0],
        )
        assert rl.coeff_at(prob, 1.0, 0).A[0, 0] == 2.0

    def test_out_of_horizon(self):
        prob = scalar_analytic()
        with pytest.raises(OutOfHorizon):
            rl.coeff_at(prob, 1.5, 0)
        with pytest.raises(OutOfHorizon):
            rl.coeff_at(prob, -0.1, 0)
        with pytest.raises(OutOfHorizon):
            rl.coeff_at(prob, float("nan"), 0)
        with pytest.raises(OutOfHorizon):
            prob.segment_index(np.array([0.2, np.nan]))

    def test_deterministic(self):
        prob = scalar_analytic()
        a = rl.coeff_at(prob, 0.3, 0)
        b = rl.coeff_at(prob, 0.3, 0)
        np.testing.assert_array_equal(a.A, b.A)


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
        cfg = rl.problem_to_config(prob)
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
        assert rl.problem_to_config(prob2) == cfg

    def test_one_based_regime_labels_in_config(self):
        prob = scalar_analytic()
        cfg = rl.problem_to_config(prob)
        assert cfg["i0"] == 1
        assert set(cfg["G"].keys()) == {"1"}
