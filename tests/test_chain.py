"""Chain module: generator validation, exact simulation, the step law
exp(hQ), martingale statistics."""

import mpmath
import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings, strategies as st

import regimelq as rl
from regimelq.chain import (
    _first_node_at_or_after,
    _next_regimes,
    expm,
    sample_regimes_on_grid,
)
from regimelq.errors import DimensionMismatch, EmptySample, NegativeOffDiagonal, ValidationError
from regimelq.streams import derive_rng, derive_seed

from chain_reference import (
    martingale_residual,
    reference_jump_rounds,
    reference_regimes_on_grid,
)


class TestValidateGenerator:
    def test_valid_two_state(self):
        gen = rl.validate_generator([[-2.0, 2.0], [1.0, -1.0]])
        assert gen.size == 2
        np.testing.assert_array_equal(gen.rates, [[-2.0, 2.0], [1.0, -1.0]])

    def test_zero_generator_accepted(self):
        gen = rl.validate_generator([[0.0, 0.0], [0.0, 0.0]])
        assert not np.any(gen.rates)

    def test_diagonal_repaired(self):
        # row 1 sums to 1, so its diagonal is recomputed to -2
        gen = rl.validate_generator([[-1.0, 2.0], [1.0, -1.0]])
        np.testing.assert_allclose(gen.rates, [[-2.0, 2.0], [1.0, -1.0]])
        assert np.allclose(gen.rates.sum(axis=1), 0.0)

    def test_negative_off_diagonal(self):
        with pytest.raises(NegativeOffDiagonal):
            rl.validate_generator([[-1.0, -0.5], [1.0, -1.0]])

    @pytest.mark.parametrize("rate", [float("inf"), float("nan")])
    def test_non_finite_rate_is_not_a_negative_rate(self, rate):
        with pytest.raises(ValidationError, match="non-finite") as caught:
            rl.validate_generator([[-1.0, rate], [1.0, -1.0]])
        assert type(caught.value) is ValidationError

    def test_not_square(self):
        with pytest.raises(DimensionMismatch):
            rl.validate_generator([[0.0, 0.0]])


class TestSampleChainPath:
    def test_zero_generator_never_jumps(self):
        gen = rl.validate_generator([[0.0]])
        paths = rl.sample_chain_paths(gen, 0, 0.0, 5.0, derive_rng(1), 20)
        assert all(len(p.jump_times) == 0 for p in paths)
        assert all(p.regime_at(3.0) == 0 for p in paths)

    def test_absorbing_state_stops(self):
        gen = rl.validate_generator([[-3.0, 3.0], [0.0, 0.0]])
        paths = rl.sample_chain_paths(gen, 0, 0.0, 100.0, derive_rng(2), 200)
        assert all(len(p.jump_times) == 1 and p.states[0] == 1 for p in paths)

    def test_path_invariants(self):
        gen = rl.validate_generator([[-2.0, 2.0], [2.0, -2.0]])
        for path in rl.sample_chain_paths(gen, 0, 0.0, 1.0, derive_rng(3), 200):
            assert np.all(np.diff(path.jump_times) > 0)
            assert np.all(path.jump_times > 0.0) and np.all(path.jump_times <= 1.0)
            seq = np.concatenate(([path.initial_regime], path.states))
            assert np.all(seq[:-1] != seq[1:])

    def test_holding_time_mean(self):
        # first holding time in state 0 is Exponential(2): mean 0.5
        gen = rl.validate_generator([[-2.0, 2.0], [2.0, -2.0]])
        n = 20_000
        paths = rl.sample_chain_paths(gen, 0, 0.0, 10.0, derive_rng(4), n)
        first = np.array([p.jump_times[0] for p in paths])
        assert abs(first.mean() - 0.5) <= 3.0 * 0.5 / np.sqrt(n)

    def test_deterministic_given_seed(self):
        gen = rl.validate_generator([[-2.0, 2.0], [1.0, -1.0]])
        (a,) = rl.sample_chain_paths(gen, 0, 0.0, 1.0, derive_rng(5), 1)
        (b,) = rl.sample_chain_paths(gen, 0, 0.0, 1.0, derive_rng(5), 1)
        np.testing.assert_array_equal(a.jump_times, b.jump_times)
        np.testing.assert_array_equal(a.states, b.states)


class TestBatchSampler:
    def test_occupation_mean_matches_exact(self):
        # occupation fraction of state 0 for the symmetric rate-2 chain is 1/2
        gen = rl.validate_generator([[-2.0, 2.0], [2.0, -2.0]])
        paths = rl.sample_chain_paths(gen, 0, 0.0, 1.0, derive_rng(6), 40_000)
        occ0 = np.array([p.occupation_times(2)[0] for p in paths])
        # exact mean occupation: 1/2 + (1 - e^{-4}) / 8 for the start-at-0 chain
        exact = 0.5 + (1.0 - np.exp(-4.0)) / 8.0
        assert abs(occ0.mean() - exact) <= 3.0 * occ0.std(ddof=1) / np.sqrt(len(occ0))

    def test_deterministic_given_seed(self):
        gen = rl.validate_generator([[-2.0, 2.0], [1.0, -1.0]])
        a = rl.sample_chain_paths(gen, 0, 0.0, 1.0, derive_rng(7), 50)
        b = rl.sample_chain_paths(gen, 0, 0.0, 1.0, derive_rng(7), 50)
        for pa, pb in zip(a, b):
            np.testing.assert_array_equal(pa.jump_times, pb.jump_times)
            np.testing.assert_array_equal(pa.states, pb.states)

    @pytest.mark.parametrize(
        "i0, t0, T, n_paths",
        [(-1, 0.0, 1.0, 5), (2, 0.0, 1.0, 5), (0, 1.0, 1.0, 5), (0, 2.0, 1.0, 5), (0, 0.0, 1.0, 0)],
    )
    def test_bad_arguments_rejected(self, i0, t0, T, n_paths):
        gen = rl.validate_generator([[-2.0, 2.0], [1.0, -1.0]])
        with pytest.raises(ValidationError):
            rl.sample_chain_paths(gen, i0, t0, T, derive_rng(8), n_paths)
        with pytest.raises(ValidationError):
            rl.sample_regimes_on_grid(gen, i0, np.array([t0, T]), derive_rng(8), n_paths)


class TestCountingProcess:
    def test_regimes_on_grid_right_continuous(self):
        path = rl.ChainPath(
            initial_regime=0,
            jump_times=np.array([0.25, 0.5]),
            states=np.array([1, 0]),
            t0=0.0,
            T=1.0,
        )
        times = np.array([0.0, 0.25, 0.4, 0.5, 1.0])
        np.testing.assert_array_equal(path.regimes_on_grid(times), [0, 1, 1, 0, 0])

    def test_occupation_and_counts(self):
        path = rl.ChainPath(
            initial_regime=0,
            jump_times=np.array([0.25, 0.5]),
            states=np.array([1, 0]),
            t0=0.0,
            T=1.0,
        )
        np.testing.assert_allclose(path.occupation_times(2), [0.75, 0.25])
        counts = path.jump_counts(2)
        np.testing.assert_array_equal(counts, [[0, 1], [1, 0]])


class TestMartingaleResidual:
    def test_zero_generator_exact(self):
        gen = rl.validate_generator([[0.0, 0.0], [0.0, 0.0]])
        paths = rl.sample_chain_paths(gen, 0, 0.0, 1.0, derive_rng(8), 50)
        res = martingale_residual(paths, gen, 1.0)
        np.testing.assert_array_equal(res.mean, np.zeros((2, 2)))

    def test_symmetric_chain_within_three_stderr(self):
        gen = rl.validate_generator([[-1.0, 1.0], [1.0, -1.0]])
        paths = rl.sample_chain_paths(gen, 0, 0.0, 1.0, derive_rng(9), 100_000)
        res = martingale_residual(paths, gen, 1.0)
        assert res.max_zscore() <= 3.0

    def test_compensator_identity(self):
        # E[N_01(1)] equals E[rate_01 * occupation of state 0]
        gen = rl.validate_generator([[-2.0, 2.0], [2.0, -2.0]])
        paths = rl.sample_chain_paths(gen, 0, 0.0, 1.0, derive_rng(10), 100_000)
        counts = np.array([p.jump_counts(2)[0, 1] for p in paths])
        comp = np.array([2.0 * p.occupation_times(2)[0] for p in paths])
        diff = counts - comp
        assert abs(diff.mean()) <= 3.0 * diff.std(ddof=1) / np.sqrt(len(diff))

    def test_single_path_stderr_flagged(self):
        gen = rl.validate_generator([[-1.0, 1.0], [1.0, -1.0]])
        res = martingale_residual(
            rl.sample_chain_paths(gen, 0, 0.0, 1.0, derive_rng(11), 1), gen, 1.0
        )
        assert res.n == 1
        assert np.all(np.isfinite(res.mean))
        assert np.all(np.isnan(res.stderr))

    def test_empty_sample(self):
        gen = rl.validate_generator([[0.0]])
        with pytest.raises(EmptySample):
            martingale_residual([], gen, 1.0)


@st.composite
def generators(draw, max_states=4, max_rate=5.0):
    d = draw(st.integers(min_value=2, max_value=max_states))
    entries = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=max_rate),
            min_size=d * d,
            max_size=d * d,
        )
    )
    raw = np.array(entries).reshape(d, d)
    np.fill_diagonal(raw, 0.0)
    raw[np.diag_indices(d)] = -raw.sum(axis=1)
    return raw


@settings(max_examples=10, deadline=None, derandomize=True)
@given(generators())
def test_property_compensated_counts_mean_zero(raw):
    gen = rl.validate_generator(raw)
    seed = derive_seed(12, raw.tobytes().hex())
    paths = rl.sample_chain_paths(gen, 0, 0.0, 1.0, derive_rng(seed), 4000)
    for p in paths[:50]:
        assert np.all(np.diff(p.jump_times) > 0)
        assert np.all((p.jump_times > 0.0) & (p.jump_times <= 1.0))
        seq = np.concatenate(([p.initial_regime], p.states))
        assert np.all(seq[:-1] != seq[1:])
    res = martingale_residual(paths, gen, 1.0)
    assert res.max_zscore() <= 3.0


@settings(max_examples=20, deadline=None, derandomize=True)
@given(generators())
@example(np.array([[-3.0, 3.0], [0.0, 0.0]]))  # absorbing second state
@example(np.array([[0.0, 0.0], [0.0, 0.0]]))  # no jumps at all
def test_property_grid_sampler_matches_projected_paths(raw):
    # same stream: the grid sampler equals regimes_on_grid of each batch path
    gen = rl.validate_generator(raw)
    seed = derive_seed(13, raw.tobytes().hex())
    times = np.linspace(0.0, 1.0, 17)
    grid = rl.sample_regimes_on_grid(gen, 0, times, derive_rng(seed), 300)
    paths = rl.sample_chain_paths(gen, 0, 0.0, 1.0, derive_rng(seed), 300)
    np.testing.assert_array_equal(grid, [p.regimes_on_grid(times) for p in paths])


@pytest.mark.parametrize("d, dtype", [(2, np.int8), (128, np.int8), (129, np.int16)])
def test_grid_regimes_take_the_smallest_signed_type(d, dtype):
    # fast swaps between the end regimes make per-node changes of +-(D-1),
    # the widest value the narrow type has to hold
    rates = np.full((d, d), 1.0 / d)
    rates[0, d - 1] = rates[d - 1, 0] = 6.0
    gen = rl.validate_generator(rates)
    times = np.linspace(0.0, 1.0, 5)
    grid = rl.sample_regimes_on_grid(gen, d - 1, times, derive_rng(d), 40)
    paths = rl.sample_chain_paths(gen, d - 1, 0.0, 1.0, derive_rng(d), 40)
    assert grid.dtype == dtype
    assert grid.min() == 0 and grid.max() == d - 1
    np.testing.assert_array_equal(grid, [p.regimes_on_grid(times) for p in paths])


EPS = np.finfo(np.float64).eps


@st.composite
def sampler_instances(draw):
    """A generator, a start, a grid and a stream for the grid sampler.

    D = 1..6 with rates from 1e-3 to 1e3, some rates zero and some rows
    absorbing.  The grid is uniform, randomly spaced, or a uniform grid with
    nodes put exactly on drawn jump times or one ulp either side of them,
    which are known before the grid because the draws depend on the grid's
    end points only.
    """
    d = draw(st.integers(min_value=1, max_value=6))
    exponents = np.array(draw(st.lists(
        st.floats(min_value=-3.0, max_value=3.0), min_size=d * d, max_size=d * d
    ))).reshape(d, d)
    live = np.array(draw(st.lists(st.booleans(), min_size=d * d, max_size=d * d)))
    raw = np.where(live.reshape(d, d), 10.0**exponents, 0.0)
    raw[np.array(draw(st.lists(st.booleans(), min_size=d, max_size=d)))] = 0.0
    np.fill_diagonal(raw, 0.0)
    np.fill_diagonal(raw, -raw.sum(axis=1))
    gen = rl.validate_generator(raw)
    i0 = draw(st.integers(min_value=0, max_value=d - 1))
    t0 = draw(st.sampled_from([0.0, 0.3]))
    T = t0 + draw(st.floats(min_value=0.05, max_value=2.0))
    N = draw(st.integers(min_value=1, max_value=40))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    n_paths = draw(st.integers(min_value=1, max_value=30))
    times = np.linspace(t0, T, N + 1)
    kind = draw(st.sampled_from(["uniform", "spaced", "on-jump", "ulp-below", "ulp-above"]))
    if kind == "spaced":
        weights = 10.0 ** np.random.default_rng(seed).uniform(-2.0, 1.0, N)
        inner = t0 + (T - t0) * np.cumsum(weights)[:-1] / weights.sum()
        times = np.unique(np.concatenate([[t0, T], np.clip(inner, t0, T)]))
    elif kind != "uniform":
        rounds = reference_jump_rounds(gen, i0, t0, T, np.random.default_rng(seed), n_paths)
        jumps = np.concatenate([t_jump for _, t_jump, _, _ in rounds] or [np.empty(0)])
        picked = jumps[: draw(st.integers(min_value=1, max_value=5))]
        if kind != "on-jump":
            picked = np.nextafter(picked, -np.inf if kind == "ulp-below" else np.inf)
        times = np.unique(np.concatenate([times, picked[(picked > t0) & (picked < T)]]))
    return gen, i0, times, seed, n_paths


@settings(max_examples=80, deadline=None, derandomize=True)
@given(sampler_instances())
def test_property_grid_sampler_matches_plain_reference(instance):
    # holding times as scaled standard exponentials, the next regime by
    # counting columns and the jump node walked from an estimate draw what
    # rng.exponential, argmax and searchsorted draw, and leave the stream
    # where they leave it
    gen, i0, times, seed, n_paths = instance
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got = sample_regimes_on_grid(gen, i0, times, rng, n_paths)
    np.testing.assert_array_equal(got, reference_regimes_on_grid(gen, i0, times, ref_rng, n_paths))
    assert rng.random() == ref_rng.random()
    # every node, and each node's neighbours one ulp away, that lies in the grid's span
    probes = np.concatenate([times, np.nextafter(times, -np.inf), np.nextafter(times, np.inf)])
    probes = probes[(probes >= times[0]) & (probes <= times[-1])]
    step = (times[-1] - times[0]) / (len(times) - 1)
    np.testing.assert_array_equal(
        _first_node_at_or_after(times, probes, step), np.searchsorted(times, probes, side="left")
    )


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=2**32 - 1))
def test_property_next_regime_count_equals_first_true_argmax(d, seed):
    # u on a row's entries, just below and past its last entry, and rows
    # that sum to one ulp short of 1, where argmax of an all-false row gives 0
    rng = np.random.default_rng(seed)
    cum = np.cumsum(rng.dirichlet(np.ones(d), size=d) * rng.integers(0, 2, (d, d)), axis=1)
    cum[:, -1] = rng.choice([1.0, np.nextafter(1.0, 0.0), cum[:, -1].min()], size=d)
    cum = np.maximum.accumulate(cum, axis=1)
    prev = rng.integers(0, d, 200)
    u = np.concatenate([
        rng.random(50), cum[prev[50:100], rng.integers(0, d, 50)],
        np.nextafter(cum[prev[100:150], -1], 0.0), cum[prev[150:], -1],
    ])
    np.testing.assert_array_equal(
        _next_regimes(cum.T.copy(), prev, u), (u[:, None] < cum[prev]).argmax(axis=1)
    )


def _random_generator(rng, d):
    """A D-state generator whose rates span 1e-3 to 1e4."""
    Q = rng.random((d, d)) * 10.0 ** rng.uniform(-3.0, 4.0, (d, d))
    np.fill_diagonal(Q, 0.0)
    np.fill_diagonal(Q, -Q.sum(axis=1))
    return Q


def _exponent_cases(count, seed):
    """Generator steps h Q and moment matrices (diag(g) + Q') dt, 1-norm <= 100."""
    rng = np.random.default_rng(seed)
    cases = []
    while len(cases) < count:
        d = int(rng.integers(2, 9))
        Q = _random_generator(rng, d)
        if len(cases) % 2:
            A = (np.diag(rng.normal(0.0, 2.0, d)) + Q.T) * 10.0 ** rng.uniform(-4.0, 0.0)
        else:
            A = Q * 10.0 ** rng.uniform(-4.0, 1.0)
        if np.abs(A).sum(axis=0).max() <= 100.0:
            cases.append(A)
    return cases


def _assert_close_to(E, want):
    assert np.max(np.abs(E - want)) <= 1e-12 * np.max(np.abs(want))


class TestExpm:
    def test_matches_a_40_digit_reference(self):
        for A in _exponent_cases(40, 11):
            with mpmath.workdps(40):
                want = mpmath.expm(mpmath.matrix(A.tolist())).tolist()
            _assert_close_to(expm(A), np.array(want, dtype=np.float64))

    def test_matches_scipy(self):
        for A in _exponent_cases(400, 12):
            _assert_close_to(expm(A), scipy.linalg.expm(A))

    def test_zero_and_diagonal_matrices(self):
        np.testing.assert_array_equal(expm(np.zeros((3, 3))), np.eye(3))
        # s = 3 halvings here; each squaring can double a relative rounding
        g = np.array([-2.0, 0.0, 0.5])
        E = expm(np.diag(g))
        np.testing.assert_array_equal(E, np.diag(np.diag(E)))
        np.testing.assert_allclose(np.diag(E), np.exp(g), rtol=16 * EPS)


class TestTransition:
    def test_is_a_stochastic_matrix(self):
        rng = np.random.default_rng(13)
        for A in _exponent_cases(400, 14)[::2]:  # the generator steps
            scale = float(rng.uniform(0.1, 1.0))
            P = rl.validate_generator(A / scale).transition(scale)
            assert np.all(P >= 0.0)
            assert np.max(np.abs(P.sum(axis=1) - 1.0)) <= 64 * EPS
            _assert_close_to(P, scipy.linalg.expm(A))

    def test_two_state_closed_form(self):
        # P(stay in 1) = (b + a e^{-(a+b)h}) / (a + b) for rates a = 1->2, b = 2->1
        a, b, h = 0.3, 0.4, 2.5
        P = rl.validate_generator([[-a, a], [b, -b]]).transition(h)
        assert P[0, 0] == pytest.approx((b + a * np.exp(-(a + b) * h)) / (a + b), rel=1e-14)
        assert P[1, 1] == pytest.approx((a + b * np.exp(-(a + b) * h)) / (a + b), rel=1e-14)

    def test_exact_sampler_steps_by_the_transition_law(self):
        # the kernel's exact chain and the sweep's regime step, across one
        # step with rate * h near 1: node-to-node frequencies of 200 000
        # paths per starting regime within 4 standard errors of exp(hQ)
        gen = rl.validate_generator([[-1.2, 0.7, 0.5], [0.4, -0.9, 0.5], [1.0, 0.3, -1.3]])
        h, n = 1.0, 200_000
        P = gen.transition(h)
        for k in range(gen.size):
            ends = sample_regimes_on_grid(gen, k, np.array([0.0, h]), derive_rng(7, "step", k), n)
            freq = np.bincount(ends[:, 1], minlength=gen.size) / n
            stderr = np.sqrt(P[k] * (1.0 - P[k]) / n)
            assert np.all(np.abs(freq - P[k]) <= 4.0 * stderr), (k, freq, P[k])
