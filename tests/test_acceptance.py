"""Acceptance suite: the ten exit criteria at their stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail
line per criterion.  Criteria 4 and 7-9 are Monte Carlo checks at
100_000-path scale; the whole module runs in a few minutes.
"""

import time
from pathlib import Path

import numpy as np

import regimelq as rl
from regimelq.bsde import constant_problem
from regimelq.cli import main as cli_main
from regimelq.errors import NumericalError, SingularRhat
from regimelq.verify import stationarity_check

from canonical import (
    TWO_REGIME_P0,
    canonical_problems,
    nonconvex,
    one_regime_market,
    scalar_analytic,
    scalar_p_exact,
    two_regime_coupling,
)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def _report(criterion: str, passed: bool, detail: str) -> None:
    print(f"{'PASS' if passed else 'FAIL'} {criterion}: {detail}")
    assert passed, f"{criterion}: {detail}"


def test_criterion_01_scalar_analytic_riccati():
    prob = scalar_analytic()
    t0 = time.perf_counter()
    grid = rl.solve_riccati(prob, 200)
    elapsed = time.perf_counter() - t0
    err = float(np.max(np.abs(grid.P[:, 0, 0, 0] - scalar_p_exact(grid.times))))
    _report(
        "criterion 1 (scalar analytic Riccati)",
        err <= 1e-8 and elapsed < 0.1,
        f"max node error {err:.2e} (<= 1e-8), runtime {elapsed * 1e3:.0f} ms (< 100 ms)",
    )


def test_criterion_02_regime_coupling():
    grid = rl.solve_riccati(two_regime_coupling(), 200)
    e1 = abs(float(grid.P[0, 0, 0, 0]) - TWO_REGIME_P0[0])
    e2 = abs(float(grid.P[0, 1, 0, 0]) - TWO_REGIME_P0[1])
    _report(
        "criterion 2 (regime coupling)",
        e1 <= 1e-8 and e2 <= 1e-8,
        f"|P1(0)-(1+e^-2)| = {e1:.2e}, |P2(0)-(1-e^-2)| = {e2:.2e} (<= 1e-8)",
    )


def test_criterion_03_rhat_certificate_and_nonconvex_detection():
    eps_hats = {}
    for name, prob in canonical_problems().items():
        eps_hats[name] = rl.rhat_certificate(rl.solve_riccati(prob, 200))
    all_positive = all(v > 0.0 for v in eps_hats.values())

    detected = None
    try:
        rl.solve_riccati(nonconvex(), 200)
    except (SingularRhat, NumericalError) as exc:
        detected = f"solve failed with {type(exc).__name__}"
    if detected is None:
        probe = rl.convexity_probe(nonconvex(), 8, 10_000, 3003, N=200)
        if probe.statistic < 0.0:
            detected = f"probe ratio {probe.statistic:.3f} < 0"
    _report(
        "criterion 3 (Rhat certificate)",
        all_positive and detected is not None,
        f"eps_hat {dict((k, round(v, 6)) for k, v in eps_hats.items())}, "
        f"non-convex instance: {detected}",
    )


def test_criterion_04_value_identity():
    details = []
    ok = True
    for name, prob in canonical_problems().items():
        grid = rl.solve_riccati(prob, 200)
        t0 = time.perf_counter()
        check = rl.value_identity_check(prob, grid, 100_000, 4004)
        elapsed = time.perf_counter() - t0
        ok = ok and check.passed and elapsed < 30.0
        details.append(
            f"{name}: |stat| {abs(check.statistic):.2e} <= "
            f"3se+allow {check.tolerance:.2e}, {elapsed:.1f}s"
        )
    _report("criterion 4 (value identity)", ok, "; ".join(details))


def test_criterion_05_stationarity():
    # every canonical problem has n = 1, where the path statistic
    # |Shat X + Rhat u| / max|X| is at most this one
    worst = 0.0
    for prob in canonical_problems().values():
        check = stationarity_check(prob, rl.solve_riccati(prob, 200), 5005)
        worst = max(worst, check.statistic)
    _report(
        "criterion 5 (stationarity)",
        worst <= 1e-8,
        f"max ||Shat + Rhat Theta||_F over nodes and midpoints = {worst:.2e} "
        "(<= 1e-8, zero statistical slack)",
    )


def test_criterion_06_perturbation_optimality():
    details = []
    ok = True
    for name, prob in canonical_problems().items():
        grid = rl.solve_riccati(prob, 200)
        check = rl.perturbation_test(prob, grid, 10, 10_000, 6006)
        ok = ok and check.passed
        details.append(f"{name}: min delta {min(check.details['deltas']):.3e}")
    _report(
        "criterion 6 (open-loop optimality, K=10, common random numbers)",
        ok, "; ".join(details),
    )


def test_criterion_07_lyapunov_representation():
    details = []
    ok = True
    for name, prob in canonical_problems().items():
        lyap = rl.lyapunov_solve(prob, 200)
        check = rl.lyapunov_identity_check(prob, lyap, 100_000, 7007)
        ok = ok and check.passed
        details.append(
            f"{name}: |stat| {abs(check.statistic):.2e} <= {check.tolerance:.2e}"
        )
    _report("criterion 7 (Lyapunov representation, zero control)", ok, "; ".join(details))


def test_criterion_08_bsde_oracle_equivalence():
    coeffs = [
        {"A": (0.1, 0.0), "B": (0.3, 0.0), "C": (0.0, 0.0), "D": (0.2, 0.0),
         "Q": (0.2, 0.0), "S": (0.0, 0.0), "R": (1.0, 0.0), "G": (1.0, 0.0)},
        {"A": (0.05, 0.0), "B": (0.2, 0.0), "C": (0.1, 0.0), "D": (0.1, 0.0),
         "Q": (0.3, 0.0), "S": (0.0, 0.0), "R": (0.8, 0.0), "G": (0.6, 0.0)},
    ]
    model = rl.make_model(
        T=1.0, generator=[[-0.3, 0.3], [0.4, -0.4]], i0=0,
        kappa=1.0, theta_bar=0.0, nu=0.5, y0=0.0, y_range=(-3.0, 3.0),
        coeffs=coeffs,
    )
    oracle = rl.solve_riccati(constant_problem(model), 2000)
    t0 = time.perf_counter()
    bundle = rl.generate_training_paths(model, 100_000, 100, 8008)
    sol = rl.backward_regression_solve(model, bundle, degree=3)
    elapsed = time.perf_counter() - t0
    rels = []
    for k in range(2):
        want = float(oracle.P[0, k, 0, 0])
        rels.append(abs(sol.value_single(0, k, model.y0) - want) / abs(want))
    _report(
        "criterion 8 (regression/ODE oracle equivalence)",
        max(rels) <= 5e-3 and elapsed < 120.0,
        f"relative errors {[f'{r:.2e}' for r in rels]} (<= 5e-3), {elapsed:.0f}s (< 120s)",
    )


def test_criterion_09_mean_variance_frontier():
    market = one_regime_market()
    points, grid = rl.efficient_frontier(market, [1.2], N=200)
    point = points[0]
    closed_form = (1.2 - np.exp(0.06)) ** 2 / (np.exp(0.09) - 1.0)
    var_err = abs(point.variance - closed_form)
    rho = point.rho
    p0 = float(grid.P[0, market.i0, 0, 0])
    dual_rel = abs(rho * point.xtilde0**2 - p0 * point.xtilde0**2) / (
        p0 * point.xtilde0**2
    )
    checks = rl.mv_simulate_check(market, point, 100_000, 9009, grid)
    mc_ok = all(c.passed for c in checks)
    _report(
        "criterion 9 (mean-variance frontier)",
        var_err <= 1e-6 and dual_rel <= 1e-8 and mc_ok,
        f"|Var - closed form| = {var_err:.2e} (<= 1e-6), duality rel {dual_rel:.2e} "
        f"(<= 1e-8), MC mean/variance checks {'pass' if mc_ok else 'fail'}",
    )


def test_criterion_10_verify_determinism(tmp_path):
    args = [
        "verify", "--config", str(CONFIGS / "two_regime.json"),
        "--grid", "100", "--paths", "5000", "--seed", "1010",
    ]
    payloads = []
    for name, workers in (("run1", "1"), ("run2", "1"), ("run4", "4")):
        out = tmp_path / name
        rc = cli_main(args + ["--out", str(out), "--workers", workers])
        assert rc == 0
        payloads.append((out / "verify_report.json").read_bytes())
    identical = payloads[0] == payloads[1] == payloads[2]
    _report(
        "criterion 10 (verify determinism)",
        identical,
        "byte-identical reports across repeated runs and workers in {1, 4}",
    )
