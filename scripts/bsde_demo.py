"""Regression solve of the bundled random-coefficient model.

Shows the fitted value surface P(0, regime, y) on a few driver values and,
for a y-independent copy of the model, the agreement with the ODE solver.
"""

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from regimelq import backward_regression_solve, generate_training_paths, solve_riccati
from regimelq.bsde import constant_problem, model_from_config

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--config", default=str(ROOT / "configs" / "random_coeff.json"))
    parser.add_argument("--paths", type=int, default=50_000)
    parser.add_argument("--steps", type=int, default=100)
    parser.add_argument("--seed", type=int, default=42)
    args = parser.parse_args()

    model = model_from_config(json.loads(Path(args.config).read_text()))
    bundle = generate_training_paths(model, args.paths, args.steps, args.seed)
    sol = backward_regression_solve(model, bundle, degree=3)
    mid = args.steps // 2
    t_mid = sol.times[mid]
    print(f"value surface at t={t_mid:g} (driver varies there; at t=0 it is fixed at y0):")
    for k in range(model.num_regimes):
        row = [sol.value_single(mid, k, y) for y in (-1.0, 0.0, 1.0)]
        print(f"  regime {k + 1}: P(t, y=-1,0,1) = " + ", ".join(f"{v:.5f}" for v in row))
    print(f"P(0, regime {model.i0 + 1}, y0) = {sol.value_single(0, model.i0, model.y0):.6f}")

    # frozen-slope copy: regression vs the coupled ODE solve
    frozen = replace(model, slope=np.zeros_like(model.slope))
    oracle = solve_riccati(constant_problem(frozen), 1000)
    fbundle = generate_training_paths(frozen, args.paths, args.steps, args.seed + 1)
    fsol = backward_regression_solve(frozen, fbundle, degree=3)
    print("y-independent reduction vs ODE solve:")
    for k in range(frozen.num_regimes):
        got = fsol.value_single(0, k, frozen.y0)
        want = float(oracle.P[0, k, 0, 0])
        print(f"  regime {k + 1}: regression {got:.6f}, ODE {want:.6f}, "
              f"rel err {abs(got - want) / abs(want):.2e}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
