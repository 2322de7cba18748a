"""Mean-variance frontier sweep on the bundled one-regime market.

Prints the frontier table with the duality cross-check and a Monte Carlo
confirmation of the last point.
"""

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from regimelq import efficient_frontier, market_from_config, mv_simulate_check

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--config", default=str(ROOT / "configs" / "market_one_regime.json"))
    parser.add_argument("--paths", type=int, default=50_000)
    parser.add_argument("--seed", type=int, default=42)
    args = parser.parse_args()

    market, targets = market_from_config(json.loads(Path(args.config).read_text()))
    if not targets:
        targets = list(np.linspace(1.08, 1.20, 5))
    points, grid = efficient_frontier(market, targets, N=200)

    print(f"{'d':>8} {'mu':>10} {'gamma':>10} {'variance':>12} {'dual check':>12}")
    for p in points:
        print(
            f"{p.d:8.4f} {p.mu:10.5f} {p.gamma:10.5f} "
            f"{p.variance:12.4e} {p.riccati_value_check:12.4e}"
        )

    mean_check, var_check = mv_simulate_check(market, points[-1], args.paths, args.seed, grid)
    print(
        f"MC at d={points[-1].d}: mean={mean_check.details['mc_mean']:.5f} "
        f"(target {points[-1].d}), var={var_check.details['mc_var']:.5f} "
        f"(target {points[-1].variance:.5f})"
    )
    return 0 if mean_check.passed and var_check.passed else 1


if __name__ == "__main__":
    sys.exit(main())
