"""Command-line entry point: config ingestion, solver dispatch, artifact emission.

Subcommands: ``solve`` (Riccati grid to CSV), ``simulate`` (MC cost estimate
to JSON), ``verify`` (full check report to JSON), ``frontier`` (mean-variance
sweep to CSV), ``bsde`` (regression solve to CSV).

Exit codes: 0 success, 1 validation error (an unusable output path too), 2
numerical failure, 3 at least one verification check failed.  A command runs
with numpy's overflow, division-by-zero and invalid-operation errors raised
(underflow is left alone), so a floating-point fault is a numerical failure
too.  Errors are printed as single-line JSON on stderr.  Seeds are mandatory;
outputs embed the config hash, seed and tool version and are byte-identical
for identical invocations, independent of ``--workers``.

Parallelism: ``--workers`` lanes run path chunks on threads, and they are
the only parallelism.  When this module is the first to load numpy and none
of ``OMP_NUM_THREADS``, ``OPENBLAS_NUM_THREADS`` and ``MKL_NUM_THREADS`` is
set, it sets ``OMP_NUM_THREADS=1`` before that import, so BLAS runs one
thread per lane instead of stacking its own threads on the lanes (an idle
OpenBLAS thread busy-waits).  Any of the three variables overrides it.
Library use, with numpy imported first, keeps numpy's default.  The
artifacts do not depend on the BLAS thread count.

Start-up: importing this module loads numpy and the package's ``errors``
only; each command imports the engine modules it runs when it runs.  So
``bsde`` loads ``bsde``, ``chain``, ``model`` and ``streams``, ``solve`` on
a problem config adds ``riccati`` instead of ``bsde``, ``solve`` on a market
config adds ``meanvar`` to that, ``simulate`` adds ``simulate`` to ``solve``
on a problem config, ``verify`` adds ``verify``, and ``frontier`` loads
everything but ``bsde``.
"""

from __future__ import annotations

import os

if not any(v in os.environ for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                     "MKL_NUM_THREADS")):
    os.environ["OMP_NUM_THREADS"] = "1"

# numpy loads before the standard modules below, and each command imports
# its own engine modules after all of them, when it runs
import numpy as np

from . import __version__
from .errors import NumericalError, ValidationError

import argparse
import hashlib
import json
import sys
from pathlib import Path


class _Parser(argparse.ArgumentParser):
    """Argparse variant that reports usage problems as validation errors."""

    def error(self, message):
        raise ValidationError(message)


def _fmt(v) -> str:
    return repr(float(v))


def _header_lines(meta: dict) -> list[str]:
    return [f"# {key}: {meta[key]}" for key in ("tool", "version", "config_sha256", "seed")]


def _write(path: Path, text: str | None = None) -> None:
    """Write ``text`` to the file ``path``, or make the directory ``path`` when text is None.

    Output paths are user input, so an ``OSError`` here is a validation error.
    """
    try:
        if text is None:
            path.mkdir(parents=True, exist_ok=True)
        else:
            path.write_text(text)
    except OSError as exc:
        raise ValidationError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _write_csv(path: Path, meta: dict, columns: list[str], rows) -> None:
    lines = _header_lines(meta)
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(_fmt(v) if isinstance(v, float) else str(v) for v in row))
    _write(path, "\n".join(lines) + "\n")


def _write_json(path: Path, payload: dict) -> None:
    _write(path, json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _load_config(path: str) -> tuple[dict, str]:
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise ValidationError(f"cannot read config {path}: {exc}") from exc
    try:
        cfg = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ValidationError(f"config {path} must be a JSON object")
    return cfg, hashlib.sha256(raw).hexdigest()


def _parse(parser, cfg: dict):
    """Run a config parser; a missing key or an ill-typed value is bad input."""
    try:
        return parser(cfg)
    except (LookupError, TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"malformed config: {type(exc).__name__}: {exc}") from exc


def _require_seed(args) -> int:
    # solve is fully deterministic, so the seed is optional there (recorded
    # as 0); every command that draws random numbers must be seeded
    if args.seed is None:
        if args.command == "solve":
            return 0
        raise ValidationError("seed required")
    return int(args.seed)


def _meta(config_hash: str, seed: int) -> dict:
    return {
        "tool": "regimelq",
        "version": __version__,
        "config_sha256": config_hash,
        "seed": seed,
    }


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="regimelq", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, paths_default):
        p.add_argument("--config", required=True, help="problem/market JSON config")
        p.add_argument("--seed", type=int, default=None, help="master seed (mandatory)")
        p.add_argument("--grid", type=int, default=200, help="time grid steps N")
        p.add_argument("--paths", type=int, default=paths_default, help="MC path count")
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument(
            "--workers",
            type=int,
            default=os.cpu_count() or 1,
            help="worker lanes for path chunks, one BLAS thread each unless "
                 "OMP_NUM_THREADS, OPENBLAS_NUM_THREADS or MKL_NUM_THREADS is set "
                 "(output-invariant)",
        )

    common(sub.add_parser("solve", help="solve the Riccati system, write CSV"), 0)
    p_sim = sub.add_parser("simulate", help="MC cost under the feedback law")
    common(p_sim, 100_000)
    p_sim.add_argument(
        "--dump-paths", type=int, default=0, help="write the first K paths as CSV"
    )
    common(sub.add_parser("verify", help="run the verification suite"), 100_000)
    common(sub.add_parser("frontier", help="mean-variance frontier sweep"), 10_000)
    p_bsde = sub.add_parser("bsde", help="regression solve with random coefficients")
    common(p_bsde, 100_000)
    p_bsde.add_argument("--degree", type=int, default=3, help="polynomial basis degree")
    return parser


def _cmd_solve(args, cfg, meta, out: Path) -> int:
    if cfg.get("kind") == "market":
        from .meanvar import market_from_config, mv_riccati

        problem, _ = _parse(market_from_config, cfg)
        grid = mv_riccati(problem, args.grid)
    else:
        from .model import problem_from_config
        from .riccati import solve_riccati

        problem = _parse(problem_from_config, cfg)
        grid = solve_riccati(problem, args.grid)
    n, m = problem.n, problem.m
    columns = (
        ["t", "regime"]
        + [f"P_{i}{j}" for i in range(n) for j in range(n)]
        + [f"Theta_{i}{j}" for i in range(m) for j in range(n)]
        + ["rhat_min_eig"]
    )
    rows = []
    for i, t in enumerate(grid.times):
        for k in range(grid.P.shape[1]):
            rows.append(
                [float(t), k + 1]
                + [float(v) for v in grid.P[i, k].ravel()]
                + [float(v) for v in grid.Theta[i, k].ravel()]
                + [float(grid.rhat_min_eig[i, k])]
            )
    _write_csv(out / "riccati.csv", meta, columns, rows)
    return 0


def _cmd_simulate(args, cfg, meta, out: Path) -> int:
    from .model import problem_from_config
    from .riccati import FeedbackLaw, solve_riccati
    from .simulate import mc_cost, simulate_closed_loop
    from .streams import derive_seed

    seed = meta["seed"]
    if args.dump_paths < 0:
        raise ValidationError("need --dump-paths >= 0")
    problem = _parse(problem_from_config, cfg)
    grid = solve_riccati(problem, args.grid)
    law = FeedbackLaw(problem, grid)
    est = mc_cost(problem, law, args.paths, seed, args.grid, workers=args.workers)
    payload = {
        "meta": meta,
        "estimate": {"mean": est.mean, "stderr": est.stderr, "n": est.n, "seed": est.seed},
        "value_quadratic_form": float(
            problem.x0 @ grid.P[0, problem.i0] @ problem.x0
        ),
    }
    _write_json(out / "estimate.json", payload)
    if args.dump_paths > 0:
        dump_dir = out / "paths"
        _write(dump_dir)
        for j in range(min(args.dump_paths, args.paths)):
            path = simulate_closed_loop(problem, law, args.grid, derive_seed(seed, "dump", j))
            columns = (
                ["t", "regime"]
                + [f"X_{i}" for i in range(problem.n)]
                + [f"u_{i}" for i in range(problem.m)]
                + ["dW"]
            )
            rows = []
            for i, t in enumerate(path.times):
                u = path.U[i] if i < len(path.U) else np.full(problem.m, np.nan)
                dw = float(path.dW[i]) if i < len(path.dW) else float("nan")
                rows.append(
                    [float(t), int(path.regimes[i]) + 1]
                    + [float(v) for v in path.X[i]]
                    + [float(v) for v in u]
                    + [dw]
                )
            _write_csv(dump_dir / f"path_{j:04d}.csv", meta, columns, rows)
    print(f"mean={est.mean!r} stderr={est.stderr!r} n={est.n}")
    return 0


def _cmd_verify(args, cfg, meta, out: Path) -> int:
    from .model import problem_from_config
    from .verify import run_standard_checks

    seed = meta["seed"]
    problem = _parse(problem_from_config, cfg)
    checks = run_standard_checks(
        problem, args.grid, args.paths, seed, workers=args.workers
    )
    payload = {"meta": meta, "checks": [c.to_json_dict() for c in checks]}
    _write_json(out / "verify_report.json", payload)
    for c in checks:
        print(f"{'PASS' if c.passed else 'FAIL'} {c.name}: "
              f"statistic={c.statistic!r} tolerance={c.tolerance!r}")
    return 0 if all(c.passed for c in checks) else 3


def _cmd_frontier(args, cfg, meta, out: Path) -> int:
    from .meanvar import efficient_frontier, market_from_config, mv_simulate_check
    from .streams import derive_seed

    seed = meta["seed"]
    problem, targets = _parse(market_from_config, cfg)
    if not targets:
        raise ValidationError("market config has no targets")
    points, grid = efficient_frontier(problem, targets, N=args.grid)
    columns = [
        "d", "mu", "gamma", "variance", "riccati_value_check",
        "mc_mean", "mc_mean_stderr", "mc_var", "mc_var_stderr",
    ]
    rows = []
    failed = False
    for idx, point in enumerate(points):
        mean_check, var_check = mv_simulate_check(
            problem, point, args.paths, derive_seed(seed, "point", idx),
            grid, workers=args.workers,
        )
        failed = failed or not (mean_check.passed and var_check.passed)
        rows.append([
            point.d, point.mu, point.gamma, point.variance, point.riccati_value_check,
            mean_check.details["mc_mean"], mean_check.stderr,
            var_check.details["mc_var"], var_check.stderr,
        ])
    _write_csv(out / "frontier.csv", meta, columns, rows)
    return 3 if failed else 0


def _cmd_bsde(args, cfg, meta, out: Path) -> int:
    from .bsde import backward_regression_solve, generate_training_paths, model_from_config

    seed = meta["seed"]
    model = _parse(model_from_config, cfg)
    bundle = generate_training_paths(model, args.paths, args.grid, seed)
    solution = backward_regression_solve(model, bundle, degree=args.degree)
    columns = (
        ["node", "regime", "t", "y_center", "y_scale"]
        + [f"w{p}" for p in range(args.degree + 1)]
        + [f"lambda_w{p}" for p in range(args.degree + 1)]
    )
    rows = []
    for i in range(solution.num_steps):
        for k in range(model.problem.num_regimes):
            rows.append(
                [i, k + 1, float(solution.times[i]),
                 float(solution.y_center[i]), float(solution.y_scale[i])]
                + [float(v) for v in solution.value_weights[i, k]]
                + [float(v) for v in solution.lambda_weights[i, k]]
            )
    _write_csv(out / "bsde_weights.csv", meta, columns, rows)
    p0 = solution.value_single(0, model.problem.i0, model.y0)
    print(f"P(0, regime {model.problem.i0 + 1}, y0) = {p0!r}")
    return 0


_MC_COMMANDS = ("simulate", "verify", "frontier")  # report Monte Carlo estimates

_COMMANDS = {
    "solve": _cmd_solve,
    "simulate": _cmd_simulate,
    "verify": _cmd_verify,
    "frontier": _cmd_frontier,
    "bsde": _cmd_bsde,
}


def _emit_error(exc: Exception) -> None:
    print(
        json.dumps({"error": type(exc).__name__, "message": str(exc)}),
        file=sys.stderr,
    )


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.grid < 2:
            raise ValidationError("need grid N >= 2")
        if args.workers < 1:
            raise ValidationError("need --workers >= 1")
        if args.command in _MC_COMMANDS:
            from .simulate import MIN_PATHS

            if args.paths < MIN_PATHS:
                raise ValidationError(f"need at least {MIN_PATHS} paths")
        seed = _require_seed(args)
        cfg, config_hash = _load_config(args.config)
        meta = _meta(config_hash, seed)
        out = Path(args.out)
        _write(out)
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            return _COMMANDS[args.command](args, cfg, meta, out)
    except ValidationError as exc:
        _emit_error(exc)
        return 1
    except (NumericalError, FloatingPointError, OverflowError) as exc:
        _emit_error(exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())
