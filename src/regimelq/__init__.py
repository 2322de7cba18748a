"""Regime-switching stochastic LQ control: solvers, simulation, verification.

The public names load lazily (PEP 562): ``import regimelq`` imports no
submodule and so no numpy, and the first access to a name imports the
submodule that defines it.  That lets ``regimelq.cli`` choose the BLAS
thread default before numpy loads.
"""

from __future__ import annotations

import importlib

__version__ = "0.1.0"

_SOURCES = {
    "chain": (
        "ChainPath",
        "GeneratorMatrix",
        "sample_chain_paths",
        "sample_regimes_on_grid",
        "validate_generator",
    ),
    "model": (
        "Coefficients",
        "ProblemSpec",
        "make_problem",
        "problem_from_config",
        "with_initial_state",
    ),
    "riccati": (
        "FeedbackLaw",
        "RiccatiGrid",
        "rhat_certificate",
        "solve_riccati",
    ),
    "simulate": (
        "ControlTable",
        "MCEstimate",
        "PathRecord",
        "mc_cost",
        "mc_cost_diff",
        "simulate_closed_loop",
    ),
    "verify": (
        "CheckResult",
        "convexity_probe",
        "lyapunov_identity_check",
        "lyapunov_solve",
        "perturbation_test",
        "run_standard_checks",
        "value_identity_check",
    ),
    "bsde": (
        "BsdeSolution",
        "PathBundle",
        "RandomCoefficientModel",
        "backward_regression_solve",
        "generate_training_paths",
        "make_model",
    ),
    "meanvar": (
        "FrontierPoint",
        "efficient_frontier",
        "lagrange_solve",
        "make_market",
        "market_from_config",
        "mv_moment_odes",
        "mv_riccati",
        "mv_simulate_check",
    ),
}

# public name -> the submodule that defines it
_MODULE_OF = {name: module for module, names in _SOURCES.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
