"""Regime-switching stochastic LQ control: solvers, simulation, verification."""

__version__ = "0.1.0"

from .chain import (
    ChainPath,
    GeneratorMatrix,
    martingale_residual,
    sample_chain_paths,
    sample_regimes_on_grid,
    validate_generator,
)
from .model import (
    CoefficientSet,
    ProblemSpec,
    make_problem,
    problem_from_config,
    problem_to_config,
    validate_problem,
    with_initial_state,
)
from .riccati import (
    FeedbackLaw,
    RiccatiGrid,
    rhat_certificate,
    solve_riccati,
)
from .simulate import (
    ControlTable,
    MCEstimate,
    PathRecord,
    PerturbedFeedback,
    mc_cost,
    mc_cost_diff,
    simulate_closed_loop,
)
from .verify import (
    CheckResult,
    LyapunovGrid,
    convexity_probe,
    lyapunov_identity_check,
    lyapunov_solve,
    perturbation_test,
    run_standard_checks,
    value_identity_check,
)
from .bsde import (
    BsdeSolution,
    PathBundle,
    RandomCoefficientModel,
    backward_regression_solve,
    bsde_residual,
    generate_training_paths,
    make_model,
)
from .meanvar import (
    FrontierPoint,
    MarketSpec,
    efficient_frontier,
    lagrange_solve,
    make_market,
    market_from_config,
    market_to_problem,
    mv_moment_odes,
    mv_riccati,
    mv_simulate_check,
)
