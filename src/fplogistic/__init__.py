"""Nonlocal logistic equations: assembly, solvers, and verification.

The package discretizes the degenerate nonlocal p-Laplacian with exterior
zero condition on interval and rectangle domains by piecewise-constant cell
functions.  The weights of the singular double integral are closed forms in
1D; in 2D one tensor Gauss rule gives them, and a self-similar solve those
of touching cells; ``fold`` restricts them to the mirror-even functions.
On top of the full or folded weights it provides the principal eigenpair,
which carries its weights, descent solvers for the logistic energy in the
sub-, equi- and superdiffusive regimes, detection of the existence
threshold, a saddle search for the second solution, and structural
verification checks.
"""

from __future__ import annotations

__version__ = "0.1.0"

from .domain import (DomainSpec, Grid, GridError, ParamError, ProblemParams,
                     Regime, build_grid, classify_regime, validate_params)
from .eigen import EigenError, EigenPair, principal_eigenpair
from .kernel import (FoldedWeights, KernelError, KernelWeights, assemble, fold,
                     load_weights, save_weights)
from .logistic import (LogisticParams, TruncatedReaction, phi_functional,
                       torsion_functional, truncated_functional)
from .operator import (DiscreteFunction, GridMismatchError, apply_operator,
                       gagliardo_energy, lp_norm, signed_power)
from .solve import (BranchPoint, SolveOptions, SolveReport, SolverError,
                    Status, ThresholdReport, detect_threshold,
                    lower_bound_lambda0, minimize, mountain_pass,
                    solve_branch_point, torsion_solve, upper_bound_lambda_ray)
from .verify import (CheckResult, check_hopf, check_limit_branch,
                     check_nonexistence_equi, check_strict_order,
                     refinement_study, run_suite)

__all__ = [
    "__version__",
    "DomainSpec", "Grid", "GridError", "ParamError", "ProblemParams",
    "Regime", "build_grid", "classify_regime", "validate_params",
    "EigenError", "EigenPair", "principal_eigenpair",
    "FoldedWeights", "KernelError", "KernelWeights", "assemble", "fold",
    "load_weights", "save_weights",
    "LogisticParams", "TruncatedReaction", "phi_functional",
    "torsion_functional", "truncated_functional",
    "DiscreteFunction", "GridMismatchError", "apply_operator",
    "gagliardo_energy", "lp_norm", "signed_power",
    "BranchPoint", "SolveOptions", "SolveReport",
    "SolverError", "Status", "ThresholdReport", "detect_threshold",
    "lower_bound_lambda0", "minimize", "mountain_pass", "solve_branch_point",
    "torsion_solve", "upper_bound_lambda_ray",
    "CheckResult", "check_hopf", "check_limit_branch",
    "check_nonexistence_equi", "check_strict_order", "refinement_study",
    "run_suite",
]
