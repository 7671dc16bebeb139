"""Lower-tail Spearman's rho from bivariate data.

Two estimators: the raw empirical-copula plug-in and its Bernstein-smoothed
version, which trades a small deterministic bias for a variance reduction
that grows as the tail threshold shrinks.  A seeded Monte Carlo engine under
the FGM copula model quantifies the bias/variance/MSE trade-off, and a CLI
(`tailrho`) exposes estimation, simulation grids, degree sweeps, and the
first-order expansion quantities.
"""

from .asympt import (
    AsymptoticReport,
    DegenerateBiasError,
    MseExpansion,
    asymptotic_report,
    bias_coeff,
    mse_expansions,
    normalized_tail_integral,
    optimal_degree,
    rule_of_thumb_degree,
    var_gain,
)
from .copula import PseudoSample, TiesError, jitter_margin, pseudo_observations
from .estimators import TailRhoResult, normalizer, rho_hat_bernstein, rho_hat_empirical
from .fgm import FgmModel
from .mc import (
    CellSummary,
    ExperimentConfig,
    degree_sweep,
    run_cell,
    run_table,
)
from .quadrature import QuadratureError
from .special import TailWeights, tail_weights

__version__ = "0.1.0"

__all__ = [
    "AsymptoticReport",
    "CellSummary",
    "DegenerateBiasError",
    "ExperimentConfig",
    "FgmModel",
    "MseExpansion",
    "PseudoSample",
    "QuadratureError",
    "TailRhoResult",
    "TailWeights",
    "TiesError",
    "asymptotic_report",
    "bias_coeff",
    "degree_sweep",
    "jitter_margin",
    "mse_expansions",
    "normalized_tail_integral",
    "normalizer",
    "optimal_degree",
    "pseudo_observations",
    "rho_hat_bernstein",
    "rho_hat_empirical",
    "rule_of_thumb_degree",
    "run_cell",
    "run_table",
    "tail_weights",
    "var_gain",
]
