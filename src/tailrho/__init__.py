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
    pointwise_variance,
    rule_of_thumb_degree,
    var_gain,
)
from .copula import (
    CopulaGrid,
    PseudoSample,
    TiesError,
    bernstein_copula,
    copula_grid,
    empirical_copula,
    jitter_margin,
    pseudo_observations,
)
from .estimators import (
    QuadratureError,
    TailRhoResult,
    normalizer,
    rho_hat_bernstein,
    rho_hat_empirical,
    rho_tail_population,
)
from .fgm import FgmModel
from .mc import (
    CellSummary,
    ExperimentConfig,
    degree_sweep,
    estimate_limit_variance,
    run_cell,
    run_table,
)
from .special import (
    TailWeights,
    kernel_vector,
    tail_weights,
)

__version__ = "0.1.0"

__all__ = [
    "AsymptoticReport",
    "CellSummary",
    "CopulaGrid",
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
    "bernstein_copula",
    "bias_coeff",
    "copula_grid",
    "degree_sweep",
    "empirical_copula",
    "estimate_limit_variance",
    "jitter_margin",
    "kernel_vector",
    "mse_expansions",
    "normalized_tail_integral",
    "normalizer",
    "optimal_degree",
    "pointwise_variance",
    "pseudo_observations",
    "rho_hat_bernstein",
    "rho_hat_empirical",
    "rho_tail_population",
    "rule_of_thumb_degree",
    "run_cell",
    "run_table",
    "tail_weights",
    "var_gain",
]
