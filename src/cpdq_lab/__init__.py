"""cpdq-lab: numerical laboratory for uncertainty-product mechanics."""

from .core import (
    Constants,
    DomainError,
    GapError,
    ModelViolationError,
    Potential,
    PotentialKind,
    eval_potential,
    natural_units,
    si_units,
)
from .variational import (
    Trajectory,
    VariationSeries,
    action_and_variation,
    custom_variation,
    first_order_dL,
    lagrangian_eval,
    special_variation,
)
from .dynamics import (
    IntegratorConfig,
    cpdq_diagnostics,
    energy_budget,
    integrate_hamilton,
    newton_uncertainty_residual,
)
from .thermo import (
    AdiabaticScan,
    PistonConfig,
    PistonRecord,
    ThermoSeries,
    adiabatic_scan,
    extended_quantities,
    heat_theorem_residual,
    piston_simulate,
)
from .quantum import (
    ConvergenceError,
    DispersionResult,
    EigenSolution,
    FisherMetrics,
    Grid1D,
    GridProblem,
    VariationalResult,
    WaveFunction,
    WkbProfile,
    appendix_a_consistency,
    cr_bound_check,
    dispersion_checks,
    fisher_metrics,
    local_wkb_profile,
    solve_tise,
    variational_ground_state,
)
from .info import (
    InfoLedger,
    RateBounds,
    RegimeLabel,
    RegimeReport,
    info_ledger,
    piston_regime_metrics,
    rate_bounds,
    regime_classify,
    trajectory_regime_metrics,
    wkb_regime_metrics,
)

__version__ = "0.1.0"
