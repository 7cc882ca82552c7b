"""ftqcost: resource estimation for fault-tolerant quantum computing.

Surface-code cost models, magic-state factory provisioning, a subroutine
cost catalog, four Fermi-Hubbard compilation schemes, and an end-to-end
estimator with a CLI front end.
"""

from .errors import (
    BudgetInfeasibleError,
    ConfigError,
    EstimatorError,
    InvalidDistanceError,
    MagicStarvedError,
    UndefinedRatioError,
)
from .estimator import (
    ComparisonRow,
    EstimateOptions,
    ResourceEstimate,
    SensitivityBand,
    compare,
    estimate,
    sensitivity,
    simple_estimate,
)
from .factories import (
    FactoryFleet,
    FactorySpec,
    builtin_catalog,
    cultivation_variant,
    factory_by_name,
    provision,
    t_budget_check,
)
from .fermi_hubbard import (
    SCHEMES,
    CompilationSummary,
    ErrorBudget,
    FHInstance,
    compile_scheme,
    layout_at,
    trotter_kappa,
    trotter_steps,
)
from .qec import (
    LogicalVolume,
    PhysicalAssumptions,
    choose_distance,
    logical_error_rate,
    patch_physical_qubits,
    wall_time,
)

__version__ = "1.0.0"

__all__ = [
    "BudgetInfeasibleError",
    "ComparisonRow",
    "CompilationSummary",
    "ConfigError",
    "ErrorBudget",
    "EstimateOptions",
    "EstimatorError",
    "FHInstance",
    "FactoryFleet",
    "FactorySpec",
    "InvalidDistanceError",
    "LogicalVolume",
    "MagicStarvedError",
    "PhysicalAssumptions",
    "ResourceEstimate",
    "SCHEMES",
    "SensitivityBand",
    "UndefinedRatioError",
    "builtin_catalog",
    "choose_distance",
    "compare",
    "compile_scheme",
    "cultivation_variant",
    "estimate",
    "factory_by_name",
    "layout_at",
    "logical_error_rate",
    "patch_physical_qubits",
    "provision",
    "sensitivity",
    "simple_estimate",
    "t_budget_check",
    "trotter_kappa",
    "trotter_steps",
    "wall_time",
]
