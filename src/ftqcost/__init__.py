"""ftqcost: resource estimation for fault-tolerant quantum computing.

Surface-code cost models, magic-state factory provisioning, a subroutine
cost catalog, four Fermi-Hubbard compilation schemes, and an end-to-end
estimator with a CLI front end.

Importing the package loads no submodule: each public name is imported
from its home module on first access, so a caller pays only for the
modules it reaches.
"""

import importlib

__version__ = "1.0.0"

# Every public name -> the submodule it lives in.
_HOMES = {
    "BudgetInfeasibleError": "errors",
    "ConfigError": "errors",
    "EstimatorError": "errors",
    "InvalidDistanceError": "errors",
    "MagicStarvedError": "errors",
    "UndefinedRatioError": "errors",
    "ComparisonRow": "estimator",
    "EstimateOptions": "estimator",
    "ResourceEstimate": "estimator",
    "SensitivityBand": "estimator",
    "compare": "estimator",
    "estimate": "estimator",
    "sensitivity": "estimator",
    "simple_estimate": "estimator",
    "FactoryFleet": "factories",
    "FactorySpec": "factories",
    "builtin_catalog": "factories",
    "cultivation_variant": "factories",
    "factory_by_name": "factories",
    "provision": "factories",
    "t_budget_check": "factories",
    "SCHEMES": "fermi_hubbard",
    "CompilationSummary": "fermi_hubbard",
    "ErrorBudget": "fermi_hubbard",
    "FHInstance": "fermi_hubbard",
    "compile_scheme": "fermi_hubbard",
    "layout_at": "fermi_hubbard",
    "trotter_kappa": "fermi_hubbard",
    "trotter_steps": "fermi_hubbard",
    "PhysicalAssumptions": "qec",
    "choose_distance": "qec",
    "logical_error_rate": "qec",
    "patch_physical_qubits": "qec",
}

__all__ = sorted(_HOMES)


def __getattr__(name: str):
    """Import ``name`` from its home module on first access (PEP 562)."""
    try:
        home = _HOMES[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f"{__name__}.{home}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOMES})


def checked(record):
    """The NamedTuple class ``record``, made to check its fields however it is built.

    A NamedTuple body may not define ``__new__``, so the record defines
    ``_new(cls, <its fields, in order>)``: it raises ValueError on a bad field
    and returns ``tuple.__new__(cls, <the fields>)``. ``_new`` becomes
    ``__new__``, with the fields' defaults, and ``_make``, through which
    ``_replace`` builds, calls it: each build runs the check in one frame."""
    record._new.__defaults__ = tuple(record._field_defaults.values())
    record.__new__ = staticmethod(record._new)
    record._make = classmethod(lambda cls, values: cls(*values))
    del record._new
    return record
